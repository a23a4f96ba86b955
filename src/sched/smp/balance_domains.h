// Hierarchical balancing domains for the partitioned SMP scheduler.
//
// CPUs are grouped the way hardware is: a CPU shares an L2 with its core
// pair, a last-level cache with its package, and memory with everything
// else. The rebalancer in smp_scheduler.cc walks these levels inside-out —
// prefer stealing from a sibling before crossing the package boundary —
// and scales both its imbalance threshold and its crossbar-priced
// migration cost with the level it had to widen to.
//
// The map is pure topology: fixed at construction, no per-dispatch state,
// so domain iteration is a deterministic function of (num_cpus, cpu, level).

#ifndef SRC_SCHED_SMP_BALANCE_DOMAINS_H_
#define SRC_SCHED_SMP_BALANCE_DOMAINS_H_

#include <vector>

namespace lottery {
namespace smp {

// A contiguous CPU range [first, first + count).
struct Domain {
  int first = 0;
  int count = 0;
};

class DomainMap {
 public:
  // Groups `num_cpus` CPUs into core pairs (2 CPUs), packages (8) and one
  // system-wide domain. Levels that would not widen the previous one (e.g.
  // the package level on a 2-CPU machine) collapse away, so every level
  // strictly grows the candidate set.
  explicit DomainMap(int num_cpus);

  int num_cpus() const { return num_cpus_; }
  // Number of widening levels; 0 on a uniprocessor (nothing to balance).
  int num_levels() const { return static_cast<int>(sizes_.size()); }
  // The domain containing `cpu` at `level` (0 = innermost).
  Domain At(int cpu, int level) const;

 private:
  int num_cpus_;
  // Strictly increasing domain sizes, last == num_cpus_.
  std::vector<int> sizes_;
};

}  // namespace smp
}  // namespace lottery

#endif  // SRC_SCHED_SMP_BALANCE_DOMAINS_H_
