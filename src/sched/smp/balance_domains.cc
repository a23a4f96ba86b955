#include "src/sched/smp/balance_domains.h"

#include <stdexcept>

namespace lottery {
namespace smp {

namespace {

// CPUs per core pair and per package.
constexpr int kPairSize = 2;
constexpr int kPackageSize = 8;
static_assert(2 <= kPairSize && kPairSize < kPackageSize,
              "each level must widen the one inside it");

}  // namespace

DomainMap::DomainMap(int num_cpus) : num_cpus_(num_cpus) {
  if (num_cpus < 1) {
    throw std::invalid_argument("DomainMap: need at least one CPU");
  }
  for (const int size : {kPairSize, kPackageSize}) {
    if (size >= num_cpus) {
      break;  // the system-wide level already covers it
    }
    sizes_.push_back(size);
  }
  if (num_cpus >= 2) {
    sizes_.push_back(num_cpus);
  }
}

Domain DomainMap::At(int cpu, int level) const {
  if (cpu < 0 || cpu >= num_cpus_) {
    throw std::out_of_range("DomainMap::At: cpu out of range");
  }
  if (level < 0 || level >= num_levels()) {
    throw std::out_of_range("DomainMap::At: level out of range");
  }
  const int size = sizes_[static_cast<size_t>(level)];
  Domain d;
  d.first = (cpu / size) * size;
  // The trailing domain of an uneven topology is simply smaller.
  d.count = (d.first + size <= num_cpus_) ? size : num_cpus_ - d.first;
  return d;
}

}  // namespace smp
}  // namespace lottery
