// Streaming moment accumulators for population-scale statistics.
//
// At a million threads, keeping a per-thread sample vector (or even one
// histogram per thread) to report "how far is each thread's CPU share from
// its ticket-implied entitlement?" costs gigabytes. StreamingStats keeps the
// running count/mean/M2 of a distribution in 32 bytes using Welford's
// online update, so per-population share-error statistics stay O(1) memory
// regardless of how many threads contribute one sample each.
//
// Accumulators are mergeable (Chan et al.'s pairwise-combination formula),
// so shards filled independently — per chunk of the thread table, per run —
// combine into the same result as one big accumulator, up to floating-point
// rounding. Merging is what lets the scale bench walk a ChunkedVector of a
// million thread records chunk-by-chunk and still report one mean/stddev.
//
// Everything is deterministic: no allocation, no global state, results are
// a pure fold over the Add/Merge call sequence.

#ifndef SRC_OBS_STREAMING_H_
#define SRC_OBS_STREAMING_H_

#include <cstdint>
#include <string>

namespace lottery {
namespace obs {

class StreamingStats {
 public:
  // Folds one observation into the running moments (Welford's update).
  void Add(double value);

  // Combines another accumulator into this one as if its observations had
  // been Add()ed here. Order-insensitive up to floating-point rounding.
  void Merge(const StreamingStats& other);

  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Population variance (divide by n). 0 with fewer than two observations.
  double variance() const;
  double stddev() const;
  // Sample variance (divide by n - 1). 0 with fewer than two observations.
  double sample_variance() const;
  double sample_stddev() const;

  // "count=... mean=... stddev=... min=... max=..." for text output.
  std::string Summary() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace obs
}  // namespace lottery

#endif  // SRC_OBS_STREAMING_H_
