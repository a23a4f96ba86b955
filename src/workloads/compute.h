// Compute-bound workload bodies.
//
// ComputeTask is the Dhrystone stand-in used throughout Section 5: a task
// whose "iterations" accrue in exact proportion to the CPU it receives, so
// relative iteration rates equal relative CPU shares. UnitWorkTask is the
// shared chassis: a fixed CPU cost per work unit, with partial units carried
// across slices; VideoViewer (video.h) and MonteCarloTask (montecarlo.h)
// reuse it. A slice's units are finished in closed form
// (RunContext::ConsumeUnits), each one still reported as progress at its
// own completion instant, and subclasses see them as a count per slice.
//
// YieldingTask consumes a fixed fraction of each quantum then yields — the
// Section 4.5 compensation-ticket scenario (thread B that uses 20 ms of
// each 100 ms quantum). InteractiveTask alternates short bursts with
// sleeps, approximating I/O-bound behaviour.

#ifndef SRC_WORKLOADS_COMPUTE_H_
#define SRC_WORKLOADS_COMPUTE_H_

#include <cstdint>

#include "src/sim/kernel.h"

namespace lottery {

// Performs units of work, each costing `unit_cost` of CPU; one progress
// tick per completed unit. Subclasses may hook slice completion.
class UnitWorkTask : public ThreadBody {
 public:
  explicit UnitWorkTask(SimDuration unit_cost);

  void Run(RunContext& ctx) final;

  int64_t units_done() const { return units_done_; }

 protected:
  // Called once per slice, just before the body returns, with the `units`
  // completed in the slice (already counted in units_done() and reported
  // as progress).
  virtual void OnSliceEnd(RunContext& /*ctx*/, int64_t /*units*/) {}

 private:
  SimDuration unit_cost_;
  SimDuration partial_{};
  int64_t units_done_ = 0;
};

// The Dhrystone stand-in: pure compute, progress == iterations.
class ComputeTask : public UnitWorkTask {
 public:
  struct Options {
    // CPU cost of one iteration. 40 us -> 25k iterations per CPU-second,
    // matching the magnitude the paper reports for its DECStation.
    SimDuration iteration_cost = SimDuration::Micros(40);
  };
  ComputeTask() : ComputeTask(Options{}) {}
  explicit ComputeTask(Options options)
      : UnitWorkTask(options.iteration_cost) {}
};

// Consumes `burst` of each quantum, then yields (Section 4.5's fractional
// quantum consumer). Progress ticks once per completed burst.
class YieldingTask : public ThreadBody {
 public:
  explicit YieldingTask(SimDuration burst) : burst_(burst) {}

  void Run(RunContext& ctx) override;

  int64_t bursts_done() const { return bursts_done_; }

 private:
  SimDuration burst_;
  SimDuration left_{};
  bool in_burst_ = false;
  int64_t bursts_done_ = 0;
};

// Computes for `burst`, then sleeps for `think`: an interactive/I/O-bound
// client. Progress ticks once per burst.
class InteractiveTask : public ThreadBody {
 public:
  InteractiveTask(SimDuration burst, SimDuration think)
      : burst_(burst), think_(think) {}

  void Run(RunContext& ctx) override;

  int64_t interactions() const { return interactions_; }

 private:
  SimDuration burst_;
  SimDuration think_;
  SimDuration left_{};
  bool in_burst_ = false;
  int64_t interactions_ = 0;
};

}  // namespace lottery

#endif  // SRC_WORKLOADS_COMPUTE_H_
