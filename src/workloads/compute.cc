#include "src/workloads/compute.h"

#include <stdexcept>

namespace lottery {

UnitWorkTask::UnitWorkTask(SimDuration unit_cost) : unit_cost_(unit_cost) {
  if (unit_cost.nanos() <= 0) {
    throw std::invalid_argument("UnitWorkTask: unit cost must be positive");
  }
}

void UnitWorkTask::Run(RunContext& ctx) {
  const int64_t units = ctx.ConsumeUnits(unit_cost_, &partial_);
  units_done_ += units;
  OnSliceEnd(ctx, units);
}

void YieldingTask::Run(RunContext& ctx) {
  if (!in_burst_) {
    in_burst_ = true;
    left_ = burst_;
  }
  left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
  if (left_.nanos() > 0) {
    // Quantum ended mid-burst; finish the burst next dispatch (preempted).
    return;
  }
  in_burst_ = false;
  ++bursts_done_;
  ctx.AddProgress(1);
  if (ctx.remaining().nanos() > 0) {
    ctx.Yield();
  }
}

void InteractiveTask::Run(RunContext& ctx) {
  if (!in_burst_) {
    in_burst_ = true;
    left_ = burst_;
  }
  left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
  if (left_.nanos() > 0) {
    return;  // preempted mid-burst
  }
  in_burst_ = false;
  ++interactions_;
  ctx.AddProgress(1);
  ctx.SleepFor(think_);
}

}  // namespace lottery
