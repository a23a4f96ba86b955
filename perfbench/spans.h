// Host-time spans around every call the benchmark's traced run makes into a
// layer of the simulator, timed from outside the library.
//
// The traced run swaps in wrappers that leave the program's behaviour
// unchanged: a subclass of the scheduler (LotteryScheduler or
// smp::SmpScheduler, so Kernel::lottery()'s dynamic_cast still finds the
// ticket economy and kernel services keep their transfers), a forwarding
// ThreadBody per thread, and a forwarding SampleHook. Each opens a span on a
// stack, so a span's self time excludes the spans nested inside it — e.g. a
// Scheduler::OnReady reached from SimMutex::Release inside ThreadBody::Run is
// charged to the scheduler, not to the body. Everything outside any span is
// the kernel's own remainder (dispatch loop, event queue, slice accounting).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/kernel.h"

namespace perfbench {

using lottery::SimDuration;
using lottery::SimTime;
using lottery::ThreadId;

// What a span times. The first group is the scheduler layer, then one kind
// per ThreadBody type, the timeseries sampler, and two set-up calls.
enum class Op : uint8_t {
  kPick,
  kReady,
  kBlocked,
  kQuantumEnd,
  kAddThread,
  kRemoveThread,
  kTick,
  kBodyCompute,
  kBodyInteractive,
  kBodyMonteCarlo,
  kBodyMutexTask,
  kBodyQueryClient,
  kBodyQueryWorker,
  kSample,
  kSpawn,
  kFund,
  kCount,
};

inline constexpr size_t kNumOps = static_cast<size_t>(Op::kCount);

const char* OpName(Op op);
bool IsSchedOp(Op op);
bool IsBodyOp(Op op);

struct OpStats {
  uint64_t calls = 0;
  int64_t total_ns = 0;  // inclusive
  int64_t self_ns = 0;   // minus nested spans
};

using StatsTable = std::array<OpStats, kNumOps>;

class SpanRecorder {
 public:
  // Keeps at most `capacity` span records for WriteCsv; the per-op totals
  // count every span regardless.
  explicit SpanRecorder(size_t capacity);

  void Begin(Op op) { stack_.push_back(Frame{op, NowNs(), 0}); }
  void End();

  // Spans of one dispatch share its id; the scheduler wrapper advances it
  // at every pick.
  void NextDispatch() { ++dispatch_; }

  // Returns the per-op totals accumulated since the last call and restarts
  // them, so set-up, warm-up and the measured window are kept apart.
  StatsTable TakeStats();
  // Span records are kept only while recording is on (the measured window).
  void set_recording(bool on) { recording_ = on; }

  size_t records() const { return records_.size(); }
  uint64_t dropped() const { return dropped_; }
  // One line per kept span: dispatch,op,parent,start_ns,end_ns,self_ns; the
  // parent of a span no other span encloses is "kernel".
  void WriteCsv(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  struct Frame {
    Op op;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Record {
    uint64_t dispatch;
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
    Op op;
    Op parent;  // Op::kCount at top level
  };

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Frame> stack_;
  StatsTable stats_{};
  std::vector<Record> records_;
  size_t capacity_;
  uint64_t dropped_ = 0;
  uint64_t dispatch_ = 0;
  bool recording_ = false;
};

// Opens a span for the enclosing scope; a null recorder makes it a no-op
// (the untraced run's set-up code shares these call sites).
class Span {
 public:
  Span(SpanRecorder* spans, Op op) : spans_(spans) {
    if (spans_ != nullptr) {
      spans_->Begin(op);
    }
  }
  ~Span() {
    if (spans_ != nullptr) {
      spans_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* spans_;
};

// Times every Scheduler call of `Base` (LotteryScheduler or
// smp::SmpScheduler) by subclassing it: the kernel still sees the concrete
// scheduler type, so the run is the untraced run plus clock reads.
template <typename Base>
class Traced final : public Base {
 public:
  template <typename... Args>
  explicit Traced(SpanRecorder* spans, Args&&... args)
      : Base(std::forward<Args>(args)...), spans_(spans) {}

  void AddThread(ThreadId id, SimTime now) override {
    Span span(spans_, Op::kAddThread);
    Base::AddThread(id, now);
  }
  void RemoveThread(ThreadId id, SimTime now) override {
    Span span(spans_, Op::kRemoveThread);
    Base::RemoveThread(id, now);
  }
  void OnReady(ThreadId id, SimTime now) override {
    Span span(spans_, Op::kReady);
    Base::OnReady(id, now);
  }
  void OnBlocked(ThreadId id, SimTime now) override {
    Span span(spans_, Op::kBlocked);
    Base::OnBlocked(id, now);
  }
  // The kernel dispatches only through PickNextOnCpu; for LotteryScheduler
  // the inherited default forwards to its PickNext.
  ThreadId PickNextOnCpu(int cpu, SimTime now) override {
    spans_->NextDispatch();
    Span span(spans_, Op::kPick);
    return Base::PickNextOnCpu(cpu, now);
  }
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override {
    Span span(spans_, Op::kQuantumEnd);
    Base::OnQuantumEnd(id, used, quantum, now);
  }
  void Tick(SimTime now) override {
    Span span(spans_, Op::kTick);
    Base::Tick(now);
  }

 private:
  SpanRecorder* spans_;
};

// Forwards ThreadBody::Run to the real body inside a span of its kind.
class TracedBody final : public lottery::ThreadBody {
 public:
  TracedBody(std::unique_ptr<lottery::ThreadBody> inner, Op kind,
             SpanRecorder* spans)
      : inner_(std::move(inner)), kind_(kind), spans_(spans) {}

  void Run(lottery::RunContext& ctx) override {
    Span span(spans_, kind_);
    inner_->Run(ctx);
  }

 private:
  std::unique_ptr<lottery::ThreadBody> inner_;
  Op kind_;
  SpanRecorder* spans_;
};

// Forwards the kernel's sampling hook to the real sampler inside a span.
class TracedSampleHook final : public lottery::SampleHook {
 public:
  TracedSampleHook(lottery::SampleHook* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  int64_t Sample(SimTime now) override {
    Span span(spans_, Op::kSample);
    return inner_->Sample(now);
  }

 private:
  lottery::SampleHook* inner_;
  SpanRecorder* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
