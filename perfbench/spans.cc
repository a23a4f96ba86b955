#include "perfbench/spans.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kPick:
      return "sched.pick";
    case Op::kReady:
      return "sched.ready";
    case Op::kBlocked:
      return "sched.blocked";
    case Op::kQuantumEnd:
      return "sched.quantum_end";
    case Op::kAddThread:
      return "sched.add_thread";
    case Op::kRemoveThread:
      return "sched.remove_thread";
    case Op::kTick:
      return "sched.tick";
    case Op::kBodyCompute:
      return "body.compute";
    case Op::kBodyInteractive:
      return "body.interactive";
    case Op::kBodyMonteCarlo:
      return "body.montecarlo";
    case Op::kBodyMutexTask:
      return "body.mutex_task";
    case Op::kBodyQueryClient:
      return "body.query_client";
    case Op::kBodyQueryWorker:
      return "body.query_worker";
    case Op::kSample:
      return "ts.sample";
    case Op::kSpawn:
      return "setup.spawn";
    case Op::kFund:
      return "setup.fund";
    case Op::kCount:
      break;
  }
  return "kernel";
}

bool IsSchedOp(Op op) { return op <= Op::kTick; }

bool IsBodyOp(Op op) {
  return op >= Op::kBodyCompute && op <= Op::kBodyQueryWorker;
}

SpanRecorder::SpanRecorder(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {
  stack_.reserve(16);
  records_.reserve(capacity);
}

void SpanRecorder::End() {
  const int64_t end_ns = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t total_ns = end_ns - frame.start_ns;
  const int64_t self_ns = total_ns - frame.child_ns;
  OpStats& stats = stats_[static_cast<size_t>(frame.op)];
  ++stats.calls;
  stats.total_ns += total_ns;
  stats.self_ns += self_ns;
  Op parent = Op::kCount;
  if (!stack_.empty()) {
    stack_.back().child_ns += total_ns;
    parent = stack_.back().op;
  }
  if (recording_) {
    if (records_.size() < capacity_) {
      records_.push_back(
          Record{dispatch_, frame.start_ns, end_ns, self_ns, frame.op, parent});
    } else {
      ++dropped_;
    }
  }
}

StatsTable SpanRecorder::TakeStats() {
  StatsTable taken = stats_;
  stats_ = StatsTable{};
  return taken;
}

void SpanRecorder::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  out << "dispatch,op,parent,start_ns,end_ns,self_ns\n";
  for (const Record& r : records_) {
    out << r.dispatch << ',' << OpName(r.op) << ',' << OpName(r.parent) << ','
        << r.start_ns << ',' << r.end_ns << ',' << r.self_ns << '\n';
  }
  if (!out) {
    throw std::runtime_error("short write of spans to " + path);
  }
}

}  // namespace perfbench
