#include "src/obs/etrace/export.h"

#include "src/obs/json_writer.h"

namespace lottery {
namespace etrace {
namespace {

// All tracks share one synthetic process; tid 0 is a virtual "scheduler"
// track carrying decisions, currency/transfer activity, and fault firings
// (none of which belong to a single simulated thread).
constexpr int kPid = 1;
constexpr uint32_t kSchedulerTid = 0;

double ToUs(int64_t t_ns) { return static_cast<double>(t_ns) / 1000.0; }
double ToUs(uint64_t t_ns) { return static_cast<double>(t_ns) / 1000.0; }

// Opens one trace-event object and writes the common fields; the caller
// adds args (or more fields) and closes the object.
obs::JsonWriter& Begin(obs::JsonWriter& w, const char* name, const char* ph,
                       uint32_t tid, int64_t t_ns) {
  w.BeginObject()
      .Key("name").String(name)
      .Key("ph").String(ph)
      .Key("pid").Int(kPid)
      .Key("tid").Uint(tid)
      .Key("ts").Double(ToUs(t_ns));
  return w;
}

obs::JsonWriter& BeginInstant(obs::JsonWriter& w, const char* name,
                              uint32_t tid, int64_t t_ns) {
  Begin(w, name, "i", tid, t_ns).Key("s").String("t");
  return w;
}

void ThreadNameMeta(obs::JsonWriter& w, uint32_t tid,
                    const std::string& name) {
  w.BeginObject()
      .Key("name").String("thread_name")
      .Key("ph").String("M")
      .Key("pid").Int(kPid)
      .Key("tid").Uint(tid)
      .Key("args").BeginObject().Key("name").String(name).EndObject()
      .EndObject();
}

}  // namespace

std::string ToChromeTraceJson(const TraceFile& trace) {
  obs::JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();

  w.BeginObject()
      .Key("name").String("process_name")
      .Key("ph").String("M")
      .Key("pid").Int(kPid)
      .Key("args").BeginObject()
      .Key("name").String("lottery-sim").EndObject()
      .EndObject();
  ThreadNameMeta(w, kSchedulerTid, "scheduler");

  for (const Event& e : trace.events) {
    switch (static_cast<EventType>(e.type)) {
      case EventType::kThreadName:
        ThreadNameMeta(w, e.a, trace.Name(e.name));
        break;
      case EventType::kSlice:
        Begin(w, SliceDispositionName(e.flags), "X", e.a, e.t_ns)
            .Key("cat").String("sched")
            .Key("dur").Double(ToUs(e.v1))
            .Key("args").BeginObject()
            .Key("cpu").Uint(e.b).EndObject()
            .EndObject();
        break;
      case EventType::kWake:
        BeginInstant(w, "wake", e.a, e.t_ns).EndObject();
        break;
      case EventType::kDecision:
        BeginInstant(w, "decision", kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("winner").Uint(e.a)
            .Key("random").Uint(e.v1)
            .Key("total").Uint(e.v2)
            .Key("winner_tickets").Uint(e.v3)
            .Key("backend")
            .String((e.flags & kDecisionTree) != 0 ? "tree" : "list")
            .Key("fallback").Bool((e.flags & kDecisionFallback) != 0)
            .EndObject()
            .EndObject();
        break;
      case EventType::kCandidate:
        BeginInstant(w, "candidate", kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("tid").Uint(e.a)
            .Key("index").Uint(e.b)
            .Key("tickets").Uint(e.v1)
            .EndObject()
            .EndObject();
        break;
      case EventType::kCurrencyCreate:
      case EventType::kCurrencyDestroy:
      case EventType::kCurrencyRetire:
      case EventType::kReprice:
        BeginInstant(w, EventTypeName(e.type), kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("currency").String(trace.Name(e.name))
            .Key("value").Uint(e.v1)
            .EndObject()
            .EndObject();
        break;
      case EventType::kFund:
      case EventType::kUnfund:
        BeginInstant(w, EventTypeName(e.type), kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("currency").String(trace.Name(e.name))
            .Key("ticket").Uint(e.a)
            .Key("amount").Uint(e.v1)
            .EndObject()
            .EndObject();
        break;
      case EventType::kTransferStart:
      case EventType::kTransferRetarget:
      case EventType::kTransferEnd:
        BeginInstant(w, EventTypeName(e.type), kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("ticket").Uint(e.a)
            .Key("target").String(trace.Name(e.name))
            .Key("amount").Uint(e.v1)
            .EndObject()
            .EndObject();
        break;
      case EventType::kRpcSend:
        // Flow start; the arrow binds to the enclosing CPU slice of the
        // sending thread and terminates at the reply ("f") below.
        Begin(w, "rpc", "s", e.a, e.t_ns)
            .Key("cat").String("rpc")
            .Key("id").Uint(e.v1)
            .Key("args").BeginObject()
            .Key("port").String(trace.Name(e.name))
            .Key("payload").Uint(e.v2)
            .EndObject()
            .EndObject();
        break;
      case EventType::kRpcRecv:
        Begin(w, "rpc", "t", e.a, e.t_ns)
            .Key("cat").String("rpc")
            .Key("id").Uint(e.v1)
            .EndObject();
        break;
      case EventType::kRpcReply:
        Begin(w, "rpc", "f", e.a, e.t_ns)
            .Key("cat").String("rpc")
            .Key("id").Uint(e.v1)
            .Key("bp").String("e")
            .Key("args").BeginObject()
            .Key("client").Uint(e.b)
            .Key("latency_us").Double(ToUs(e.v2))
            .EndObject()
            .EndObject();
        break;
      case EventType::kMutexAcquire:
      case EventType::kMutexContend:
      case EventType::kMutexRelease:
        BeginInstant(w, EventTypeName(e.type), e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("mutex").String(trace.Name(e.name))
            .EndObject()
            .EndObject();
        break;
      case EventType::kMutexGrant:
        BeginInstant(w, "mutex_grant", e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("mutex").String(trace.Name(e.name))
            .Key("waited_us").Double(ToUs(e.v1))
            .EndObject()
            .EndObject();
        break;
      case EventType::kDiskSubmit:
        BeginInstant(w, "disk_submit", e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("disk").String(trace.Name(e.name))
            .Key("bytes").Uint(e.v1)
            .EndObject()
            .EndObject();
        break;
      case EventType::kDiskComplete:
        BeginInstant(w, "disk_complete", e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("disk").String(trace.Name(e.name))
            .Key("bytes").Uint(e.v1)
            .Key("delay_us").Double(ToUs(e.v2))
            .Key("retried").Bool(e.flags != 0)
            .EndObject()
            .EndObject();
        break;
      case EventType::kFault:
        BeginInstant(w, "fault", kSchedulerTid, e.t_ns)
            .Key("args").BeginObject()
            .Key("class").String(trace.Name(e.name))
            .EndObject()
            .EndObject();
        break;
      case EventType::kSteal:
      case EventType::kMigrate:
        BeginInstant(w, EventTypeName(e.type), e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("from_cpu").Uint(e.v1)
            .Key("to_cpu").Uint(e.b)
            .Key("value").Uint(e.v2)
            .EndObject()
            .EndObject();
        break;
      case EventType::kLagAnomaly:
      case EventType::kStarvation:
      case EventType::kShareError:
        BeginInstant(w, EventTypeName(e.type), e.a, e.t_ns)
            .Key("args").BeginObject()
            .Key("value").Uint(e.v1)
            .Key("bound").Uint(e.v2)
            .EndObject()
            .EndObject();
        break;
      case EventType::kNone:
        break;
    }
  }

  w.EndArray()
      .Key("displayTimeUnit").String("ms")
      .Key("otherData").BeginObject()
      .Key("seed").Uint(trace.seed)
      .Key("category_mask").Uint(trace.mask)
      .Key("overwritten").Uint(trace.overwritten)
      .Key("events").Uint(trace.events.size())
      .EndObject()
      .EndObject();
  return w.str();
}

}  // namespace etrace
}  // namespace lottery
