// Compact typed events for the structured trace (src/obs/etrace/).
//
// An Event is a 48-byte POD: a sim timestamp, three 64-bit payload words,
// two 32-bit ids, an interned-string id, a type tag, and a flags word. The
// meaning of the payload fields depends on the type (documented per
// enumerator below). Events never carry owned strings — names are interned
// into the TraceBuffer's string table at registration time, so recording
// stays allocation-free.
//
// The schema is append-only: enumerator values are stable across versions
// because trace files written by one build must load in another (that is
// what makes `tracectl diff` across a refactor meaningful).

#ifndef SRC_OBS_ETRACE_EVENT_H_
#define SRC_OBS_ETRACE_EVENT_H_

#include <cstdint>

namespace lottery {
namespace etrace {

// Per-category runtime enable bits (TraceBuffer::mask()). A category that
// is masked off costs one load+test per hook; see On() in trace_buffer.h.
enum Category : uint32_t {
  kCatSched = 1u << 0,            // slices, wakes, thread names
  kCatLottery = 1u << 1,          // decision events
  kCatLotterySnapshot = 1u << 2,  // per-decision candidate dumps (verbose)
  kCatCurrency = 1u << 3,         // currency create/destroy/fund/reprice
  kCatTransfer = 1u << 4,         // ticket-transfer lifecycle
  kCatRpc = 1u << 5,              // send/receive/reply with span ids
  kCatMutex = 1u << 6,            // acquire/contend/grant/release
  kCatDisk = 1u << 7,             // request submit/complete
  kCatFault = 1u << 8,            // fault-injector firings
  kCatTimeseries = 1u << 9,       // fairness-lag auditor anomalies
};

inline constexpr uint32_t kAllCategories = (1u << 10) - 1u;
// kCatLotterySnapshot emits one event per runnable client per decision;
// it is opt-in (tracectl record --snapshots) rather than default.
inline constexpr uint32_t kDefaultCategories =
    kAllCategories & ~static_cast<uint32_t>(kCatLotterySnapshot);

// Stable type tags. Field conventions: `a`/`b` are small ids (thread id,
// cpu, slot); `name` is an interned-string id (0 = none); `v1..v3` are
// type-specific 64-bit payloads.
enum class EventType : uint16_t {
  kNone = 0,
  // a=tid, name=thread name. Emitted once at Spawn.
  kThreadName = 1,
  // a=tid, b=cpu, t_ns=slice start, v1=cpu used (ns), flags=disposition
  // (kSlice* constants below).
  kSlice = 2,
  // a=tid, t_ns=wake time. Unblock/timer wake entering the run queue.
  kWake = 3,
  // a=winner tid, v1=drawn random value, v2=total tickets (base units),
  // v3=winner's ticket value, flags=kDecision* bits.
  kDecision = 4,
  // a=tid, b=draw-order index, v1=client ticket value. Snapshot of one
  // runnable client, recorded immediately before its kDecision.
  kCandidate = 5,
  // name=currency name. v1=initial amount for kFund/kUnfund.
  kCurrencyCreate = 6,
  kCurrencyDestroy = 7,
  kCurrencyRetire = 8,
  // name=funded currency, a=ticket id, v1=amount.
  kFund = 9,
  kUnfund = 10,
  // name=currency, v1=new value (base units), v2=amount denominated.
  kReprice = 11,
  // a=ticket id, name=target currency, v1=amount.
  kTransferStart = 12,
  kTransferRetarget = 13,
  kTransferEnd = 14,
  // a=client tid, v1=span id, v2=payload, name=port.
  kRpcSend = 15,
  // a=server tid, v1=span id, name=port.
  kRpcRecv = 16,
  // a=server tid, b=client tid, v1=span id, v2=latency (ns), name=port.
  kRpcReply = 17,
  // a=tid, name=mutex. Uncontended acquisition.
  kMutexAcquire = 18,
  // a=tid, name=mutex. Caller joined the wait queue.
  kMutexContend = 19,
  // a=tid, v1=waited (ns), name=mutex. Waiter won the release lottery.
  kMutexGrant = 20,
  // a=tid, name=mutex.
  kMutexRelease = 21,
  // a=client tid, v1=bytes, name=disk.
  kDiskSubmit = 22,
  // a=client tid, v1=bytes, v2=queue+service delay (ns), flags=1 if the
  // request timed out and was retried at least once, name=disk.
  kDiskComplete = 23,
  // a=fault class (FaultClass enumerator), name=class name.
  kFault = 24,
  // SMP work stealing (src/sched/smp/). a=tid, b=destination cpu,
  // v1=source cpu, v2=stolen ticket value (raw Funding units).
  // kSteal: idle CPU pulled work; kMigrate: periodic rebalance moved it
  // (v3=ticket imbalance that triggered the move).
  kSteal = 25,
  kMigrate = 26,
  // Fairness-lag auditor (src/obs/timeseries/). a=tid, v1=|observed| value,
  // v2=the bound it crossed (both in the unit the kind implies: ns for lag
  // and starvation, share-error permille for kShareError). Emitted on the
  // rising edge of each anomaly only; recovery is not an event.
  kLagAnomaly = 27,
  kStarvation = 28,
  kShareError = 29,
};

inline constexpr uint16_t kNumEventTypes = 30;

// kSlice disposition values (flags field).
inline constexpr uint16_t kSlicePreempt = 0;
inline constexpr uint16_t kSliceYield = 1;
inline constexpr uint16_t kSliceSleep = 2;
inline constexpr uint16_t kSliceBlock = 3;
inline constexpr uint16_t kSliceExit = 4;

// kDecision flag bits.
inline constexpr uint16_t kDecisionTree = 1u << 0;      // tree backend
inline constexpr uint16_t kDecisionFallback = 1u << 1;  // zero-funding RR
// Bit 2 is retired (it marked alias-table draws); do not reuse it, so old
// traces never decode with a different meaning.
// Winner was served from a speculative draw batch formed k quanta ago
// (bit-identical to an unbatched draw; flag is informational).
inline constexpr uint16_t kDecisionBatched = 1u << 3;

struct Event {
  int64_t t_ns = 0;
  uint64_t v1 = 0;
  uint64_t v2 = 0;
  uint64_t v3 = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t name = 0;
  uint16_t type = 0;
  uint16_t flags = 0;
};
static_assert(sizeof(Event) == 48, "Event must stay compact and padding-free");

constexpr uint32_t CategoryOf(EventType type) {
  switch (type) {
    case EventType::kThreadName:
    case EventType::kSlice:
    case EventType::kWake:
    case EventType::kSteal:
    case EventType::kMigrate:
      return kCatSched;
    case EventType::kDecision:
      return kCatLottery;
    case EventType::kCandidate:
      return kCatLotterySnapshot;
    case EventType::kCurrencyCreate:
    case EventType::kCurrencyDestroy:
    case EventType::kCurrencyRetire:
    case EventType::kFund:
    case EventType::kUnfund:
    case EventType::kReprice:
      return kCatCurrency;
    case EventType::kTransferStart:
    case EventType::kTransferRetarget:
    case EventType::kTransferEnd:
      return kCatTransfer;
    case EventType::kRpcSend:
    case EventType::kRpcRecv:
    case EventType::kRpcReply:
      return kCatRpc;
    case EventType::kMutexAcquire:
    case EventType::kMutexContend:
    case EventType::kMutexGrant:
    case EventType::kMutexRelease:
      return kCatMutex;
    case EventType::kDiskSubmit:
    case EventType::kDiskComplete:
      return kCatDisk;
    case EventType::kFault:
      return kCatFault;
    case EventType::kLagAnomaly:
    case EventType::kStarvation:
    case EventType::kShareError:
      return kCatTimeseries;
    case EventType::kNone:
      return 0;
  }
  return 0;
}

constexpr const char* EventTypeName(uint16_t type) {
  switch (static_cast<EventType>(type)) {
    case EventType::kNone: return "none";
    case EventType::kThreadName: return "thread_name";
    case EventType::kSlice: return "slice";
    case EventType::kWake: return "wake";
    case EventType::kDecision: return "decision";
    case EventType::kCandidate: return "candidate";
    case EventType::kCurrencyCreate: return "currency_create";
    case EventType::kCurrencyDestroy: return "currency_destroy";
    case EventType::kCurrencyRetire: return "currency_retire";
    case EventType::kFund: return "fund";
    case EventType::kUnfund: return "unfund";
    case EventType::kReprice: return "reprice";
    case EventType::kTransferStart: return "transfer_start";
    case EventType::kTransferRetarget: return "transfer_retarget";
    case EventType::kTransferEnd: return "transfer_end";
    case EventType::kRpcSend: return "rpc_send";
    case EventType::kRpcRecv: return "rpc_recv";
    case EventType::kRpcReply: return "rpc_reply";
    case EventType::kMutexAcquire: return "mutex_acquire";
    case EventType::kMutexContend: return "mutex_contend";
    case EventType::kMutexGrant: return "mutex_grant";
    case EventType::kMutexRelease: return "mutex_release";
    case EventType::kDiskSubmit: return "disk_submit";
    case EventType::kDiskComplete: return "disk_complete";
    case EventType::kFault: return "fault";
    case EventType::kSteal: return "steal";
    case EventType::kMigrate: return "migrate";
    case EventType::kLagAnomaly: return "lag_anomaly";
    case EventType::kStarvation: return "starvation";
    case EventType::kShareError: return "share_error";
  }
  return "unknown";
}

constexpr const char* SliceDispositionName(uint16_t flags) {
  switch (flags) {
    case kSlicePreempt: return "preempt";
    case kSliceYield: return "yield";
    case kSliceSleep: return "sleep";
    case kSliceBlock: return "block";
    case kSliceExit: return "exit";
    default: return "slice";
  }
}

}  // namespace etrace
}  // namespace lottery

#endif  // SRC_OBS_ETRACE_EVENT_H_
