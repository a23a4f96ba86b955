// Unit tests for the structured event trace (src/obs/etrace/): the bounded
// ring with explicit overwrite accounting, string interning, category
// gating, binary round-trips, and — the load-bearing one — a ground-truth
// replay of the lottery decision stream against the per-decision candidate
// snapshots, for both run-queue backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/etrace/event.h"
#include "src/obs/etrace/export.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/json_reader.h"
#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/util/sim_time.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace etrace {
namespace {

Event MakeEvent(uint16_t type, uint32_t a, int64_t t_ns) {
  Event e;
  e.type = type;
  e.a = a;
  e.t_ns = t_ns;
  return e;
}

TEST(TraceBuffer, RingOverwritesOldestAndCountsEveryLoss) {
  TraceBuffer trace(/*capacity=*/4, kAllCategories);
  for (uint32_t i = 0; i < 6; ++i) {
    trace.Append(MakeEvent(/*type=*/1, /*a=*/i, /*t_ns=*/i));
  }
  if (!obs::kObsEnabled) {
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.overwritten(), 0u);
    return;
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.overwritten(), 2u);
  // Oldest retained is event 2; chronological order is preserved.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.At(i).a, static_cast<uint32_t>(i + 2));
  }
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.overwritten(), 0u);
}

TEST(TraceBuffer, InternIsStableAndIdZeroIsReserved) {
  TraceBuffer trace(/*capacity=*/8);
  const uint32_t alice = trace.Intern("alice");
  const uint32_t bob = trace.Intern("bob");
  EXPECT_NE(alice, 0u);
  EXPECT_NE(bob, 0u);
  EXPECT_NE(alice, bob);
  EXPECT_EQ(trace.Intern("alice"), alice);
  EXPECT_EQ(trace.Name(alice), "alice");
  EXPECT_EQ(trace.Name(bob), "bob");
  EXPECT_EQ(trace.Name(0), "");
  EXPECT_EQ(trace.Name(9999), "");
}

TEST(TraceBuffer, OnGatesOnNullAndMask) {
  EXPECT_FALSE(On(nullptr, kCatSched));
  TraceBuffer trace(/*capacity=*/8, kCatSched | kCatLottery);
  EXPECT_EQ(On(&trace, kCatSched), obs::kObsEnabled);
  EXPECT_EQ(On(&trace, kCatLottery), obs::kObsEnabled);
  EXPECT_FALSE(On(&trace, kCatRpc));
  trace.set_mask(0);
  EXPECT_FALSE(On(&trace, kCatSched));
  SetNow(nullptr, 123);  // must be null-safe
  SetNow(&trace, 123);
  if (obs::kObsEnabled) {
    EXPECT_EQ(trace.now(), 123);
  }
}

TEST(TraceBuffer, SpanIdsAreMonotonicAndNeverZero) {
  TraceBuffer trace(/*capacity=*/8);
  uint64_t last = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t span = trace.NextSpanId();
    EXPECT_GT(span, last);
    last = span;
  }
}

TEST(TraceBuffer, BinaryRoundTripPreservesEverything) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "Append folds away with obs off";
  TraceBuffer trace(/*capacity=*/8, kDefaultCategories);
  trace.set_seed(987654321);
  const uint32_t name = trace.Intern("worker");
  Event e = MakeEvent(static_cast<uint16_t>(EventType::kSlice), 7, 1000);
  e.b = 1;
  e.name = name;
  e.v1 = 11;
  e.v2 = 22;
  e.v3 = 33;
  e.flags = kSliceYield;
  trace.Append(e);
  trace.Append(MakeEvent(static_cast<uint16_t>(EventType::kWake), 9, 2000));

  const TraceFile loaded = TraceFile::Parse(trace.Serialize());
  EXPECT_EQ(loaded.mask, kDefaultCategories);
  EXPECT_EQ(loaded.seed, 987654321u);
  EXPECT_EQ(loaded.overwritten, 0u);
  ASSERT_EQ(loaded.events.size(), 2u);
  const Event& r = loaded.events[0];
  EXPECT_EQ(r.t_ns, 1000);
  EXPECT_EQ(r.v1, 11u);
  EXPECT_EQ(r.v2, 22u);
  EXPECT_EQ(r.v3, 33u);
  EXPECT_EQ(r.a, 7u);
  EXPECT_EQ(r.b, 1u);
  EXPECT_EQ(r.name, name);
  EXPECT_EQ(r.type, static_cast<uint16_t>(EventType::kSlice));
  EXPECT_EQ(r.flags, kSliceYield);
  EXPECT_EQ(loaded.Name(loaded.events[0].name), "worker");
  EXPECT_EQ(loaded.events[1].a, 9u);

  // Serialization is a pure function of contents.
  EXPECT_EQ(trace.Serialize(), trace.Serialize());
}

TEST(TraceFile, ParseRejectsGarbageAndTruncation) {
  EXPECT_THROW(TraceFile::Parse(""), std::runtime_error);
  EXPECT_THROW(TraceFile::Parse("not a trace"), std::runtime_error);
  TraceBuffer trace(/*capacity=*/4);
  trace.Append(MakeEvent(1, 1, 1));
  const std::string bytes = trace.Serialize();
  EXPECT_THROW(TraceFile::Parse(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(TraceFile::Load("/nonexistent/path/trace.bin"),
               std::runtime_error);
}

TEST(Event, EveryTypeHasANameAndACategory) {
  for (uint16_t t = 1; t < kNumEventTypes; ++t) {
    EXPECT_STRNE(EventTypeName(t), "unknown") << "type " << t;
    EXPECT_NE(CategoryOf(static_cast<EventType>(t)), 0u) << "type " << t;
  }
  EXPECT_STREQ(EventTypeName(kNumEventTypes), "unknown");
}

// --- Decision-stream ground truth -----------------------------------------
//
// Runs a seeded 3-thread compute workload with candidate snapshots enabled
// and re-derives every lottery winner from the recorded (drawn value,
// candidate snapshot) pairs: the winner must be the first candidate whose
// running ticket sum exceeds the drawn value, or candidates[v1] for a
// zero-funding fallback. This is the paper's Section 2 selection rule and
// the one contract both run-queue backends must share.

struct Replay {
  uint64_t decisions = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

Replay ReplayDecisions(const TraceBuffer& trace) {
  Replay out;
  std::vector<Event> candidates;
  for (const Event& e : trace.Events()) {
    if (e.type == static_cast<uint16_t>(EventType::kCandidate)) {
      candidates.push_back(e);
      continue;
    }
    if (e.type != static_cast<uint16_t>(EventType::kDecision)) continue;
    ++out.decisions;
    if (!candidates.empty()) {
      ++out.checked;
      uint32_t derived = kInvalidThreadId;
      if ((e.flags & kDecisionFallback) != 0) {
        if (e.v1 < candidates.size()) derived = candidates[e.v1].a;
      } else {
        uint64_t sum = 0;
        uint64_t total = 0;
        for (const Event& candidate : candidates) {
          total += candidate.v1;
          if (sum <= e.v1 && sum + candidate.v1 > e.v1) {
            derived = candidate.a;
          }
          sum += candidate.v1;
        }
        // The recorded total must agree with the snapshot's sum.
        EXPECT_EQ(total, e.v2);
      }
      if (derived != e.a) ++out.mismatches;
    }
    candidates.clear();
  }
  return out;
}

Replay RunAndReplay(RunQueueBackend backend) {
  TraceBuffer trace(/*capacity=*/1u << 18,
                    kCatSched | kCatLottery | kCatLotterySnapshot);
  obs::Registry metrics;
  LotteryScheduler::Options sopts;
  sopts.seed = 20260806;
  sopts.backend = backend;
  sopts.metrics = &metrics;
  sopts.trace = &trace;
  LotteryScheduler sched(sopts);
  Kernel::Options kopts;
  kopts.metrics = &metrics;
  kopts.trace = &trace;
  Kernel kernel(&sched, kopts);
  const int64_t funding[] = {300, 200, 100};
  for (int i = 0; i < 3; ++i) {
    const ThreadId tid = kernel.Spawn(
        "t" + std::to_string(i), std::make_unique<ComputeTask>());
    sched.FundThread(tid, sched.table().base(), funding[i]);
  }
  kernel.RunFor(SimDuration::Seconds(200));
  EXPECT_EQ(trace.overwritten(), 0u) << "ring sized too small for the test";
  return ReplayDecisions(trace);
}

TEST(DecisionReplay, ListBackendWinnersMatchSnapshots) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  const Replay replay = RunAndReplay(RunQueueBackend::kList);
  EXPECT_GT(replay.decisions, 1000u);
  EXPECT_EQ(replay.checked, replay.decisions);
  EXPECT_EQ(replay.mismatches, 0u);
}

TEST(DecisionReplay, TreeBackendWinnersMatchSnapshots) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  const Replay replay = RunAndReplay(RunQueueBackend::kTree);
  EXPECT_GT(replay.decisions, 1000u);
  EXPECT_EQ(replay.checked, replay.decisions);
  EXPECT_EQ(replay.mismatches, 0u);
}

TEST(DecisionReplay, SameSeedTracesAreByteIdentical) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  auto record = [] {
    TraceBuffer trace(/*capacity=*/1u << 16, kDefaultCategories);
    obs::Registry metrics;
    LotteryScheduler::Options sopts;
    sopts.seed = 42;
    sopts.metrics = &metrics;
    sopts.trace = &trace;
    LotteryScheduler sched(sopts);
    Kernel::Options kopts;
    kopts.metrics = &metrics;
    kopts.trace = &trace;
    Kernel kernel(&sched, kopts);
    for (int i = 0; i < 3; ++i) {
      const ThreadId tid = kernel.Spawn(
          "t" + std::to_string(i), std::make_unique<ComputeTask>());
      sched.FundThread(tid, sched.table().base(), 100 * (i + 1));
    }
    kernel.RunFor(SimDuration::Seconds(30));
    return trace.Serialize();
  };
  EXPECT_EQ(record(), record());
}

TEST(Export, ChromeJsonIsDeterministicAndNonTrivial) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  TraceBuffer trace(/*capacity=*/64, kAllCategories);
  const uint32_t name = trace.Intern("t0");
  Event tn = MakeEvent(static_cast<uint16_t>(EventType::kThreadName), 1, 0);
  tn.name = name;
  trace.Append(tn);
  Event slice = MakeEvent(static_cast<uint16_t>(EventType::kSlice), 1, 1000);
  slice.v1 = 500;
  trace.Append(slice);
  const TraceFile file = TraceFile::Parse(trace.Serialize());
  const std::string json = ToChromeTraceJson(file);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_EQ(json, ToChromeTraceJson(file));
}

// The timeseries auditor's anomalies reach the Perfetto export: one instant
// event per anomaly, on the client's thread, named after its kind, with
// the observed value and the bound it crossed.
TEST(Export, AuditorAnomaliesBecomeInstantEvents) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  const EventType kinds[] = {EventType::kLagAnomaly, EventType::kStarvation,
                             EventType::kShareError};
  TraceBuffer trace(/*capacity=*/8, kAllCategories);
  for (uint32_t i = 0; i < 3; ++i) {
    Event e = MakeEvent(static_cast<uint16_t>(kinds[i]), /*a=*/10 + i,
                        /*t_ns=*/1000 * (i + 1));
    e.v1 = 500 + i;
    e.v2 = 400 + i;
    trace.Append(e);
  }
  const obs::JsonValue doc =
      obs::ParseJson(ToChromeTraceJson(TraceFile::Parse(trace.Serialize())));
  for (uint32_t i = 0; i < 3; ++i) {
    const std::string name = EventTypeName(static_cast<uint16_t>(kinds[i]));
    const obs::JsonValue* found = nullptr;
    for (const obs::JsonValue& event : doc.At("traceEvents").items) {
      if (event.StringAt("name") == name) {
        EXPECT_EQ(found, nullptr) << name << " exported twice";
        found = &event;
      }
    }
    ASSERT_NE(found, nullptr) << name << " missing from the export";
    EXPECT_EQ(found->StringAt("ph"), "i");
    EXPECT_EQ(found->IntAt("tid"), 10 + i);
    EXPECT_EQ(found->NumberAt("ts"), static_cast<double>(i + 1));
    EXPECT_EQ(found->At("args").IntAt("value"), 500 + i);
    EXPECT_EQ(found->At("args").IntAt("bound"), 400 + i);
  }
}

// Late attach via SetTrace: names interned while detached still resolve,
// the kernel re-emits kThreadName for every live thread, and the RNG
// sequence (and so the schedule) is unaffected by toggling.
TEST(SetTrace, LateAttachReEmitsNamesAndKeepsScheduleIdentical) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  auto run = [](bool toggle) {
    TraceBuffer trace(/*capacity=*/1u << 16, kDefaultCategories);
    obs::Registry metrics;
    LotteryScheduler::Options sopts;
    sopts.seed = 7;
    sopts.metrics = &metrics;
    LotteryScheduler sched(sopts);
    Kernel::Options kopts;
    kopts.metrics = &metrics;
    Kernel kernel(&sched, kopts);
    for (int i = 0; i < 3; ++i) {
      const ThreadId tid = kernel.Spawn(
          "late" + std::to_string(i), std::make_unique<ComputeTask>());
      sched.FundThread(tid, sched.table().base(), 100);
    }
    kernel.RunFor(SimDuration::Seconds(5));
    if (toggle) {
      kernel.SetTrace(&trace);
      sched.SetTrace(&trace);
    }
    kernel.RunFor(SimDuration::Seconds(5));
    uint64_t names = 0;
    for (const auto& e : trace.Events()) {
      if (e.type == static_cast<uint16_t>(EventType::kThreadName)) {
        ++names;
        EXPECT_FALSE(trace.Name(e.name).empty());
      }
    }
    struct Out {
      uint64_t names;
      uint64_t events;
      uint64_t draws;
    };
    return Out{names, trace.size(),
               metrics.FindCounter("lottery.draws")->value()};
  };
  const auto traced = run(true);
  const auto untraced = run(false);
  EXPECT_EQ(traced.names, 3u);
  EXPECT_GT(traced.events, traced.names);
  EXPECT_EQ(untraced.events, 0u);
  // Toggling tracing never perturbs the schedule.
  EXPECT_EQ(traced.draws, untraced.draws);
}

}  // namespace
}  // namespace etrace
}  // namespace lottery
