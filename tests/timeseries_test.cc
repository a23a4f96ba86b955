// Tests for the deterministic timeseries substrate (src/obs/timeseries/):
// Series ring compaction, the Sampler's online fairness-lag audit against
// ground truth, edge-triggered anomalies, same-seed byte-identical JSON,
// and the zero-allocation steady-state contract of the sample path.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/lottery_scheduler.h"
#include "src/obs/registry.h"
#include "src/obs/timeseries/sampler.h"
#include "src/obs/timeseries/series.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

// ---------------------------------------------------------------------------
// Allocation counting: global operator new/delete overrides (binary-wide)
// that count while g_count_allocs is set. Used to prove Sample() performs
// no heap allocation in the steady state.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// The replacement new/delete pair both route through malloc/free; GCC's
// mismatch heuristic cannot see that pairing across the overrides.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lottery {
namespace {

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

TEST(Series, FillsThenCompactsWithinCapacity) {
  ts::Series series(8);
  for (int64_t i = 0; i < 1000; ++i) {
    series.Record(i * 1000, static_cast<double>(i));
  }
  EXPECT_LE(series.size(), 8u);
  EXPECT_EQ(series.total_points(), 1000u);
  EXPECT_GT(series.compactions(), 0u);
  // Stride doubles per compaction; with capacity 8 and 1000 points the
  // stride must cover at least 1000/8 = 125 samples per bucket.
  EXPECT_GE(series.stride(), 128u);
  // Full history retained: bucket counts sum to every recorded point and
  // time spans tile the run in order.
  uint64_t total = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const ts::Series::Bucket& b = series.bucket(i);
    total += b.stats.count();
    if (i > 0) {
      EXPECT_GT(b.t_first_ns, series.bucket(i - 1).t_last_ns);
    }
    EXPECT_LE(b.t_first_ns, b.t_last_ns);
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(series.bucket(0).t_first_ns, 0);
  EXPECT_EQ(series.bucket(series.size() - 1).t_last_ns, 999 * 1000);
}

TEST(Series, CompactionPreservesMoments) {
  // The compacted series must agree with a flat accumulator over the same
  // samples: compaction reorganizes, it must not lose or distort.
  ts::Series series(4);
  obs::StreamingStats flat;
  for (int64_t i = 0; i < 333; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    series.Record(i, v);
    flat.Add(v);
  }
  obs::StreamingStats merged;
  for (size_t i = 0; i < series.size(); ++i) {
    merged.Merge(series.bucket(i).stats);
  }
  EXPECT_EQ(merged.count(), flat.count());
  EXPECT_NEAR(merged.mean(), flat.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), flat.variance(), 1e-6);
  EXPECT_EQ(merged.min(), flat.min());
  EXPECT_EQ(merged.max(), flat.max());
}

TEST(Series, DegenerateCapacityThrows) {
  EXPECT_THROW(ts::Series series(1), std::invalid_argument);
  EXPECT_THROW(ts::Series series(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sampler: shared world helpers
// ---------------------------------------------------------------------------

class SpinBody : public ThreadBody {
 public:
  void Run(RunContext& ctx) override { ctx.Consume(ctx.remaining()); }
};

struct World {
  obs::Registry registry;
  std::unique_ptr<LotteryScheduler> sched;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<ts::Sampler> sampler;

  explicit World(uint32_t seed, bool compensate = true,
                 ts::Sampler::Options topts = {}) {
    LotteryScheduler::Options sopts;
    sopts.seed = seed;
    sopts.metrics = &registry;
    sopts.compensation.enabled = compensate;
    sched = std::make_unique<LotteryScheduler>(sopts);
    Kernel::Options kopts;
    kopts.metrics = &registry;
    kernel = std::make_unique<Kernel>(sched.get(), kopts);
    sampler = std::make_unique<ts::Sampler>(kernel.get(), topts);
    sampler->AttachScheduler(sched.get());
    kernel->SetSampler(sampler.get());
  }

  ThreadId AddClient(const std::string& label, int64_t tickets,
               std::unique_ptr<ThreadBody> body) {
    const ThreadId tid = kernel->Spawn(label, std::move(body));
    sched->FundThread(tid, sched->table().base(), tickets);
    sampler->Track(tid, label);
    return tid;
  }
};

const ts::Sampler::ClientState* FindClient(const ts::Sampler& sampler,
                                           const std::string& label) {
  for (size_t i = 0; i < sampler.num_clients(); ++i) {
    if (sampler.client_state(i).label == label) {
      return &sampler.client_state(i);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Fairness-lag audit ground truth
// ---------------------------------------------------------------------------

TEST(SamplerAudit, FairMixSharesAndLagMatchEntitlement) {
  World world(42);
  world.AddClient("a", 300, std::make_unique<SpinBody>());
  world.AddClient("b", 100, std::make_unique<SpinBody>());
  world.kernel->RunFor(SimDuration::Seconds(120));

  ASSERT_GT(world.sampler->samples(), 100u);
  const ts::Sampler::ClientState* a = FindClient(*world.sampler, "a");
  const ts::Sampler::ClientState* b = FindClient(*world.sampler, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Entitled shares come straight from base tickets.
  EXPECT_NEAR(a->entitled_share, 0.75, 1e-9);
  EXPECT_NEAR(b->entitled_share, 0.25, 1e-9);

  // Group-service entitlement basis: the entitled amounts partition the
  // delivered service exactly (up to one quantum of rounding per client).
  const int64_t received = a->received_ns + b->received_ns;
  const int64_t entitled = a->entitled_ns + b->entitled_ns;
  EXPECT_NEAR(static_cast<double>(entitled), static_cast<double>(received),
              2e8);

  // lag = received − entitled, by definition, and a fair mix stays inside
  // the binomial envelope with no anomalies.
  EXPECT_EQ(a->lag_ns, a->received_ns - a->entitled_ns);
  EXPECT_EQ(b->lag_ns, b->received_ns - b->entitled_ns);
  EXPECT_LT(std::abs(a->lag_ns), a->lag_bound_ns);
  EXPECT_LT(std::abs(b->lag_ns), b->lag_bound_ns);
  EXPECT_TRUE(world.sampler->anomalies().empty());

  // Delivered shares track 3:1 over a two-minute run.
  const double share_a = static_cast<double>(a->received_ns) /
                         static_cast<double>(received);
  EXPECT_NEAR(share_a, 0.75, 0.05);
}

TEST(SamplerAudit, MonopolyWithoutCompensationTripsLag) {
  // Section 4.5's motivating failure: a fractional-quantum consumer with
  // compensation disabled receives far less than its 8:1:1 entitlement.
  // The auditor must cross the lag bound within one fig5 window (8 s).
  World world(42, /*compensate=*/false);
  world.AddClient("victim", 800,
            std::make_unique<YieldingTask>(SimDuration::Millis(2)));
  world.AddClient("hog1", 100, std::make_unique<SpinBody>());
  world.AddClient("hog2", 100, std::make_unique<SpinBody>());
  world.kernel->RunFor(SimDuration::Seconds(30));

  const std::vector<ts::Anomaly>& anomalies = world.sampler->anomalies();
  ASSERT_FALSE(anomalies.empty());
  int64_t first_lag_ns = -1;
  for (const ts::Anomaly& a : anomalies) {
    if (a.kind == ts::AnomalyKind::kLag) {
      first_lag_ns = a.t_ns;
      break;
    }
  }
  ASSERT_GE(first_lag_ns, 0) << "no lag anomaly in 30 s";
  EXPECT_LE(first_lag_ns, SimDuration::Seconds(8).nanos());
  const ts::Sampler::ClientState* victim = FindClient(*world.sampler,
                                                      "victim");
  ASSERT_NE(victim, nullptr);
  EXPECT_LT(victim->lag_ns, 0);  // received far less than entitled
  EXPECT_TRUE(victim->in_lag_anomaly || victim->in_share_anomaly);
}

TEST(SamplerAudit, StarvationIsEdgeTriggered) {
  // 1 : 5000 : 5000 — the 1-ticket client is runnable but essentially
  // never wins. The starvation watermark must fire once when the bound is
  // first crossed and then stay quiet while the condition persists, not
  // re-emit every sample (edge-triggered contract).
  World world(7);
  const ThreadId starved = world.AddClient("starved", 1,
                                     std::make_unique<SpinBody>());
  world.AddClient("hog1", 5000, std::make_unique<SpinBody>());
  world.AddClient("hog2", 5000, std::make_unique<SpinBody>());
  world.kernel->RunFor(SimDuration::Seconds(40));

  int starvation_count = 0;
  for (const ts::Anomaly& a : world.sampler->anomalies()) {
    if (a.kind == ts::AnomalyKind::kStarvation) {
      ++starvation_count;
      EXPECT_EQ(a.tid, starved);
      // Crossed within one sample of the 10 s bound.
      EXPECT_GE(a.t_ns, SimDuration::Seconds(10).nanos());
    }
  }
  // Dozens of samples happen while starving; at most a couple of distinct
  // starvation episodes are possible in 40 s, and at least one must fire.
  EXPECT_GE(starvation_count, 1);
  EXPECT_LE(starvation_count, 3);
  const ts::Sampler::ClientState* client = FindClient(*world.sampler,
                                                      "starved");
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->in_starvation);
}

// ---------------------------------------------------------------------------
// Tracking, labels, watched counters
// ---------------------------------------------------------------------------

TEST(Sampler, LabelsAreSanitizedAndUnique) {
  World world(1);
  const ThreadId tid = world.kernel->Spawn("x", std::make_unique<SpinBody>());
  world.sched->FundThread(tid, world.sched->table().base(), 100);
  world.sampler->Track(tid, "Mixed Case-Label!");
  EXPECT_EQ(world.sampler->client_state(0).label, "mixed_case_label_");
  EXPECT_NE(world.sampler->FindSeries("client.mixed_case_label_.lag_ms"),
            nullptr);
  const ThreadId other = world.kernel->Spawn("y",
                                             std::make_unique<SpinBody>());
  world.sched->FundThread(other, world.sched->table().base(), 100);
  EXPECT_THROW(world.sampler->Track(other, "mixed case label?"),
               std::invalid_argument);  // sanitizes to a duplicate
  EXPECT_THROW(world.sampler->Track(static_cast<ThreadId>(999), "ghost"),
               std::invalid_argument);
}

TEST(Sampler, WatchCounterRecordsRates) {
  World world(3);
  world.AddClient("a", 100, std::make_unique<SpinBody>());
  world.sampler->WatchCounter("kernel.dispatches");
  world.kernel->RunFor(SimDuration::Seconds(20));
  const ts::Series* rate = world.sampler->FindSeries("rate.kernel.dispatches");
  ASSERT_NE(rate, nullptr);
  ASSERT_GT(rate->size(), 0u);
  // One spin thread, 100 ms quantum: 10 dispatches/s.
  EXPECT_NEAR(rate->last_value(), 10.0, 1.0);
}

TEST(Sampler, PartitionedSchedulerAddsPerCpuSeries) {
  // A scheduler with one run queue per CPU also gets per-CPU queue depth
  // and steal series, read from the registry the scheduler writes, not the
  // sampler's own.
  obs::Registry sched_registry;
  smp::SmpScheduler::Options so;
  so.num_cpus = 2;
  so.seed = 5;
  so.metrics = &sched_registry;
  smp::SmpScheduler sched(so);
  Kernel::Options kopts;
  kopts.num_cpus = 2;
  kopts.metrics = &sched_registry;
  Kernel kernel(&sched, kopts);
  obs::Registry sampler_registry;
  ts::Sampler::Options topts;
  topts.metrics = &sampler_registry;
  ts::Sampler sampler(&kernel, topts);
  sampler.AttachScheduler(&sched);
  kernel.SetSampler(&sampler);
  for (int i = 0; i < 6; ++i) {
    const ThreadId tid = kernel.Spawn("t" + std::to_string(i),
                                      std::make_unique<SpinBody>());
    sched.FundThread(tid, sched.table().base(), 100 * (i + 1));
  }
  kernel.RunFor(SimDuration::Seconds(20));
  for (const char* name :
       {"cpu0.queued", "cpu1.queued", "cpu0.steals_in", "cpu1.steals_in",
        "smp.steal_rate_hz", "smp.migration_rate_hz"}) {
    const ts::Series* series = sampler.FindSeries(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_GT(series->size(), 0u) << name;
  }
  uint64_t steals_in = 0;
  for (const int cpu : {0, 1}) {
    const std::string name = "cpu" + std::to_string(cpu) + ".steals_in";
    const uint64_t count =
        sched_registry.FindCounter("smp." + name)->value();
    EXPECT_EQ(sampler.FindSeries(name)->last_value(),
              static_cast<double>(count));
    steals_in += count;
  }
  EXPECT_GT(steals_in, 0u);
  EXPECT_EQ(steals_in, sched.steals() + sched.migrations());
  EXPECT_EQ(sampler_registry.FindCounter("smp.steals"), nullptr);

  // A one-queue scheduler gets none of them.
  World world(3);
  EXPECT_EQ(world.sampler->FindSeries("cpu0.queued"), nullptr);
  EXPECT_EQ(world.sampler->FindSeries("smp.steal_rate_hz"), nullptr);
}

// ---------------------------------------------------------------------------
// Determinism and export
// ---------------------------------------------------------------------------

std::string RunWorldToJson(uint32_t seed) {
  World world(seed);
  world.AddClient("a", 300, std::make_unique<SpinBody>());
  world.AddClient("b", 200, std::make_unique<SpinBody>());
  world.AddClient("c", 100, std::make_unique<YieldingTask>(SimDuration::Millis(7)));
  world.kernel->RunFor(SimDuration::Seconds(60));
  return world.sampler->ToJson("timeseries_test", seed);
}

TEST(Sampler, SameSeedJsonIsByteIdentical) {
  const std::string first = RunWorldToJson(42);
  const std::string second = RunWorldToJson(42);
  EXPECT_EQ(first, second);
  const std::string other = RunWorldToJson(43);
  EXPECT_NE(first, other);
  // Envelope sanity; full schema validation lives in
  // .github/check_bench_json.py and the lottop parser tests.
  EXPECT_NE(first.find("\"kind\":\"timeseries\""), std::string::npos);
  EXPECT_NE(first.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(first.find("\"client.a.lag_ms\""), std::string::npos);
}

TEST(Sampler, SamplingIsRngNeutral) {
  // Attaching a sampler must not touch the scheduler's RNG stream: the
  // dispatch sequence (total service per client) is identical with and
  // without one.
  auto run = [](bool with_sampler) {
    LotteryScheduler::Options sopts;
    sopts.seed = 99;
    LotteryScheduler sched(sopts);
    Kernel kernel(&sched, Kernel::Options{});
    std::unique_ptr<ts::Sampler> sampler;
    if (with_sampler) {
      sampler = std::make_unique<ts::Sampler>(&kernel, ts::Sampler::Options{});
      sampler->AttachScheduler(&sched);
      kernel.SetSampler(sampler.get());
    }
    std::vector<ThreadId> tids;
    for (int i = 0; i < 3; ++i) {
      const ThreadId tid = kernel.Spawn("t" + std::to_string(i),
                                        std::make_unique<SpinBody>());
      sched.FundThread(tid, sched.table().base(), 100 * (i + 1));
      if (sampler != nullptr) {
        sampler->Track(tid, "t" + std::to_string(i));
      }
      tids.push_back(tid);
    }
    kernel.RunFor(SimDuration::Seconds(60));
    std::vector<int64_t> service;
    for (const ThreadId tid : tids) {
      service.push_back(kernel.CpuTime(tid).nanos());
    }
    return service;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Zero allocation in the steady state
// ---------------------------------------------------------------------------

TEST(Sampler, SamplePathDoesNotAllocateInSteadyState) {
  ts::Sampler::Options topts;
  topts.series_capacity = 32;  // force compactions inside the window
  World world(11, /*compensate=*/true, topts);
  world.AddClient("a", 300, std::make_unique<SpinBody>());
  world.AddClient("b", 100, std::make_unique<SpinBody>());
  world.sampler->WatchCounter("kernel.dispatches");
  // Warm-up: first samples resolve lazy state; compaction is in-place so
  // even it must not allocate afterwards.
  world.kernel->RunFor(SimDuration::Seconds(10));
  const uint64_t samples_before = world.sampler->samples();

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  // Drive Sample() directly at the dispatch cadence: kernel state is live
  // and times advance monotonically past many compaction boundaries.
  int64_t now_ns = world.kernel->now().nanos();
  for (int i = 0; i < 20000; ++i) {
    now_ns += 500 * 1000 * 1000;
    world.sampler->Sample(SimTime::FromNanos(now_ns));
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(world.sampler->samples(), samples_before + 20000);
}

}  // namespace
}  // namespace lottery
