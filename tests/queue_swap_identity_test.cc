// Locks the scheduler substrate to a byte-exact golden trace across event-
// queue implementations.
//
// The event queue has been rewritten more than once (the original
// std::priority_queue, a timing wheel, today's arena-backed binary heap);
// every version must drive the kernel through the *identical* sequence of
// decisions for a fixed seed. The golden hash below was recorded from the
// original heap queue on a fig5-style scenario (lottery kernel, 3 compute
// threads at 3:2:1 plus two timed sleepers, 30 simulated seconds, full
// etrace), and still holds: the (when, seq) order it fixed is the one
// every later queue keeps. Any queue change that reorders even one event
// — a lost FIFO tiebreak, a time rounded to a bucket, a cancel delivered
// late — shifts a wake or slice event and changes the hash.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/currency.h"
#include "src/core/lottery_scheduler.h"
#include "src/core/ticket.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

// FNV-1a over the serialized trace: stable, dependency-free, and any
// single-byte difference flips it.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Consumes a slice then sleeps, so every period schedules (and later
// delivers) a timer through the event queue.
class SleeperBody : public ThreadBody {
 public:
  explicit SleeperBody(SimDuration busy, SimDuration nap)
      : busy_(busy), nap_(nap) {}

  void Run(RunContext& ctx) override {
    ctx.Consume(busy_);
    ctx.SleepFor(nap_);
  }

 private:
  SimDuration busy_;
  SimDuration nap_;
};

TEST(QueueSwapIdentity, Fig5StyleTraceBytesMatchHeapGolden) {
  obs::Registry registry;
  etrace::TraceBuffer trace;
  trace.set_seed(42);

  LotteryScheduler::Options sopts;
  sopts.seed = 42;
  sopts.metrics = &registry;
  sopts.trace = &trace;
  LotteryScheduler scheduler(sopts);

  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  kopts.metrics = &registry;
  kopts.trace = &trace;
  Kernel kernel(&scheduler, kopts);

  const int64_t shares[] = {300, 200, 100};
  for (int i = 0; i < 3; ++i) {
    const ThreadId tid = kernel.Spawn("compute" + std::to_string(i),
                                      std::make_unique<ComputeTask>());
    scheduler.FundThread(tid, scheduler.table().base(), shares[i]);
  }
  const ThreadId s1 = kernel.Spawn(
      "sleeper1", std::make_unique<SleeperBody>(SimDuration::Millis(20),
                                                SimDuration::Millis(130)));
  scheduler.FundThread(s1, scheduler.table().base(), 150);
  const ThreadId s2 = kernel.Spawn(
      "sleeper2", std::make_unique<SleeperBody>(SimDuration::Millis(35),
                                                SimDuration::Millis(470)));
  scheduler.FundThread(s2, scheduler.table().base(), 250);

  kernel.RunFor(SimDuration::Seconds(30));

  const std::string bytes = trace.Serialize();
  // Recorded from the original binary-heap EventQueue at seed 42. If this
  // fails after an intentional *scheduling* change, re-derive it; if it
  // fails after an event-queue change, the queue broke determinism.
  // (Re-derived when kCatTimeseries joined the category mask: the serialized
  // header embeds kDefaultCategories, and the event stream itself was
  // verified unchanged — same 1159 events.)
  const uint64_t kHeapGoldenHash = 0x5dd2d12814016d95ull;
  EXPECT_EQ(Fnv1a(bytes), kHeapGoldenHash)
      << "trace hash 0x" << std::hex << Fnv1a(bytes) << " (" << std::dec
      << trace.size() << " events)";
}

// Yields after a short slice `rounds` times, then exits after one more. Each
// slice under-consumes the quantum, so the thread dies with a compensation
// grant still pending in the tree backend's weight sync.
class ExiterBody : public ThreadBody {
 public:
  ExiterBody(SimDuration busy, int rounds) : busy_(busy), rounds_(rounds) {}

  void Run(RunContext& ctx) override {
    ctx.Consume(busy_);
    if (runs_++ < rounds_) {
      ctx.Yield();
    } else {
      ctx.ExitThread();
    }
  }

 private:
  SimDuration busy_;
  int rounds_;
  int runs_ = 0;
};

// The tree backend's twin of the test above: the same byte-exact pin, on a
// scenario that drives every path of its incremental weight sync. 64
// threads in two user currencies plus base: sleepers leave the queue and
// are re-marked while asleep (a currency-mate's activation changes their
// value), yielders earn a compensation ticket every slice, exiters die with
// a pending mark, and a mid-run SetAmount on a queued thread forces a leaf
// update. Every category is traced, candidate snapshots and currency
// reprices included, so the per-decision tree weights and the order in
// which a sync reprices clients are both pinned.
TEST(QueueSwapIdentity, TreeBackendTraceBytesMatchGolden) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "no events with obs off";
  obs::Registry registry;
  etrace::TraceBuffer trace(/*capacity=*/size_t{1} << 18,
                            etrace::kAllCategories);
  trace.set_seed(7);

  LotteryScheduler::Options sopts;
  sopts.seed = 7;
  sopts.backend = RunQueueBackend::kTree;
  sopts.metrics = &registry;
  sopts.trace = &trace;
  LotteryScheduler scheduler(sopts);

  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(10);
  kopts.metrics = &registry;
  kopts.trace = &trace;
  Kernel kernel(&scheduler, kopts);

  CurrencyTable& table = scheduler.table();
  Currency* alice = table.CreateCurrency("alice");
  table.Fund(alice, table.CreateTicket(table.base(), 1000));
  Currency* bob = table.CreateCurrency("bob");
  table.Fund(bob, table.CreateTicket(table.base(), 600));
  Currency* const denominations[] = {alice, bob, table.base()};

  struct Funded {
    ThreadId tid;
    Ticket* ticket;
  };
  std::vector<Funded> computes;
  for (int i = 0; i < 24; ++i) {
    const ThreadId tid = kernel.Spawn("compute" + std::to_string(i),
                                      std::make_unique<ComputeTask>());
    Ticket* ticket =
        scheduler.FundThread(tid, denominations[i % 2], 100 + 25 * (i % 4));
    computes.push_back({tid, ticket});
  }
  for (int i = 0; i < 16; ++i) {
    const SimDuration burst = SimDuration::Millis(1 + i % 3);
    const SimDuration think = SimDuration::Millis(15 + 5 * (i % 7));
    const ThreadId tid =
        kernel.Spawn("sleeper" + std::to_string(i),
                     std::make_unique<InteractiveTask>(burst, think));
    scheduler.FundThread(tid, denominations[i % 3], 80 + 10 * (i % 5));
  }
  for (int i = 0; i < 16; ++i) {
    const ThreadId tid = kernel.Spawn(
        "yielder" + std::to_string(i),
        std::make_unique<YieldingTask>(SimDuration::Millis(2 + i % 4)));
    scheduler.FundThread(tid, denominations[(i + 1) % 3], 120);
  }
  for (int i = 0; i < 8; ++i) {
    const ThreadId tid = kernel.Spawn(
        "exiter" + std::to_string(i),
        std::make_unique<ExiterBody>(SimDuration::Millis(3), 2 + i % 5));
    scheduler.FundThread(tid, alice, 150);
  }

  kernel.RunFor(SimDuration::Seconds(2));
  // Inflate the first compute thread found waiting in the run queue.
  const auto queued = std::find_if(
      computes.begin(), computes.end(),
      [&](const Funded& f) { return scheduler.IsQueued(f.tid); });
  ASSERT_NE(queued, computes.end());
  table.SetAmount(queued->ticket, 5 * queued->ticket->amount());
  kernel.RunFor(SimDuration::Seconds(2));

  EXPECT_EQ(kernel.num_live_threads(), 56u);
  ASSERT_EQ(trace.overwritten(), 0u);
  const std::string bytes = trace.Serialize();
  // Recorded from the tree backend while it tracked dirty clients in a hash
  // set. If this fails after an intentional scheduling change, re-derive
  // it; if it fails after a change to the weight sync, the sync reordered
  // or lost a reprice.
  const uint64_t kTreeGoldenHash = 0x15a23e8e62617b9bull;
  EXPECT_EQ(Fnv1a(bytes), kTreeGoldenHash)
      << "trace hash 0x" << std::hex << Fnv1a(bytes) << " (" << std::dec
      << trace.size() << " events)";
}

}  // namespace
}  // namespace lottery
