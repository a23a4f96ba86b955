// Tests for the lottery-scheduled reader-writer lock.

#include "src/sim/rwlock.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sched/round_robin.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

Kernel::Options KOpts() {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(100);
  return o;
}

// Records whom each release admits: the watched threads that flip from
// blocked to runnable across the call, joined by '+' (a reader group is
// admitted at once).
struct AdmissionLog {
  Kernel* kernel = nullptr;
  std::vector<ThreadId> watched;
  std::vector<bool> runnable;
  std::vector<std::string> admitted;

  void Before() {
    runnable.clear();
    for (const ThreadId tid : watched) {
      runnable.push_back(kernel->ThreadRunnable(tid));
    }
  }
  void After() {
    std::string entry;
    for (size_t i = 0; i < watched.size(); ++i) {
      if (!runnable[i] && kernel->ThreadRunnable(watched[i])) {
        entry += (entry.empty() ? "" : "+") + kernel->ThreadName(watched[i]);
      }
    }
    if (!entry.empty()) {
      admitted.push_back(entry);
    }
  }
};

// Repeatedly: acquire (read or write), hold for `hold`, release, compute
// for `gap`. Counts completed critical sections.
class RwTask : public ThreadBody {
 public:
  RwTask(SimRwLock* lock, bool writer, SimDuration hold, SimDuration gap,
         AdmissionLog* log = nullptr)
      : lock_(lock), writer_(writer), hold_(hold), gap_(gap), log_(log) {}

  // Cross-slice state machine: the lock is held across Run invocations;
  // ownership is runtime-checked (AssertHeld/NoteHeldAcrossSlice) instead
  // of statically analyzed.
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (waiting_) {
      waiting_ = false;
      phase_ = Phase::kHold;
      left_ = hold_;
      AssertMine(ctx);
    } else if (phase_ == Phase::kHold) {
      AssertMine(ctx);  // preempted mid-hold last slice
    }
    for (;;) {
      switch (phase_) {
        case Phase::kAcquire: {
          const bool got = writer_ ? lock_->AcquireWrite(ctx)
                                   : lock_->AcquireRead(ctx);
          if (!got) {
            waiting_ = true;
            ctx.Block();
            return;
          }
          phase_ = Phase::kHold;
          left_ = hold_;
          break;
        }
        case Phase::kHold:
          left_ -= ctx.Consume(left_ < ctx.remaining() ? left_
                                                       : ctx.remaining());
          if (left_.nanos() > 0) {
            NoteMineAcrossSlice(ctx);
            return;
          }
          if (log_ != nullptr) {
            log_->Before();
          }
          if (writer_) {
            lock_->ReleaseWrite(ctx);
          } else {
            lock_->ReleaseRead(ctx);
          }
          if (log_ != nullptr) {
            log_->After();
          }
          ++sections_;
          ctx.AddProgress(1);
          phase_ = Phase::kGap;
          left_ = gap_;
          break;
        case Phase::kGap:
          left_ -= ctx.Consume(left_ < ctx.remaining() ? left_
                                                       : ctx.remaining());
          if (left_.nanos() > 0) {
            return;
          }
          phase_ = Phase::kAcquire;
          break;
      }
      if (ctx.remaining().nanos() == 0) {
        return;
      }
    }
  }

  int64_t sections() const { return sections_; }

 private:
  void AssertMine(RunContext& ctx) NO_THREAD_SAFETY_ANALYSIS {
    if (writer_) {
      lock_->AssertWriteHeld(ctx.self());
    } else {
      lock_->AssertReadHeld(ctx.self());
    }
  }
  void NoteMineAcrossSlice(RunContext& ctx) NO_THREAD_SAFETY_ANALYSIS {
    if (writer_) {
      lock_->NoteWriteHeldAcrossSlice(ctx.self());
    } else {
      lock_->NoteReadHeldAcrossSlice(ctx.self());
    }
  }

  enum class Phase { kAcquire, kHold, kGap };
  SimRwLock* lock_;
  bool writer_;
  SimDuration hold_;
  SimDuration gap_;
  AdmissionLog* log_;
  Phase phase_ = Phase::kAcquire;
  bool waiting_ = false;
  SimDuration left_{};
  int64_t sections_ = 0;
};

TEST(SimRwLock, ReadersShareWritersExclude) {
  LotteryScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  class Checker : public ThreadBody {
   public:
    explicit Checker(SimRwLock* lock) : lock_(lock) {}
    // Deliberately misuses the lock (the throws are the assertions), so the
    // static analysis — which would reject exactly that — is off here;
    // AssertReadHeld/AssertWriteHeld keep the runtime checks.
    NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
      EXPECT_TRUE(lock_->AcquireRead(ctx));
      lock_->AssertReadHeld(ctx.self());
      EXPECT_EQ(lock_->num_readers(), 1u);
      // A second reader by another thread would also be admitted; a writer
      // must not be (simulated here by direct state checks).
      EXPECT_FALSE(lock_->write_held());
      lock_->ReleaseRead(ctx);
      EXPECT_TRUE(lock_->AcquireWrite(ctx));
      lock_->AssertWriteHeld(ctx.self());
      EXPECT_TRUE(lock_->write_held());
      EXPECT_THROW(lock_->AcquireWrite(ctx), std::logic_error);
      lock_->ReleaseWrite(ctx);
      EXPECT_THROW(lock_->ReleaseWrite(ctx), std::logic_error);
      EXPECT_THROW(lock_->ReleaseRead(ctx), std::logic_error);
      ctx.Consume(SimDuration::Millis(1));
      ctx.ExitThread();
    }
    SimRwLock* lock_;
  };
  const ThreadId tid = kernel.Spawn("check", std::make_unique<Checker>(&lock));
  sched.FundThread(tid, sched.table().base(), 100);
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(kernel.num_live_threads(), 0u);
}

TEST(SimRwLock, CurrencyLifecycle) {
  LotteryScheduler sched;
  Kernel kernel(&sched, KOpts());
  {
    SimRwLock lock(&kernel, "tmp");
    EXPECT_NE(sched.table().FindCurrency("rwlock:tmp"), nullptr);
  }
  EXPECT_EQ(sched.table().FindCurrency("rwlock:tmp"), nullptr);
}

// Takes the read lock and exits while holding it.
class ReadAndExit : public ThreadBody {
 public:
  explicit ReadAndExit(SimRwLock* lock) : lock_(lock) {}
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Millis(1));
    if (lock_->AcquireRead(ctx)) {
      ctx.ExitThread();
    } else {
      ctx.Block();
    }
  }

 private:
  SimRwLock* lock_;
};

TEST(SimRwLock, ReaderExitingWhileHoldingReleasesTheLock) {
  LotteryScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  const ThreadId reader =
      kernel.Spawn("reader", std::make_unique<ReadAndExit>(&lock));
  sched.FundThread(reader, sched.table().base(), 100);
  kernel.RunFor(SimDuration::Seconds(1));
  ASSERT_FALSE(kernel.Alive(reader));
  EXPECT_EQ(lock.num_readers(), 0u);
  // The dead reader's inheritance ticket went with its release, and the
  // lock currency is back to just the (unfunded) writer ticket.
  EXPECT_EQ(sched.table().FindCurrency("rwlock:l")->issued_amount(), 1000);

  auto w = std::make_unique<RwTask>(&lock, true, SimDuration::Millis(13),
                                    SimDuration::Millis(29));
  RwTask* writer = w.get();
  const ThreadId wt = kernel.Spawn("writer", std::move(w));
  sched.FundThread(wt, sched.table().base(), 100);
  kernel.RunFor(SimDuration::Seconds(5));
  EXPECT_GT(writer->sections(), 10);
}

TEST(SimRwLock, ConcurrentReadersAllProgress) {
  LotteryScheduler::Options lopts;
  lopts.seed = 4;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  std::vector<RwTask*> readers;
  for (int i = 0; i < 4; ++i) {
    auto r = std::make_unique<RwTask>(&lock, false, SimDuration::Millis(33),
                                      SimDuration::Millis(17));
    readers.push_back(r.get());
    const ThreadId tid = kernel.Spawn("r" + std::to_string(i), std::move(r));
    sched.FundThread(tid, sched.table().base(), 100);
  }
  kernel.RunFor(SimDuration::Seconds(60));
  for (const auto* r : readers) {
    EXPECT_GT(r->sections(), 200);  // pure readers barely contend
  }
}

TEST(SimRwLock, WriterNotStarvedByReaderStream) {
  LotteryScheduler::Options lopts;
  lopts.seed = 6;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  std::vector<RwTask*> readers;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<RwTask>(&lock, false, SimDuration::Millis(29),
                                      SimDuration::Millis(7));
    readers.push_back(r.get());
    const ThreadId tid = kernel.Spawn("r" + std::to_string(i), std::move(r));
    sched.FundThread(tid, sched.table().base(), 200);
  }
  auto w = std::make_unique<RwTask>(&lock, true, SimDuration::Millis(13),
                                    SimDuration::Millis(23));
  RwTask* writer = w.get();
  const ThreadId wt = kernel.Spawn("writer", std::move(w));
  sched.FundThread(wt, sched.table().base(), 200);
  kernel.RunFor(SimDuration::Seconds(120));
  EXPECT_GT(writer->sections(), 100);
  EXPECT_GT(lock.write_admissions(), 100u);
  for (const auto* r : readers) {
    EXPECT_GT(r->sections(), 100);
  }
}

TEST(SimRwLock, WorksUnderRoundRobin) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  auto r = std::make_unique<RwTask>(&lock, false, SimDuration::Millis(31),
                                    SimDuration::Millis(11));
  auto w = std::make_unique<RwTask>(&lock, true, SimDuration::Millis(13),
                                    SimDuration::Millis(29));
  RwTask* reader = r.get();
  RwTask* writer = w.get();
  kernel.Spawn("r", std::move(r));
  kernel.Spawn("w", std::move(w));
  kernel.RunFor(SimDuration::Seconds(60));
  EXPECT_GT(reader->sections(), 100);
  EXPECT_GT(writer->sections(), 100);
}

TEST(SimRwLock, FundedWritersAdmittedMoreOften) {
  // Three writers, 800:200:200. With two writers always waiting at each
  // release, the admission lottery runs weighted draws (with exactly two
  // writers the queue never holds both, so no draw would happen).
  LotteryScheduler::Options lopts;
  lopts.seed = 12;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  auto make_writer = [&](const std::string& name, int64_t tickets) {
    auto body = std::make_unique<RwTask>(&lock, true, SimDuration::Millis(37),
                                         SimDuration::Millis(3));
    RwTask* raw = body.get();
    const ThreadId tid = kernel.Spawn(name, std::move(body));
    sched.FundThread(tid, sched.table().base(), tickets);
    return raw;
  };
  RwTask* rich = make_writer("rich", 800);
  RwTask* poor1 = make_writer("poor1", 200);
  RwTask* poor2 = make_writer("poor2", 200);
  kernel.RunFor(SimDuration::Seconds(240));
  ASSERT_GT(poor1->sections(), 0);
  ASSERT_GT(poor2->sections(), 0);
  const double poor_avg =
      static_cast<double>(poor1->sections() + poor2->sections()) / 2.0;
  const double ratio = static_cast<double>(rich->sections()) / poor_avg;
  EXPECT_GT(ratio, 1.5);
}

TEST(SimRwLock, AdmissionDrawOrderIsPinned) {
  // Two writers and three readers, all funded, contend for one lock, so
  // releases draw the reader group against each waiting writer. No figure
  // bench or perfbench workload replays this draw, so the exact admission
  // order below pins its stream: a change meant to be byte-identical must
  // leave it as it is.
  LotteryScheduler::Options lopts;
  lopts.seed = 17;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimRwLock lock(&kernel, "l");
  AdmissionLog log;
  log.kernel = &kernel;
  const struct {
    const char* name;
    bool writer;
    int64_t tickets;
  } tasks[] = {{"w300", true, 300},
               {"r200", false, 200},
               {"w100", true, 100},
               {"r150", false, 150},
               {"r50", false, 50}};
  for (const auto& task : tasks) {
    const ThreadId tid = kernel.Spawn(
        task.name,
        std::make_unique<RwTask>(&lock, task.writer, SimDuration::Millis(37),
                                 SimDuration::Millis(3), &log));
    sched.FundThread(tid, sched.table().base(), task.tickets);
    log.watched.push_back(tid);
  }
  kernel.RunFor(SimDuration::Seconds(10));
  ASSERT_GE(log.admitted.size(), 24u);
  log.admitted.resize(24);
  const std::vector<std::string> expected = {
      "w300", "w100", "w300", "r200+r150+r50", "w100", "r200+r150+r50", "w300",
      "r200+r150+r50", "w300", "r200+r150+r50", "w300", "r200+r150+r50",
      "w300", "r200+r150+r50", "w300", "w100", "w300", "r200+r150+r50", "w300",
      "r200+r150+r50", "r200+r150", "w300", "w100", "w300"};
  EXPECT_EQ(log.admitted, expected);
}

}  // namespace
}  // namespace lottery
