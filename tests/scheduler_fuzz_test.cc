// Fuzzing the Scheduler protocol: random valid call sequences against every
// policy implementation, checking structural invariants (picked threads are
// ready; no duplicates; removal works from any state) rather than policy
// outcomes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/core/lottery_scheduler.h"
#include "src/sched/decay_usage.h"
#include "src/sched/round_robin.h"
#include "src/sched/stride.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

const SimDuration kQuantum = SimDuration::Millis(100);

enum class State { kBlocked, kReady, kRunning };

struct FuzzCase {
  std::string policy;
  uint32_t seed;
};

std::unique_ptr<Scheduler> MakeScheduler(const std::string& policy,
                                         uint32_t seed) {
  if (policy == "lottery-list" || policy == "lottery-tree") {
    LotteryScheduler::Options o;
    o.seed = seed;
    o.backend = policy == "lottery-tree" ? RunQueueBackend::kTree
                                         : RunQueueBackend::kList;
    return std::make_unique<LotteryScheduler>(o);
  }
  if (policy == "stride") {
    return std::make_unique<StrideScheduler>();
  }
  if (policy == "decay-usage") {
    return std::make_unique<DecayUsageScheduler>();
  }
  return std::make_unique<RoundRobinScheduler>();
}

class SchedulerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(SchedulerFuzz, RandomProtocolSequences) {
  const FuzzCase param = GetParam();
  auto sched = MakeScheduler(param.policy, param.seed);
  LotteryScheduler* lottery = sched->economy();
  FastRand rng(param.seed);
  SimTime now = SimTime::Zero();
  std::map<ThreadId, State> state;
  ThreadId running = kInvalidThreadId;
  ThreadId next_id = 1;

  for (int step = 0; step < 3000; ++step) {
    const uint32_t op = rng.NextBelow(10);
    switch (op) {
      case 0:  // add a thread
        if (state.size() < 12) {
          const ThreadId id = next_id++;
          sched->AddThread(id, now);
          if (lottery != nullptr) {
            lottery->FundThread(id, lottery->table().base(),
                                1 + rng.NextBelow(500));
          }
          state[id] = State::kBlocked;
        }
        break;
      case 1: {  // remove a non-running thread
        for (auto it = state.begin(); it != state.end(); ++it) {
          if (it->second != State::kRunning && rng.NextBelow(3) == 0) {
            sched->RemoveThread(it->first, now);
            state.erase(it);
            break;
          }
        }
        break;
      }
      case 2:
      case 3: {  // wake a blocked thread
        for (auto& [id, s] : state) {
          if (s == State::kBlocked && rng.NextBelow(2) == 0) {
            sched->OnReady(id, now);
            s = State::kReady;
            break;
          }
        }
        break;
      }
      case 4: {  // block a ready (queued) thread
        for (auto& [id, s] : state) {
          if (s == State::kReady && rng.NextBelow(2) == 0) {
            sched->OnBlocked(id, now);
            s = State::kBlocked;
            break;
          }
        }
        break;
      }
      default: {  // dispatch cycle
        if (running == kInvalidThreadId) {
          const ThreadId picked = sched->PickNext(now);
          if (picked == kInvalidThreadId) {
            // Valid only if nothing was ready.
            for (const auto& [id, s] : state) {
              ASSERT_NE(s, State::kReady)
                  << param.policy << ": empty pick with thread " << id
                  << " ready";
            }
            break;
          }
          ASSERT_EQ(state.at(picked), State::kReady)
              << param.policy << " picked a non-ready thread";
          state[picked] = State::kRunning;
          running = picked;
        } else {
          const SimDuration used =
              SimDuration::Millis(1 + rng.NextBelow(100));
          now += used;
          sched->OnQuantumEnd(running, used, kQuantum, now);
          if (rng.NextBelow(3) == 0) {
            sched->OnBlocked(running, now);
            state[running] = State::kBlocked;
          } else {
            sched->OnReady(running, now);
            state[running] = State::kReady;
          }
          running = kInvalidThreadId;
        }
        if (rng.NextBelow(50) == 0) {
          sched->Tick(now);
        }
        break;
      }
    }
  }
  // Drain: everything ready must eventually be picked exactly once.
  if (running != kInvalidThreadId) {
    sched->OnQuantumEnd(running, kQuantum, kQuantum, now);
    sched->OnBlocked(running, now);
    state[running] = State::kBlocked;
  }
  std::set<ThreadId> drained;
  for (;;) {
    const ThreadId picked = sched->PickNext(now);
    if (picked == kInvalidThreadId) {
      break;
    }
    ASSERT_TRUE(drained.insert(picked).second)
        << param.policy << " picked " << picked << " twice while draining";
    ASSERT_EQ(state.at(picked), State::kReady);
    state[picked] = State::kRunning;
    sched->OnQuantumEnd(picked, kQuantum, kQuantum, now);
    sched->OnBlocked(picked, now);
    state[picked] = State::kBlocked;
  }
  for (const auto& [id, s] : state) {
    EXPECT_NE(s, State::kReady) << param.policy << ": thread " << id
                                << " stranded in the run queue";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedulerFuzz,
    ::testing::Values(FuzzCase{"lottery-list", 1}, FuzzCase{"lottery-list", 2},
                      FuzzCase{"lottery-tree", 3}, FuzzCase{"lottery-tree", 4},
                      FuzzCase{"stride", 5}, FuzzCase{"stride", 6},
                      FuzzCase{"decay-usage", 7}, FuzzCase{"round-robin", 9}));

}  // namespace
}  // namespace lottery
