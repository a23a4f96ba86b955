// Tests for the runtime half of the determinism contract: the LOT_ASSERT
// invariant layer (src/util/invariant.h, src/core/invariants.h).
//
// Death tests corrupt private state through InvariantTestPeer — bypassing
// the CurrencyTable API, which refuses to create these states — and prove
// the conservation / acyclicity / compensation-bound checks abort with a
// precise message. The sweep tests forge the same states and read the
// findings the sweeps report in every build (the chaos harness's oracles).
// A pass-through test then runs a fig4-style workload and proves the
// checks stay silent on legal mutations (while actually executing:
// InvariantChecksRun() must advance).
//
// All of it is compiled against whatever LOTTERY_INVARIANTS resolved to:
// in Release (checks compiled out) the death tests skip and the
// pass-through asserts that zero checks ran.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/invariants.h"
#include "src/core/lottery_scheduler.h"
#include "src/core/ticket.h"
#include "src/util/invariant.h"

namespace lottery {

// Friend of Currency and Ticket; forges states the public API rejects.
class InvariantTestPeer {
 public:
  static void InflateIssuedAmount(Currency* c, int64_t delta) {
    c->issued_amount_ += delta;
  }
  // Adds a backing edge directly, skipping CurrencyTable::Fund and its
  // cycle check.
  static void SpliceBackingEdge(Currency* target, Ticket* t) {
    t->funds_ = target;
    target->backing_.push_back(t);
  }
  static void MarkRetired(Currency* c) { c->retired_ = true; }
};

namespace {

const SimTime kT0 = SimTime::Zero();

TEST(InvariantDeath, TicketConservationViolationAborts) {
#if !LOT_INVARIANTS_ENABLED
  GTEST_SKIP() << "LOTTERY_INVARIANTS off in this build";
#else
  CurrencyTable table;
  Currency* team = table.CreateCurrency("team");
  table.CreateTicket(team, 100);
  EXPECT_DEATH(
      {
        InvariantTestPeer::InflateIssuedAmount(team, 7);
        invariants::CheckTicketConservation(table);
      },
      "ticket conservation: issued_amount");
#endif
}

TEST(InvariantDeath, CurrencyCycleAborts) {
#if !LOT_INVARIANTS_ENABLED
  GTEST_SKIP() << "LOTTERY_INVARIANTS off in this build";
#else
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Currency* b = table.CreateCurrency("b");
  Ticket* a_to_b = table.CreateTicket(a, 100);
  table.Fund(b, a_to_b);  // legal: b backed by a-denominated ticket
  Ticket* b_to_a = table.CreateTicket(b, 100);
  // Fund(a, b_to_a) would throw; the peer splices the edge behind the
  // API's back, closing the cycle a -> b -> a.
  EXPECT_DEATH(
      {
        InvariantTestPeer::SpliceBackingEdge(a, b_to_a);
        invariants::CheckAcyclicity(table);
      },
      "currency graph cycle");
#endif
}

TEST(InvariantDeath, CompensationAboveCapAborts) {
#if !LOT_INVARIANTS_ENABLED
  GTEST_SKIP() << "LOTTERY_INVARIANTS off in this build";
#else
  CurrencyTable table;
  Client client(&table, "victim");
  client.SetCompensation(50, 10);  // factor 5
  EXPECT_DEATH(invariants::CheckCompensationBound(client, 4),
               "exceeds q/f cap");
#endif
}

TEST(InvariantDeath, LegalStatePassesAllSweeps) {
  // The same sweeps the death tests use must accept API-built state, in
  // any build mode (the functions exist either way; only LOT_ASSERT
  // changes meaning).
  CurrencyTable table;
  Currency* team = table.CreateCurrency("team");
  Ticket* backing = table.CreateTicket(table.base(), 200);
  table.Fund(team, backing);
  table.CreateTicket(team, 100);
  Client client(&table, "ok");
  client.SetCompensation(20, 10);
  invariants::CheckTable(table);
  invariants::CheckCompensationBound(client, 10);
}

// The sweeps report every violated property, one line each, in every
// build.
TEST(InvariantSweep, ConservationReportsEachViolatedProperty) {
  CurrencyTable table;
  Currency* team = table.CreateCurrency("team");
  table.Fund(team, table.CreateTicket(table.base(), 200));
  table.CreateTicket(team, 100);
  Currency* orphan = table.CreateCurrency("orphan");
  std::vector<std::string> findings;
  invariants::SweepTicketConservation(table, &findings);
  EXPECT_TRUE(findings.empty());

  InvariantTestPeer::InflateIssuedAmount(team, 7);
  InvariantTestPeer::MarkRetired(team);  // retired, yet still backed
  // Retired with nothing issued: no DestroyTicket will ever reclaim it.
  InvariantTestPeer::MarkRetired(orphan);
  invariants::SweepTicketConservation(table, &findings);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0],
            "ticket conservation: issued_amount 107 != sum 100 in team");
  EXPECT_EQ(findings[1],
            "ticket conservation: retired currency team still has backing");
  EXPECT_EQ(findings[2],
            "ticket conservation: retired currency orphan has no issued "
            "ticket left");
}

TEST(InvariantSweep, AcyclicityReportsTheCycle) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Currency* b = table.CreateCurrency("b");
  table.Fund(b, table.CreateTicket(a, 100));
  Ticket* b_to_a = table.CreateTicket(b, 100);
  std::vector<std::string> findings;
  invariants::SweepAcyclicity(table, &findings);
  EXPECT_TRUE(findings.empty());

  InvariantTestPeer::SpliceBackingEdge(a, b_to_a);
  invariants::SweepAcyclicity(table, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0], "acyclicity: currency graph cycle through a");
}

TEST(InvariantSweep, CompensationReportsBothBounds) {
  CurrencyTable table;
  Client client(&table, "victim");
  std::vector<std::string> findings;
  client.SetCompensation(40, 10);
  invariants::SweepCompensationBound(client, 4, &findings);
  EXPECT_TRUE(findings.empty());

  client.SetCompensation(50, 10);
  invariants::SweepCompensationBound(client, 4, &findings);
  client.SetCompensation(5, 10);
  invariants::SweepCompensationBound(client, 4, &findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0],
            "compensation: factor 50/10 exceeds q/f cap 4 for victim");
  EXPECT_EQ(findings[1],
            "compensation: factor 5/10 is deflationary (< 1) for victim");
}

// Fig4-style pass-through: a 3:2:1 funded lottery with blocking and a
// remove, on both run-queue backends. No invariant may trip, and in
// invariant-enabled builds the checks must demonstrably execute.
TEST(InvariantPassThrough, Fig4StyleWorkloadTripsNothing) {
  const uint64_t checks_before = internal::InvariantChecksRun();
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree}) {
    LotteryScheduler::Options opts;
    opts.seed = 42;
    opts.backend = backend;
    LotteryScheduler sched(opts);
    for (ThreadId id = 1; id <= 3; ++id) {
      sched.AddThread(id, kT0);
    }
    sched.FundThread(1, sched.table().base(), 300);
    sched.FundThread(2, sched.table().base(), 200);
    sched.FundThread(3, sched.table().base(), 100);
    const SimDuration quantum = SimDuration::Millis(100);
    std::map<ThreadId, int> wins;
    for (int round = 0; round < 300; ++round) {
      for (ThreadId id = 1; id <= 3; ++id) {
        sched.OnReady(id, kT0);
      }
      const ThreadId w = sched.PickNext(kT0);
      ASSERT_NE(w, kInvalidThreadId);
      ++wins[w];
      // Every 7th quantum is under-consumed, exercising compensation.
      const SimDuration used =
          (round % 7 == 0) ? SimDuration::Millis(25) : quantum;
      sched.OnQuantumEnd(w, used, quantum, kT0);
      for (ThreadId id = 1; id <= 3; ++id) {
        if (id != w) {
          sched.OnBlocked(id, kT0);
        }
      }
    }
    EXPECT_GT(wins[1], wins[3]);  // 3:1 funding must show through
    sched.RemoveThread(2, kT0);
    sched.OnReady(1, kT0);
    EXPECT_NE(sched.PickNext(kT0), kInvalidThreadId);
  }
  const uint64_t checks_after = internal::InvariantChecksRun();
  if (LOT_INVARIANTS_ENABLED) {
    EXPECT_GT(checks_after, checks_before)
        << "invariant build ran no LOT_ASSERT conditions";
  } else {
    EXPECT_EQ(checks_after, checks_before);
    EXPECT_EQ(checks_after, 0u);
  }
}

}  // namespace
}  // namespace lottery
