// Ground-truth suite for incremental pricing (dirty propagation).
//
// Every mutation kind — SetAmount, Fund/Unfund, activate/deactivate,
// DestroyTicket, compensation grants, ticket transfers — is mirrored
// against a brute-force full-graph reprice that reads only the structural
// state (amounts, active flags, edges) and never the caches. The cached
// values must be bit-identical to the brute-force ones after every step.
// A second family of tests asserts the *point* of the exercise via the obs
// counters: mutations in one subtree must not reprice the other, and the
// scheduler's tree backend must stay at zero full syncs in steady state.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/lottery_scheduler.h"
#include "src/core/transfer.h"
#include "src/obs/registry.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

// --- Brute-force repricing (no caches) -------------------------------------

Funding BruteCurrencyValue(const Currency* currency);

Funding BruteTicketValue(const Ticket* ticket) {
  if (!ticket->active()) {
    return Funding::Zero();
  }
  const Currency* denom = ticket->denomination();
  if (denom->is_base()) {
    return Funding::FromBase(ticket->amount());
  }
  if (denom->active_amount() <= 0) {
    return Funding::Zero();
  }
  return BruteCurrencyValue(denom).ScaleBy(ticket->amount(),
                                           denom->active_amount());
}

Funding BruteCurrencyValue(const Currency* currency) {
  Funding sum = Funding::Zero();
  for (const Ticket* t : currency->backing()) {
    sum += BruteTicketValue(t);
  }
  return sum;
}

Funding BruteClientValue(const Client& client) {
  if (!client.active()) {
    return Funding::Zero();
  }
  Funding sum = Funding::Zero();
  for (const Ticket* t : client.tickets()) {
    sum += BruteTicketValue(t);
  }
  if (client.compensation_num() != client.compensation_den()) {
    sum = sum.ScaleBy(client.compensation_num(), client.compensation_den());
  }
  return sum;
}

// Asserts the incremental caches agree with brute force for every currency
// and every client — the caches are read first so a stale cache cannot be
// repaired by the brute-force walk.
void ExpectMatchesBruteForce(const CurrencyTable& table,
                             const std::vector<Client*>& clients,
                             const std::string& context) {
  for (const Currency* c : table.Currencies()) {
    if (c->is_base()) {
      continue;
    }
    const Funding cached = table.CurrencyValue(c);
    ASSERT_EQ(cached.raw(), BruteCurrencyValue(c).raw())
        << context << ": stale value for currency " << c->name();
  }
  for (const Client* c : clients) {
    const Funding cached = c->Value();
    ASSERT_EQ(cached.raw(), BruteClientValue(*c).raw())
        << context << ": stale value for client " << c->name();
  }
}

// --- Every mutation kind against ground truth -------------------------------

// Figure 3-shaped fixture: base -> alice (3000), base -> bob (2000);
// alice -> {task1 (100), task2 (200)}; task2 -> {thread2 (300)};
// bob -> {thread3 (100)}; plus per-thread clients.
class InvalidationGroundTruth : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = table_.CreateCurrency("alice");
    bob_ = table_.CreateCurrency("bob");
    task1_ = table_.CreateCurrency("task1");
    task2_ = table_.CreateCurrency("task2");
    alice_base_ = table_.CreateTicket(table_.base(), 3000);
    table_.Fund(alice_, alice_base_);
    bob_base_ = table_.CreateTicket(table_.base(), 2000);
    table_.Fund(bob_, bob_base_);
    task1_ticket_ = table_.CreateTicket(alice_, 100);
    table_.Fund(task1_, task1_ticket_);
    task2_ticket_ = table_.CreateTicket(alice_, 200);
    table_.Fund(task2_, task2_ticket_);

    c1_ = std::make_unique<Client>(&table_, "thread1");
    c1_->HoldTicket(table_.CreateTicket(task1_, 500));
    c2_ = std::make_unique<Client>(&table_, "thread2");
    c2_->HoldTicket(table_.CreateTicket(task2_, 300));
    c3_ = std::make_unique<Client>(&table_, "thread3");
    c3_->HoldTicket(table_.CreateTicket(bob_, 100));
    c1_->SetActive(true);
    c2_->SetActive(true);
    c3_->SetActive(true);
    clients_ = {c1_.get(), c2_.get(), c3_.get()};
  }

  void Check(const std::string& context) {
    ExpectMatchesBruteForce(table_, clients_, context);
  }

  CurrencyTable table_;
  Currency* alice_ = nullptr;
  Currency* bob_ = nullptr;
  Currency* task1_ = nullptr;
  Currency* task2_ = nullptr;
  Ticket* alice_base_ = nullptr;
  Ticket* bob_base_ = nullptr;
  Ticket* task1_ticket_ = nullptr;
  Ticket* task2_ticket_ = nullptr;
  std::unique_ptr<Client> c1_, c2_, c3_;
  std::vector<Client*> clients_;
};

TEST_F(InvalidationGroundTruth, SetAmountOnEveryLevel) {
  Check("initial");
  table_.SetAmount(task1_ticket_, 400);  // mid-graph inflation
  Check("after inflating task1's funding");
  table_.SetAmount(alice_base_, 1000);  // root-level deflation
  Check("after deflating alice's base funding");
  table_.SetAmount(c2_->tickets()[0], 50);  // leaf (held ticket)
  Check("after deflating thread2's held ticket");
  table_.SetAmount(task1_ticket_, 400);  // no-op SetAmount
  Check("after no-op SetAmount");
}

TEST_F(InvalidationGroundTruth, SetAmountOnInactiveTicket) {
  c1_->SetActive(false);
  Check("after deactivating thread1");
  // thread1's chain is inactive; inflating its held ticket must not corrupt
  // anyone's cache, and the value must be right once it reactivates.
  table_.SetAmount(c1_->tickets()[0], 900);
  Check("after inflating an inactive ticket");
  c1_->SetActive(true);
  Check("after reactivating thread1");
}

TEST_F(InvalidationGroundTruth, FundAndUnfund) {
  Ticket* extra = table_.CreateTicket(table_.base(), 700);
  Check("after creating an unattached ticket");
  table_.Fund(alice_, extra);
  Check("after funding alice with new base ticket");
  table_.Unfund(extra);
  Check("after unfunding it again");
  // Re-route the same ticket to the other user's subtree.
  table_.Fund(bob_, extra);
  Check("after funding bob instead");
  table_.DestroyTicket(extra);
  Check("after destroying the routed ticket");
}

TEST_F(InvalidationGroundTruth, ActivationCascades) {
  c2_->SetActive(false);
  Check("after thread2 blocks");
  // task2 is now fully inactive; its backing deactivated up the chain.
  EXPECT_EQ(task2_->active_amount(), 0);
  c2_->SetActive(true);
  Check("after thread2 unblocks");
  // Blocking both of alice's consumers deactivates alice herself.
  c1_->SetActive(false);
  c2_->SetActive(false);
  Check("after both of alice's threads block");
  EXPECT_EQ(alice_->active_amount(), 0);
  c1_->SetActive(true);
  Check("after thread1 unblocks alone");
}

TEST_F(InvalidationGroundTruth, HoldAndReleaseAndDestroy) {
  Ticket* second = table_.CreateTicket(task1_, 250);
  c1_->HoldTicket(second);
  Check("after thread1 holds a second task1 ticket");
  c1_->ReleaseTicket(second);
  Check("after releasing it");
  c2_->HoldTicket(second);
  Check("after thread2 holds it instead");
  table_.DestroyTicket(second);  // destroys while held: detaches first
  Check("after destroying the held ticket");
}

TEST_F(InvalidationGroundTruth, CompensationGrantAndClear) {
  c1_->SetCompensation(5, 1);
  Check("after 5x compensation on thread1");
  c1_->SetCompensation(10, 7);
  Check("after adjusting the factor");
  c1_->ClearCompensation();
  Check("after clearing compensation");
  c1_->ClearCompensation();  // second clear is a no-op
  Check("after redundant clear");
}

TEST_F(InvalidationGroundTruth, TicketTransfers) {
  Currency* server = table_.CreateCurrency("server");
  Client worker(&table_, "worker");
  worker.HoldTicket(table_.CreateTicket(server, 1));
  worker.SetActive(true);
  clients_.push_back(&worker);
  {
    // thread3 blocks on the server: its funding flows through the transfer.
    TicketTransfer transfer(&table_, bob_, server, 1000);
    Check("after creating the transfer");
    c3_->SetActive(false);
    Check("after the transferring client blocks");
    transfer.Retarget(task1_);
    Check("after retargeting the transfer");
    transfer.Retarget(server);
    c3_->SetActive(true);
    Check("after the client unblocks with the transfer live");
  }
  Check("after the transfer is destroyed");
  clients_.pop_back();
}

TEST_F(InvalidationGroundTruth, DestroyCurrencySubtree) {
  // Drain task1: release the held ticket, destroy issued tickets, then the
  // currency itself (which retires its backing).
  c1_->ReleaseTicket(c1_->tickets()[0]);
  Check("after thread1 releases its ticket");
  Ticket* issued = table_.Tickets().front();
  for (Ticket* t : table_.Tickets()) {
    if (t->denomination() == task1_ && t->holder() == nullptr &&
        t->funds() == nullptr) {
      issued = t;
      table_.DestroyTicket(t);
    }
  }
  Check("after destroying task1's detached issued ticket");
  (void)issued;
  table_.DestroyCurrency(task1_);
  Check("after destroying the task1 currency");
}

// --- Randomized sweep: every value exact after every random mutation --------

class InvalidationFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InvalidationFuzz, RandomMutationsStayGroundTrue) {
  FastRand rng(GetParam());
  CurrencyTable table;
  std::vector<std::unique_ptr<Client>> owned;
  int name_counter = 0;

  auto random_currency = [&]() -> Currency* {
    const auto all = table.Currencies();
    return all[rng.NextBelow(static_cast<uint32_t>(all.size()))];
  };
  auto random_ticket = [&]() -> Ticket* {
    const auto all = table.Tickets();
    return all.empty()
               ? nullptr
               : all[rng.NextBelow(static_cast<uint32_t>(all.size()))];
  };

  for (int step = 0; step < 400; ++step) {
    const uint32_t op = rng.NextBelow(12);
    try {
      switch (op) {
        case 0:
          if (table.num_currencies() < 10) {
            table.CreateCurrency("cur" + std::to_string(name_counter++));
          }
          break;
        case 1:
          if (table.num_tickets() < 50) {
            table.CreateTicket(random_currency(), 1 + rng.NextBelow(1000));
          }
          break;
        case 2: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.Fund(random_currency(), t);
          }
          break;
        }
        case 3: {
          Ticket* t = random_ticket();
          if (t != nullptr && t->funds() != nullptr) {
            table.Unfund(t);
          }
          break;
        }
        case 4: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.DestroyTicket(t);
          }
          break;
        }
        case 5: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.SetAmount(t, 1 + rng.NextBelow(2000));
          }
          break;
        }
        case 6:
          if (owned.size() < 12) {
            owned.push_back(std::make_unique<Client>(
                &table, "client" + std::to_string(name_counter++)));
          }
          break;
        case 7: {
          Ticket* t = random_ticket();
          if (t != nullptr && !owned.empty() && t->holder() == nullptr &&
              t->funds() == nullptr) {
            owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                ->HoldTicket(t);
          }
          break;
        }
        case 8: {
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            if (!c->tickets().empty()) {
              c->ReleaseTicket(c->tickets()[rng.NextBelow(
                  static_cast<uint32_t>(c->tickets().size()))]);
            }
          }
          break;
        }
        case 9: {
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            c->SetActive(!c->active());
          }
          break;
        }
        case 10: {  // compensation grant (the per-quantum hot mutation)
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            c->SetCompensation(1 + rng.NextBelow(20), 1 + rng.NextBelow(5));
          }
          break;
        }
        case 11: {
          if (!owned.empty()) {
            owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                ->ClearCompensation();
          }
          break;
        }
      }
    } catch (const std::invalid_argument&) {
      // Legitimately rejected operation; values must still be exact.
    }
    std::vector<Client*> clients;
    for (const auto& c : owned) {
      clients.push_back(c.get());
    }
    ExpectMatchesBruteForce(table, clients,
                            "seed " + std::to_string(GetParam()) + " step " +
                                std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationFuzz,
                         ::testing::Values(7u, 11u, 23u, 42u, 1994u));

// --- Cache retention: untouched subtrees stay cached ------------------------

TEST(CacheRetention, MutationInOneSubtreeDoesNotRepriceTheOther) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  CurrencyTable table(&reg);
  // Two disjoint user subtrees, two levels deep each.
  struct Subtree {
    Currency* user;
    Currency* task;
    Ticket* funding;
    std::unique_ptr<Client> client;
  };
  auto build = [&](const std::string& name) {
    Subtree s;
    s.user = table.CreateCurrency(name);
    table.Fund(s.user, table.CreateTicket(table.base(), 1000));
    s.task = table.CreateCurrency(name + ".task");
    s.funding = table.CreateTicket(s.user, 100);
    table.Fund(s.task, s.funding);
    s.client = std::make_unique<Client>(&table, name + ".thread");
    s.client->HoldTicket(table.CreateTicket(s.task, 10));
    s.client->SetActive(true);
    return s;
  };
  Subtree a = build("a");
  Subtree b = build("b");

  // Prime every cache.
  (void)a.client->Value();
  (void)b.client->Value();
  for (const Currency* c : table.Currencies()) {
    (void)table.CurrencyValue(c);
  }

  const uint64_t reprices_before = reg.counter("currency.reprices")->value();
  const uint64_t client_reprices_before =
      reg.counter("client.reprices")->value();

  // Inflate a's task funding: dirties a.task and a's client — nothing in b.
  table.SetAmount(a.funding, 250);
  const uint64_t dirty_after = reg.counter("currency.dirty_marks")->value();

  // Re-query *everything*; only a's chain may reprice.
  (void)a.client->Value();
  (void)b.client->Value();
  for (const Currency* c : table.Currencies()) {
    (void)table.CurrencyValue(c);
  }
  const uint64_t reprices = reg.counter("currency.reprices")->value() -
                            reprices_before;
  const uint64_t client_reprices =
      reg.counter("client.reprices")->value() - client_reprices_before;
  EXPECT_EQ(reprices, 1u) << "only a.task should reprice";
  EXPECT_EQ(client_reprices, 1u) << "only a's client should reprice";
  EXPECT_GT(dirty_after, 0u);

  // And the repriced values are right.
  EXPECT_EQ(a.client->Value().raw(), BruteClientValue(*a.client).raw());
  EXPECT_EQ(b.client->Value().raw(), BruteClientValue(*b.client).raw());
}

TEST(CacheRetention, CompensationDirtiesOnlyTheGrantedClient) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  CurrencyTable table(&reg);
  Currency* shared = table.CreateCurrency("shared");
  table.Fund(shared, table.CreateTicket(table.base(), 1000));
  Client x(&table, "x");
  x.HoldTicket(table.CreateTicket(shared, 1));
  x.SetActive(true);
  Client y(&table, "y");
  y.HoldTicket(table.CreateTicket(shared, 1));
  y.SetActive(true);
  (void)x.Value();
  (void)y.Value();
  (void)table.CurrencyValue(shared);

  const uint64_t reprices_before = reg.counter("currency.reprices")->value();
  x.SetCompensation(3, 1);
  (void)x.Value();
  (void)y.Value();
  EXPECT_EQ(reg.counter("currency.reprices")->value(), reprices_before)
      << "a compensation grant must not reprice any currency";
  EXPECT_EQ(x.Value().raw(), BruteClientValue(x).raw());
  EXPECT_EQ(y.Value().raw(), BruteClientValue(y).raw());
}

// --- Observer notifications -------------------------------------------------

class RecordingObserver : public ValueObserver {
 public:
  void OnClientValueDirty(Client* client) override {
    notified.push_back(client);
  }
  std::vector<Client*> notified;
};

TEST(ValueObserverTest, NotifiedOnEveryValueAffectingMutation) {
  CurrencyTable table;
  RecordingObserver obs;
  table.AddObserver(&obs);
  Currency* cur = table.CreateCurrency("cur");
  Ticket* backing = table.CreateTicket(table.base(), 100);
  table.Fund(cur, backing);
  Client c(&table, "c");
  c.HoldTicket(table.CreateTicket(cur, 10));

  obs.notified.clear();
  c.SetActive(true);
  EXPECT_FALSE(obs.notified.empty());

  // A refreshed observer must be re-notified by the next mutation even
  // though the client's own dirty flag was already consumed.
  (void)c.Value();
  obs.notified.clear();
  table.SetAmount(backing, 900);
  ASSERT_FALSE(obs.notified.empty());
  EXPECT_EQ(obs.notified.front(), &c);
  (void)c.Value();
  obs.notified.clear();
  table.SetAmount(backing, 901);
  EXPECT_FALSE(obs.notified.empty());

  table.RemoveObserver(&obs);
  obs.notified.clear();
  table.SetAmount(backing, 500);
  EXPECT_TRUE(obs.notified.empty());
}

// --- Scheduler steady state: no full syncs under compensation churn ---------

TEST(TreeBackendSteadyState, CompensationChurnCostsNoFullSyncs) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kTree;
  opts.metrics = &reg;
  opts.seed = 42;
  LotteryScheduler sched(opts);
  const SimTime t0 = SimTime::Zero();
  for (ThreadId id = 1; id <= 32; ++id) {
    sched.AddThread(id, t0);
    sched.FundThread(id, sched.table().base(), 50 + int64_t(id) * 10);
    sched.OnReady(id, t0);
  }
  // Warm up: first dispatches absorb the arrival burst.
  for (int i = 0; i < 64; ++i) {
    const ThreadId id = sched.PickNext(t0);
    ASSERT_NE(id, kInvalidThreadId);
    sched.OnQuantumEnd(id, SimDuration::Millis(100), SimDuration::Millis(100),
                       t0);
    sched.OnReady(id, t0);
  }
  reg.Reset();
  // Steady state with compensation churn: every quantum under-consumes, so
  // every dispatch grants a compensation ticket — and still no dispatch may
  // fall back to a full tree resync.
  for (int i = 0; i < 1000; ++i) {
    const ThreadId id = sched.PickNext(t0);
    ASSERT_NE(id, kInvalidThreadId);
    sched.OnQuantumEnd(id, SimDuration::Millis(20), SimDuration::Millis(100),
                       t0);
    sched.OnReady(id, t0);
  }
  EXPECT_EQ(reg.counter("tree.full_syncs")->value(), 0u);
  // The churned thread re-enters the queue with a fresh weight, so even
  // leaf updates stay rare (only clients dirtied while queued need one).
  EXPECT_LE(reg.counter("tree.leaf_updates")->value(), 2000u);
  EXPECT_EQ(reg.counter("lottery.draws")->value(), 1000u);
}

TEST(TreeBackendSteadyState, InflationOnQueuedThreadUpdatesOneLeaf) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kTree;
  opts.metrics = &reg;
  LotteryScheduler sched(opts);
  const SimTime t0 = SimTime::Zero();
  std::vector<Ticket*> funding;
  for (ThreadId id = 1; id <= 16; ++id) {
    sched.AddThread(id, t0);
    funding.push_back(sched.FundThread(id, sched.table().base(), 100));
    sched.OnReady(id, t0);
  }
  // Drain the arrival burst and leave every thread sitting in the queue.
  for (int i = 0; i < 2; ++i) {
    const ThreadId running = sched.PickNext(t0);
    sched.OnQuantumEnd(running, SimDuration::Millis(100),
                       SimDuration::Millis(100), t0);
    sched.OnReady(running, t0);
  }

  reg.Reset();
  // Inflate one queued thread's funding: exactly one leaf must be re-pushed
  // on the next dispatch.
  sched.table().SetAmount(funding[7], 900);
  (void)sched.PickNext(t0);
  EXPECT_EQ(reg.counter("tree.leaf_updates")->value(), 1u);
  EXPECT_EQ(reg.counter("tree.full_syncs")->value(), 0u);
}

// --- Scheduler dirty list: marks that never reach a leaf --------------------

// A tree backend with `n` base-funded threads (100 tickets each) queued, the
// arrival burst already synced.
struct TreeRig {
  obs::Registry reg;
  std::unique_ptr<LotteryScheduler> sched;
  std::vector<Ticket*> funding;  // funding[id - 1]

  explicit TreeRig(ThreadId n) {
    LotteryScheduler::Options opts;
    opts.backend = RunQueueBackend::kTree;
    opts.metrics = &reg;
    opts.seed = 42;
    sched = std::make_unique<LotteryScheduler>(opts);
    for (ThreadId id = 1; id <= n; ++id) {
      sched->AddThread(id, SimTime::Zero());
      sched->OnReady(id, SimTime::Zero());
      funding.push_back(sched->FundThread(id, sched->table().base(), 100));
    }
    (void)sched->RunnableTickets();
  }

  // One dispatch that runs its whole quantum and requeues.
  ThreadId Cycle() {
    const ThreadId id = sched->PickNext(SimTime::Zero());
    EXPECT_NE(id, kInvalidThreadId);
    sched->OnQuantumEnd(id, SimDuration::Millis(100), SimDuration::Millis(100),
                        SimTime::Zero());
    sched->OnReady(id, SimTime::Zero());
    return id;
  }

  uint64_t Count(const std::string& name) {
    return reg.counter(name)->value();
  }
};

// Every queued weight the tree draws from equals the client's current value.
void ExpectTreeMatchesClients(LotteryScheduler& sched) {
  for (const auto& [id, weight] : sched.QueuedSnapshot()) {
    EXPECT_EQ(weight, sched.ThreadValue(id).raw_unsigned()) << "thread " << id;
  }
}

TEST(TreeBackendSteadyState, MarkBlockWakeBeforeAPickCostsNoLeafUpdate) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  TreeRig rig(16);
  rig.reg.Reset();
  ASSERT_TRUE(rig.sched->IsQueued(5));
  // Marked while queued, then blocked and woken: OnReady seeds the slot with
  // the new value, so the mark is spent before any sync sees it.
  rig.sched->table().SetAmount(rig.funding[4], 700);
  rig.sched->OnBlocked(5, SimTime::Zero());
  rig.sched->OnReady(5, SimTime::Zero());
  (void)rig.sched->PickNext(SimTime::Zero());
  EXPECT_EQ(rig.Count("tree.leaf_updates"), 0u);
  EXPECT_EQ(rig.Count("tree.full_syncs"), 0u);
  ExpectTreeMatchesClients(*rig.sched);
}

TEST(TreeBackendSteadyState, MarksOnThreadsNotYetReadyCountTowardAFullSync) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  TreeRig rig(4);
  rig.reg.Reset();
  // Added but not readied: taking its self ticket marks each new client.
  for (ThreadId id = 5; id <= 12; ++id) {
    rig.sched->AddThread(id, SimTime::Zero());
  }
  (void)rig.sched->PickNext(SimTime::Zero());
  // 8 marked threads against 4 queued: one bulk resync.
  EXPECT_EQ(rig.Count("tree.full_syncs"), 1u);
  EXPECT_EQ(rig.Count("tree.leaf_updates"), 0u);
}

TEST(TreeBackendSteadyState, RemovingAThreadWithAPendingMarkKeepsPicksRight) {
  TreeRig rig(16);
  // Queued: inflate thread 3, then remove it before any sync.
  ASSERT_TRUE(rig.sched->IsQueued(3));
  rig.sched->table().SetAmount(rig.funding[2], 900);
  rig.sched->RemoveThread(3, SimTime::Zero());
  // Unqueued: a winner that under-consumes its quantum is marked by the
  // compensation grant, then exits before it is requeued.
  const ThreadId exiting = rig.sched->PickNext(SimTime::Zero());
  ASSERT_NE(exiting, kInvalidThreadId);
  ASSERT_NE(exiting, 3u);
  rig.sched->OnQuantumEnd(exiting, SimDuration::Millis(20),
                          SimDuration::Millis(100), SimTime::Zero());
  ASSERT_TRUE(rig.sched->client(exiting)->has_compensation());
  rig.sched->RemoveThread(exiting, SimTime::Zero());

  EXPECT_EQ(rig.sched->QueuedCount(), 14u);
  ExpectTreeMatchesClients(*rig.sched);
  for (int i = 0; i < 200; ++i) {
    const ThreadId id = rig.Cycle();
    ASSERT_NE(id, 3u);
    ASSERT_NE(id, exiting);
  }
  ExpectTreeMatchesClients(*rig.sched);
}

TEST(TreeBackendSteadyState, BlockWakeAfterArrivalBurstCostsNoSyncs) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  // Large enough that the burst dwarfs the steady state's marks.
  constexpr ThreadId kThreads = 4096;
  TreeRig rig(kThreads);
  // Half the population sleeps; each dispatch's winner blocks and the
  // longest sleeper wakes, so the queue holds half of it throughout.
  std::vector<ThreadId> asleep;
  for (ThreadId id = 2; id <= kThreads; id += 2) {
    rig.sched->OnBlocked(id, SimTime::Zero());
    asleep.push_back(id);
  }
  (void)rig.Cycle();
  rig.reg.Reset();
  for (size_t i = 0; i < 5000; ++i) {
    const ThreadId id = rig.sched->PickNext(SimTime::Zero());
    ASSERT_NE(id, kInvalidThreadId);
    rig.sched->OnQuantumEnd(id, SimDuration::Millis(100),
                            SimDuration::Millis(100), SimTime::Zero());
    rig.sched->OnBlocked(id, SimTime::Zero());
    asleep.push_back(id);
    rig.sched->OnReady(asleep[i], SimTime::Zero());
  }
  EXPECT_EQ(rig.Count("lottery.draws"), 5000u);
  EXPECT_EQ(rig.Count("tree.full_syncs"), 0u);
  EXPECT_EQ(rig.Count("tree.leaf_updates"), 0u);
  EXPECT_EQ(rig.sched->QueuedCount(), kThreads / 2);
  ExpectTreeMatchesClients(*rig.sched);
}

}  // namespace
}  // namespace lottery
