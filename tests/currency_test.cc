// Tests for the currency graph: creation, funding edges, activation
// propagation, value computation (Section 4.4), ACLs, and error handling.

#include "src/core/currency.h"

#include <gtest/gtest.h>

#include "src/core/client.h"

namespace lottery {
namespace {

TEST(CurrencyTable, StartsWithBaseCurrency) {
  CurrencyTable table;
  ASSERT_NE(table.base(), nullptr);
  EXPECT_TRUE(table.base()->is_base());
  EXPECT_EQ(table.base()->name(), "base");
  EXPECT_EQ(table.num_currencies(), 1u);
  EXPECT_EQ(table.FindCurrency("base"), table.base());
}

TEST(CurrencyTable, CreateAndFindCurrency) {
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice");
  EXPECT_EQ(table.FindCurrency("alice"), alice);
  EXPECT_EQ(table.FindCurrency("bob"), nullptr);
  EXPECT_FALSE(alice->is_base());
  EXPECT_EQ(table.num_currencies(), 2u);
}

TEST(CurrencyTable, RejectsDuplicateNames) {
  CurrencyTable table;
  table.CreateCurrency("alice");
  EXPECT_THROW(table.CreateCurrency("alice"), std::invalid_argument);
}

TEST(CurrencyTable, CannotDestroyBase) {
  CurrencyTable table;
  EXPECT_THROW(table.DestroyCurrency(table.base()), std::invalid_argument);
}

TEST(CurrencyTable, TicketBookkeeping) {
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice");
  Ticket* t = table.CreateTicket(alice, 100);
  EXPECT_EQ(t->amount(), 100);
  EXPECT_EQ(t->denomination(), alice);
  EXPECT_EQ(alice->issued_amount(), 100);
  EXPECT_EQ(alice->active_amount(), 0);  // unattached tickets are inactive
  EXPECT_EQ(table.num_tickets(), 1u);
  table.DestroyTicket(t);
  EXPECT_EQ(alice->issued_amount(), 0);
  EXPECT_EQ(table.num_tickets(), 0u);
}

TEST(CurrencyTable, RejectsNonPositiveAmounts) {
  CurrencyTable table;
  EXPECT_THROW(table.CreateTicket(table.base(), 0), std::invalid_argument);
  EXPECT_THROW(table.CreateTicket(table.base(), -5), std::invalid_argument);
  Ticket* t = table.CreateTicket(table.base(), 5);
  EXPECT_THROW(table.SetAmount(t, 0), std::invalid_argument);
}

TEST(CurrencyTable, FundAndUnfund) {
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice");
  Ticket* backing = table.CreateTicket(table.base(), 1000);
  table.Fund(alice, backing);
  EXPECT_EQ(backing->funds(), alice);
  ASSERT_EQ(alice->backing().size(), 1u);
  table.Unfund(backing);
  EXPECT_EQ(backing->funds(), nullptr);
  EXPECT_TRUE(alice->backing().empty());
}

TEST(CurrencyTable, CannotFundBase) {
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice");
  Ticket* t = table.CreateTicket(alice, 10);
  EXPECT_THROW(table.Fund(table.base(), t), std::invalid_argument);
}

TEST(CurrencyTable, CannotDoubleAttach) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Currency* b = table.CreateCurrency("b");
  Ticket* t = table.CreateTicket(table.base(), 10);
  table.Fund(a, t);
  EXPECT_THROW(table.Fund(b, t), std::invalid_argument);
}

TEST(CurrencyTable, RejectsSelfCycle) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Ticket* t = table.CreateTicket(a, 10);
  EXPECT_THROW(table.Fund(a, t), std::invalid_argument);
}

TEST(CurrencyTable, RejectsTwoStepCycle) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Currency* b = table.CreateCurrency("b");
  Ticket* a_in_b = table.CreateTicket(b, 10);
  table.Fund(a, a_in_b);  // a depends on b
  Ticket* b_in_a = table.CreateTicket(a, 10);
  EXPECT_THROW(table.Fund(b, b_in_a), std::invalid_argument);
}

TEST(CurrencyTable, AllowsDiamondGraph) {
  // Acyclic but not a tree: two currencies funded from base, one child
  // funded from both (the paper allows arbitrary acyclic graphs).
  CurrencyTable table;
  Currency* left = table.CreateCurrency("left");
  Currency* right = table.CreateCurrency("right");
  Currency* child = table.CreateCurrency("child");
  table.Fund(left, table.CreateTicket(table.base(), 100));
  table.Fund(right, table.CreateTicket(table.base(), 300));
  table.Fund(child, table.CreateTicket(left, 10));
  table.Fund(child, table.CreateTicket(right, 10));
  SUCCEED();
}

TEST(CurrencyTable, CycleCheckSurvivesDeepDiamondGraph) {
  // A 32-layer ladder of 2 currencies per layer, each funded by tickets
  // from both currencies of the layer below, has 2^32 root-to-base paths.
  // The Reaches visited set makes the Fund cycle check linear in edges, so
  // this test finishes instantly instead of effectively hanging.
  CurrencyTable table;
  Currency* prev[2] = {table.CreateCurrency("l0a"), table.CreateCurrency("l0b")};
  table.Fund(prev[0], table.CreateTicket(table.base(), 10));
  table.Fund(prev[1], table.CreateTicket(table.base(), 10));
  for (int layer = 1; layer < 32; ++layer) {
    Currency* cur[2] = {
        table.CreateCurrency("l" + std::to_string(layer) + "a"),
        table.CreateCurrency("l" + std::to_string(layer) + "b")};
    for (Currency* c : cur) {
      table.Fund(c, table.CreateTicket(prev[0], 5));
      table.Fund(c, table.CreateTicket(prev[1], 5));
    }
    prev[0] = cur[0];
    prev[1] = cur[1];
  }
  // Legal edge into the top layer is accepted...
  Currency* top = table.CreateCurrency("top");
  table.Fund(top, table.CreateTicket(prev[0], 1));
  // ...and a back edge from the bottom to the top is still rejected.
  Currency* bottom = table.FindCurrency("l0a");
  Ticket* back = table.CreateTicket(top, 1);
  EXPECT_THROW(table.Fund(bottom, back), std::invalid_argument);
}

TEST(CurrencyTable, DestroyCurrencyRequiresNoIssuedTickets) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Ticket* t = table.CreateTicket(a, 10);
  EXPECT_THROW(table.DestroyCurrency(a), std::logic_error);
  table.DestroyTicket(t);
  table.DestroyCurrency(a);
  EXPECT_EQ(table.FindCurrency("a"), nullptr);
}

TEST(CurrencyTable, DestroyCurrencyRetiresBackingTickets) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 100));
  table.Fund(a, table.CreateTicket(table.base(), 200));
  EXPECT_EQ(table.num_tickets(), 2u);
  table.DestroyCurrency(a);
  EXPECT_EQ(table.num_tickets(), 0u);
}

// --- Activation propagation (Section 4.4) ---------------------------------

class ActivationTest : public ::testing::Test {
 protected:
  // base -> alice(1000 base) -> task(200 alice) held by client.
  void SetUp() override {
    alice_ = table_.CreateCurrency("alice");
    task_ = table_.CreateCurrency("task");
    alice_backing_ = table_.CreateTicket(table_.base(), 1000);
    table_.Fund(alice_, alice_backing_);
    task_backing_ = table_.CreateTicket(alice_, 200);
    table_.Fund(task_, task_backing_);
    held_ = table_.CreateTicket(task_, 100);
    client_ = std::make_unique<Client>(&table_, "c");
    client_->HoldTicket(held_);
  }

  CurrencyTable table_;
  Currency* alice_ = nullptr;
  Currency* task_ = nullptr;
  Ticket* alice_backing_ = nullptr;
  Ticket* task_backing_ = nullptr;
  Ticket* held_ = nullptr;
  std::unique_ptr<Client> client_;
};

TEST_F(ActivationTest, InactiveByDefault) {
  EXPECT_FALSE(held_->active());
  EXPECT_FALSE(task_backing_->active());
  EXPECT_FALSE(alice_backing_->active());
  EXPECT_EQ(task_->active_amount(), 0);
  EXPECT_EQ(alice_->active_amount(), 0);
}

TEST_F(ActivationTest, ActivationCascadesToBase) {
  client_->SetActive(true);
  EXPECT_TRUE(held_->active());
  EXPECT_TRUE(task_backing_->active());
  EXPECT_TRUE(alice_backing_->active());
  EXPECT_EQ(task_->active_amount(), 100);
  EXPECT_EQ(alice_->active_amount(), 200);
  EXPECT_EQ(table_.base()->active_amount(), 1000);
}

TEST_F(ActivationTest, DeactivationCascadesBack) {
  client_->SetActive(true);
  client_->SetActive(false);
  EXPECT_FALSE(held_->active());
  EXPECT_FALSE(task_backing_->active());
  EXPECT_FALSE(alice_backing_->active());
  EXPECT_EQ(alice_->active_amount(), 0);
}

TEST_F(ActivationTest, SecondActiveTicketDoesNotReActivateBacking) {
  client_->SetActive(true);
  Ticket* second = table_.CreateTicket(task_, 50);
  Client other(&table_, "other");
  other.HoldTicket(second);
  other.SetActive(true);
  EXPECT_EQ(task_->active_amount(), 150);
  // alice's active amount is unchanged: task's backing ticket was already
  // active (its amount doesn't scale with task activity).
  EXPECT_EQ(alice_->active_amount(), 200);
  other.SetActive(false);
  EXPECT_EQ(task_->active_amount(), 100);
  EXPECT_TRUE(task_backing_->active());
  table_.DestroyTicket(second);
}

TEST_F(ActivationTest, SetAmountAdjustsActiveSum) {
  client_->SetActive(true);
  table_.SetAmount(held_, 300);
  EXPECT_EQ(task_->active_amount(), 300);
  EXPECT_EQ(task_->issued_amount(), 300);
  table_.SetAmount(held_, 100);
  EXPECT_EQ(task_->active_amount(), 100);
}

// --- Value computation (Section 4.4) ---------------------------------------

TEST_F(ActivationTest, ValuesFollowTheShareFormula) {
  client_->SetActive(true);
  // held = 100/100 of task; task = 200/200 of alice = 1000 base.
  EXPECT_EQ(table_.TicketValue(held_).base_units(), 1000);
  EXPECT_EQ(table_.CurrencyValue(task_).base_units(), 1000);
  EXPECT_EQ(table_.CurrencyValue(alice_).base_units(), 1000);
}

TEST_F(ActivationTest, InactiveTicketsAreWorthless) {
  EXPECT_TRUE(table_.TicketValue(held_).IsZero());
}

TEST_F(ActivationTest, SharesSplitAcrossActiveSiblings) {
  client_->SetActive(true);
  Ticket* second = table_.CreateTicket(task_, 300);
  Client other(&table_, "other");
  other.HoldTicket(second);
  other.SetActive(true);
  // Active amount in task = 400; held is 100/400 of 1000 base.
  EXPECT_EQ(table_.TicketValue(held_).base_units(), 250);
  EXPECT_EQ(table_.TicketValue(second).base_units(), 750);
  other.SetActive(false);
  // Inactive siblings do not dilute (the paper's inactive task1 case).
  EXPECT_EQ(table_.TicketValue(held_).base_units(), 1000);
  table_.DestroyTicket(second);
}

TEST(CurrencyValues, Figure3Example) {
  // Figure 3 of the paper: alice funded 2000 base + (via bob's 100) etc.
  // We reproduce the stated thread values: thread2 = 400, thread3 = 600,
  // thread4 = 2000 when thread1's task1 is inactive.
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice");
  Currency* bob = table.CreateCurrency("bob");
  Currency* task1 = table.CreateCurrency("task1");
  Currency* task2 = table.CreateCurrency("task2");
  Currency* task3 = table.CreateCurrency("task3");

  table.Fund(alice, table.CreateTicket(table.base(), 2000));
  table.Fund(bob, table.CreateTicket(table.base(), 1000));
  // alice: task1 gets 100, task2 gets 200 (total issued 300).
  table.Fund(task1, table.CreateTicket(alice, 100));
  table.Fund(task2, table.CreateTicket(alice, 200));
  // bob: task3 gets 100 (all of bob).
  table.Fund(task3, table.CreateTicket(bob, 100));

  // Threads: thread1 holds 100.task1 (inactive); thread2 and thread3 hold
  // 300 and 200 of task2's 500; thread4 holds all of task3.
  Client thread1(&table, "t1"), thread2(&table, "t2"), thread3(&table, "t3"),
      thread4(&table, "t4");
  Ticket* h1 = table.CreateTicket(task1, 100);
  Ticket* h2 = table.CreateTicket(task2, 300);
  Ticket* h3 = table.CreateTicket(task2, 200);
  Ticket* h4 = table.CreateTicket(task3, 100);
  thread1.HoldTicket(h1);
  thread2.HoldTicket(h2);
  thread3.HoldTicket(h3);
  thread4.HoldTicket(h4);

  thread2.SetActive(true);
  thread3.SetActive(true);
  thread4.SetActive(true);
  // thread1 stays inactive -> task1's claim on alice is inactive, so
  // task2's 200 is alice's entire active amount: task2 = 2000 base.
  EXPECT_EQ(table.CurrencyValue(task2).base_units(), 2000);
  EXPECT_EQ(thread2.Value().base_units(), 1200);  // 300/500 of 2000
  EXPECT_EQ(thread3.Value().base_units(), 800);   // 200/500 of 2000
  EXPECT_EQ(thread4.Value().base_units(), 1000);  // all of bob

  // Waking thread1 dilutes alice between task1 and task2.
  thread1.SetActive(true);
  EXPECT_EQ(table.CurrencyValue(task1).base_units(), 2000 * 100 / 300);
  EXPECT_EQ(table.CurrencyValue(task2).base_units(), 2000 * 200 / 300);
}

TEST(CurrencyValues, SecondTaskDilutesOnlyItsOwnUser) {
  // Figure 3's user/task layers: a user's new task takes its share out of
  // that user's other tasks, never out of another user.
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice", "alice");
  Currency* bob = table.CreateCurrency("bob", "bob");
  table.Fund(alice, table.CreateTicket(table.base(), 1000));
  table.Fund(bob, table.CreateTicket(table.base(), 1000));
  Currency* a_work = table.CreateCurrency("alice/work", "alice");
  Currency* b_work = table.CreateCurrency("bob/work", "bob");
  table.Fund(a_work, table.CreateTicket(alice, 400, "alice"));
  table.Fund(b_work, table.CreateTicket(bob, 100, "bob"));
  Client thread1(&table, "t1"), thread2(&table, "t2"), thread3(&table, "t3");
  thread1.HoldTicket(table.CreateTicket(a_work, 100, "alice"));
  thread2.HoldTicket(table.CreateTicket(b_work, 100, "bob"));
  thread1.SetActive(true);
  thread2.SetActive(true);
  EXPECT_EQ(thread1.Value().base_units(), 1000);
  EXPECT_EQ(thread2.Value().base_units(), 1000);

  Currency* a_more = table.CreateCurrency("alice/more", "alice");
  table.Fund(a_more, table.CreateTicket(alice, 400, "alice"));
  thread3.HoldTicket(table.CreateTicket(a_more, 100, "alice"));
  thread3.SetActive(true);
  EXPECT_EQ(thread1.Value().base_units(), 500);
  EXPECT_EQ(thread3.Value().base_units(), 500);
  EXPECT_EQ(thread2.Value().base_units(), 1000);
}

TEST(CurrencyValues, DestroyTaskReturnsShareToSiblings) {
  CurrencyTable table;
  Currency* alice = table.CreateCurrency("alice", "alice");
  table.Fund(alice, table.CreateTicket(table.base(), 900));
  Currency* keep = table.CreateCurrency("alice/keep", "alice");
  Currency* drop = table.CreateCurrency("alice/drop", "alice");
  table.Fund(keep, table.CreateTicket(alice, 100, "alice"));
  table.Fund(drop, table.CreateTicket(alice, 200, "alice"));
  Client survivor(&table, "t1"), leaver(&table, "t2");
  survivor.HoldTicket(table.CreateTicket(keep, 50, "alice"));
  survivor.SetActive(true);
  // "drop" has no active thread yet, so it does not dilute (Section 4.4's
  // inactive-sibling rule): the survivor carries all of alice.
  EXPECT_EQ(survivor.Value().base_units(), 900);
  Ticket* leaver_ticket = table.CreateTicket(drop, 50, "alice");
  leaver.HoldTicket(leaver_ticket);
  leaver.SetActive(true);
  EXPECT_EQ(survivor.Value().base_units(), 300);  // 100/300 of 900
  EXPECT_EQ(leaver.Value().base_units(), 600);

  // The second task's thread leaves, then the task currency goes with its
  // backing ticket; the survivor's value grows back to the whole user.
  leaver.SetActive(false);
  table.DestroyTicket(leaver_ticket);
  table.DestroyCurrency(drop);
  EXPECT_EQ(table.FindCurrency("alice/drop"), nullptr);
  EXPECT_EQ(alice->issued().size(), 1u);
  EXPECT_EQ(survivor.Value().base_units(), 900);
}

TEST(CurrencyValues, EpochMemoizationInvalidatesOnChange) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Ticket* backing = table.CreateTicket(table.base(), 100);
  table.Fund(a, backing);
  Client c(&table, "c");
  Ticket* held = table.CreateTicket(a, 10);
  c.HoldTicket(held);
  c.SetActive(true);
  EXPECT_EQ(c.Value().base_units(), 100);
  table.SetAmount(backing, 500);
  EXPECT_EQ(c.Value().base_units(), 500);
}

TEST(CurrencyValues, PotentialValueForInactiveTicket) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 900));
  Client active(&table, "active");
  Ticket* held = table.CreateTicket(a, 100);
  active.HoldTicket(held);
  active.SetActive(true);
  Ticket* parked = table.CreateTicket(a, 200);
  // If parked joined, active amount would be 300.
  EXPECT_EQ(table.PotentialTicketValue(parked).base_units(), 600);
  // Base-denominated tickets are worth face value regardless.
  Ticket* base_ticket = table.CreateTicket(table.base(), 42);
  EXPECT_EQ(table.PotentialTicketValue(base_ticket).base_units(), 42);
}

// --- Exchange rates (Section 3.3) --------------------------------------------

TEST(ExchangeRate, BaseIsAlwaysUnity) {
  CurrencyTable table;
  EXPECT_DOUBLE_EQ(table.ExchangeRate(table.base()), 1.0);
}

TEST(ExchangeRate, InactiveCurrencyIsZero) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 100));
  EXPECT_DOUBLE_EQ(table.ExchangeRate(a), 0.0);
}

TEST(ExchangeRate, TracksValuePerActiveUnit) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 600));
  Client c(&table, "c");
  Ticket* held = table.CreateTicket(a, 300);
  c.HoldTicket(held);
  c.SetActive(true);
  EXPECT_DOUBLE_EQ(table.ExchangeRate(a), 2.0);  // 600 base / 300 units
}

TEST(ExchangeRate, InflationLoweredLocallyOnly) {
  // Section 3.3: inflation inside one currency changes its own exchange
  // rate but no one else's.
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  Currency* b = table.CreateCurrency("b");
  table.Fund(a, table.CreateTicket(table.base(), 400));
  table.Fund(b, table.CreateTicket(table.base(), 400));
  Client ca(&table, "ca"), cb(&table, "cb");
  ca.HoldTicket(table.CreateTicket(a, 100));
  cb.HoldTicket(table.CreateTicket(b, 100));
  ca.SetActive(true);
  cb.SetActive(true);
  EXPECT_DOUBLE_EQ(table.ExchangeRate(a), 4.0);
  EXPECT_DOUBLE_EQ(table.ExchangeRate(b), 4.0);
  // Inflate a: another active 300-unit claim appears in it.
  Client intruder(&table, "more-a");
  intruder.HoldTicket(table.CreateTicket(a, 300));
  intruder.SetActive(true);
  EXPECT_DOUBLE_EQ(table.ExchangeRate(a), 1.0);  // 400 / 400
  EXPECT_DOUBLE_EQ(table.ExchangeRate(b), 4.0);  // untouched
}

// --- ACLs (Section 4.7's protection note) -----------------------------------

TEST(CurrencyAcl, UnownedCurrencyIsOpen) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  EXPECT_TRUE(a->MayInflate("anyone"));
  EXPECT_NO_THROW(table.CreateTicket(a, 5, "anyone"));
}

TEST(CurrencyAcl, OwnedCurrencyRestrictsIssuance) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a", "alice");
  EXPECT_TRUE(a->MayInflate("alice"));
  EXPECT_FALSE(a->MayInflate("mallory"));
  EXPECT_THROW(table.CreateTicket(a, 5, "mallory"), std::invalid_argument);
  EXPECT_NO_THROW(table.CreateTicket(a, 5, "alice"));
}

TEST(CurrencyAcl, SuperuserBypassesAcls) {
  // The paper's commands were setuid root; "root" passes every ACL.
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a", "alice");
  EXPECT_NO_THROW(table.CreateTicket(a, 5, "root"));
  table.set_superuser("");
  EXPECT_THROW(table.CreateTicket(a, 5, "root"), std::invalid_argument);
  table.set_superuser("admin");
  EXPECT_NO_THROW(table.CreateTicket(a, 5, "admin"));
}

TEST(CurrencyAcl, InflatorsCanBeGranted) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a", "alice");
  a->AllowInflator("bob");
  EXPECT_TRUE(a->MayInflate("bob"));
  EXPECT_NO_THROW(table.CreateTicket(a, 5, "bob"));
}

TEST(CurrencyTable, ToDotRendersGraph) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 100));
  Client c(&table, "worker");
  c.HoldTicket(table.CreateTicket(a, 10));
  c.SetActive(true);
  const std::string dot = table.ToDot();
  EXPECT_NE(dot.find("digraph currencies"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"base\" [label=\"100\"]"),
            std::string::npos);
  EXPECT_NE(dot.find("\"worker\" -> \"a\" [label=\"10\"]"),
            std::string::npos);
  // Inactive edges are dashed.
  c.SetActive(false);
  EXPECT_NE(table.ToDot().find("style=dashed"), std::string::npos);
}

TEST(CurrencyTable, DebugStringListsCurrencies) {
  CurrencyTable table;
  Currency* a = table.CreateCurrency("a");
  table.Fund(a, table.CreateTicket(table.base(), 100));
  const std::string s = table.DebugString();
  EXPECT_NE(s.find("a:"), std::string::npos);
  EXPECT_NE(s.find("100.base"), std::string::npos);
}

}  // namespace
}  // namespace lottery
