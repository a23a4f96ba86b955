// Currencies and the CurrencyTable registry.
//
// Currencies implement the paper's modular resource management (Sections 3.3
// and 4.4): tickets are denominated in a currency; a currency is backed by
// tickets denominated in more primitive currencies; relationships form an
// acyclic graph rooted at the base currency. A currency's value is the sum
// of its active backing tickets' values; a ticket's value is its
// denomination's value times its share of the denomination's *active*
// issued amount. Activating or deactivating issued amount propagates along
// backing edges exactly as described in Section 4.4.
//
// CurrencyTable owns every Currency and Ticket, provides the kernel-style
// operations the paper's Mach interface exported (create/destroy ticket and
// currency, fund/unfund, compute values), enforces graph acyclicity, and
// optionally enforces per-currency access control (Section 4.7 notes that a
// complete system should protect currencies with ACLs).
//
// Value caching is incremental: each currency carries a dirty bit, and every
// mutation walks *forward* from the touched node along issued-ticket edges,
// marking only the currencies and clients whose value can actually change
// (see DESIGN.md "Incremental pricing"). Registered ValueObservers hear
// about every client whose value may have changed, which is how the
// scheduler keeps its run queues' slot weights in sync, under either
// backend, without repricing the whole graph.

#ifndef SRC_CORE_CURRENCY_H_
#define SRC_CORE_CURRENCY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/funding.h"
#include "src/core/ticket.h"
#include "src/util/arena.h"

namespace lottery {

namespace obs {
class Counter;
class Registry;
}  // namespace obs

namespace etrace {
class TraceBuffer;
}  // namespace etrace

class Client;

// Hook for components that cache values derived from client values (run
// queues, schedulers). OnClientValueDirty fires for every client whose value
// may have changed, possibly more than once per mutation — observers must
// deduplicate and must not mutate the CurrencyTable reentrantly. Refreshing
// the value (Client::Value) is deferred to the observer's convenience.
class ValueObserver {
 public:
  virtual ~ValueObserver() = default;
  virtual void OnClientValueDirty(Client* client) = 0;
};

class Currency {
 public:
  Currency(const Currency&) = delete;
  Currency& operator=(const Currency&) = delete;

  const std::string& name() const { return name_; }
  bool is_base() const { return is_base_; }
  // A retired currency is awaiting destruction: its owner died while other
  // parties still held tickets issued in it (e.g. an in-flight RPC transfer
  // from a crashed client). Its backing is gone — issued tickets are worth
  // zero — and the table reclaims it when the last issued ticket dies. It
  // has given up its name: FindCurrency no longer returns it, and a new
  // currency may be created under the same name.
  bool retired() const { return retired_; }
  // Sum of the amounts of currently active tickets issued in this currency.
  int64_t active_amount() const { return active_amount_; }
  // Sum of the amounts of all tickets issued in this currency.
  int64_t issued_amount() const { return issued_amount_; }

  const std::vector<Ticket*>& backing() const { return backing_; }
  const std::vector<Ticket*>& issued() const { return issued_; }

  // Interned name id in the owning table's TraceBuffer (0 when the table
  // is not tracing); stable for the currency's lifetime.
  uint32_t trace_name() const { return trace_name_; }

  // Access control (empty owner means unrestricted).
  const std::string& owner() const { return owner_; }
  bool MayInflate(const std::string& principal) const;
  void AllowInflator(const std::string& principal);

 private:
  friend class CurrencyTable;
  // The table's allocator must reach the private constructor/destructor.
  template <typename T, size_t kSlabObjects>
  friend class util::SlabPool;
  // Corrupts private state to prove the invariant checks catch it
  // (tests/invariant_test.cc); never used outside death tests.
  friend class InvariantTestPeer;

  Currency(std::string name, bool is_base, std::string owner)
      : name_(std::move(name)), is_base_(is_base), owner_(std::move(owner)) {}

  std::string name_;
  bool is_base_;
  bool retired_ = false;
  std::string owner_;
  std::set<std::string> inflators_;

  std::vector<Ticket*> backing_;
  std::vector<Ticket*> issued_;
  int64_t active_amount_ = 0;
  int64_t issued_amount_ = 0;

  // Value memoization, invalidated by dirty propagation: the bit is set when
  // a mutation can change this currency's value (CurrencyTable::
  // MarkCurrencyDirty) and cleared when CurrencyValue recomputes.
  mutable bool value_dirty_ = true;
  mutable Funding cached_value_{};

  // Interned name id in the table's TraceBuffer (0 when not tracing), so
  // reprice events on the draw path never touch the intern map.
  uint32_t trace_name_ = 0;

  // Intrusive creation-order list maintained by CurrencyTable (slab-pool
  // allocation; O(1) unlink on destroy; base stays at the head).
  Currency* list_prev_ = nullptr;
  Currency* list_next_ = nullptr;
};

class CurrencyTable {
 public:
  // Creates the table with its base currency (named "base"). `metrics`
  // (nullptr selects obs::Registry::Default()) receives the invalidation
  // counters: currency.dirty_marks / currency.reprices and
  // client.dirty_marks / client.reprices. `trace` (optional) receives
  // structured kCatCurrency events for every currency mutation/reprice;
  // currency names are interned at creation so recording is lookup-free.
  explicit CurrencyTable(obs::Registry* metrics = nullptr,
                         etrace::TraceBuffer* trace = nullptr);
  ~CurrencyTable();
  CurrencyTable(const CurrencyTable&) = delete;
  CurrencyTable& operator=(const CurrencyTable&) = delete;

  Currency* base() { return base_; }
  const Currency* base() const { return base_; }

  // Attaches (or detaches, with nullptr) the structured-event trace at
  // runtime. On attach, every currency's name is (re-)interned so later
  // events never carry name id 0 even for currencies created while
  // detached. Re-attaching the buffer the table was constructed with is a
  // pointer swap plus idempotent intern lookups.
  void SetTrace(etrace::TraceBuffer* trace);

  // --- Currency lifecycle -------------------------------------------------

  // Creates a currency. `owner` (optional) restricts who may issue tickets
  // in it; see Currency::MayInflate.
  Currency* CreateCurrency(const std::string& name,
                           const std::string& owner = "");
  Currency* FindCurrency(const std::string& name) const;
  // Destroys a currency. Its backing tickets are destroyed with it. It must
  // have no issued tickets (they represent value held by others).
  void DestroyCurrency(Currency* currency);
  // Destroys a currency whose owner is gone but whose issued tickets may
  // still be held by others (in-flight transfers from a crashed thread).
  // The backing tickets are destroyed immediately — the dead owner's
  // funding is withdrawn, so outstanding issued tickets are worth zero —
  // and the currency itself lingers, retired and nameless in lookups, until
  // DestroyTicket reclaims it with its last issued ticket. Equivalent to
  // DestroyCurrency when no issued tickets remain; a no-op on a currency
  // already retired.
  void RetireCurrency(Currency* currency);

  // --- Ticket lifecycle ---------------------------------------------------

  // Issues a ticket of `amount` (> 0) denominated in `denomination`.
  // If `principal` is given, the denomination's ACL is checked; the
  // superuser (default "root", matching the paper's setuid commands)
  // always passes.
  Ticket* CreateTicket(Currency* denomination, int64_t amount,
                       const std::string& principal = "");

  // Principal that bypasses currency ACLs. Set empty to disable.
  void set_superuser(const std::string& name) { superuser_ = name; }
  const std::string& superuser() const { return superuser_; }
  // Destroys a ticket, detaching it from any currency or client first.
  void DestroyTicket(Ticket* ticket);
  // Changes a ticket's amount (ticket inflation/deflation, Section 3.2).
  void SetAmount(Ticket* ticket, int64_t amount);

  // --- Funding edges ------------------------------------------------------

  // Makes `ticket` back `target` ("fund" in the paper's interface). The
  // ticket must be unattached. Rejects edges that would create a cycle.
  void Fund(Currency* target, Ticket* ticket);
  // Removes `ticket` from the currency it backs; it becomes unattached.
  void Unfund(Ticket* ticket);

  // --- Values (Section 4.4) -----------------------------------------------

  // Value of a currency in base units: the sum of its active backing
  // tickets' values. The base currency has no meaningful own value; callers
  // should use TicketValue on base-denominated tickets.
  Funding CurrencyValue(const Currency* currency) const;
  // Value of a ticket in base units; zero if the ticket is inactive.
  Funding TicketValue(const Ticket* ticket) const;
  // Value the ticket would have if it were active (used to price transfers
  // and for introspection; does not require the ticket to be active).
  Funding PotentialTicketValue(const Ticket* ticket) const;

  // Exchange rate of a currency: base units per unit of active amount
  // (Section 3.3: "the effects of inflation can be locally contained by
  // maintaining an exchange rate between each local currency and a base
  // currency"). The base currency's rate is 1 by definition; a currency
  // with no active issued amount has rate 0.
  double ExchangeRate(const Currency* currency) const;  // lotlint: float-ok

  // --- Change notification --------------------------------------------------

  // Registers/unregisters an observer notified whenever a client's value may
  // have changed. Observers must outlive neither the table nor the clients
  // they are told about; RemoveObserver on an unregistered observer is a
  // no-op.
  void AddObserver(ValueObserver* observer);
  void RemoveObserver(ValueObserver* observer);

  size_t num_currencies() const { return num_currencies_; }
  size_t num_tickets() const { return num_tickets_; }

  // Structured-event trace attached at construction (may be null). Exposed
  // so ticket-transfer RAII (transfer.cc) can record into the same buffer.
  etrace::TraceBuffer* trace() const { return trace_; }

  // Looks up a ticket by its stable id (used by the user-level command
  // interface, which names tickets by id as the paper's lstkt/rmtkt did).
  Ticket* FindTicket(uint64_t id) const;
  // All currencies, base first (stable iteration for listings).
  std::vector<Currency*> Currencies() const;
  // All live tickets in creation order.
  std::vector<Ticket*> Tickets() const;

  // Renders the currency graph for debugging/examples, one line per
  // currency: name, value, active/issued amounts, backing summary.
  std::string DebugString() const;

  // Graphviz rendering of the full funding graph (Figures 2/3 style):
  // currencies as boxes (with value and active/issued amounts), clients as
  // ellipses, tickets as labelled edges from funder to funded.
  std::string ToDot() const;

 private:
  friend class Client;

  // Activation propagation (Section 4.4). Activate/Deactivate flip one
  // ticket and cascade along backing edges through AddActiveAmount.
  void ActivateTicket(Ticket* ticket);
  void DeactivateTicket(Ticket* ticket);
  void AddActiveAmount(Currency* currency, int64_t delta);

  // --- Dirty propagation (see DESIGN.md "Incremental pricing") -------------
  //
  // Invalidation walks forward along issued-ticket edges: a change inside
  // currency C can only affect the values of currencies funded by tickets
  // issued in C and of clients holding such tickets. Base-denominated
  // tickets are worth their face value regardless of the base currency's
  // active amount, so propagation never descends through the base — which
  // is what keeps a block/unblock cascade O(depth) instead of O(graph).

  // Marks `currency` dirty and propagates to everything its value feeds.
  // Early-exits if already dirty: the downstream was marked when the bit was
  // first set and cannot have revalidated without clearing this bit too.
  void MarkCurrencyDirty(Currency* currency);
  // Propagates a change of `denom`'s value or active amount to the
  // currencies/clients funded by tickets issued in `denom`.
  void PropagateDenominationChange(Currency* denom);
  // Marks whatever `ticket` directly feeds (the currency it funds or the
  // client holding it).
  void MarkTicketDirty(Ticket* ticket);
  // Invalidates a client's cached value and notifies observers. Called by
  // propagation and by Client for its local mutations (hold/release,
  // activation, compensation).
  void MarkClientDirty(Client* client);
  void NoteClientReprice() const;

  // True if `from` can reach `to` following backing edges (from's backing
  // tickets' denominations, transitively). Iterative with a visited set so
  // diamond-shaped graphs stay linear in edges, not exponential in depth.
  bool Reaches(const Currency* from, const Currency* to) const;

  Funding CurrencyValueUncached(const Currency* currency) const;

  // Appends to / unlinks from the intrusive creation-order lists.
  void LinkCurrency(Currency* currency);
  void UnlinkCurrency(Currency* currency);
  void LinkTicket(Ticket* ticket);
  void UnlinkTicket(Ticket* ticket);

  // Currencies and tickets are slab-pool allocated (a million threads mean
  // a million currencies and two million tickets — per-object new/delete
  // and O(n) registry scans would dominate) and threaded on intrusive
  // creation-order lists, with a name index for O(1) currency lookup. The
  // index is lookup-only: every iteration walks the deterministic lists.
  util::SlabPool<Currency> currency_pool_;
  util::SlabPool<Ticket> ticket_pool_;
  Currency* currencies_head_ = nullptr;
  Currency* currencies_tail_ = nullptr;
  Ticket* tickets_head_ = nullptr;
  Ticket* tickets_tail_ = nullptr;
  size_t num_currencies_ = 0;
  size_t num_tickets_ = 0;
  std::unordered_map<std::string, Currency*> currency_by_name_;
  Currency* base_;
  std::string superuser_ = "root";
  uint64_t next_ticket_id_ = 1;
  std::vector<ValueObserver*> observers_;

  etrace::TraceBuffer* trace_;

  // Obs hooks (resolved once at construction; raw pointers into metrics_).
  obs::Registry* metrics_;
  obs::Counter* currency_dirty_marks_;
  obs::Counter* currency_reprices_;
  obs::Counter* client_dirty_marks_;
  obs::Counter* client_reprices_;
};

}  // namespace lottery

#endif  // SRC_CORE_CURRENCY_H_
