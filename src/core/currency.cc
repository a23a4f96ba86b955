#include "src/core/currency.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "src/core/client.h"
#include "src/core/invariants.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/registry.h"

namespace lottery {

namespace {

// Removes one occurrence of `value` from `vec` (order not preserved).
void EraseOne(std::vector<Ticket*>& vec, Ticket* value) {
  const auto it = std::find(vec.begin(), vec.end(), value);
  if (it != vec.end()) {
    *it = vec.back();
    vec.pop_back();
  }
}

// Currency-category trace event; name ids are interned at currency creation
// so this never touches the intern map.
void TraceCurrency(etrace::TraceBuffer* trace, etrace::EventType type,
                   uint32_t name_id, uint64_t v1 = 0, uint64_t v2 = 0,
                   uint32_t a = 0) {
  if (etrace::On(trace, etrace::kCatCurrency)) {
    etrace::Event e;
    e.t_ns = trace->now();
    e.v1 = v1;
    e.v2 = v2;
    e.a = a;
    e.name = name_id;
    e.type = static_cast<uint16_t>(type);
    trace->Append(e);
  }
}

}  // namespace

bool Currency::MayInflate(const std::string& principal) const {
  if (owner_.empty()) {
    return true;
  }
  return principal == owner_ || inflators_.count(principal) > 0;
}

void Currency::AllowInflator(const std::string& principal) {
  inflators_.insert(principal);
}

CurrencyTable::CurrencyTable(obs::Registry* metrics,
                             etrace::TraceBuffer* trace)
    : trace_(trace),
      metrics_(metrics != nullptr ? metrics : &obs::Registry::Default()),
      currency_dirty_marks_(metrics_->counter("currency.dirty_marks")),
      currency_reprices_(metrics_->counter("currency.reprices")),
      client_dirty_marks_(metrics_->counter("client.dirty_marks")),
      client_reprices_(metrics_->counter("client.reprices")) {
  base_ = currency_pool_.New("base", /*is_base=*/true, std::string());
  LinkCurrency(base_);
  if (trace_ != nullptr) {
    base_->trace_name_ = trace_->Intern(base_->name());
  }
  TraceCurrency(trace_, etrace::EventType::kCurrencyCreate,
                base_->trace_name_);
}

CurrencyTable::~CurrencyTable() {
  // Pool storage outlives the objects; run the destructors explicitly.
  for (Ticket* t = tickets_head_; t != nullptr;) {
    Ticket* next = t->list_next_;
    ticket_pool_.Delete(t);
    t = next;
  }
  for (Currency* c = currencies_head_; c != nullptr;) {
    Currency* next = c->list_next_;
    currency_pool_.Delete(c);
    c = next;
  }
}

void CurrencyTable::LinkCurrency(Currency* currency) {
  currency->list_prev_ = currencies_tail_;
  currency->list_next_ = nullptr;
  (currencies_tail_ != nullptr ? currencies_tail_->list_next_
                               : currencies_head_) = currency;
  currencies_tail_ = currency;
  ++num_currencies_;
  currency_by_name_.emplace(currency->name(), currency);
}

void CurrencyTable::UnlinkCurrency(Currency* currency) {
  (currency->list_prev_ != nullptr ? currency->list_prev_->list_next_
                                   : currencies_head_) = currency->list_next_;
  (currency->list_next_ != nullptr ? currency->list_next_->list_prev_
                                   : currencies_tail_) = currency->list_prev_;
  --num_currencies_;
  // A retired currency gave its name up, perhaps to a successor.
  const auto named = currency_by_name_.find(currency->name());
  if (named != currency_by_name_.end() && named->second == currency) {
    currency_by_name_.erase(named);
  }
}

void CurrencyTable::LinkTicket(Ticket* ticket) {
  ticket->list_prev_ = tickets_tail_;
  ticket->list_next_ = nullptr;
  (tickets_tail_ != nullptr ? tickets_tail_->list_next_ : tickets_head_) =
      ticket;
  tickets_tail_ = ticket;
  ++num_tickets_;
}

void CurrencyTable::UnlinkTicket(Ticket* ticket) {
  (ticket->list_prev_ != nullptr ? ticket->list_prev_->list_next_
                                 : tickets_head_) = ticket->list_next_;
  (ticket->list_next_ != nullptr ? ticket->list_next_->list_prev_
                                 : tickets_tail_) = ticket->list_prev_;
  --num_tickets_;
}

void CurrencyTable::SetTrace(etrace::TraceBuffer* trace) {
  trace_ = trace;
  if (trace_ == nullptr) {
    return;
  }
  for (Currency* c = currencies_head_; c != nullptr; c = c->list_next_) {
    c->trace_name_ = trace_->Intern(c->name());
  }
}

void CurrencyTable::AddObserver(ValueObserver* observer) {
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    throw std::invalid_argument("AddObserver: observer already registered");
  }
  observers_.push_back(observer);
}

void CurrencyTable::RemoveObserver(ValueObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it != observers_.end()) {
    observers_.erase(it);
  }
}

void CurrencyTable::MarkCurrencyDirty(Currency* currency) {
  // The base currency is the unit of account; it has no cached value, and
  // base-denominated tickets are worth their face value no matter what
  // happens to the base's active amount, so nothing downstream can change.
  if (currency->is_base() || currency->value_dirty_) {
    return;
  }
  currency->value_dirty_ = true;
  currency_dirty_marks_->Inc();
  PropagateDenominationChange(currency);
}

void CurrencyTable::PropagateDenominationChange(Currency* denom) {
  if (denom->is_base()) {
    return;  // base tickets are face value: active-amount changes are inert
  }
  for (Ticket* t : denom->issued_) {
    if (t->funds_ != nullptr) {
      MarkCurrencyDirty(t->funds_);
    } else if (t->holder_ != nullptr) {
      MarkClientDirty(t->holder_);
    }
  }
}

void CurrencyTable::MarkTicketDirty(Ticket* ticket) {
  if (ticket->funds_ != nullptr) {
    MarkCurrencyDirty(ticket->funds_);
  } else if (ticket->holder_ != nullptr) {
    MarkClientDirty(ticket->holder_);
  }
}

void CurrencyTable::MarkClientDirty(Client* client) {
  if (client->cache_valid_) {
    client->cache_valid_ = false;
    client_dirty_marks_->Inc();
  }
  // Notify unconditionally: observers may have refreshed their copy of the
  // client's value (rearming nothing on the client itself), so the dirty
  // flag alone cannot gate notifications.
  for (ValueObserver* observer : observers_) {
    observer->OnClientValueDirty(client);
  }
}

void CurrencyTable::NoteClientReprice() const {
  client_reprices_->Inc();
}

Currency* CurrencyTable::CreateCurrency(const std::string& name,
                                        const std::string& owner) {
  if (FindCurrency(name) != nullptr) {
    throw std::invalid_argument("CreateCurrency: duplicate name " + name);
  }
  Currency* currency = currency_pool_.New(name, /*is_base=*/false, owner);
  LinkCurrency(currency);
  if (trace_ != nullptr) {
    currency->trace_name_ = trace_->Intern(currency->name());
  }
  TraceCurrency(trace_, etrace::EventType::kCurrencyCreate,
                currency->trace_name_);
  LOT_DCHECK_TABLE(*this);
  return currency;
}

Currency* CurrencyTable::FindCurrency(const std::string& name) const {
  const auto it = currency_by_name_.find(name);
  return it != currency_by_name_.end() ? it->second : nullptr;
}

void CurrencyTable::DestroyCurrency(Currency* currency) {
  if (currency == base_) {
    throw std::invalid_argument("DestroyCurrency: cannot destroy base");
  }
  if (!currency->issued_.empty()) {
    throw std::logic_error("DestroyCurrency: currency " + currency->name() +
                           " still has issued tickets");
  }
  // Backing tickets exist solely to fund this currency; retire them.
  while (!currency->backing_.empty()) {
    DestroyTicket(currency->backing_.back());
  }
  // A retired currency has issued tickets until DestroyTicket reclaims it,
  // so only that reclamation gets here with one, and it has no name to
  // check.
  if (!currency->retired_ && FindCurrency(currency->name()) != currency) {
    throw std::logic_error("DestroyCurrency: unknown currency");
  }
  TraceCurrency(trace_, etrace::EventType::kCurrencyDestroy,
                currency->trace_name_);
  UnlinkCurrency(currency);
  currency_pool_.Delete(currency);
  LOT_DCHECK_TABLE(*this);
}

void CurrencyTable::RetireCurrency(Currency* currency) {
  if (currency == base_) {
    throw std::invalid_argument("RetireCurrency: cannot retire base");
  }
  if (currency->retired_) {
    return;  // its name may belong to a successor by now
  }
  if (currency->issued_.empty()) {
    DestroyCurrency(currency);
    return;
  }
  // The owner is gone: withdraw its funding now. The surviving issued
  // tickets (in-flight transfers) stay structurally valid but are worth
  // zero — exactly the paper's semantics for a backrupt currency — and the
  // last of them to be destroyed reclaims the currency itself.
  while (!currency->backing_.empty()) {
    DestroyTicket(currency->backing_.back());
  }
  // Its name is free from now on, so a new currency (a re-added thread's)
  // may take it while this one lingers.
  currency_by_name_.erase(currency->name());
  currency->retired_ = true;
  TraceCurrency(trace_, etrace::EventType::kCurrencyRetire,
                currency->trace_name_);
  LOT_DCHECK_TABLE(*this);
}

Ticket* CurrencyTable::CreateTicket(Currency* denomination, int64_t amount,
                                    const std::string& principal) {
  if (amount <= 0) {
    throw std::invalid_argument("CreateTicket: amount must be positive");
  }
  if (denomination->retired_) {
    throw std::logic_error("CreateTicket: denomination " +
                           denomination->name() + " is retired");
  }
  const bool is_superuser = !superuser_.empty() && principal == superuser_;
  if (!is_superuser && !denomination->MayInflate(principal)) {
    throw std::invalid_argument("CreateTicket: principal '" + principal +
                                "' may not issue tickets in " +
                                denomination->name());
  }
  Ticket* ticket = ticket_pool_.New(next_ticket_id_++, denomination, amount);
  LinkTicket(ticket);
  denomination->issued_.push_back(ticket);
  denomination->issued_amount_ += amount;
  LOT_DCHECK_TABLE(*this);
  return ticket;
}

void CurrencyTable::DestroyTicket(Ticket* ticket) {
  if (ticket->holder_ != nullptr) {
    ticket->holder_->ReleaseTicket(ticket);
  }
  if (ticket->funds_ != nullptr) {
    Unfund(ticket);
  }
  if (ticket->active_) {
    // Unattached tickets are never active; Unfund/ReleaseTicket deactivate.
    throw std::logic_error("DestroyTicket: detached ticket still active");
  }
  Currency* denom = ticket->denomination_;
  EraseOne(denom->issued_, ticket);
  denom->issued_amount_ -= ticket->amount_;
  UnlinkTicket(ticket);
  ticket_pool_.Delete(ticket);
  if (denom->retired_ && denom->issued_.empty()) {
    // Last issued ticket of a retired currency: reclaim it (backing is
    // already empty, so this is a plain erase).
    DestroyCurrency(denom);
  }
  LOT_DCHECK_TABLE(*this);
}

void CurrencyTable::SetAmount(Ticket* ticket, int64_t amount) {
  if (amount <= 0) {
    throw std::invalid_argument("SetAmount: amount must be positive");
  }
  if (amount == ticket->amount_) {
    return;
  }
  const int64_t delta = amount - ticket->amount_;
  ticket->denomination_->issued_amount_ += delta;
  ticket->amount_ = amount;
  if (ticket->active_) {
    // Amounts are strictly positive, so this cannot cross zero and no
    // activation cascade is needed — only the sum changes. AddActiveAmount
    // still propagates the denomination change (every sibling ticket's
    // share shifts); the ticket's own target must be marked explicitly
    // because propagation skips the base currency.
    AddActiveAmount(ticket->denomination_, delta);
    MarkTicketDirty(ticket);
  }
  LOT_DCHECK_TABLE(*this);
}

void CurrencyTable::Fund(Currency* target, Ticket* ticket) {
  if (ticket->funds_ != nullptr || ticket->holder_ != nullptr) {
    throw std::invalid_argument("Fund: ticket already attached");
  }
  if (target->is_base()) {
    throw std::invalid_argument("Fund: the base currency cannot be funded");
  }
  if (target->retired_) {
    throw std::logic_error("Fund: currency " + target->name() +
                           " is retired");
  }
  // Adding edge target -> denomination(ticket); reject if the denomination
  // already (transitively) depends on target.
  if (Reaches(ticket->denomination_, target)) {
    throw std::invalid_argument("Fund: would create a currency cycle (" +
                                target->name() + " <- " +
                                ticket->denomination_->name() + ")");
  }
  ticket->funds_ = target;
  target->backing_.push_back(ticket);
  // A backing ticket is active iff the funded currency is active.
  if (target->active_amount_ > 0) {
    ActivateTicket(ticket);
  }
  MarkCurrencyDirty(target);
  TraceCurrency(trace_, etrace::EventType::kFund, target->trace_name_,
                static_cast<uint64_t>(ticket->amount_), 0,
                static_cast<uint32_t>(ticket->id_));
  LOT_DCHECK_TABLE(*this);
}

void CurrencyTable::Unfund(Ticket* ticket) {
  Currency* target = ticket->funds_;
  if (target == nullptr) {
    throw std::invalid_argument("Unfund: ticket does not back a currency");
  }
  if (ticket->active_) {
    DeactivateTicket(ticket);
  }
  EraseOne(target->backing_, ticket);
  ticket->funds_ = nullptr;
  MarkCurrencyDirty(target);
  TraceCurrency(trace_, etrace::EventType::kUnfund, target->trace_name_,
                static_cast<uint64_t>(ticket->amount_), 0,
                static_cast<uint32_t>(ticket->id_));
  LOT_DCHECK_TABLE(*this);
}

Funding CurrencyTable::CurrencyValue(const Currency* currency) const {
  if (currency->is_base()) {
    // The base currency is the unit of account; per-ticket values are
    // defined directly by TicketValue.
    return Funding::Zero();
  }
  if (!currency->value_dirty_) {
    return currency->cached_value_;
  }
  const Funding value = CurrencyValueUncached(currency);
  currency->cached_value_ = value;
  currency->value_dirty_ = false;
  currency_reprices_->Inc();
  TraceCurrency(trace_, etrace::EventType::kReprice, currency->trace_name_,
                value.raw_unsigned(),
                static_cast<uint64_t>(currency->active_amount_));
  return value;
}

Funding CurrencyTable::CurrencyValueUncached(const Currency* currency) const {
  Funding sum = Funding::Zero();
  for (const Ticket* t : currency->backing_) {
    sum += TicketValue(t);
  }
  return sum;
}

Funding CurrencyTable::TicketValue(const Ticket* ticket) const {
  if (!ticket->active_) {
    return Funding::Zero();
  }
  const Currency* denom = ticket->denomination_;
  if (denom->is_base()) {
    return Funding::FromBase(ticket->amount_);
  }
  if (denom->active_amount_ <= 0) {
    return Funding::Zero();
  }
  return CurrencyValue(denom).ScaleBy(ticket->amount_, denom->active_amount_);
}

Funding CurrencyTable::PotentialTicketValue(const Ticket* ticket) const {
  const Currency* denom = ticket->denomination_;
  if (denom->is_base()) {
    return Funding::FromBase(ticket->amount_);
  }
  // Share the ticket would take if it were active alongside the currently
  // active amount.
  const int64_t active = denom->active_amount_ +
                         (ticket->active_ ? 0 : ticket->amount_);
  if (active <= 0) {
    return Funding::Zero();
  }
  return CurrencyValue(denom).ScaleBy(ticket->amount_, active);
}

// lotlint: float-ok (introspection only; result never feeds ticket state)
double CurrencyTable::ExchangeRate(const Currency* currency) const {
  if (currency->is_base()) {
    return 1.0;
  }
  if (currency->active_amount() <= 0) {
    return 0.0;
  }
  return CurrencyValue(currency).ToBaseF() /  // lotlint: float-ok
         static_cast<double>(currency->active_amount());
}

void CurrencyTable::ActivateTicket(Ticket* ticket) {
  if (ticket->active_) {
    return;
  }
  ticket->active_ = true;
  AddActiveAmount(ticket->denomination_, ticket->amount_);
  // Propagation skips the base currency, so the ticket's own target needs
  // an explicit mark (a base ticket flipping active changes its value from
  // zero to face value even though the base itself never reprices).
  MarkTicketDirty(ticket);
}

void CurrencyTable::DeactivateTicket(Ticket* ticket) {
  if (!ticket->active_) {
    return;
  }
  ticket->active_ = false;
  AddActiveAmount(ticket->denomination_, -ticket->amount_);
  MarkTicketDirty(ticket);
}

void CurrencyTable::AddActiveAmount(Currency* currency, int64_t delta) {
  const bool was_active = currency->active_amount_ > 0;
  currency->active_amount_ += delta;
  if (currency->active_amount_ < 0) {
    throw std::logic_error("AddActiveAmount: negative active amount in " +
                           currency->name());
  }
  const bool now_active = currency->active_amount_ > 0;
  if (was_active != now_active && !currency->is_base()) {
    // Section 4.4: "if a ticket activation changes a currency's active
    // amount from zero, the activation propagates to each of its backing
    // tickets", and symmetrically for deactivation.
    for (Ticket* b : currency->backing_) {
      if (now_active) {
        ActivateTicket(b);
      } else {
        DeactivateTicket(b);
      }
    }
  }
  // The denominator of every ticket issued in this currency changed, so
  // everything those tickets feed must reprice. (No-op for the base: base
  // tickets are worth face value independent of the base's active amount.)
  PropagateDenominationChange(currency);
}

bool CurrencyTable::Reaches(const Currency* from, const Currency* to) const {
  if (from == to) {
    return true;
  }
  // Iterative DFS with a visited set: diamond-shaped graphs have
  // exponentially many paths but only linearly many nodes.
  std::unordered_set<const Currency*> visited;
  std::vector<const Currency*> stack{from};
  visited.insert(from);
  while (!stack.empty()) {
    const Currency* cur = stack.back();
    stack.pop_back();
    for (const Ticket* t : cur->backing_) {
      const Currency* next = t->denomination_;
      if (next == to) {
        return true;
      }
      if (visited.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return false;
}

Ticket* CurrencyTable::FindTicket(uint64_t id) const {
  for (Ticket* t = tickets_head_; t != nullptr; t = t->list_next_) {
    if (t->id() == id) {
      return t;
    }
  }
  return nullptr;
}

std::vector<Currency*> CurrencyTable::Currencies() const {
  std::vector<Currency*> out;
  out.reserve(num_currencies_);
  for (Currency* c = currencies_head_; c != nullptr; c = c->list_next_) {
    out.push_back(c);
  }
  return out;
}

std::vector<Ticket*> CurrencyTable::Tickets() const {
  std::vector<Ticket*> out;
  out.reserve(num_tickets_);
  for (Ticket* t = tickets_head_; t != nullptr; t = t->list_next_) {
    out.push_back(t);
  }
  return out;
}

std::string CurrencyTable::DebugString() const {
  std::ostringstream out;
  for (const Currency* c = currencies_head_; c != nullptr;
       c = c->list_next_) {
    out << c->name() << ": value=" << CurrencyValue(c).ToBaseF()
        << " active=" << c->active_amount() << "/" << c->issued_amount()
        << " backing=[";
    for (size_t i = 0; i < c->backing().size(); ++i) {
      const Ticket* t = c->backing()[i];
      out << (i == 0 ? "" : ", ") << t->amount() << "."
          << t->denomination()->name() << (t->active() ? "" : " (inactive)");
    }
    out << "]\n";
  }
  return out.str();
}

std::string CurrencyTable::ToDot() const {
  std::ostringstream out;
  out << "digraph currencies {\n  rankdir=BT;\n";
  // A retired currency may share its name with a successor, so its node
  // gets an id of its own.
  const auto node = [](const Currency* c) {
    return c->retired() ? c->name() + " (retired)" : c->name();
  };
  for (const Currency* c = currencies_head_; c != nullptr;
       c = c->list_next_) {
    out << "  \"" << node(c) << "\" [shape=box,label=\"" << node(c);
    if (!c->is_base()) {
      out << "\\nvalue=" << CurrencyValue(c).ToBaseF();
    }
    out << "\\nactive " << c->active_amount() << "/" << c->issued_amount()
        << "\"];\n";
  }
  for (const Ticket* t = tickets_head_; t != nullptr; t = t->list_next_) {
    // Edge from the entity the ticket funds toward its denomination (the
    // direction value flows from).
    std::string from;
    if (t->funds() != nullptr) {
      from = t->funds()->name();
    } else if (t->holder() != nullptr) {
      from = t->holder()->name();
      out << "  \"" << from << "\" [shape=ellipse];\n";
    } else {
      continue;  // unattached tickets have no edge
    }
    out << "  \"" << from << "\" -> \"" << node(t->denomination())
        << "\" [label=\"" << t->amount() << "\""
        << (t->active() ? "" : ",style=dashed") << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace lottery
