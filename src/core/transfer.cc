#include "src/core/transfer.h"

#include "src/core/invariants.h"
#include "src/obs/etrace/trace_buffer.h"

namespace lottery {

namespace {

// Transfer-lifecycle trace event: a=ticket id, name=target currency,
// v1=amount. Uses the table's buffer so transfers interleave with the
// currency events they cause.
void TraceTransfer(CurrencyTable* table, etrace::EventType type,
                   const Ticket* ticket, const Currency* target) {
  etrace::TraceBuffer* trace = table->trace();
  if (etrace::On(trace, etrace::kCatTransfer)) {
    etrace::Event e;
    e.t_ns = trace->now();
    e.v1 = static_cast<uint64_t>(ticket->amount());
    e.a = static_cast<uint32_t>(ticket->id());
    e.name = target != nullptr ? target->trace_name() : 0;
    e.type = static_cast<uint16_t>(type);
    trace->Append(e);
  }
}

}  // namespace

TicketTransfer::TicketTransfer(CurrencyTable* table, Currency* source,
                               Currency* target, int64_t amount)
    : table_(table), ticket_(table->CreateTicket(source, amount)) {
  if (target != nullptr) {
    table_->Fund(target, ticket_);
  }
  TraceTransfer(table_, etrace::EventType::kTransferStart, ticket_, target);
  // A transfer moves claim on `source`'s value; it must not mint amount.
  LOT_DCHECK_TABLE(*table_);
}

TicketTransfer::~TicketTransfer() { Release(); }

TicketTransfer::TicketTransfer(TicketTransfer&& other) noexcept
    : table_(other.table_), ticket_(other.ticket_) {
  other.ticket_ = nullptr;
}

TicketTransfer& TicketTransfer::operator=(TicketTransfer&& other) noexcept {
  if (this != &other) {
    Release();
    table_ = other.table_;
    ticket_ = other.ticket_;
    other.ticket_ = nullptr;
  }
  return *this;
}

void TicketTransfer::FundTarget(Currency* target) {
  table_->Fund(target, ticket_);
  TraceTransfer(table_, etrace::EventType::kTransferRetarget, ticket_, target);
}

void TicketTransfer::Retarget(Currency* new_target) {
  if (ticket_->funds() != nullptr) {
    table_->Unfund(ticket_);
  }
  table_->Fund(new_target, ticket_);
  TraceTransfer(table_, etrace::EventType::kTransferRetarget, ticket_,
                new_target);
  LOT_DCHECK_TABLE(*table_);
}

void TicketTransfer::Release() {
  if (ticket_ != nullptr) {
    TraceTransfer(table_, etrace::EventType::kTransferEnd, ticket_,
                  ticket_->funds());
    table_->DestroyTicket(ticket_);
    ticket_ = nullptr;
    LOT_DCHECK_TABLE(*table_);
  }
}

Currency* TicketTransfer::target() const {
  return ticket_ != nullptr ? ticket_->funds() : nullptr;
}

bool TicketTransfer::funded() const {
  return ticket_ != nullptr && ticket_->funds() != nullptr;
}

}  // namespace lottery
