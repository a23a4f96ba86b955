#include "src/core/client.h"

#include <algorithm>
#include <stdexcept>

namespace lottery {

Client::Client(CurrencyTable* table, std::string name, uint32_t owner_index)
    : table_(table), name_(std::move(name)), owner_index_(owner_index) {}

Client::~Client() {
  // Detach without destroying: ticket lifetime belongs to the table and
  // whoever created the ticket.
  while (!tickets_.empty()) {
    ReleaseTicket(tickets_.back());
  }
}

void Client::HoldTicket(Ticket* ticket) {
  if (ticket->holder_ != nullptr || ticket->funds_ != nullptr) {
    throw std::invalid_argument("HoldTicket: ticket already attached");
  }
  ticket->holder_ = this;
  tickets_.push_back(ticket);
  if (active_) {
    table_->ActivateTicket(ticket);
  }
  Invalidate();
}

void Client::ReleaseTicket(Ticket* ticket) {
  if (ticket->holder_ != this) {
    throw std::invalid_argument("ReleaseTicket: not held by this client");
  }
  if (ticket->active()) {
    table_->DeactivateTicket(ticket);
  }
  ticket->holder_ = nullptr;
  const auto it = std::find(tickets_.begin(), tickets_.end(), ticket);
  *it = tickets_.back();
  tickets_.pop_back();
  Invalidate();
}

void Client::SetActive(bool active) {
  if (active == active_) {
    return;
  }
  active_ = active;
  for (Ticket* t : tickets_) {
    if (active) {
      table_->ActivateTicket(t);
    } else {
      table_->DeactivateTicket(t);
    }
  }
  Invalidate();
}

void Client::SetCompensation(int64_t num, int64_t den) {
  if (num <= 0 || den <= 0) {
    throw std::invalid_argument("SetCompensation: factors must be positive");
  }
  if (num == comp_num_ && den == comp_den_) {
    return;
  }
  comp_num_ = num;
  comp_den_ = den;
  Invalidate();
}

void Client::ClearCompensation() {
  // No-op when there is nothing to clear: the scheduler calls this on every
  // quantum start, and steady-state dispatches must not dirty anything.
  if (comp_num_ == 1 && comp_den_ == 1) {
    return;
  }
  comp_num_ = 1;
  comp_den_ = 1;
  Invalidate();
}

void Client::Invalidate() {
  table_->MarkClientDirty(this);
}

Funding Client::Value() const {
  if (!active_) {
    return Funding::Zero();
  }
  if (cache_valid_) {
    return cached_value_;
  }
  Funding sum = Funding::Zero();
  for (const Ticket* t : tickets_) {
    sum += table_->TicketValue(t);
  }
  if (comp_num_ != comp_den_) {
    sum = sum.ScaleBy(comp_num_, comp_den_);
  }
  cached_value_ = sum;
  cache_valid_ = true;
  table_->NoteClientReprice();
  return sum;
}

}  // namespace lottery
