#include "src/core/list_lottery.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

ListLottery::~ListLottery() {
  if (table_ != nullptr) {
    table_->RemoveObserver(this);
  }
}

void ListLottery::Add(Client* client) {
  if (members_.count(client) > 0) {
    throw std::invalid_argument("ListLottery::Add: duplicate client");
  }
  if (table_ == nullptr) {
    table_ = client->table();
    table_->AddObserver(this);
  } else if (client->table() != table_) {
    throw std::invalid_argument(
        "ListLottery::Add: client belongs to a different CurrencyTable");
  }
  order_.push_back(client);
  const Funding value = client->Value();
  members_.emplace(client, Entry{order_.size() - 1, value, false});
  total_ += value;
}

void ListLottery::Remove(Client* client) {
  const auto it = members_.find(client);
  if (it == members_.end()) {
    throw std::invalid_argument("ListLottery::Remove: unknown client");
  }
  order_[it->second.index] = nullptr;
  ++tombstones_;
  total_ -= it->second.last;
  // A pending dirty_members_ entry (if any) is skipped at refresh time.
  members_.erase(it);
  if (tombstones_ >= 8 && tombstones_ > members_.size()) {
    Compact();
  }
}

void ListLottery::Compact() {
  size_t out = 0;
  for (Client* c : order_) {
    if (c != nullptr) {
      members_[c].index = out;
      order_[out++] = c;
    }
  }
  order_.resize(out);
  tombstones_ = 0;
}

bool ListLottery::Contains(const Client* client) const {
  // The map is keyed by Client*; lookup does not mutate the client.
  return members_.count(const_cast<Client*>(client)) > 0;
}

Funding ListLottery::Total() const {
  for (Client* c : dirty_members_) {
    const auto it = members_.find(c);
    if (it == members_.end()) {
      continue;  // removed (or removed and re-added as a clean entry)
    }
    Entry& entry = it->second;
    if (!entry.dirty) {
      continue;
    }
    entry.dirty = false;
    const Funding value = c->Value();
    total_ += value - entry.last;
    entry.last = value;
  }
  dirty_members_.clear();
  return total_;
}

void ListLottery::OnClientValueDirty(Client* client) {
  const auto it = members_.find(client);
  if (it == members_.end() || it->second.dirty) {
    return;
  }
  it->second.dirty = true;
  dirty_members_.push_back(client);
}

Client* ListLottery::Draw(FastRand& rng,  // lotlint: stream(scheduler)
                          uint64_t* drawn_value) {
  if (members_.empty()) {
    return nullptr;
  }
  // The total is maintained incrementally from dirty notifications, and the
  // per-client values below come from the same caches, so the draw interval
  // partition stays exact.
  const Funding total = Total();
  if (total.IsZero()) {
    return nullptr;
  }
  const uint64_t winner_value = rng.NextBelow64(total.raw_unsigned());
  if (drawn_value != nullptr) {
    *drawn_value = winner_value;
  }

  // Accumulate until the winning value is covered (Figure 1).
  ++num_draws_;
  const auto it = ResolveWeighted(
      order_.begin(), order_.end(), winner_value, [this](Client* candidate) {
        if (candidate == nullptr) {
          return uint64_t{0};
        }
        ++total_scanned_;
        return candidate->Value().raw_unsigned();
      });
  Client* const winner = *it;
  const size_t i = static_cast<size_t>(it - order_.begin());
  if (move_to_front_ && i > 0) {
    // Identical semantics to list erase + push_front: the winner moves to
    // the front, everything before it shifts back one slot.
    std::rotate(order_.begin(), it, it + 1);
    for (size_t j = 0; j <= i; ++j) {
      if (order_[j] != nullptr) {
        members_[order_[j]].index = j;
      }
    }
  }
  return winner;
}

std::vector<Client*> ListLottery::ClientsInOrder() const {
  std::vector<Client*> out;
  out.reserve(members_.size());
  for (Client* c : order_) {
    if (c != nullptr) {
      out.push_back(c);
    }
  }
  return out;
}

Client* ListLottery::Front() const {
  for (Client* c : order_) {
    if (c != nullptr) {
      return c;
    }
  }
  return nullptr;
}

}  // namespace lottery
