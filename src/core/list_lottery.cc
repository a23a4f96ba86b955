#include "src/core/list_lottery.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

size_t ListLottery::Add(uint64_t weight) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = position_.size();
    position_.push_back(kFree);
  }
  position_[slot] = order_.size();
  order_.push_back(Entry{slot, weight});
  ++live_count_;
  total_ += weight;
  return slot;
}

size_t ListLottery::IndexOf(size_t slot) const {
  if (slot >= position_.size() || position_[slot] == kFree) {
    throw std::out_of_range("ListLottery: slot is not live");
  }
  return position_[slot];
}

void ListLottery::Remove(size_t slot) {
  Entry& entry = order_[IndexOf(slot)];
  total_ -= entry.weight;
  entry = Entry{kFree, 0};
  position_[slot] = kFree;
  free_slots_.push_back(slot);
  --live_count_;
  ++tombstones_;
  if (tombstones_ >= 8 && tombstones_ > live_count_) {
    Compact();
  }
}

void ListLottery::SetWeight(size_t slot, uint64_t weight) {
  Entry& entry = order_[IndexOf(slot)];
  total_ += weight - entry.weight;  // wraps; additions re-wrap
  entry.weight = weight;
}

uint64_t ListLottery::Weight(size_t slot) const {
  return order_[IndexOf(slot)].weight;
}

void ListLottery::Compact() {
  size_t out = 0;
  for (const Entry& entry : order_) {
    if (entry.slot != kFree) {
      position_[entry.slot] = out;
      order_[out++] = entry;
    }
  }
  order_.resize(out);
  tombstones_ = 0;
}

std::optional<size_t> ListLottery::Draw(
    FastRand& rng,  // lotlint: stream(scheduler)
    uint64_t* drawn_value) {
  if (total_ == 0) {
    return std::nullopt;
  }
  const uint64_t winner_value = rng.NextBelow64(total_);
  if (drawn_value != nullptr) {
    *drawn_value = winner_value;
  }

  // Accumulate until the winning value is covered (Figure 1).
  ++num_draws_;
  const auto it = ResolveWeighted(
      order_.begin(), order_.end(), winner_value, [this](const Entry& entry) {
        if (entry.slot == kFree) {
          return uint64_t{0};
        }
        ++total_scanned_;
        return entry.weight;
      });
  const size_t winner = it->slot;
  const size_t i = static_cast<size_t>(it - order_.begin());
  if (move_to_front_ && i > 0) {
    // Identical semantics to list erase + push_front: the winner moves to
    // the front, everything before it shifts back one entry.
    std::rotate(order_.begin(), it, it + 1);
    for (size_t j = 0; j <= i; ++j) {
      if (order_[j].slot != kFree) {
        position_[order_[j].slot] = j;
      }
    }
  }
  return winner;
}

}  // namespace lottery
