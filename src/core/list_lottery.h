// List-based lottery with the paper's "move to front" heuristic.
//
// This mirrors Section 4.2 and Figure 1 and the prototype's actual run-queue
// implementation: a winning value is drawn uniformly over [0, total funding),
// then the client list is traversed accumulating each client's value in base
// units until the running sum exceeds the winning value. The traversal is
// the walk every linear lottery shares (ResolveWeighted, weighted_draw.h);
// only the draw of the value from the cached total is this class's own.
// Clients that win often migrate to the front, shortening the average
// traversal.
//
// Storage is an index-mapped vector rather than a linked list: Draw walks a
// contiguous Client* array (cache-friendly), Remove tombstones in O(1) and
// compacts lazily, and move-to-front is std::rotate over the winner's prefix
// — the resulting client order is identical to the paper's list semantics,
// so fixed-seed draw sequences are unchanged.
//
// The total is cached and maintained by CurrencyTable dirty notifications
// (the lottery registers itself as a ValueObserver of its members' table),
// so a draw costs O(scan) instead of O(n + scan).

#ifndef SRC_CORE_LIST_LOTTERY_H_
#define SRC_CORE_LIST_LOTTERY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/funding.h"
#include "src/util/fastrand.h"

namespace lottery {

class ListLottery final : public ValueObserver {
 public:
  explicit ListLottery(bool move_to_front = true)
      : move_to_front_(move_to_front) {}
  ~ListLottery() override;
  ListLottery(const ListLottery&) = delete;
  ListLottery& operator=(const ListLottery&) = delete;

  // Members must all belong to one CurrencyTable, and that table must
  // outlive this lottery (the lottery observes it for value changes).
  void Add(Client* client);
  void Remove(Client* client);
  bool Contains(const Client* client) const;
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  // Sum of all member clients' current values. Cached: refreshed lazily
  // from the members the table reported dirty since the last call.
  Funding Total() const;

  // Holds one lottery: picks a winner with probability proportional to its
  // value. Returns nullptr if the list is empty or the total is zero.
  // Does not remove the winner. When `drawn_value` is non-null and a winner
  // is picked, it receives the random value in [0, Total()) that selected
  // the winner (recorded by the etrace decision stream; the RNG sequence is
  // identical whether or not it is requested).
  Client* Draw(FastRand& rng, uint64_t* drawn_value = nullptr);

  // Clients in current list order (front first); exposed for tests and for
  // deterministic zero-funding fallbacks.
  std::vector<Client*> ClientsInOrder() const;
  Client* Front() const;

  // Raw draw order including nullptr tombstones; allocation-free access for
  // trace snapshots. Mutated by Draw (move-to-front) — snapshot before.
  const std::vector<Client*>& raw_order() const { return order_; }

  // Instrumentation: cumulative clients examined by Draw traversals and the
  // number of draws, for reproducing the move-to-front search-length claim.
  uint64_t total_scanned() const { return total_scanned_; }
  uint64_t num_draws() const { return num_draws_; }

  // ValueObserver: a member's value may have changed; fold it into the
  // cached total at the next Total() call.
  void OnClientValueDirty(Client* client) override;

 private:
  struct Entry {
    size_t index;        // position in order_ (order_[index] == client)
    Funding last;        // value last folded into total_
    bool dirty = false;  // queued in dirty_members_
  };

  void Compact();

  bool move_to_front_;
  CurrencyTable* table_ = nullptr;  // set on first Add
  std::vector<Client*> order_;      // draw order; nullptr = tombstone
  size_t tombstones_ = 0;
  // Value-cache state is logically const: Total() refreshes it on demand.
  mutable std::unordered_map<Client*, Entry> members_;
  mutable std::vector<Client*> dirty_members_;
  mutable Funding total_{};
  uint64_t total_scanned_ = 0;
  uint64_t num_draws_ = 0;
};

}  // namespace lottery

#endif  // SRC_CORE_LIST_LOTTERY_H_
