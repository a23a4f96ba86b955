// Client: a schedulable competitor in lotteries.
//
// A client (a thread, in the CPU case) holds tickets and competes for a
// resource with value equal to the sum of its held tickets' base-unit values
// (Section 4.4), optionally inflated by a compensation factor (Section 4.5).
// Activating a client (it joins the run queue or is dispatched) activates
// its held tickets, which cascades through the currency graph; deactivation
// (it blocks) is symmetric — this is what makes ticket transfers and
// mutex/RPC funding work without special cases.

#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/currency.h"
#include "src/core/funding.h"
#include "src/core/ticket.h"

namespace lottery {

class Client {
 public:
  // owner_index() of a client its creator did not stamp.
  static constexpr uint32_t kNoOwner = UINT32_MAX;

  // `owner_index` lets the creator find its own record for this client
  // from a ValueObserver callback without a lookup structure: the
  // LotteryScheduler stamps each thread's client with the thread id.
  Client(CurrencyTable* table, std::string name,
         uint32_t owner_index = kNoOwner);
  // Detaches (but does not destroy) any still-held tickets.
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const std::string& name() const { return name_; }
  CurrencyTable* table() const { return table_; }
  uint32_t owner_index() const { return owner_index_; }

  // --- Ticket holding -----------------------------------------------------

  // Takes possession of an unattached ticket. If the client is active the
  // ticket is activated immediately.
  void HoldTicket(Ticket* ticket);
  // Detaches a held ticket; it becomes unattached (and inactive).
  void ReleaseTicket(Ticket* ticket);
  const std::vector<Ticket*>& tickets() const { return tickets_; }

  // --- Activation ---------------------------------------------------------

  // Active means competing: held tickets count toward currency active
  // amounts and this client's value is nonzero.
  void SetActive(bool active);
  bool active() const { return active_; }

  // --- Compensation (Section 4.5) ------------------------------------------

  // Multiplies this client's value by num/den until cleared. The scheduler
  // sets num/den = quantum/used when a quantum is under-consumed, and clears
  // it when the client next starts a quantum.
  void SetCompensation(int64_t num, int64_t den);
  void ClearCompensation();
  bool has_compensation() const { return comp_num_ != comp_den_; }
  // Reporting only; value arithmetic uses the exact num/den terms.
  double compensation_factor() const {  // lotlint: float-ok
    return static_cast<double>(comp_num_) / static_cast<double>(comp_den_);
  }
  // Exact factor terms, for ground-truth value recomputation in tests.
  int64_t compensation_num() const { return comp_num_; }
  int64_t compensation_den() const { return comp_den_; }

  // --- Value ----------------------------------------------------------------

  // Current value in base units: sum of held (active) ticket values times
  // the compensation factor. Zero while inactive. Cached; invalidated by
  // the table's dirty propagation and by local mutations.
  Funding Value() const;

 private:
  friend class CurrencyTable;  // flips cache_valid_ from MarkClientDirty

  // Routes a local mutation through the table so registered ValueObservers
  // hear about it too.
  void Invalidate();

  CurrencyTable* table_;
  std::string name_;
  std::vector<Ticket*> tickets_;
  uint32_t owner_index_;
  bool active_ = false;
  int64_t comp_num_ = 1;
  int64_t comp_den_ = 1;

  mutable Funding cached_value_{};
  mutable bool cache_valid_ = false;
};

}  // namespace lottery

#endif  // SRC_CORE_CLIENT_H_
