// Whole-structure invariant sweeps for the currency graph and scheduler.
//
// These are the runtime half of the project's determinism & invariant
// contract (DESIGN.md "Determinism contract"; the static half is
// tools/lotlint). Each Sweep* function walks a structure and appends one
// line per violated property to a list, in every build:
//
//   * Ticket conservation — every ticket amount is positive; every
//     currency's issued_amount equals the sum of its issued tickets'
//     amounts, and active_amount equals the sum of the active ones; ticket
//     attachment is exclusive (a ticket backs a currency XOR is held by a
//     client XOR is unattached) and activation implies attachment; a
//     backing ticket is active exactly when the currency it funds has
//     active amount, a held ticket exactly when its holder is active; a
//     retired currency has no backing left, and still has an issued
//     ticket (the last one reclaims it, so an empty one has leaked).
//     Transfers move tickets; they must never mint or destroy amount as a
//     side effect.
//   * Acyclicity — the funding graph (backing edges toward more primitive
//     currencies) has no cycle, so value computation terminates and
//     CurrencyTable::Fund's online check can be trusted.
//   * Compensation bound — a client's compensation factor is q/f clamped
//     to [1, max_factor] (Section 4.5): num/den >= 1 and
//     num <= den * max_factor.
//
// The chaos harness (src/sim/chaos.cc) reports the sweeps' findings as its
// oracles, so Release fuzz runs check the same properties. The Check*
// forms LOT_ASSERT that a sweep found nothing; CurrencyTable mutators
// invoke them through LOT_DCHECK_TABLE, which self-samples on large tables
// so debug fuzz runs stay fast. The LOT_DCHECK_* macros compile out unless
// LOTTERY_INVARIANTS is defined (Debug builds define it by default). The
// conservation and compensation sweeps are linear, acyclicity is
// O(n log n) in the currencies.

#ifndef SRC_CORE_INVARIANTS_H_
#define SRC_CORE_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/invariant.h"

namespace lottery {

class Client;
class CurrencyTable;

namespace invariants {

// Ticket/amount conservation over the whole table (see file comment).
void SweepTicketConservation(const CurrencyTable& table,
                             std::vector<std::string>* findings);

// The funding graph has no cycle along backing edges.
void SweepAcyclicity(const CurrencyTable& table,
                     std::vector<std::string>* findings);

// comp factor in [1, max_factor]; den > 0.
void SweepCompensationBound(const Client& client, int64_t max_factor,
                            std::vector<std::string>* findings);

// The aborting forms: LOT_ASSERT that the sweep found nothing, with the
// first finding as the message.
void CheckTicketConservation(const CurrencyTable& table);
void CheckAcyclicity(const CurrencyTable& table);
void CheckCompensationBound(const Client& client, int64_t max_factor);

// Conservation + acyclicity in one call.
void CheckTable(const CurrencyTable& table);

// Sampled variant used at mutator exits: checks every call while the table
// is small (the common test regime), then 1 call in 64 so debug fuzz runs
// with thousands of tickets stay fast. Deterministic (counter-based).
void CheckTableSampled(const CurrencyTable& table);

}  // namespace invariants
}  // namespace lottery

#if LOT_INVARIANTS_ENABLED
// Full-table sweep at a mutator exit (the table's own, the scheduler's and
// a transfer's), sampled on big tables.
#define LOT_DCHECK_TABLE(table) \
  ::lottery::invariants::CheckTableSampled(table)
// Compensation factor bound for one client.
#define LOT_DCHECK_COMPENSATION(client, max_factor) \
  ::lottery::invariants::CheckCompensationBound((client), (max_factor))
#else
#define LOT_DCHECK_TABLE(table) \
  do {                          \
  } while (false)
#define LOT_DCHECK_COMPENSATION(client, max_factor) \
  do {                                              \
  } while (false)
#endif

#endif  // SRC_CORE_INVARIANTS_H_
