#include "src/core/invariants.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/ticket.h"

namespace lottery {
namespace invariants {

namespace {

std::string TicketName(const Ticket* t) {
  return "ticket #" + std::to_string(t->id());
}

void AssertNone(const std::vector<std::string>& findings) {
  LOT_ASSERT(findings.empty(), findings.front());
}

}  // namespace

void SweepTicketConservation(const CurrencyTable& table,
                             std::vector<std::string>* findings) {
  const auto add = [findings](const std::string& what) {
    findings->push_back("ticket conservation: " + what);
  };
  for (const Currency* c : table.Currencies()) {
    int64_t issued_sum = 0;
    int64_t active_sum = 0;
    for (const Ticket* t : c->issued()) {
      if (t->amount() <= 0) {
        add("non-positive amount of " + TicketName(t) + " in " + c->name());
      }
      if (t->denomination() != c) {
        add("issued-list/denomination mismatch of " + TicketName(t) +
            " in " + c->name());
      }
      issued_sum += t->amount();
      if (t->active()) {
        active_sum += t->amount();
      }
    }
    if (c->issued_amount() != issued_sum) {
      add("issued_amount " + std::to_string(c->issued_amount()) +
          " != sum " + std::to_string(issued_sum) + " in " + c->name());
    }
    if (c->active_amount() != active_sum) {
      add("active_amount " + std::to_string(c->active_amount()) +
          " != sum " + std::to_string(active_sum) + " in " + c->name());
    }
    for (const Ticket* t : c->backing()) {
      if (t->funds() != c) {
        add("backing-list/funds mismatch of " + TicketName(t) + " in " +
            c->name());
      }
      if (t->active() != (c->active_amount() > 0)) {
        add("activation of backing " + TicketName(t) +
            " out of sync with funded currency " + c->name());
      }
    }
    if (c->retired() && !c->backing().empty()) {
      add("retired currency " + c->name() + " still has backing");
    }
    if (c->retired() && c->issued().empty()) {
      add("retired currency " + c->name() + " has no issued ticket left");
    }
  }
  for (const Ticket* t : table.Tickets()) {
    if (t->funds() != nullptr && t->holder() != nullptr) {
      add(TicketName(t) + " both backs a currency and is held by a client");
    }
    if (t->active() && t->funds() == nullptr && t->holder() == nullptr) {
      add("unattached " + TicketName(t) + " is active");
    }
    if (t->holder() != nullptr && t->active() != t->holder()->active()) {
      add("activation of held " + TicketName(t) +
          " out of sync with holder " + t->holder()->name());
    }
  }
}

void SweepAcyclicity(const CurrencyTable& table,
                     std::vector<std::string>* findings) {
  enum class Color : uint8_t { kWhite, kGrey, kBlack };
  const std::vector<Currency*> all = table.Currencies();
  // Each currency's colour sits at its rank in address order, found by
  // binary search: O(n log n), with no allocation per currency. The walk
  // follows the table's creation order, so what it reports does not depend
  // on addresses.
  std::vector<const Currency*> by_address(all.begin(), all.end());
  std::sort(by_address.begin(), by_address.end(),
            std::less<const Currency*>());
  std::vector<Color> colors(all.size(), Color::kWhite);
  const auto color_of = [&](const Currency* c) -> Color* {
    const auto it = std::lower_bound(by_address.begin(), by_address.end(), c,
                                     std::less<const Currency*>());
    return it != by_address.end() && *it == c
               ? &colors[static_cast<size_t>(it - by_address.begin())]
               : nullptr;
  };

  // Iterative DFS along backing edges; reaching a grey currency closes a
  // cycle.
  struct Frame {
    const Currency* currency;
    Color* color;
    size_t next_edge;
  };
  std::vector<Frame> stack;
  for (const Currency* root : all) {
    Color* root_color = color_of(root);
    if (*root_color != Color::kWhite) {
      continue;
    }
    *root_color = Color::kGrey;
    stack.push_back({root, root_color, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_edge == frame.currency->backing().size()) {
        *frame.color = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const Currency* next =
          frame.currency->backing()[frame.next_edge++]->denomination();
      Color* color = color_of(next);
      if (color == nullptr) {
        findings->push_back("acyclicity: " + next->name() +
                            " is missing from the table");
        return;
      }
      if (*color == Color::kGrey) {
        findings->push_back("acyclicity: currency graph cycle through " +
                            next->name());
        return;
      }
      if (*color == Color::kWhite) {
        *color = Color::kGrey;
        stack.push_back({next, color, 0});
      }
    }
  }
}

void SweepCompensationBound(const Client& client, int64_t max_factor,
                            std::vector<std::string>* findings) {
  const int64_t num = client.compensation_num();
  const int64_t den = client.compensation_den();
  const auto add = [&](const std::string& what) {
    findings->push_back("compensation: factor " + std::to_string(num) + "/" +
                        std::to_string(den) + " " + what + " for " +
                        client.name());
  };
  if (den <= 0) {
    add("has a non-positive denominator");
    return;
  }
  if (num < den) {
    add("is deflationary (< 1)");
  }
  if (num > den * max_factor) {
    add("exceeds q/f cap " + std::to_string(max_factor));
  }
}

void CheckTicketConservation(const CurrencyTable& table) {
  std::vector<std::string> findings;
  SweepTicketConservation(table, &findings);
  AssertNone(findings);
}

void CheckAcyclicity(const CurrencyTable& table) {
  std::vector<std::string> findings;
  SweepAcyclicity(table, &findings);
  AssertNone(findings);
}

void CheckCompensationBound(const Client& client, int64_t max_factor) {
  std::vector<std::string> findings;
  SweepCompensationBound(client, max_factor, &findings);
  AssertNone(findings);
}

void CheckTable(const CurrencyTable& table) {
  CheckTicketConservation(table);
  CheckAcyclicity(table);
}

void CheckTableSampled(const CurrencyTable& table) {
  // Deterministic sampling: small tables (the unit/fig regime) are swept on
  // every mutation; big fuzz tables 1-in-64 so debug runs stay fast.
  static uint64_t tick = 0;
  ++tick;
  if (table.num_tickets() <= 128 || tick % 64 == 0) {
    CheckTable(table);
  }
}

}  // namespace invariants
}  // namespace lottery
