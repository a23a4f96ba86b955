// Quickstart: the Figure 1 lottery, then a minimal scheduled simulation.
//
// Part 1 rebuilds the paper's Figure 1 by hand: five clients holding
// 10/2/5/1/2 of 20 tickets compete in a list-based lottery (each client's
// base-unit value is pushed into the list as its slot's weight, as the
// scheduler does); we draw many times and show the win frequencies
// converging to the ticket shares.
//
// Part 2 runs the smallest end-to-end experiment: two compute tasks with a
// 2:1 allocation on the simulated kernel for 30 seconds.

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/list_lottery.h"
#include "src/core/lottery_scheduler.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

int main() {
  using namespace lottery;

  // --- Part 1: the Figure 1 lottery ---------------------------------------
  std::printf("Part 1: Figure 1's list-based lottery (tickets 10/2/5/1/2)\n");
  CurrencyTable table;
  ListLottery lotto;
  const int64_t amounts[] = {10, 2, 5, 1, 2};
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<size_t> slots;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(
        std::make_unique<Client>(&table, "client" + std::to_string(i + 1)));
    clients.back()->HoldTicket(table.CreateTicket(table.base(), amounts[i]));
    clients.back()->SetActive(true);
    slots.push_back(lotto.Add(clients.back()->Value().raw_unsigned()));
  }
  const Funding total = Funding::FromRaw(static_cast<int64_t>(lotto.total()));
  std::printf("total tickets: %lld\n",
              static_cast<long long>(total.base_units()));

  FastRand rng(20260707);
  std::vector<int> wins(5, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const std::optional<size_t> winner = lotto.Draw(rng);
    for (size_t c = 0; c < clients.size(); ++c) {
      if (slots[c] == winner) {
        ++wins[c];
      }
    }
  }
  for (size_t c = 0; c < clients.size(); ++c) {
    std::printf("  %s: %2lld/20 tickets -> %5.2f%% of wins (expected %5.2f%%)\n",
                clients[c]->name().c_str(),
                static_cast<long long>(amounts[c]),
                100.0 * wins[c] / kDraws,
                100.0 * static_cast<double>(amounts[c]) / 20.0);
  }

  // --- Part 2: a scheduled simulation --------------------------------------
  std::printf("\nPart 2: two compute tasks, 2:1 tickets, 60 simulated sec\n");
  LotteryScheduler::Options options;
  options.seed = 1;
  LotteryScheduler scheduler(options);
  Tracer tracer(SimDuration::Seconds(1));
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  Kernel kernel(&scheduler, kopts, &tracer);

  const ThreadId fast = kernel.Spawn("fast", std::make_unique<ComputeTask>());
  scheduler.FundThread(fast, scheduler.table().base(), 200);
  const ThreadId slow = kernel.Spawn("slow", std::make_unique<ComputeTask>());
  scheduler.FundThread(slow, scheduler.table().base(), 100);

  kernel.RunFor(SimDuration::Seconds(60));
  const auto pf = tracer.TotalProgress(fast);
  const auto ps = tracer.TotalProgress(slow);
  std::printf("  fast: %lld iterations, slow: %lld iterations -> %.2f : 1 "
              "(allocated 2 : 1)\n",
              static_cast<long long>(pf), static_cast<long long>(ps),
              static_cast<double>(pf) / static_cast<double>(ps));
  std::printf("  lotteries held: %llu\n",
              static_cast<unsigned long long>(scheduler.num_lotteries()));
  return 0;
}
