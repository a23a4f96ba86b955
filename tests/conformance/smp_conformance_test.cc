// SMP statistical conformance sweep: the per-CPU run queues plus
// ticket-weighted stealing must still deliver *global* proportional share.
//
// Each cell runs {1, 4, 16, 64} CPUs x {list, tree} backends x 32
// seeds. Every CPU starts with eight compute-bound threads (round-robin
// placement) funded from a cyclic weight ladder, so per-CPU ticket totals
// begin skewed and the balancer has real work to do. At {4, 16} CPUs the
// ladder is also issued in two user currencies instead of base, each
// backed at its own exchange rate, so the shares run through one currency
// graph that spans the CPUs. After a fixed horizon:
//
//  1. Per-seed Pearson chi-square (df = n-1) of per-thread dispatch counts
//     against the global ticket shares at alpha = 0.01; at most 3 of 32
//     seeds may reject (expected false rejections: 0.32).
//  2. The per-seed statistics summed against the critical value with
//     df = 32*(n-1) at alpha = 0.001 — catches a small systematic bias
//     (e.g. a persistently rich CPU) that no single seed rejects.
//  3. Per-CPU load spread: every CPU must stay at least 95% busy, and the
//     machine-wide idle fraction under 2% — partitioning may not break
//     work conservation.
//
// Everything is seeded, so a passing sweep passes forever.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/currency.h"
#include "src/obs/registry.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/util/stats.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

constexpr int kNumSeeds = 32;
constexpr int kMaxPerSeedFailures = 3;
constexpr int kThreadsPerCpu = 8;

struct SeedOutcome {
  double chi2 = 0.0;
  bool load_ok = true;
  std::string load_detail;
};

SeedOutcome RunOne(int cpus, RunQueueBackend backend, bool currencies,
                   uint32_t seed) {
  obs::Registry reg;
  smp::SmpScheduler::Options so;
  so.num_cpus = cpus;
  so.seed = seed;
  so.cpu.backend = backend;
  so.balance_period = 4;  // brisk rebalance cadence for a short sweep
  so.metrics = &reg;
  smp::SmpScheduler sched(so);

  Kernel::Options ko;
  ko.num_cpus = cpus;
  ko.quantum = SimDuration::Millis(1);
  ko.metrics = &reg;
  Kernel kernel(&sched, ko);

  // Cyclic ladder 50..400: adjacent spawns (which round-robin onto
  // adjacent CPUs) get different weights, so initial per-CPU totals are
  // skewed and only stealing can equalize them. The smallest rung keeps
  // migrant granularity fine relative to per-CPU totals, so the balancer
  // can converge to within the imbalance floor.
  const int n = cpus * kThreadsPerCpu;
  const auto ladder = [](int i) { return int64_t{50} + 50 * (i % 8); };
  // With `currencies`, thread i's rung is issued in user currency
  // (i / cpus) % 2, backed by 1 or 2 base units per unit issued, so a
  // thread's share is its rung times that exchange rate. Alternating by
  // spawn row puts both currencies on every CPU and keeps the plain
  // ladder's per-CPU skew; alternating by i % 2 would quadruple it at 16
  // CPUs, more than the balancer levels within the warm-up.
  Currency* user[2] = {nullptr, nullptr};
  if (currencies) {
    int64_t issued[2] = {0, 0};
    for (int i = 0; i < n; ++i) {
      issued[(i / cpus) % 2] += ladder(i);
    }
    CurrencyTable& table = sched.table();
    for (int c = 0; c < 2; ++c) {
      user[c] = table.CreateCurrency("user" + std::to_string(c));
      table.Fund(user[c],
                 table.CreateTicket(table.base(), (1 + c) * issued[c]));
    }
  }
  std::vector<ThreadId> tids;
  std::vector<int64_t> weights;
  int64_t total_weight = 0;
  for (int i = 0; i < n; ++i) {
    const ThreadId tid = kernel.Spawn("smpconf" + std::to_string(i),
                                      std::make_unique<ComputeTask>());
    int64_t w = ladder(i);
    if (currencies) {
      sched.FundThread(tid, user[(i / cpus) % 2], w);
      w *= 1 + (i / cpus) % 2;
    } else {
      sched.FundThread(tid, w);
    }
    tids.push_back(tid);
    weights.push_back(w);
    total_weight += w;
  }

  // Warm up past the rebalance transient (the ladder placement starts the
  // per-CPU totals far apart on purpose), then measure dispatch deltas
  // over the steady-state window — global proportional share is a property
  // of the balanced partition, not of the convergence path.
  const SimDuration warmup = SimDuration::Millis(500);
  const SimDuration window = SimDuration::Millis(500);
  kernel.RunFor(warmup);
  std::vector<uint64_t> at_warmup;
  for (int i = 0; i < n; ++i) {
    at_warmup.push_back(kernel.Dispatches(tids[static_cast<size_t>(i)]));
  }
  kernel.RunFor(window);
  sched.CheckIntegrity();

  SeedOutcome out;
  std::vector<int64_t> observed;
  std::vector<double> expected;
  uint64_t total_dispatches = 0;
  for (int i = 0; i < n; ++i) {
    total_dispatches += kernel.Dispatches(tids[static_cast<size_t>(i)]) -
                        at_warmup[static_cast<size_t>(i)];
  }
  for (int i = 0; i < n; ++i) {
    observed.push_back(
        static_cast<int64_t>(kernel.Dispatches(tids[static_cast<size_t>(i)]) -
                             at_warmup[static_cast<size_t>(i)]));
    expected.push_back(static_cast<double>(weights[static_cast<size_t>(i)]) /
                       static_cast<double>(total_weight) *
                       static_cast<double>(total_dispatches));
  }
  out.chi2 = ChiSquareStatistic(observed, expected);

  // Work conservation: no CPU may coast while others queue.
  const SimDuration horizon = warmup + window;
  const int64_t busy_floor = horizon.nanos() * 95 / 100;
  for (int c = 0; c < cpus; ++c) {
    if (kernel.CpuBusy(c).nanos() < busy_floor) {
      out.load_ok = false;
      out.load_detail = "cpu " + std::to_string(c) + " busy only " +
                        std::to_string(kernel.CpuBusy(c).nanos()) + " ns";
      break;
    }
  }
  const int64_t idle_cap = horizon.nanos() * cpus * 2 / 100;
  if (kernel.idle_time().nanos() > idle_cap) {
    out.load_ok = false;
    out.load_detail = "machine idle " +
                      std::to_string(kernel.idle_time().nanos()) + " ns";
  }
  return out;
}

void RunSweep(int cpus, RunQueueBackend backend, bool currencies,
              const std::string& label) {
  const int df = cpus * kThreadsPerCpu - 1;
  const double chi2_cutoff = ChiSquareCritical(df, 0.01);
  const double chi2_sum_cutoff = ChiSquareCritical(kNumSeeds * df, 0.001);

  int chi2_failures = 0;
  int load_failures = 0;
  double chi2_sum = 0.0;
  for (int s = 0; s < kNumSeeds; ++s) {
    const SeedOutcome out =
        RunOne(cpus, backend, currencies, 2000 + static_cast<uint32_t>(s));
    chi2_sum += out.chi2;
    if (out.chi2 > chi2_cutoff) {
      ++chi2_failures;
    }
    if (!out.load_ok) {
      ++load_failures;
      ADD_FAILURE() << label << " seed " << 2000 + s
                    << " load spread: " << out.load_detail;
    }
  }
  EXPECT_LE(chi2_failures, kMaxPerSeedFailures)
      << label << ": too many per-seed chi-square rejections of the global "
      << "ticket shares";
  EXPECT_LE(chi2_sum, chi2_sum_cutoff)
      << label << ": systematic global share bias across seeds";
  EXPECT_EQ(load_failures, 0) << label << ": work conservation violated";
}

// (cpus, backend, ladder issued in user currencies)
using Cell = std::tuple<int, RunQueueBackend, bool>;

std::string CellName(const Cell& cell) {
  const auto [cpus, backend, currencies] = cell;
  std::string name = "c" + std::to_string(cpus);
  switch (backend) {
    case RunQueueBackend::kList: name += "_list"; break;
    case RunQueueBackend::kTree: name += "_tree"; break;
  }
  return currencies ? name + "_currencies" : name;
}

class SmpConformance : public testing::TestWithParam<Cell> {};

TEST_P(SmpConformance, GlobalSharesAndLoadSpread) {
  const auto [cpus, backend, currencies] = GetParam();
  RunSweep(cpus, backend, currencies, CellName(GetParam()));
}

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (const int cpus : {1, 4, 16, 64}) {
    for (const RunQueueBackend backend :
         {RunQueueBackend::kList, RunQueueBackend::kTree}) {
      cells.emplace_back(cpus, backend, false);
      if (cpus == 4 || cpus == 16) {
        cells.emplace_back(cpus, backend, true);
      }
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SmpConformance, testing::ValuesIn(AllCells()),
    [](const auto& param_info) { return CellName(param_info.param); });

}  // namespace
}  // namespace lottery
