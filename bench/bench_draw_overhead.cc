// Section 4.2 micro-benchmarks (google-benchmark): cost of one lottery.
//
// The paper: the draw itself is ~10 RISC instructions of PRNG plus an O(n)
// list scan; ordering clients by ticket count (move-to-front) shortens the
// scan; a tree of partial sums needs only O(lg n). These benchmarks measure
// the host-time cost of FastRand, list/move-to-front/tree draws as the
// number of clients grows, currency value conversion, and the
// activation/deactivation path.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/inverse_lottery.h"
#include "src/core/list_lottery.h"
#include "src/core/lottery_scheduler.h"
#include "src/core/tree_lottery.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/util/fastrand.h"
#include "src/util/sim_time.h"

namespace lottery {
namespace {

void BM_FastRand(benchmark::State& state) {
  FastRand rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_FastRand);

void BM_FastRandBelow64(benchmark::State& state) {
  FastRand rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBelow64(123456789));
  }
}
BENCHMARK(BM_FastRandBelow64);

// Fixture data for list lotteries: n clients, skewed weights (the first
// client holds ~half the tickets, as in a typical interactive mix), pushed
// as the raw base-unit values a scheduler would sync into the list.
struct ListRig {
  ListRig(size_t n, bool move_to_front) : lottery(move_to_front) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t amount =
          (i == 0) ? static_cast<int64_t>(n) * 10 : 10;
      lottery.Add(Funding::FromBase(amount).raw_unsigned());
    }
  }
  ListLottery lottery;
};

void BM_ListLotteryDraw(benchmark::State& state) {
  ListRig rig(static_cast<size_t>(state.range(0)), /*move_to_front=*/false);
  FastRand rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lottery.Draw(rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListLotteryDraw)->Range(4, 4096)->Complexity(benchmark::oN);

void BM_ListLotteryDrawMoveToFront(benchmark::State& state) {
  ListRig rig(static_cast<size_t>(state.range(0)), /*move_to_front=*/true);
  FastRand rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lottery.Draw(rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ListLotteryDrawMoveToFront)
    ->Range(4, 4096)
    ->Complexity(benchmark::oN);

void BM_TreeLotteryDraw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TreeLottery tree(n);
  for (size_t i = 0; i < n; ++i) {
    tree.Add(i == 0 ? n * 10 : 10);
  }
  FastRand rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Draw(rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeLotteryDraw)->Range(4, 4096)->Complexity(benchmark::oLogN);

void BM_TreeLotteryUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TreeLottery tree(n);
  std::vector<size_t> slots;
  for (size_t i = 0; i < n; ++i) {
    slots.push_back(tree.Add(10));
  }
  FastRand rng(7);
  uint64_t w = 10;
  for (auto _ : state) {
    tree.SetWeight(slots[rng.NextBelow(static_cast<uint32_t>(n))], ++w % 50);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeLotteryUpdate)->Range(4, 4096)->Complexity(benchmark::oLogN);

// Currency conversion cost: value a client whose funding crosses a
// user -> task -> thread currency chain (Figure 3's depth).
void BM_CurrencyConversionDepth3(benchmark::State& state) {
  CurrencyTable table;
  Currency* user = table.CreateCurrency("user");
  Currency* task = table.CreateCurrency("task");
  Currency* thread = table.CreateCurrency("thread");
  table.Fund(user, table.CreateTicket(table.base(), 1000));
  table.Fund(task, table.CreateTicket(user, 100));
  table.Fund(thread, table.CreateTicket(task, 100));
  Client client(&table, "c");
  Ticket* held = table.CreateTicket(thread, 100);
  client.HoldTicket(held);
  client.SetActive(true);
  for (auto _ : state) {
    // Changing the amount dirties the client, forcing a fresh conversion
    // each iteration (otherwise the memoized value is returned and this
    // measures a cache hit).
    table.SetAmount(held, 100 + static_cast<int64_t>(state.iterations() % 2));
    benchmark::DoNotOptimize(client.Value());
  }
}
BENCHMARK(BM_CurrencyConversionDepth3);

void BM_CurrencyValueMemoized(benchmark::State& state) {
  CurrencyTable table;
  Currency* user = table.CreateCurrency("user");
  table.Fund(user, table.CreateTicket(table.base(), 1000));
  Client client(&table, "c");
  client.HoldTicket(table.CreateTicket(user, 100));
  client.SetActive(true);
  client.Value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Value());
  }
}
BENCHMARK(BM_CurrencyValueMemoized);

void BM_InverseLotteryDraw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1 + i % 17;
  }
  FastRand rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DrawInverse(weights, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InverseLotteryDraw)->Range(4, 1024)->Complexity(benchmark::oN);

void BM_FundingScaleBy(benchmark::State& state) {
  Funding value = Funding::FromBase(123456789);
  int64_t num = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(value.ScaleBy(num, 13));
    num = (num % 1000) + 1;
  }
}
BENCHMARK(BM_FundingScaleBy);

// Block/unblock cost: the activation cascade of Section 4.4.
void BM_ActivationCascade(benchmark::State& state) {
  CurrencyTable table;
  Currency* user = table.CreateCurrency("user");
  Currency* task = table.CreateCurrency("task");
  table.Fund(user, table.CreateTicket(table.base(), 1000));
  table.Fund(task, table.CreateTicket(user, 100));
  Client client(&table, "c");
  client.HoldTicket(table.CreateTicket(task, 100));
  bool active = false;
  for (auto _ : state) {
    active = !active;
    client.SetActive(active);
  }
}
BENCHMARK(BM_ActivationCascade);

// Full-dispatch churn rig: a scheduler with n funded threads where every
// dispatch runs the paper's steady-state cycle — draw a winner, end its
// quantum early (earning a compensation ticket, Section 4.5), and requeue
// it. Every dispatch therefore exercises the dirty-propagation path: the
// compensation mutation invalidates exactly one client, and the requeue
// pushes its fresh value into its slot, so neither backend re-pushes a
// queued slot and the tree should see zero full resyncs.
struct ChurnRig {
  ChurnRig(size_t n, RunQueueBackend backend, uint32_t seed) {
    LotteryScheduler::Options sopts;
    sopts.seed = seed;
    sopts.backend = backend;
    sopts.metrics = &registry;
    // The 10k-client list legs exist precisely to chart the O(n) wall the
    // list_max_threads cap protects production users from; lift it here.
    sopts.list_max_threads = 0;
    scheduler = std::make_unique<LotteryScheduler>(sopts);
    for (size_t i = 0; i < n; ++i) {
      const ThreadId tid = static_cast<ThreadId>(i + 1);
      scheduler->AddThread(tid, SimTime::Zero());
      scheduler->FundThread(tid, scheduler->table().base(),
                            50 + static_cast<int64_t>(i % 32) * 10);
      scheduler->OnReady(tid, SimTime::Zero());
    }
  }

  // One dispatch: the winner consumes 20 ms of its 100 ms quantum, so the
  // compensation policy inflates it by 5x until it next runs.
  ThreadId Step() {
    const ThreadId winner = scheduler->PickNext(SimTime::Zero());
    scheduler->OnQuantumEnd(winner, SimDuration::Millis(20),
                            SimDuration::Millis(100), SimTime::Zero());
    scheduler->OnReady(winner, SimTime::Zero());
    return winner;
  }

  obs::Registry registry;
  std::unique_ptr<LotteryScheduler> scheduler;
};

void BM_DispatchChurnList(benchmark::State& state) {
  ChurnRig rig(static_cast<size_t>(state.range(0)), RunQueueBackend::kList,
               /*seed=*/7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.Step());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DispatchChurnList)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Complexity(benchmark::oN);

void BM_DispatchChurnTree(benchmark::State& state) {
  ChurnRig rig(static_cast<size_t>(state.range(0)), RunQueueBackend::kTree,
               /*seed=*/7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.Step());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DispatchChurnTree)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Complexity(benchmark::oLogN);

// Deterministic churn measurement for the --json report: dispatch counts,
// dirty-mark rates, sync behaviour, and draw-cost percentiles in the
// backend's own units (list: clients scanned; tree: levels descended) are
// reproducible for a fixed seed, so CI's perf gate can compare them against
// committed baselines. Wall-clock keys end in "_ns" and are skipped by the
// gate.
void AppendChurnMetrics(
    uint32_t seed, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kMeasured = 8192;
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree}) {
    for (const size_t n : {size_t{100}, size_t{1000}, size_t{10000}}) {
      ChurnRig rig(n, backend, seed);
      // Warm up for ~n dispatches so the wall number reflects steady state:
      // the measured phase should re-walk hot tree paths and thread state,
      // not fault the working set in for the first time.
      const int warmup = static_cast<int>(n < 512 ? 512 : n);
      for (int i = 0; i < warmup; ++i) {
        rig.Step();
      }
      rig.registry.Reset();
      // Wall time is the minimum over blocks: on a shared machine the
      // fastest block is the one least perturbed by other load, which is
      // the closest estimate of the true dispatch cost. Counters accumulate
      // across all blocks.
      constexpr int kBlocks = 8;
      constexpr int kBlockSteps = kMeasured / kBlocks;
      double best_block_ns = 0.0;
      for (int block = 0; block < kBlocks; ++block) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBlockSteps; ++i) {
          rig.Step();
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double block_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (block == 0 || block_ns < best_block_ns) {
          best_block_ns = block_ns;
        }
      }
      const double wall_ns = best_block_ns * kBlocks;
      const auto counter = [&rig](const char* name) {
        const obs::Counter* c = rig.registry.FindCounter(name);
        return c == nullptr ? 0.0 : static_cast<double>(c->value());
      };
      const std::string key =
          std::string("churn_") +
          (backend == RunQueueBackend::kList ? "list" : "tree") + "_" +
          std::to_string(n);
      out->emplace_back(key + "_ns_per_dispatch", wall_ns / kMeasured);
      out->emplace_back(key + "_dirty_marks_per_dispatch",
                        (counter("currency.dirty_marks") +
                         counter("client.dirty_marks")) /
                            kMeasured);
      out->emplace_back(key + "_client_reprices_per_dispatch",
                        counter("client.reprices") / kMeasured);
      if (backend == RunQueueBackend::kTree) {
        out->emplace_back(key + "_full_syncs", counter("tree.full_syncs"));
        out->emplace_back(key + "_leaf_updates_per_dispatch",
                          counter("tree.leaf_updates") / kMeasured);
      }
      const obs::LatencyHistogram* cost =
          rig.registry.FindHistogram("lottery.draw_cost");
      if (cost != nullptr) {
        out->emplace_back(key + "_draw_cost_p50", cost->Percentile(0.50));
        out->emplace_back(key + "_draw_cost_p99", cost->Percentile(0.99));
      }
    }
  }
}

// Steady-state dispatch rig: full quanta (no compensation ticket, no
// reprice) on the tree backend, the regime where the draw itself dominates
// dispatch cost and where speculative batching is allowed to engage.
// This is the rig behind the draw-path perf-gate leg: counter-derived keys
// are deterministic for a fixed seed; wall-clock keys end in "_ns" and are
// skipped by the gate.
struct SteadyRig {
  SteadyRig(size_t n, uint32_t batch_window, uint32_t seed) {
    LotteryScheduler::Options sopts;
    sopts.seed = seed;
    sopts.backend = RunQueueBackend::kTree;
    sopts.batch_window = batch_window;
    sopts.metrics = &registry;
    scheduler = std::make_unique<LotteryScheduler>(sopts);
    for (size_t i = 0; i < n; ++i) {
      const ThreadId tid = static_cast<ThreadId>(i + 1);
      scheduler->AddThread(tid, SimTime::Zero());
      scheduler->FundThread(tid, scheduler->table().base(),
                            50 + static_cast<int64_t>(i % 32) * 10);
      scheduler->OnReady(tid, SimTime::Zero());
    }
  }

  // One dispatch: the winner runs its full 100 ms quantum, so no
  // compensation mutation lands and the ticket set holds still.
  ThreadId Step() {
    const ThreadId winner = scheduler->PickNext(SimTime::Zero());
    scheduler->OnQuantumEnd(winner, SimDuration::Millis(100),
                            SimDuration::Millis(100), SimTime::Zero());
    scheduler->OnReady(winner, SimTime::Zero());
    return winner;
  }

  obs::Registry registry;
  std::unique_ptr<LotteryScheduler> scheduler;
};

void AppendSteadyMetrics(
    uint32_t seed, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kMeasured = 8192;
  struct Leg {
    const char* key;
    uint32_t batch_window;
  };
  // tree_nobatch isolates the branchless-descent win from the batching win:
  // the acceptance ratio for the draw path is steady_tree vs
  // steady_tree_nobatch at the same n.
  const Leg legs[] = {
      {"steady_tree", 8},
      {"steady_tree_nobatch", 0},
  };
  for (const Leg& leg : legs) {
    for (const size_t n : {size_t{100}, size_t{1000}, size_t{10000}}) {
      SteadyRig rig(n, leg.batch_window, seed);
      const int warmup = static_cast<int>(n < 512 ? 512 : n);
      for (int i = 0; i < warmup; ++i) {
        rig.Step();
      }
      rig.registry.Reset();
      constexpr int kBlocks = 8;
      constexpr int kBlockSteps = kMeasured / kBlocks;
      double best_block_ns = 0.0;
      for (int block = 0; block < kBlocks; ++block) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBlockSteps; ++i) {
          rig.Step();
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double block_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (block == 0 || block_ns < best_block_ns) {
          best_block_ns = block_ns;
        }
      }
      const double wall_ns = best_block_ns * kBlocks;
      const auto counter = [&rig](const char* name) {
        const obs::Counter* c = rig.registry.FindCounter(name);
        return c == nullptr ? 0.0 : static_cast<double>(c->value());
      };
      const std::string key =
          std::string(leg.key) + "_" + std::to_string(n);
      out->emplace_back(key + "_ns_per_dispatch", wall_ns / kMeasured);
      out->emplace_back(key + "_full_syncs", counter("tree.full_syncs"));
      out->emplace_back(key + "_batch_draws_per_dispatch",
                        counter("lottery.batch_draws") / kMeasured);
      const obs::LatencyHistogram* cost =
          rig.registry.FindHistogram("lottery.draw_cost");
      if (cost != nullptr) {
        out->emplace_back(key + "_draw_cost_p50", cost->Percentile(0.50));
        out->emplace_back(key + "_draw_cost_p99", cost->Percentile(0.99));
      }
    }
  }
}

// Raw per-backend draw-latency matrix: p50/p99 of a single Draw() against
// the bare structures (no scheduler around them) at n up to 100k. Each
// sample times a group of draws to amortize clock overhead; percentiles are
// taken over the per-draw group means. All keys end "_ns": wall-clock,
// reported for the README/DESIGN scaling story, never gated. The list
// backend is capped at 1k clients — about the population past which the
// scheduler refuses it (list_max_threads).
void AppendDrawLatencyMatrix(
    uint32_t seed, std::vector<std::pair<std::string, double>>* out) {
  constexpr size_t kGroup = 32;
  constexpr size_t kSamples = 256;
  const auto percentiles = [&](auto&& draw_once, const std::string& key) {
    std::vector<double> per_draw_ns(kSamples);
    for (size_t s = 0; s < kSamples; ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kGroup; ++i) {
        draw_once();
      }
      const auto t1 = std::chrono::steady_clock::now();
      per_draw_ns[s] =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          kGroup;
    }
    std::sort(per_draw_ns.begin(), per_draw_ns.end());
    out->emplace_back(key + "_p50_ns", per_draw_ns[kSamples / 2]);
    out->emplace_back(key + "_p99_ns",
                      per_draw_ns[(kSamples * 99) / 100]);
  };
  for (const size_t n :
       {size_t{100}, size_t{1000}, size_t{10000}, size_t{100000}}) {
    const std::string suffix = "_" + std::to_string(n);
    if (n <= 1000) {
      ListRig rig(n, /*move_to_front=*/false);
      FastRand rng(seed);
      percentiles([&] { benchmark::DoNotOptimize(rig.lottery.Draw(rng)); },
                  "draw_list" + suffix);
    }
    TreeLottery tree(n);
    for (size_t i = 0; i < n; ++i) {
      tree.Add(i == 0 ? n * 10 : 10);
    }
    FastRand rng(seed);
    for (size_t i = 0; i < 4096; ++i) {
      tree.Draw(rng);  // warm the descent paths
    }
    percentiles([&] { benchmark::DoNotOptimize(tree.Draw(rng)); },
                "draw_tree" + suffix);
  }
}

// Console reporter that additionally captures per-benchmark real time so a
// --json report in the shared BENCH_<name>.json schema can be emitted next
// to google-benchmark's own output. Complexity fits (BigO/RMS rows) are
// synthetic aggregates and are excluded from the capture.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.report_big_o ||
          run.report_rms) {
        continue;
      }
      results_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) {
  // Peel off the repo-wide --json/--seed flags before google-benchmark sees
  // the command line (it rejects flags it does not know). The PRNG seeds
  // here are fixed inside each benchmark, so --seed only lands in the
  // report metadata.
  std::string json_path;
  int64_t seed = 42;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::atoll(arg.c_str() + 7);
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  lottery::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    lottery::obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("bench").String("bench_draw_overhead");
    w.Key("metadata").BeginObject();
    w.Key("seed").Int(seed);
    w.EndObject();
    w.Key("metrics").BeginObject();
    for (const auto& [name, real_time_ns] : reporter.results()) {
      w.Key(name + "_ns").Double(real_time_ns);
    }
    // Deterministic churn run (seeded, counter-derived): the perf-gate
    // metrics live here, alongside the wall-clock numbers above.
    std::vector<std::pair<std::string, double>> churn;
    lottery::AppendChurnMetrics(static_cast<uint32_t>(seed), &churn);
    lottery::AppendSteadyMetrics(static_cast<uint32_t>(seed), &churn);
    lottery::AppendDrawLatencyMatrix(static_cast<uint32_t>(seed), &churn);
    for (const auto& [name, value] : churn) {
      w.Key(name).Double(value);
    }
    w.EndObject();
    w.Key("percentiles").BeginObject().EndObject();
    w.EndObject();
    lottery::obs::WriteFile(json_path, w.str());
    std::cout << "\nWrote JSON report to " << json_path << "\n";
  }
  return 0;
}
