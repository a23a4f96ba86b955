// Simulation fuzzer: hundreds of random fault plans against random
// scenarios, checking the chaos oracles (work conservation, ticket
// conservation, currency-graph acyclicity, compensation bounds) after every
// run. Failures are minimized by greedily dropping plan specs and reported
// as a ready-to-paste `faultctl` command line, so any CI hit reproduces
// locally from the seed alone.
//
// A second sweep replays the same scenarios on partitioned SMP
// (SmpScheduler with one tree queue per CPU, 1-4 CPUs).
//
// Environment knobs (both sweeps):
//   LOTTERY_FUZZ_PLANS       number of random plans (default 500)
//   LOTTERY_FUZZ_SEED        master seed (default 20260806)
//   LOTTERY_FUZZ_REPRO_FILE  append failing repro commands to this file

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/chaos.h"
#include "src/sim/fault.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return std::strtoull(value, nullptr, 10);
}

// Greedily drops plan specs while the scenario still fails, returning the
// smallest failing variant found. Purely deterministic: each probe is a full
// re-run from the scenario seed.
chaos::Scenario Minimize(chaos::Scenario scenario) {
  FaultPlan plan = FaultPlan::Parse(scenario.plan);
  bool shrunk = true;
  while (shrunk && plan.specs.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < plan.specs.size(); ++i) {
      FaultPlan candidate;
      for (size_t j = 0; j < plan.specs.size(); ++j) {
        if (j != i) {
          candidate.specs.push_back(plan.specs[j]);
        }
      }
      chaos::Scenario probe = scenario;
      probe.plan = candidate.ToString();
      if (!chaos::RunScenario(probe).ok()) {
        plan = candidate;
        shrunk = true;
        break;
      }
    }
  }
  scenario.plan = plan.ToString();
  return scenario;
}

// Runs the random plans and checks every oracle. With `smp`, each drawn
// scenario runs on backend "smp" instead, at a CPU count taken from its
// seed — the master stream, and so every scenario, stays the same.
void Sweep(bool smp) {
  const uint64_t num_plans = EnvOr("LOTTERY_FUZZ_PLANS", 500);
  const uint64_t master_seed = EnvOr("LOTTERY_FUZZ_SEED", 20260806);
  const char* repro_path = std::getenv("LOTTERY_FUZZ_REPRO_FILE");

  FastRand master(static_cast<uint32_t>(master_seed ^ (master_seed >> 32)));
  uint64_t failures = 0;
  uint64_t total_injections = 0;

  for (uint64_t i = 0; i < num_plans; ++i) {
    const uint64_t seed = master.Next() | 1;  // odd, never zero
    chaos::Scenario scenario = chaos::RandomScenario(master, seed);
    if (smp) {
      scenario.backend = "smp";
      scenario.num_cpus = 1 + static_cast<int>((seed >> 1) % 4);
    }
    const chaos::ScenarioResult result = chaos::RunScenario(scenario);
    total_injections += result.injections;

    if (!result.ok()) {
      ++failures;
      const chaos::Scenario minimal = Minimize(scenario);
      const chaos::ScenarioResult replay = chaos::RunScenario(minimal);
      std::ostringstream report;
      report << "fuzz plan " << i << " violated "
             << (replay.ok() ? result : replay).violations.size()
             << " oracle(s):\n";
      for (const std::string& violation :
           (replay.ok() ? result : replay).violations) {
        report << "  " << violation << "\n";
      }
      report << "repro (minimized): " << minimal.ReproCommand() << "\n";
      report << "repro (original):  " << scenario.ReproCommand() << "\n";
      ADD_FAILURE() << report.str();
      std::cerr << report.str();
      if (repro_path != nullptr) {
        std::ofstream out(repro_path, std::ios::app);
        out << minimal.ReproCommand() << "\n";
      }
      if (failures >= 5) {
        GTEST_FAIL() << "aborting after 5 failing plans";
      }
    }

    // Periodic determinism spot-check: a re-run of the same scenario must
    // produce a bit-identical trace.
    if (i % 50 == 49) {
      const chaos::ScenarioResult again = chaos::RunScenario(scenario);
      ASSERT_EQ(result.trace_hash, again.trace_hash)
          << "non-deterministic replay; " << scenario.ReproCommand();
    }
  }

  EXPECT_EQ(failures, 0u);
  // The sweep must actually exercise the fault machinery: with ~45% of the
  // classes armed per plan, injections number in the thousands.
  EXPECT_GT(total_injections, num_plans);
  std::cout << "[ fuzz ] " << (smp ? "smp: " : "") << num_plans << " plans, "
            << total_injections << " injections, " << failures
            << " failures\n";
}

TEST(SimFuzz, RandomFaultPlansHoldAllOracles) { Sweep(/*smp=*/false); }

TEST(SimFuzz, RandomFaultPlansHoldAllOraclesOnSmp) { Sweep(/*smp=*/true); }

}  // namespace
}  // namespace lottery
