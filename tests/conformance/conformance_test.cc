// Statistical conformance sweep: ticket share must equal win share, for
// every run-queue backend, fault-free and under each fault class.
//
// Each cell of the sweep runs 32 seeds of the chaos scenario harness with a
// protected measured pair funded 700:300 on top of a sacrificial workload
// that absorbs the injected faults. Because the pair is measured
// *conditionally* — P(A wins | A or B wins) = 0.7 — the check is invariant
// to how much CPU the churning workload takes or how many of its threads
// the fault plan kills.
//
// Three statistics per cell:
//  1. Per-seed Pearson chi-square (df=1) of [wins_a, wins_b] against
//     [0.7, 0.3] * total at alpha = 0.01; at most 3 of 32 seeds may fail
//     (the expected number of false rejections is 0.32).
//  2. The 32 per-seed statistics summed, compared against the chi-square
//     critical value with df=32 at alpha = 0.001 — catches a small
//     systematic bias that no single seed rejects.
//  3. Per-seed Kolmogorov-Smirnov of A's win *positions* within the
//     measured-pair win sequence against uniform, alpha = 0.01, at most
//     3 of 32 failing — wins must be well mixed across the run, not
//     front- or back-loaded (a rate-invariant mixing check).
//
// Everything is seeded, so a passing sweep passes forever.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/chaos.h"
#include "src/util/stats.h"

namespace lottery {
namespace {

constexpr double kShareA = 0.7;  // 700 : 300
constexpr int kNumSeeds = 32;
constexpr int kMaxPerSeedFailures = 3;

// One plan per fault class, plus the fault-free baseline. Rates are high
// enough that every class actually fires during a 250 ms run (asserted in
// fault_test.cc's per-class smoke test).
const char* const kPlans[] = {
    "",
    "crash:p=0.01",
    "spurious-wake:p=0.5",
    "delayed-unblock:p=0.2",
    "rpc-drop:every=4",
    "rpc-dup:every=4",
    "rpc-reorder:p=0.5",
    "disk-timeout:p=0.4,retries=2",
    "revoke:p=0.7",
};

void RunSweep(const std::string& backend) {
  const double chi2_cutoff = ChiSquareCritical(1, 0.01);
  const double chi2_sum_cutoff = ChiSquareCritical(kNumSeeds, 0.001);

  for (const char* plan : kPlans) {
    int chi2_failures = 0;
    int ks_failures = 0;
    double chi2_sum = 0.0;
    uint64_t pooled_a = 0;
    uint64_t pooled_total = 0;

    for (int s = 0; s < kNumSeeds; ++s) {
      chaos::Scenario scenario;
      scenario.seed = 1000 + static_cast<uint64_t>(s);
      scenario.backend = backend;
      scenario.plan = plan;
      scenario.num_threads = 6;
      scenario.horizon = SimDuration::Millis(250);
      scenario.quantum = SimDuration::Millis(1);
      scenario.measured_a = 700;
      scenario.measured_b = 300;

      const chaos::ScenarioResult result = chaos::RunScenario(scenario);
      for (const std::string& violation : result.violations) {
        ADD_FAILURE() << backend << " plan='" << plan << "' seed "
                      << scenario.seed << ": " << violation;
      }

      const uint64_t total = result.wins_a + result.wins_b;
      ASSERT_GE(total, 20u) << backend << " plan='" << plan
                            << "': measured pair barely ran";
      pooled_a += result.wins_a;
      pooled_total += total;

      const double chi2 = ChiSquareStatistic(
          {static_cast<int64_t>(result.wins_a),
           static_cast<int64_t>(result.wins_b)},
          {kShareA * static_cast<double>(total),
           (1.0 - kShareA) * static_cast<double>(total)});
      chi2_sum += chi2;
      if (chi2 > chi2_cutoff) {
        ++chi2_failures;
      }

      // Positions of A's wins within the measured win sequence, mapped to
      // (0, 1): bucket i of m maps to its midpoint (i + 0.5) / m.
      std::vector<double> positions;
      const double m = static_cast<double>(result.measured_sequence.size());
      for (size_t i = 0; i < result.measured_sequence.size(); ++i) {
        if (result.measured_sequence[i] != 0) {
          positions.push_back((static_cast<double>(i) + 0.5) / m);
        }
      }
      ASSERT_FALSE(positions.empty());
      const double ks = KsStatisticUniform(positions, 0.0, 1.0);
      if (ks > KsCritical(positions.size(), 0.01)) {
        ++ks_failures;
      }
    }

    EXPECT_LE(chi2_failures, kMaxPerSeedFailures)
        << backend << " plan='" << plan
        << "': too many per-seed chi-square rejections";
    EXPECT_LE(chi2_sum, chi2_sum_cutoff)
        << backend << " plan='" << plan << "': systematic share bias, pooled "
        << pooled_a << "/" << pooled_total << " vs expected " << kShareA;
    EXPECT_LE(ks_failures, kMaxPerSeedFailures)
        << backend << " plan='" << plan
        << "': too many per-seed KS rejections (wins poorly mixed)";

    // Sanity on the pooled proportion too: its 99.9% Wilson interval must
    // bracket the funded share.
    const ProportionInterval interval = BinomialConfidence(
        static_cast<int64_t>(pooled_a), static_cast<int64_t>(pooled_total),
        0.999);
    EXPECT_LE(interval.lo, kShareA)
        << backend << " plan='" << plan << "' pooled " << pooled_a << "/"
        << pooled_total;
    EXPECT_GE(interval.hi, kShareA)
        << backend << " plan='" << plan << "' pooled " << pooled_a << "/"
        << pooled_total;
  }
}

TEST(Conformance, ListBackend) { RunSweep("list"); }
TEST(Conformance, TreeBackend) { RunSweep("tree"); }
TEST(Conformance, StrideBackend) { RunSweep("stride"); }

}  // namespace
}  // namespace lottery
