// faultctl: replay a chaos scenario (seed + fault plan) outside gtest.
//
// The flags mirror Scenario::ReproCommand(), so a failing fuzz or CI run
// prints a line that can be pasted verbatim (wrapped here):
//
//   faultctl --seed=123 --backend=tree --cpus=2 --threads=9
//       --horizon-us=250000 --quantum-us=1000 --plan='crash:p=0.01'
//
// Prints the run's fingerprint, per-class injection counts, and any oracle
// violations; exits 1 when an oracle is violated, 2 on bad usage.

#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "src/obs/etrace/trace_buffer.h"
#include "src/sim/chaos.h"
#include "src/sim/fault.h"
#include "src/util/flags.h"

namespace lottery {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: faultctl [--seed=N] [--backend=list|tree|stride|smp]\n"
        "                [--cpus=N]\n"
        "                [--threads=N] [--horizon-us=N] [--quantum-us=N]\n"
        "                [--measured=A,B] [--plan='crash:p=0.01;...']\n"
        "                [--trace=PATH] [--verbose]\n"
        "--trace writes a structured etrace binary of the run (inspect with\n"
        "tracectl summarize / convert).\n");
    return 0;
  }

  chaos::Scenario scenario;
  scenario.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  scenario.backend = flags.GetString("backend", "list");
  scenario.plan = flags.GetString("plan", "");
  scenario.num_cpus = static_cast<int>(flags.GetInt("cpus", 1));
  scenario.num_threads = static_cast<int>(flags.GetInt("threads", 8));
  scenario.horizon = SimDuration::Micros(flags.GetInt("horizon-us", 500000));
  scenario.quantum = SimDuration::Micros(flags.GetInt("quantum-us", 1000));
  const std::string measured = flags.GetString("measured", "");
  if (!measured.empty()) {
    const size_t comma = measured.find(',');
    if (comma == std::string::npos) {
      std::fprintf(stderr, "faultctl: --measured wants A,B\n");
      return 2;
    }
    scenario.measured_a = std::stoll(measured.substr(0, comma));
    scenario.measured_b = std::stoll(measured.substr(comma + 1));
  }

  // Parse eagerly so a bad plan reports before the run starts.
  FaultPlan::Parse(scenario.plan);

  const std::string trace_path = flags.GetString("trace", "");
  std::unique_ptr<etrace::TraceBuffer> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<etrace::TraceBuffer>();
  }

  const chaos::ScenarioResult result =
      chaos::RunScenario(scenario, trace.get());
  if (result.dispatch_log_dropped > 0) {
    std::fprintf(stderr,
                 "faultctl: dispatch log dropped %llu entries past its cap\n",
                 static_cast<unsigned long long>(result.dispatch_log_dropped));
  }
  if (trace != nullptr) {
    trace->WriteToFile(trace_path);
    std::printf("trace:            %s (%zu events)\n", trace_path.c_str(),
                trace->size());
  }

  std::printf("repro:            %s\n", scenario.ReproCommand().c_str());
  std::printf("trace_hash:       %016llx\n",
              static_cast<unsigned long long>(result.trace_hash));
  std::printf("end_time_us:      %lld\n",
              static_cast<long long>(result.end_time.nanos() / 1000));
  std::printf("dispatches:       %llu\n",
              static_cast<unsigned long long>(result.dispatches));
  std::printf("context_switches: %llu\n",
              static_cast<unsigned long long>(result.context_switches));
  std::printf("live_threads:     %zu\n", result.live_threads);
  std::printf("injections:       %llu\n",
              static_cast<unsigned long long>(result.injections));
  for (size_t i = 0; i < kNumFaultClasses; ++i) {
    if (result.injected_by_class[i] > 0 || flags.GetBool("verbose", false)) {
      std::printf("  %-16s %llu\n", FaultClassName(static_cast<FaultClass>(i)),
                  static_cast<unsigned long long>(result.injected_by_class[i]));
    }
  }
  if (result.spurious_wakes > 0 || result.revocations > 0) {
    std::printf("spurious_wakes:   %llu\nrevocations:      %llu\n",
                static_cast<unsigned long long>(result.spurious_wakes),
                static_cast<unsigned long long>(result.revocations));
  }
  if (scenario.measured_a > 0 && scenario.measured_b > 0) {
    const double total = static_cast<double>(result.wins_a + result.wins_b);
    std::printf("measured pair:    A %llu wins, B %llu wins (A share %.4f, "
                "funded %.4f)\n",
                static_cast<unsigned long long>(result.wins_a),
                static_cast<unsigned long long>(result.wins_b),
                total > 0 ? static_cast<double>(result.wins_a) / total : 0.0,
                static_cast<double>(scenario.measured_a) /
                    static_cast<double>(scenario.measured_a +
                                        scenario.measured_b));
  }

  if (!result.ok()) {
    std::printf("VIOLATIONS (%zu):\n", result.violations.size());
    for (const std::string& violation : result.violations) {
      std::printf("  %s\n", violation.c_str());
    }
    return 1;
  }
  std::printf("all oracles held\n");
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) {
  try {
    return lottery::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultctl: %s\n", e.what());
    return 2;
  }
}
