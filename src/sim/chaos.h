// Chaos machinery on top of the fault injector.
//
// Two pieces live here. ChaosController drives the fault classes that need
// an external agent acting on global state: spurious wakeups (pick a
// sleeping thread and wake it early) and currency revocation (unfund a
// random thread-funding ticket mid-run, restore it later). It runs as a
// periodic event on the kernel's queue, drawing targets from the injector's
// private RNG stream so runs stay bit-reproducible.
//
// The scenario harness is the shared entry point of the simulation fuzzer,
// the statistical conformance suite, the determinism test, and
// tools/faultctl: it builds a kernel + scheduler backend from a compact
// description, runs a mixed workload (burners, sleepers, mutex users, an
// RPC pair, disk users, self-exiting threads) under a fault plan, and
// returns a trace hash plus the list of violated oracles — work
// conservation, and the economy sweeps of src/core/invariants.h: ticket
// conservation, currency-graph acyclicity, and the compensation-factor
// bound.

#ifndef SRC_SIM_CHAOS_H_
#define SRC_SIM_CHAOS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/fault.h"
#include "src/sim/kernel.h"
#include "src/util/fastrand.h"
#include "src/util/sim_time.h"

namespace lottery {
namespace chaos {

class ChaosController {
 public:
  struct Options {
    // Opportunity cadence for the controller-driven fault classes.
    SimDuration period = SimDuration::Millis(10);
    // How long a revoked funding ticket stays withdrawn.
    SimDuration revoke_duration = SimDuration::Millis(50);
    // Last time at which the controller reschedules itself; keeps the event
    // queue drainable after the experiment horizon.
    SimTime stop_after = SimTime::FromNanos(int64_t{1} << 62);
  };

  // `kernel` and `faults` must outlive the controller.
  ChaosController(Kernel* kernel, FaultInjector* faults, Options options);
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  // Schedules the first opportunity tick. Without an armed spurious-wake or
  // revoke class this is a no-op (no events, no overhead).
  void Start();

  uint64_t spurious_wakes() const { return spurious_wakes_; }
  uint64_t revocations() const { return revocations_; }

 private:
  void Tick(SimTime now);
  void TrySpuriousWake(SimTime now);
  void TryRevoke(SimTime now);

  Kernel* kernel_;
  FaultInjector* faults_;
  Options options_;
  uint64_t spurious_wakes_ = 0;
  uint64_t revocations_ = 0;
};

// A compact, fully deterministic experiment description. Everything the run
// does — workload shape, scheduler draws, fault decisions — derives from
// `seed`, so (seed, backend, plan, shape) reproduces bit-identically.
struct Scenario {
  uint64_t seed = 1;
  // "list" | "tree" | "stride" | "smp" (SmpScheduler, one tree queue per
  // CPU).
  std::string backend = "list";
  std::string plan;              // FaultPlan grammar; empty = fault-free
  int num_cpus = 1;
  int num_threads = 8;
  SimDuration horizon = SimDuration::Millis(500);
  SimDuration quantum = SimDuration::Millis(1);
  // When both are positive, two always-runnable burner threads funded with
  // these ticket amounts are added on top of the workload and *protected*
  // from thread-targeted faults. The conformance suite measures their
  // dispatch shares (reported as wins_a/wins_b) while the unprotected
  // workload absorbs the injected chaos.
  int64_t measured_a = 0;
  int64_t measured_b = 0;

  // The faultctl command line reproducing this scenario.
  std::string ReproCommand() const;
};

struct ScenarioResult {
  // FNV-1a fingerprint of the dispatch log and final accounting; equal
  // runs produce equal hashes.
  uint64_t trace_hash = 0;
  uint64_t dispatches = 0;
  uint64_t context_switches = 0;
  uint64_t injections = 0;
  std::array<uint64_t, kNumFaultClasses> injected_by_class{};
  uint64_t spurious_wakes = 0;
  uint64_t revocations = 0;
  SimTime end_time;
  size_t live_threads = 0;
  // Measured-pair results (zero unless Scenario::measured_a/b were set).
  uint64_t wins_a = 0;
  uint64_t wins_b = 0;
  SimDuration cpu_a{};
  SimDuration cpu_b{};
  // Chronological win sequence over the measured pair only: 1 = A won the
  // dispatch, 0 = B. The conformance suite KS-tests A's win positions
  // against uniform — a rate-invariant check that wins are well mixed.
  std::vector<uint8_t> measured_sequence;
  // Dispatches the harness's Gantt log could not retain (its cap is one
  // mebi-entry). Callers surface this so truncation is never silent.
  uint64_t dispatch_log_dropped = 0;
  // Violated oracles, empty when the run is clean. Each entry is a
  // human-readable description of one failed check.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

// Builds and runs the scenario, sweeping every oracle at the end. When
// `trace` is non-null the whole run records into it (scheduler decisions,
// slices, services, fault firings) and the buffer's seed is stamped from
// the scenario — tools/faultctl's --trace path.
ScenarioResult RunScenario(const Scenario& scenario,
                           etrace::TraceBuffer* trace = nullptr);

// Swarm-fuzzing generators: a random plan (each class independently armed
// with a random trigger) and a random scenario around it.
FaultPlan RandomFaultPlan(FastRand& rng);
Scenario RandomScenario(FastRand& rng, uint64_t seed);

}  // namespace chaos
}  // namespace lottery

#endif  // SRC_SIM_CHAOS_H_
