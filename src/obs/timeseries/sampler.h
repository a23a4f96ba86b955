// Deterministic sim-time sampling with an online fairness-lag auditor.
//
// The Sampler implements lottery::SampleHook: the kernel's dispatch loop
// invokes Sample() at a fixed virtual-time cadence (quantized to dispatch
// steps), and each sample folds the machine's state into bounded Series
// (series.h). Per tracked client it maintains the paper's central temporal
// quantity online:
//
//   lag(t) = received(t) − entitled(t)
//
// where received is cumulative CPU actually delivered (Kernel::CpuTime) and
// entitled accrues at the client's base ticket share of the service the
// tracked group received that interval — ThreadBaseValue divides any
// compensation boost back out, so entitlement tracks what the client
// *deserves* while compensation is the mechanism that keeps received near
// it. Basing entitlement on group service (not raw machine capacity) makes
// the audit exact whether the tracked set is the whole competing population
// (fig5: group service == machine capacity) or a sampled slice of a much
// larger one (bench_scale tracks 8 of n threads): either way, lag measures
// proportionality among the audited clients, never idle time or untracked
// competitors. Track the full competing set when you want the machine-level
// entitlement story. Figure 5 plots exactly this drift over 8 s
// windows; the auditor watches it continuously and emits edge-triggered
// anomalies into etrace (kCatTimeseries) when:
//
//   - |lag| exceeds the compensation-derived bound
//       quantum · (1 + lag_sigma · sqrt(N·p·(1−p)))
//     (N machine quanta since attach, p the entitled share): the lottery's
//     binomial win process keeps a fair client's lag inside this envelope
//     with overwhelming probability, so a crossing means entitlement is not
//     being honoured — e.g. a fractional-quantum consumer with compensation
//     disabled (Section 4.5's motivating failure).
//   - a runnable client goes undispatched longer than starvation_bound.
//   - the windowed share error — |received − entitled| over the trailing
//     share_window_samples, as a fraction of the group service delivered in
//     that window — exceeds share_err_bound.
//
// Determinism and cost: the sample path reads only sim-state (no wall
// clocks), never touches an RNG stream, iterates only vectors and ordered
// containers, and performs no heap allocation in the steady state — series
// buckets are reserved at construction and compact in place, anomaly
// storage is reserved up front and counts drops past the cap. Everything
// upstream compiles out under LOTTERY_OBS=OFF (the kernel's poll is
// `if constexpr` on obs::kObsEnabled).

#ifndef SRC_OBS_TIMESERIES_SAMPLER_H_
#define SRC_OBS_TIMESERIES_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/counter.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/registry.h"
#include "src/obs/timeseries/series.h"
#include "src/sim/kernel.h"
#include "src/util/sim_time.h"

namespace lottery {
namespace ts {

enum class AnomalyKind : uint8_t {
  kLag = 0,
  kStarvation = 1,
  kShareError = 2,
};

const char* AnomalyKindName(AnomalyKind kind);

struct Anomaly {
  int64_t t_ns = 0;
  ThreadId tid = 0;
  AnomalyKind kind = AnomalyKind::kLag;
  double value = 0.0;  // ns for lag/starvation, service fraction for share
  double bound = 0.0;  // the threshold that was crossed, same unit
};

class Sampler : public SampleHook {
 public:
  struct Options {
    // Virtual-time sampling cadence (must be positive). Samples land on the
    // first dispatch-loop step at or past each due time, so the t axis is
    // strictly increasing and a pure function of the seed.
    SimDuration interval = SimDuration::Millis(500);
    // Buckets per series; memory per series is fixed at construction and
    // resolution halves in place when a run outgrows it.
    size_t series_capacity = 256;
    // Lag envelope width in binomial standard deviations. 6 keeps a fair
    // client's random walk inside the bound for any realistic run length
    // while a genuine entitlement failure (lag growing linearly in t)
    // crosses it within a few windows.
    double lag_sigma = 6.0;
    // A runnable client undispatched this long is starving. At 10 s and a
    // 100 ms quantum even a 1-in-6 share misses all 100 lotteries with
    // probability (5/6)^100 ≈ 1e-8 — a crossing is a scheduling failure,
    // not noise.
    SimDuration starvation_bound = SimDuration::Seconds(10);
    // Windowed |received − entitled| as a fraction of the service the
    // tracked group received over the window.
    double share_err_bound = 0.35;
    // Trailing window length, in samples, for the share-error check (the
    // check stays quiet until the window has filled once).
    size_t share_window_samples = 16;
    // Recorded anomalies are capped (storage is pre-reserved); further
    // ones still count and trace, but only anomalies_dropped() grows.
    size_t max_anomalies = 256;
    // Counter sink for ts.* counters; nullptr uses the kernel's registry.
    obs::Registry* metrics = nullptr;
    // Anomaly event sink; nullptr follows the kernel's current trace.
    etrace::TraceBuffer* trace = nullptr;
  };

  // Per-client audit state. Cumulative fields are measured from Track()
  // time; instantaneous fields describe the most recent sample.
  struct ClientState {
    ThreadId tid = 0;
    std::string label;
    int64_t received_ns = 0;
    int64_t entitled_ns = 0;
    int64_t lag_ns = 0;
    int64_t lag_bound_ns = 0;
    int64_t since_dispatch_ns = 0;
    double share = 0.0;           // of group service this interval
    double entitled_share = 0.0;  // base ticket share of tracked runnables
    double share_err = 0.0;       // trailing-window group-service fraction
    bool in_lag_anomaly = false;
    bool in_starvation = false;
    bool in_share_anomaly = false;

   private:
    friend class Sampler;
    int64_t last_cpu_ns = 0;
    std::vector<int64_t> win_recv;  // per-sample deltas, ring of window size
    std::vector<int64_t> win_ent;
    int64_t win_recv_sum = 0;
    int64_t win_ent_sum = 0;
    size_t s_lag = 0;  // series indices
    size_t s_share = 0;
    size_t s_entitled = 0;
    size_t s_since = 0;
  };

  // `kernel` must outlive the sampler. Nothing fires until the caller also
  // does kernel->SetSampler(&sampler); the destructor detaches itself if
  // still installed.
  Sampler(Kernel* kernel, Options options);
  ~Sampler() override;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // --- Setup (allocates; call before the steady state) ----------------------

  // Entitlement source: the kernel's policy scheduler. Without one,
  // lag/share auditing is disabled (weights are unknown) and only
  // kernel-level series record. A scheduler with one run queue per CPU
  // (partitioned_cpus() > 0) also gets the per-CPU queue and steal series,
  // read from its QueuedCount and its smp.* counters.
  void AttachScheduler(LotteryScheduler* sched);

  // Audits thread `tid` under `label` (lowercased; characters outside
  // [a-z0-9_.] become '_'; must be unique). Cumulative service is measured
  // from this call. Throws on duplicate labels or unknown threads.
  void Track(ThreadId tid, const std::string& label);

  // Adds a rate series "rate.<name>" (Hz) over a registry counter.
  void WatchCounter(const std::string& name);

  // Called at the end of every completed sample — the live dashboard's
  // attach point. The hook may allocate/render; it runs outside the
  // zero-allocation contract, which covers only the sampler's own work.
  using SnapshotFn = std::function<void(const Sampler&, SimTime)>;
  void SetSnapshotHook(SnapshotFn fn) { snapshot_ = std::move(fn); }

  // --- SampleHook -----------------------------------------------------------

  int64_t Sample(SimTime now) override;

  // --- Introspection (dashboard, tests) -------------------------------------

  uint64_t samples() const { return samples_; }
  size_t num_clients() const { return clients_.size(); }
  const ClientState& client_state(size_t i) const { return clients_[i]; }
  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  uint64_t anomalies_dropped() const { return anomalies_dropped_; }
  const Options& options() const { return options_; }
  Kernel* kernel() const { return kernel_; }

  // Sorted series names / lookup by exact name (nullptr when absent).
  std::vector<std::string> SeriesNames() const;
  const Series* FindSeries(const std::string& name) const;

  // --- Export ---------------------------------------------------------------

  // Schema-stable document: {"anomalies": [...], "anomalies_dropped": n,
  // "clients": [...], "kind": "timeseries", "metadata": {...},
  // "schema_version": 1, "series": {...}, "source": "..."} — keys
  // lexicographically ordered at every level, t axes strictly increasing,
  // all values finite. Byte-identical across same-seed runs.
  std::string ToJson(const std::string& source, uint64_t seed) const;
  void WriteJson(const std::string& path, const std::string& source,
                 uint64_t seed) const;

 private:
  struct CpuState {
    int index = 0;
    int64_t last_busy_ns = 0;
    const obs::Counter* steals_in = nullptr;  // null unless partitioned
    size_t s_util = 0;
    size_t s_queued = 0;  // unused (0) unless partitioned
    size_t s_steals = 0;
  };
  struct WatchedCounter {
    obs::Counter* counter = nullptr;
    uint64_t last = 0;
    size_t series = 0;
  };
  struct NamedSeries {
    std::string name;
    Series series;
  };

  size_t AddSeries(const std::string& name);
  uint64_t BaseValueRaw(ThreadId tid, double* base_units);
  // Rising-edge anomaly bookkeeping: count, record (bounded), trace.
  void UpdateAnomaly(bool active, bool* flag, AnomalyKind kind, ThreadId tid,
                     double value, double bound, int64_t t_ns,
                     obs::Counter* counter, etrace::TraceBuffer* trace);

  Kernel* kernel_;
  Options options_;
  LotteryScheduler* sched_ = nullptr;
  // The partitioned scheduler's smp.steals and smp.migrations; null when
  // it has one run queue.
  const obs::Counter* steals_ = nullptr;
  const obs::Counter* migrations_ = nullptr;
  obs::Registry* metrics_;
  SnapshotFn snapshot_;

  std::vector<NamedSeries> series_;
  std::vector<ClientState> clients_;
  std::vector<CpuState> cpus_;
  std::vector<WatchedCounter> watched_;
  std::vector<uint64_t> weights_;  // per-client scratch, sized by Track
  std::vector<Anomaly> anomalies_;  // reserved to max_anomalies
  uint64_t anomalies_dropped_ = 0;

  bool baselined_ = false;
  int64_t last_t_ns_ = 0;
  int64_t last_idle_ns_ = 0;
  uint64_t last_total_dispatches_ = 0;
  uint64_t base_total_dispatches_ = 0;
  uint64_t last_steals_ = 0;
  uint64_t last_migrations_ = 0;
  uint64_t samples_ = 0;

  // Shared trailing-window ring of per-sample group service (the share-
  // error denominator); per-client rings hold the matching service deltas.
  std::vector<int64_t> win_group_;
  int64_t win_group_sum_ = 0;

  // Global series indices.
  size_t s_runnable_ = 0;
  size_t s_util_ = 0;
  size_t s_dispatch_hz_ = 0;
  size_t s_total_tickets_ = 0;
  size_t s_starve_max_ = 0;
  size_t s_steal_hz_ = 0;      // SMP only
  size_t s_migration_hz_ = 0;  // SMP only

  // Obs hooks (resolved once; raw pointers into metrics_).
  obs::Counter* m_samples_;
  obs::Counter* m_lag_anomalies_;
  obs::Counter* m_starvation_anomalies_;
  obs::Counter* m_share_anomalies_;
};

}  // namespace ts
}  // namespace lottery

#endif  // SRC_OBS_TIMESERIES_SAMPLER_H_
