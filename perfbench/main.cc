// Benchmark binary: builds one workload, times its set-up and a window of
// fixed simulated steps, checks the simulated outputs, and prints one JSON
// object on stdout. perfbench/run.py runs it twice per seed — untraced for
// the end-to-end metrics, then traced for the per-layer metrics — and
// compares the two runs' digests.
//
//   perfbench --workload=NAME --seed=N --seconds=S [--traced] [--spans=PATH]
//
// Phases, all on one host thread:
//   set-up      build the world (spawn + fund) and run the lazy first
//               dispatch on every CPU. The untraced run times
//               `setup_reps - 1` more set-ups of throwaway worlds after the
//               checkpoint, between the window's steps.
//   warm-up     `warmup` of simulated time, discarded.
//   window      host-timed steps of `step` simulated time each. At
//               `checkpoint` simulated time into the window the outputs are
//               checked; the untraced run keeps stepping until `seconds` of
//               host time are measured, the traced run stops there. The
//               step timings are taken from the fastest sub-windows (see
//               FastestSteps).

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/obs/json_writer.h"
#include "src/util/flags.h"

namespace perfbench {
namespace {

using lottery::Kernel;
using lottery::obs::JsonWriter;

// Span records kept for the CSV written at exit (the per-op totals count
// every span).
constexpr size_t kSpanCapacity = 1 << 16;
// Share error may reach this many binomial standard deviations, averaged
// over the funding classes, before the check fails.
constexpr double kEnvelopeSigmas = 4.0;
// The window is cut into sub-windows of this many steps, a fixed simulated
// span, so a seed's sub-windows hold the same work on every run.
constexpr size_t kSubWindowSteps = 50;
// Share of the sub-windows, fastest first, that the step timings pool.
constexpr double kFastestShare = 0.02;

using Counters = std::map<std::string, uint64_t>;

Counters Snapshot(const lottery::obs::Registry& registry) {
  Counters out;
  for (const auto& [name, value] : registry.CounterValues()) {
    out[name] = value;
  }
  return out;
}

// The counter's value; 0 for a counter the workload never created.
uint64_t Count(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss, it is
// not inherited across execve, so the parent's size does not leak in.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct PooledSteps {
  std::vector<int64_t> ns;
  uint64_t dispatches = 0;
  size_t sub_windows = 0;  // whole sub-windows in the window
  size_t kept = 0;         // of which pooled
};

// The steps of the fastest `kFastestShare` of the window's whole
// sub-windows, ranked by dispatch rate. Interference from other tenants of
// a shared host only ever adds time, and it comes and goes over seconds,
// so the rate of a whole window follows the host's load; the fastest
// sub-windows are the ones it spared most.
PooledSteps FastestSteps(const std::vector<int64_t>& step_ns,
                         const std::vector<uint64_t>& step_dispatches) {
  PooledSteps out;
  out.sub_windows = step_ns.size() / kSubWindowSteps;
  if (out.sub_windows == 0) {
    throw std::logic_error("window shorter than one sub-window");
  }
  std::vector<std::pair<double, size_t>> rated;
  for (size_t g = 0; g < out.sub_windows; ++g) {
    int64_t ns = 0;
    uint64_t dispatches = 0;
    for (size_t i = g * kSubWindowSteps; i < (g + 1) * kSubWindowSteps; ++i) {
      ns += step_ns[i];
      dispatches += step_dispatches[i];
    }
    rated.emplace_back(Ratio(static_cast<double>(dispatches),
                             static_cast<double>(ns)),
                       g);
  }
  out.kept = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             kFastestShare * static_cast<double>(out.sub_windows))));
  std::partial_sort(rated.begin(),
                    rated.begin() + static_cast<std::ptrdiff_t>(out.kept),
                    rated.end(), std::greater<>());
  for (size_t r = 0; r < out.kept; ++r) {
    const size_t first = rated[r].second * kSubWindowSteps;
    for (size_t i = first; i < first + kSubWindowSteps; ++i) {
      out.ns.push_back(step_ns[i]);
      out.dispatches += step_dispatches[i];
    }
  }
  return out;
}

double RatePerS(const PooledSteps& steps) {
  int64_t ns = 0;
  for (const int64_t t : steps.ns) {
    ns += t;
  }
  return static_cast<double>(steps.dispatches) /
         (static_cast<double>(ns) / 1e9);
}

// Nearest-rank percentile.
double PercentileMs(std::vector<int64_t> ns, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(ns.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                   ns.end());
  return static_cast<double>(ns[idx]) / 1e6;
}

// FNV-1a over every thread's (tid, CPU time, dispatches).
std::string Digest(const Kernel& kernel, const std::vector<ThreadId>& tids) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const ThreadId tid : tids) {
    mix(tid);
    mix(static_cast<uint64_t>(kernel.CpuTime(tid).nanos()));
    mix(kernel.Dispatches(tid));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// CPU is conserved: every thread's CPU sums to the CPUs' busy time, and
// busy plus idle time covers simulated time on every CPU. The kernel stops
// at the earliest CPU's frontier, so each other CPU may be up to one
// quantum ahead (exactly zero slack on one CPU).
bool CpuConserved(Kernel& kernel, const std::vector<ThreadId>& tids,
                  std::string* note) {
  int64_t thread_ns = 0;
  for (const ThreadId tid : tids) {
    thread_ns += kernel.CpuTime(tid).nanos();
  }
  int64_t busy_ns = 0;
  for (int c = 0; c < kernel.num_cpus(); ++c) {
    busy_ns += kernel.CpuBusy(c).nanos();
  }
  const int64_t capacity_ns = kernel.now().nanos() * kernel.num_cpus();
  const int64_t excess_ns = busy_ns + kernel.idle_time().nanos() - capacity_ns;
  const int64_t slack_ns =
      (kernel.num_cpus() - 1) * kernel.options().quantum.nanos();
  if (thread_ns == busy_ns && excess_ns >= 0 && excess_ns <= slack_ns) {
    return true;
  }
  *note = "thread CPU " + std::to_string(thread_ns) + " ns, busy " +
          std::to_string(busy_ns) + " ns, busy+idle-capacity " +
          std::to_string(excess_ns) + " ns at t=" +
          std::to_string(kernel.now().nanos());
  return false;
}

struct ClassMark {
  std::vector<int64_t> cpu_ns;
  std::vector<uint64_t> dispatches;
};

std::vector<ClassMark> MarkClasses(const Kernel& kernel,
                                   const std::vector<FundingClass>& classes) {
  std::vector<ClassMark> marks;
  for (const FundingClass& c : classes) {
    ClassMark m;
    for (const ThreadId tid : c.tids) {
      m.cpu_ns.push_back(kernel.CpuTime(tid).nanos());
      m.dispatches.push_back(kernel.Dispatches(tid));
    }
    marks.push_back(std::move(m));
  }
  return marks;
}

struct Share {
  double err_pct = 0.0;
  double envelope_pct = 0.0;
  uint64_t dispatches = 0;
};

// Mean |delivered - funded| / funded share over the funding classes, across
// the window, next to the binomial envelope for the classes' dispatch count.
Share ShareError(const Kernel& kernel, const std::vector<FundingClass>& classes,
                 const std::vector<ClassMark>& start) {
  std::vector<double> delivered(classes.size(), 0.0);
  double delivered_total = 0.0;
  double funding_total = 0.0;
  Share s;
  for (size_t c = 0; c < classes.size(); ++c) {
    for (size_t i = 0; i < classes[c].tids.size(); ++i) {
      const ThreadId tid = classes[c].tids[i];
      delivered[c] += static_cast<double>(kernel.CpuTime(tid).nanos() -
                                          start[c].cpu_ns[i]);
      s.dispatches += kernel.Dispatches(tid) - start[c].dispatches[i];
    }
    delivered_total += delivered[c];
    funding_total += classes[c].funding;
  }
  const double n = static_cast<double>(s.dispatches);
  double err = 0.0;
  double sigma = 0.0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const double p = classes[c].funding / funding_total;
    err += std::abs(delivered[c] / delivered_total - p) / p;
    sigma += std::sqrt((1.0 - p) / (n * p));
  }
  const double k = static_cast<double>(classes.size());
  s.err_pct = 100.0 * err / k;
  s.envelope_pct = 100.0 * kEnvelopeSigmas * sigma / k;
  return s;
}

struct LayerInputs {
  StatsTable setup;
  StatsTable window;
  Counters delta;
  int64_t wall_ns = 0;
  size_t event_capacity = 0;
  double share_err_pct = 0.0;
};

// Per-layer metrics of the traced window, in BENCHMARK.json's names.
void WriteLayers(const LayerInputs& in, JsonWriter& w) {
  const auto per_call_ns = [](const OpStats& s, bool self) {
    return Ratio(static_cast<double>(self ? s.self_ns : s.total_ns),
                 static_cast<double>(s.calls));
  };
  const auto op = [&in](Op o) -> const OpStats& {
    return in.window[static_cast<size_t>(o)];
  };
  const auto d = [&in](const char* name) {
    return static_cast<double>(Count(in.delta, name));
  };
  int64_t sched_ns = 0;
  int64_t body_ns = 0;
  for (size_t i = 0; i < kNumOps; ++i) {
    const Op o = static_cast<Op>(i);
    if (IsSchedOp(o)) {
      sched_ns += in.window[i].self_ns;
    } else if (IsBodyOp(o)) {
      body_ns += in.window[i].self_ns;
    }
  }
  const int64_t ts_ns = op(Op::kSample).self_ns;
  const int64_t kernel_ns = in.wall_ns - sched_ns - body_ns - ts_ns;
  if (kernel_ns < 0) {
    throw std::logic_error("span self times exceed the traced wall time");
  }
  const double wall = static_cast<double>(in.wall_ns);
  const double dispatches = d("kernel.dispatches");
  const auto pct = [wall](int64_t ns) {
    return 100.0 * static_cast<double>(ns) / wall;
  };

  w.Key("sched.pick_ns").Double(per_call_ns(op(Op::kPick), true));
  w.Key("sched.ready_ns").Double(per_call_ns(op(Op::kReady), true));
  w.Key("sched.blocked_ns").Double(per_call_ns(op(Op::kBlocked), true));
  w.Key("sched.quantum_end_ns").Double(per_call_ns(op(Op::kQuantumEnd), true));
  w.Key("sched.self_pct").Double(pct(sched_ns));
  w.Key("sched.first_pick_ms")
      .Double(static_cast<double>(
                  in.setup[static_cast<size_t>(Op::kPick)].total_ns) /
              1e6);
  w.Key("sched.share_err_pct").Double(in.share_err_pct);
  w.Key("lottery.batch_hit_ratio")
      .Double(Ratio(d("lottery.batch_draws"), d("lottery.draws")));
  w.Key("lottery.batch_flushes").Double(d("lottery.batch_flushes"));
  w.Key("tree.leaf_updates_per_dispatch")
      .Double(Ratio(d("tree.leaf_updates"), dispatches));
  w.Key("tree.full_syncs").Double(d("tree.full_syncs"));
  w.Key("lottery.compensation_grants_per_dispatch")
      .Double(Ratio(d("lottery.compensation_grants"), dispatches));

  w.Key("currency.dirty_marks_per_dispatch")
      .Double(Ratio(d("currency.dirty_marks"), dispatches));
  w.Key("client.reprices_per_dispatch")
      .Double(Ratio(d("client.reprices"), dispatches));
  w.Key("client.reprice_ratio")
      .Double(Ratio(d("client.reprices"), d("client.dirty_marks")));
  w.Key("lottery.transfers_per_dispatch")
      .Double(Ratio(d("lottery.transfers"), dispatches));
  w.Key("setup.fund_ns")
      .Double(per_call_ns(in.setup[static_cast<size_t>(Op::kFund)], false));

  w.Key("body.compute_ns").Double(per_call_ns(op(Op::kBodyCompute), true));
  w.Key("body.interactive_ns")
      .Double(per_call_ns(op(Op::kBodyInteractive), true));
  w.Key("body.montecarlo_ns")
      .Double(per_call_ns(op(Op::kBodyMonteCarlo), true));
  w.Key("body.mutex_task_ns").Double(per_call_ns(op(Op::kBodyMutexTask), true));
  w.Key("body.query_client_ns")
      .Double(per_call_ns(op(Op::kBodyQueryClient), true));
  w.Key("body.query_worker_ns")
      .Double(per_call_ns(op(Op::kBodyQueryWorker), true));
  w.Key("body.self_pct").Double(pct(body_ns));
  w.Key("mutex.contended_ratio")
      .Double(Ratio(d("mutex.contended"), d("mutex.acquisitions")));
  w.Key("rpc.calls_per_dispatch").Double(Ratio(d("rpc.calls"), dispatches));

  w.Key("ts.sample_ns").Double(per_call_ns(op(Op::kSample), true));
  w.Key("ts.self_pct").Double(pct(ts_ns));

  w.Key("kernel.self_ns_per_dispatch")
      .Double(Ratio(static_cast<double>(kernel_ns), dispatches));
  w.Key("kernel.self_pct").Double(pct(kernel_ns));
  w.Key("kernel.wakes_per_dispatch")
      .Double(Ratio(d("kernel.wakes"), dispatches));
  w.Key("kernel.sleeps_per_dispatch")
      .Double(Ratio(d("kernel.sleeps"), dispatches));
  w.Key("event_queue.capacity").Double(static_cast<double>(in.event_capacity));
  w.Key("setup.spawn_ns")
      .Double(per_call_ns(in.setup[static_cast<size_t>(Op::kSpawn)], false));

  w.Key("smp.balance_checks_per_dispatch")
      .Double(Ratio(d("smp.balance_checks"), dispatches));
  w.Key("smp.steals").Double(d("smp.steals"));
  w.Key("smp.migrations").Double(d("smp.migrations"));
  w.Key("smp.cost_vetoes").Double(d("smp.cost_vetoes"));
}

int Run(const lottery::Flags& flags) {
  const WorkloadConfig config = ConfigFor(flags.GetString("workload", ""));
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  if (!(seconds > 0.0 && seconds <= 3600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 3600]");
  }
  const bool traced = flags.GetBool("traced", false);
  const std::string spans_path = flags.GetString("spans", "");

  SpanRecorder recorder(traced ? kSpanCapacity : 0);
  SpanRecorder* spans = traced ? &recorder : nullptr;

  // Set-up: spawn, fund and the lazy first dispatch on every CPU. The first
  // world built is the one that runs. The untraced run times the other
  // `setup_reps - 1` set-ups on throwaway worlds spread over the window
  // after its checkpoint, so that, like the step timings, they sample the
  // host's load over the whole run and not over one moment of it.
  std::vector<double> setup_s;
  const auto set_up = [&](std::unique_ptr<World>& w) {
    const int64_t start = NowNs();
    w = std::make_unique<World>(config, seed, spans);
    w->kernel().RunUntil(SimTime::FromNanos(1));
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  };
  const auto set_up_throwaway = [&] {
    std::unique_ptr<World> w;
    set_up(w);
  };
  std::unique_ptr<World> world;
  set_up(world);
  const StatsTable setup_stats = recorder.TakeStats();
  Kernel& kernel = world->kernel();

  const int64_t step_ns = config.step.nanos();
  const int64_t warm_steps = config.warmup.nanos() / step_ns;
  for (int64_t k = 1; k <= warm_steps; ++k) {
    kernel.RunUntil(SimTime::FromNanos(k * step_ns));
  }

  recorder.TakeStats();
  recorder.set_recording(true);
  const Counters at_start = Snapshot(world->metrics());
  const uint64_t dispatches_at_start = kernel.total_dispatches();
  const std::vector<ClassMark> class_start =
      MarkClasses(kernel, world->classes());

  const int64_t check_steps = config.checkpoint.nanos() / step_ns;
  const auto window_target_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> steps;
  std::vector<uint64_t> step_dispatches;
  steps.reserve(1 << 18);
  step_dispatches.reserve(1 << 18);
  int64_t window_ns = 0;
  int64_t checkpoint_ns = 0;
  int64_t next_setup_ns = 0;
  int64_t setup_gap_ns = 0;
  const auto setups = static_cast<size_t>(traced ? 1 : config.setup_reps);
  LayerInputs layers;
  Share share;
  std::string digest;
  double rss_mb = 0.0;
  bool conserved = true;
  bool live = true;
  std::vector<std::string> notes;
  for (int64_t i = 1;; ++i) {
    const uint64_t dispatched = kernel.total_dispatches();
    const int64_t before = NowNs();
    kernel.RunUntil(SimTime::FromNanos((warm_steps + i) * step_ns));
    const int64_t took = NowNs() - before;
    steps.push_back(took);
    step_dispatches.push_back(kernel.total_dispatches() - dispatched);
    window_ns += took;
    if (i == check_steps) {
      checkpoint_ns = window_ns;
      recorder.set_recording(false);
      layers.window = recorder.TakeStats();
      layers.setup = setup_stats;
      layers.delta = Snapshot(world->metrics());
      for (auto& [name, value] : layers.delta) {
        value -= Count(at_start, name);
      }
      layers.wall_ns = checkpoint_ns;
      layers.event_capacity = kernel.events().capacity();
      digest = Digest(kernel, world->threads());
      share = ShareError(kernel, world->classes(), class_start);
      layers.share_err_pct = share.err_pct;
      rss_mb = PeakRssMb();
      std::string note;
      if (!CpuConserved(kernel, world->threads(), &note)) {
        conserved = false;
        notes.push_back("conservation at checkpoint: " + note);
      }
      for (const std::string& name : world->liveness_counters()) {
        if (Count(layers.delta, name) == 0) {
          live = false;
          notes.push_back(name + " did not advance in the window");
        }
      }
      setup_gap_ns = std::max<int64_t>(0, window_target_ns - checkpoint_ns) /
                     static_cast<int64_t>(setups);
      next_setup_ns = checkpoint_ns + setup_gap_ns;
    }
    // Between timed steps, so the window's timings never include a set-up.
    if (i >= check_steps && setup_s.size() < setups &&
        window_ns >= next_setup_ns) {
      set_up_throwaway();
      next_setup_ns += setup_gap_ns;
    }
    if (i >= check_steps && (traced || window_ns >= window_target_ns)) {
      break;
    }
  }
  while (setup_s.size() < setups) {
    set_up_throwaway();
  }
  const uint64_t window_dispatches =
      kernel.total_dispatches() - dispatches_at_start;
  std::string note;
  if (!CpuConserved(kernel, world->threads(), &note)) {
    conserved = false;
    notes.push_back("conservation at window end: " + note);
  }
  const bool share_ok = share.err_pct <= share.envelope_pct;
  if (!share_ok) {
    notes.push_back("share error outside the binomial envelope");
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(config.name);
  w.Key("seed").Uint(seed);
  w.Key("traced").Bool(traced);
  w.Key("config").BeginObject();
  w.Key("backend").String(config.backend);
  w.Key("cpus").Int(config.cpus);
  w.Key("quantum_ms").Double(config.quantum.ToMillisF());
  w.Key("threads").Uint(world->threads().size());
  // The tree backend's speculative batching at the scheduler's default
  // window; the list backend has none.
  w.Key("batch_window")
      .Uint(config.backend == "tree"
                ? lottery::LotteryScheduler::Options{}.batch_window
                : 0);
  w.Key("step_ms").Double(config.step.ToMillisF());
  w.Key("warmup_s").Double(config.warmup.ToSecondsF());
  w.Key("checkpoint_s").Double(config.checkpoint.ToSecondsF());
  w.Key("setup_reps").Int(traced ? 1 : config.setup_reps);
  w.EndObject();
  w.Key("sim_digest").String(digest);
  w.Key("checkpoint_host_s").Double(static_cast<double>(checkpoint_ns) / 1e9);
  w.Key("window_host_s").Double(static_cast<double>(window_ns) / 1e9);
  w.Key("window_steps").Uint(steps.size());
  w.Key("window_dispatches").Uint(window_dispatches);
  w.Key("share_err_pct").Double(share.err_pct);
  w.Key("share_envelope_pct").Double(share.envelope_pct);
  w.Key("share_dispatches").Uint(share.dispatches);
  w.Key("checks").BeginObject();
  w.Key("conservation").Bool(conserved);
  w.Key("liveness").Bool(live);
  w.Key("share_envelope").Bool(share_ok);
  w.EndObject();
  w.Key("notes").BeginArray();
  for (const std::string& n : notes) {
    w.String(n);
  }
  w.EndArray();
  const PooledSteps fastest = FastestSteps(steps, step_dispatches);
  w.Key("sub_windows").Uint(fastest.sub_windows);
  w.Key("fastest_sub_windows").Uint(fastest.kept);
  w.Key("fastest_steps").Uint(fastest.ns.size());
  w.Key("end_to_end").BeginObject();
  w.Key("dispatches_per_s").Double(RatePerS(fastest));
  w.Key("step_ms_p50").Double(PercentileMs(fastest.ns, 0.50));
  w.Key("step_ms_p90").Double(PercentileMs(fastest.ns, 0.90));
  w.Key("setup_s").Double(*std::min_element(setup_s.begin(), setup_s.end()));
  w.Key("peak_rss_mb").Double(rss_mb);
  w.EndObject();
  if (traced) {
    w.Key("layers").BeginObject();
    WriteLayers(layers, w);
    w.EndObject();
    w.Key("spans_kept").Uint(recorder.records());
    w.Key("spans_dropped").Uint(recorder.dropped());
    if (!spans_path.empty()) {
      recorder.WriteCsv(spans_path);
    }
  }
  w.EndObject();
  std::cout << w.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed glibc thresholds: repeated set-ups then reuse the freed heap
  // instead of each paying fresh mappings and page faults. With the default
  // dynamic thresholds, whether the heap top is trimmed between set-ups
  // varies from process to process and makes setup_s bimodal.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::Run(lottery::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
