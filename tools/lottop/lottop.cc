#include "tools/lottop/lottop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "src/core/lottery_scheduler.h"
#include "src/obs/json_reader.h"
#include "src/obs/json_writer.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace lottop {

namespace {

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string SecondsOf(int64_t t_ns) {
  return Format("%.1f", static_cast<double>(t_ns) * 1e-9) + "s";
}

double FiniteNumber(const obs::JsonValue& v, const std::string& where) {
  if (!v.IsNumber()) {
    throw std::runtime_error("timeseries: " + where + " is not a number");
  }
  if (!std::isfinite(v.number)) {
    throw std::runtime_error("timeseries: " + where + " is not finite");
  }
  return v.number;
}

}  // namespace

// --- TsFile -----------------------------------------------------------------

double SeriesData::GlobalMin() const {
  double out = 0.0;
  for (size_t i = 0; i < min.size(); ++i) {
    out = i == 0 ? min[i] : std::min(out, min[i]);
  }
  return out;
}

double SeriesData::GlobalMax() const {
  double out = 0.0;
  for (size_t i = 0; i < max.size(); ++i) {
    out = i == 0 ? max[i] : std::max(out, max[i]);
  }
  return out;
}

const SeriesData* TsFile::Find(const std::string& name) const {
  for (const SeriesData& s : series) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

const SeriesData* TsFile::ClientSeries(const std::string& label,
                                       const std::string& leaf) const {
  return Find("client." + label + "." + leaf);
}

TsFile TsFile::Parse(const std::string& json_text) {
  const obs::JsonValue doc = obs::ParseJson(json_text);
  if (!doc.IsObject()) {
    throw std::runtime_error("timeseries: document is not an object");
  }
  if (doc.IntAt("schema_version") != 1) {
    throw std::runtime_error("timeseries: unsupported schema_version");
  }
  if (doc.StringAt("kind") != "timeseries") {
    throw std::runtime_error("timeseries: kind is not \"timeseries\"");
  }

  TsFile out;
  out.source = doc.StringAt("source");
  const obs::JsonValue& meta = doc.At("metadata");
  out.seed = static_cast<uint64_t>(meta.IntAt("seed"));
  out.interval_ns = meta.IntAt("interval_ns");
  out.quantum_ns = meta.IntAt("quantum_ns");
  out.starvation_bound_ns = meta.IntAt("starvation_bound_ns");
  out.share_window_samples = meta.IntAt("share_window_samples");
  out.samples = meta.IntAt("samples");
  out.num_cpus = static_cast<int>(meta.IntAt("num_cpus"));
  out.lag_sigma = meta.NumberAt("lag_sigma");
  out.share_err_bound = meta.NumberAt("share_err_bound");
  out.anomalies_dropped = static_cast<uint64_t>(doc.IntAt("anomalies_dropped"));

  for (const obs::JsonValue& c : doc.At("clients").items) {
    ClientRef ref;
    ref.label = c.StringAt("label");
    ref.tid = static_cast<uint32_t>(c.IntAt("tid"));
    out.clients.push_back(ref);
  }
  for (const obs::JsonValue& a : doc.At("anomalies").items) {
    AnomalyRow row;
    row.t_ns = a.IntAt("t_ns");
    row.tid = static_cast<uint32_t>(a.IntAt("tid"));
    row.kind = a.StringAt("kind");
    row.value = a.NumberAt("value");
    row.bound = a.NumberAt("bound");
    out.anomalies.push_back(row);
  }

  const obs::JsonValue& series = doc.At("series");
  if (!series.IsObject()) {
    throw std::runtime_error("timeseries: series is not an object");
  }
  for (const auto& [name, body] : series.members) {
    SeriesData s;
    s.name = name;
    s.stride = body.IntAt("stride");
    const obs::JsonValue& t_axis = body.At("t_ns");
    const obs::JsonValue& count = body.At("count");
    const obs::JsonValue& mean = body.At("mean");
    const obs::JsonValue& min = body.At("min");
    const obs::JsonValue& max = body.At("max");
    const size_t n = t_axis.items.size();
    if (count.items.size() != n || mean.items.size() != n ||
        min.items.size() != n || max.items.size() != n) {
      throw std::runtime_error("timeseries: ragged arrays in series " + name);
    }
    for (size_t i = 0; i < n; ++i) {
      const obs::JsonValue& t = t_axis.items[i];
      if (!t.is_int) {
        throw std::runtime_error("timeseries: non-integer t_ns in " + name);
      }
      if (!s.t_ns.empty() && t.integer <= s.t_ns.back()) {
        throw std::runtime_error("timeseries: t axis not strictly increasing"
                                 " in " + name);
      }
      s.t_ns.push_back(t.integer);
      if (!count.items[i].is_int) {
        throw std::runtime_error("timeseries: non-integer count in " + name);
      }
      s.count.push_back(count.items[i].integer);
      s.mean.push_back(FiniteNumber(mean.items[i], name + ".mean"));
      s.min.push_back(FiniteNumber(min.items[i], name + ".min"));
      s.max.push_back(FiniteNumber(max.items[i], name + ".max"));
    }
    out.series.push_back(std::move(s));
  }
  return out;
}

TsFile TsFile::Load(const std::string& path) {
  return Parse(obs::ReadFile(path));
}

// --- Frames -----------------------------------------------------------------

namespace {

bool AnyAnomalyFor(const std::vector<AnomalyRow>& anomalies, uint32_t tid) {
  for (const AnomalyRow& a : anomalies) {
    if (a.tid == tid) {
      return true;
    }
  }
  return false;
}

std::vector<AnomalyRow> SamplerAnomalies(const ts::Sampler& sampler) {
  std::vector<AnomalyRow> out;
  out.reserve(sampler.anomalies().size());
  for (const ts::Anomaly& a : sampler.anomalies()) {
    AnomalyRow row;
    row.t_ns = a.t_ns;
    row.tid = a.tid;
    row.kind = ts::AnomalyKindName(a.kind);
    row.value = a.value;
    row.bound = a.bound;
    out.push_back(row);
  }
  return out;
}

std::vector<double> BucketMeans(const ts::Series* series) {
  std::vector<double> out;
  if (series == nullptr) {
    return out;
  }
  out.reserve(series->size());
  for (size_t i = 0; i < series->size(); ++i) {
    out.push_back(series->bucket(i).stats.mean());
  }
  return out;
}

void FillCpuRows(const TsFile& file, std::vector<CpuRow>& cpus) {
  for (int c = 0;; ++c) {
    const std::string prefix = "cpu" + std::to_string(c);
    const SeriesData* util = file.Find(prefix + ".util");
    if (util == nullptr) {
      break;
    }
    CpuRow row;
    row.index = c;
    row.util = util->LastMean();
    const SeriesData* queued = file.Find(prefix + ".queued");
    const SeriesData* steals = file.Find(prefix + ".steals_in");
    if (queued != nullptr) {
      row.queued = queued->LastMean();
      row.smp = true;
    }
    if (steals != nullptr) {
      row.steals_in = steals->LastMean();
      row.smp = true;
    }
    cpus.push_back(row);
  }
}

}  // namespace

FrameData BuildFrame(const TsFile& file) {
  FrameData frame;
  frame.source = file.source;
  frame.seed = file.seed;
  frame.samples = static_cast<uint64_t>(file.samples);
  frame.anomalies = file.anomalies;
  frame.anomalies_dropped = file.anomalies_dropped;
  const SeriesData* util = file.Find("kernel.util");
  if (util != nullptr) {
    frame.util = util->LastMean();
    frame.t_ns = util->t_ns.empty() ? 0 : util->t_ns.back();
  }
  const SeriesData* runnable = file.Find("kernel.runnable");
  if (runnable != nullptr) {
    frame.runnable = runnable->LastMean();
  }
  for (const ClientRef& client : file.clients) {
    ClientRow row;
    row.label = client.label;
    row.tid = client.tid;
    const SeriesData* share = file.ClientSeries(client.label, "share");
    const SeriesData* entitled =
        file.ClientSeries(client.label, "entitled_share");
    const SeriesData* lag = file.ClientSeries(client.label, "lag_ms");
    const SeriesData* since =
        file.ClientSeries(client.label, "since_dispatch_ms");
    if (share != nullptr) {
      row.share = share->LastMean();
    }
    if (entitled != nullptr) {
      row.entitled_share = entitled->LastMean();
    }
    if (lag != nullptr) {
      row.lag_ms = lag->LastMean();
      row.lag_history = lag->mean;
    }
    if (since != nullptr) {
      row.since_dispatch_ms = since->LastMean();
    }
    row.anomalous = AnyAnomalyFor(frame.anomalies, client.tid);
    frame.clients.push_back(std::move(row));
  }
  FillCpuRows(file, frame.cpus);
  return frame;
}

FrameData BuildFrame(const ts::Sampler& sampler, SimTime now,
                     const std::string& source, uint64_t seed) {
  FrameData frame;
  frame.source = source;
  frame.seed = seed;
  frame.t_ns = now.nanos();
  frame.samples = sampler.samples();
  frame.anomalies = SamplerAnomalies(sampler);
  frame.anomalies_dropped = sampler.anomalies_dropped();
  const ts::Series* util = sampler.FindSeries("kernel.util");
  if (util != nullptr) {
    frame.util = util->last_value();
  }
  const ts::Series* runnable = sampler.FindSeries("kernel.runnable");
  if (runnable != nullptr) {
    frame.runnable = runnable->last_value();
  }
  for (size_t i = 0; i < sampler.num_clients(); ++i) {
    const ts::Sampler::ClientState& state = sampler.client_state(i);
    ClientRow row;
    row.label = state.label;
    row.tid = state.tid;
    row.share = state.share;
    row.entitled_share = state.entitled_share;
    row.lag_ms = static_cast<double>(state.lag_ns) * 1e-6;
    row.since_dispatch_ms = static_cast<double>(state.since_dispatch_ns) * 1e-6;
    row.lag_history =
        BucketMeans(sampler.FindSeries("client." + state.label + ".lag_ms"));
    row.anomalous =
        state.in_lag_anomaly || state.in_starvation || state.in_share_anomaly;
    frame.clients.push_back(std::move(row));
  }
  for (int c = 0;; ++c) {
    const std::string prefix = "cpu" + std::to_string(c);
    const ts::Series* cpu_util = sampler.FindSeries(prefix + ".util");
    if (cpu_util == nullptr) {
      break;
    }
    CpuRow row;
    row.index = c;
    row.util = cpu_util->last_value();
    const ts::Series* queued = sampler.FindSeries(prefix + ".queued");
    const ts::Series* steals = sampler.FindSeries(prefix + ".steals_in");
    if (queued != nullptr) {
      row.queued = queued->last_value();
      row.smp = true;
    }
    if (steals != nullptr) {
      row.steals_in = steals->last_value();
      row.smp = true;
    }
    frame.cpus.push_back(row);
  }
  return frame;
}

// --- Rendering --------------------------------------------------------------

namespace {

std::string Bar(double fill, int width, bool ascii) {
  const int cells = std::clamp(
      static_cast<int>(std::lround(fill * width)), 0, width);
  std::string out;
  for (int i = 0; i < width; ++i) {
    if (ascii) {
      out.push_back(i < cells ? '#' : '.');
    } else {
      out += i < cells ? "█" : "░";  // █ / ░
    }
  }
  return out;
}

std::string Sparkline(const std::vector<double>& values, int width,
                      bool ascii) {
  static const char* const kBlocks[8] = {"▁", "▂", "▃",
                                         "▄", "▅", "▆",
                                         "▇", "█"};
  static const char kAscii[8] = {'_', '.', ':', '-', '=', '+', '*', '#'};
  if (values.empty()) {
    return "";
  }
  const size_t cap = static_cast<size_t>(width);
  const size_t start = values.size() > cap ? values.size() - cap : 0;
  double lo = values[start];
  double hi = values[start];
  for (size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  const double span = hi - lo;
  std::string out;
  for (size_t i = start; i < values.size(); ++i) {
    const int level =
        span > 0.0
            ? std::clamp(static_cast<int>((values[i] - lo) / span * 7.999), 0,
                         7)
            : 0;
    if (ascii) {
      out.push_back(kAscii[level]);
    } else {
      out += kBlocks[level];
    }
  }
  return out;
}

std::string AnomalyLine(const AnomalyRow& a) {
  std::string out = "  t=" + SecondsOf(a.t_ns) + " " + a.kind +
                    " tid=" + std::to_string(a.tid);
  if (a.kind == "share_error") {
    out += " err=" + Format("%.3f", a.value) + " bound=" +
           Format("%.3f", a.bound);
  } else {
    out += " value=" + Format("%.1f", a.value * 1e-6) + "ms bound=" +
           Format("%.1f", a.bound * 1e-6) + "ms";
  }
  return out;
}

}  // namespace

std::string RenderFrame(const FrameData& frame, const RenderOptions& opts) {
  std::string out;
  out += "lottop " + std::string(opts.ascii ? "--" : "—") + " " +
         frame.source + "  seed " + std::to_string(frame.seed) +
         "  t=" + SecondsOf(frame.t_ns) + "  samples=" +
         std::to_string(frame.samples) + "\n";
  out += "machine: util " + Format("%.1f", 100.0 * frame.util) +
         "%  runnable " + Format("%.0f", frame.runnable) + "  anomalies " +
         std::to_string(frame.anomalies.size());
  if (frame.anomalies_dropped > 0) {
    out += " (+" + std::to_string(frame.anomalies_dropped) + " dropped)";
  }
  out += "\n\n";

  size_t label_width = 6;
  for (const ClientRow& client : frame.clients) {
    label_width = std::max(label_width, client.label.size());
  }
  for (const ClientRow& client : frame.clients) {
    out += (client.anomalous ? "! " : "  ") + client.label +
           std::string(label_width - client.label.size(), ' ') + " " +
           Bar(client.share, opts.bar_width, opts.ascii) + " " +
           Format("%5.1f", 100.0 * client.share) + "% of " +
           Format("%5.1f", 100.0 * client.entitled_share) + "%  lag " +
           Format("%+9.1f", client.lag_ms) + "ms  " +
           Sparkline(client.lag_history, opts.spark_width, opts.ascii) + "\n";
  }
  if (frame.clients.empty()) {
    out += "  (no tracked clients)\n";
  }

  if (!frame.cpus.empty()) {
    out += "\n";
    for (const CpuRow& cpu : frame.cpus) {
      out += "  cpu" + std::to_string(cpu.index) + " " +
             Bar(cpu.util, opts.bar_width, opts.ascii) + " " +
             Format("%5.1f", 100.0 * cpu.util) + "%";
      if (cpu.smp) {
        out += "  queued " + Format("%4.1f", cpu.queued) + "  steals_in " +
               Format("%.0f", cpu.steals_in);
      }
      out += "\n";
    }
  }

  if (!frame.anomalies.empty()) {
    const size_t shown = std::min(frame.anomalies.size(), opts.anomaly_tail);
    out += "\nanomalies (last " + std::to_string(shown) + " of " +
           std::to_string(frame.anomalies.size()) + "):\n";
    for (size_t i = frame.anomalies.size() - shown; i < frame.anomalies.size();
         ++i) {
      out += AnomalyLine(frame.anomalies[i]) + "\n";
    }
  }
  return out;
}

// --- Analysis ---------------------------------------------------------------

CheckResult Check(const TsFile& file) {
  CheckResult result;
  result.dropped = file.anomalies_dropped;
  for (const AnomalyRow& a : file.anomalies) {
    if (a.kind == "lag") {
      ++result.lag;
    } else if (a.kind == "starvation") {
      ++result.starvation;
    } else if (a.kind == "share_error") {
      ++result.share_error;
    }
  }
  return result;
}

namespace {

template <typename T>
bool DiffScalar(const std::string& what, const T& a, const T& b,
                TsDiffResult& out) {
  if (a == b) {
    return false;
  }
  out.identical = false;
  out.detail = what;
  return true;
}

template <typename T>
std::string Stringify(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return std::to_string(v);
  }
}

template <typename T>
bool DiffArray(const std::string& what, const std::vector<T>& a,
               const std::vector<T>& b, TsDiffResult& out) {
  if (a.size() != b.size()) {
    out.identical = false;
    out.detail = what + ": " + std::to_string(a.size()) + " vs " +
                 std::to_string(b.size()) + " buckets";
    return true;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      out.identical = false;
      out.detail = what + "[" + std::to_string(i) + "]: " + Stringify(a[i]) +
                   " vs " + Stringify(b[i]);
      return true;
    }
  }
  return false;
}

}  // namespace

TsDiffResult Diff(const TsFile& a, const TsFile& b) {
  TsDiffResult out;
  if (DiffScalar("source: " + a.source + " vs " + b.source, a.source, b.source,
                 out) ||
      DiffScalar("seed", a.seed, b.seed, out) ||
      DiffScalar("samples", a.samples, b.samples, out) ||
      DiffScalar("interval_ns", a.interval_ns, b.interval_ns, out) ||
      DiffScalar("num_cpus", a.num_cpus, b.num_cpus, out) ||
      DiffScalar("anomaly count", a.anomalies.size(), b.anomalies.size(),
                 out)) {
    return out;
  }
  if (a.series.size() != b.series.size()) {
    out.identical = false;
    out.detail = "series count: " + std::to_string(a.series.size()) + " vs " +
                 std::to_string(b.series.size());
    return out;
  }
  for (size_t i = 0; i < a.series.size(); ++i) {
    const SeriesData& sa = a.series[i];
    const SeriesData& sb = b.series[i];
    if (DiffScalar("series name: " + sa.name + " vs " + sb.name, sa.name,
                   sb.name, out) ||
        DiffScalar("series " + sa.name + " stride", sa.stride, sb.stride,
                   out) ||
        DiffArray("series " + sa.name + " t_ns", sa.t_ns, sb.t_ns, out) ||
        DiffArray("series " + sa.name + " count", sa.count, sb.count, out) ||
        DiffArray("series " + sa.name + " mean", sa.mean, sb.mean, out) ||
        DiffArray("series " + sa.name + " min", sa.min, sb.min, out) ||
        DiffArray("series " + sa.name + " max", sa.max, sb.max, out)) {
      return out;
    }
  }
  return out;
}

std::string SummaryText(const TsFile& file) {
  std::string out;
  out += "source " + file.source + "  seed " + std::to_string(file.seed) +
         "  samples " + std::to_string(file.samples) + "  interval " +
         Format("%.0f", static_cast<double>(file.interval_ns) * 1e-6) +
         "ms  cpus " + std::to_string(file.num_cpus) + "\n";
  out += "bounds: lag_sigma " + Format("%.1f", file.lag_sigma) +
         "  share_err " + Format("%.2f", file.share_err_bound) +
         " over " + std::to_string(file.share_window_samples) +
         " samples  starvation " +
         Format("%.1f", static_cast<double>(file.starvation_bound_ns) * 1e-9) +
         "s\n\n";
  out += "client        final-share  entitled    final-lag      lag-range\n";
  for (const ClientRef& client : file.clients) {
    const SeriesData* share = file.ClientSeries(client.label, "share");
    const SeriesData* entitled =
        file.ClientSeries(client.label, "entitled_share");
    const SeriesData* lag = file.ClientSeries(client.label, "lag_ms");
    out += "  " + client.label +
           std::string(client.label.size() < 12 ? 12 - client.label.size() : 1,
                       ' ') +
           Format("%7.2f", share != nullptr ? 100.0 * share->LastMean() : 0.0) +
           "%    " +
           Format("%7.2f",
                  entitled != nullptr ? 100.0 * entitled->LastMean() : 0.0) +
           "%  " +
           Format("%+9.1f", lag != nullptr ? lag->LastMean() : 0.0) + "ms  [" +
           Format("%+.1f", lag != nullptr ? lag->GlobalMin() : 0.0) + ", " +
           Format("%+.1f", lag != nullptr ? lag->GlobalMax() : 0.0) + "]ms\n";
  }
  const CheckResult check = Check(file);
  out += "\nanomalies: " + std::to_string(file.anomalies.size()) + " (lag " +
         std::to_string(check.lag) + ", starvation " +
         std::to_string(check.starvation) + ", share_error " +
         std::to_string(check.share_error) + ", dropped " +
         std::to_string(check.dropped) + ")\n";
  for (const AnomalyRow& a : file.anomalies) {
    out += AnomalyLine(a) + "\n";
  }
  return out;
}

// --- Scenarios --------------------------------------------------------------

ScenarioResult RunScenario(
    const std::string& name, uint32_t seed, int64_t seconds,
    const std::function<void(const ts::Sampler&, SimTime)>& snapshot) {
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  if (name == "monopoly") {
    // Section 4.5 without its remedy: the fractional-quantum consumer's
    // effective share collapses to burst/quantum of its ticket share.
    sopts.compensation.enabled = false;
  } else if (name != "fair" && name != "starvation") {
    throw std::invalid_argument("lottop: unknown scenario '" + name + "'");
  }
  // Scenarios keep their counters out of the process default registry so
  // repeated in-process runs (tests) start from zero.
  obs::Registry registry;
  sopts.metrics = &registry;
  LotteryScheduler sched(sopts);
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  kopts.metrics = &registry;
  Kernel kernel(&sched, kopts);

  ts::Sampler::Options topts;
  topts.metrics = &registry;
  ts::Sampler sampler(&kernel, topts);
  sampler.AttachScheduler(&sched);
  kernel.SetSampler(&sampler);
  if (snapshot) {
    sampler.SetSnapshotHook(snapshot);
  }

  auto track = [&](const std::string& label, std::unique_ptr<ThreadBody> body,
                   int64_t tickets) {
    const ThreadId tid = kernel.Spawn(label, std::move(body));
    sched.FundThread(tid, sched.table().base(), tickets);
    sampler.Track(tid, label);
  };
  if (name == "fair") {
    track("a", std::make_unique<ComputeTask>(), 300);
    track("b", std::make_unique<ComputeTask>(), 200);
    track("c", std::make_unique<ComputeTask>(), 100);
  } else if (name == "monopoly") {
    track("monopolist",
          std::make_unique<YieldingTask>(SimDuration::Millis(2)), 800);
    track("hog1", std::make_unique<ComputeTask>(), 100);
    track("hog2", std::make_unique<ComputeTask>(), 100);
  } else {  // starvation
    track("starved", std::make_unique<ComputeTask>(), 1);
    track("hog1", std::make_unique<ComputeTask>(), 5000);
    track("hog2", std::make_unique<ComputeTask>(), 5000);
  }

  kernel.RunFor(SimDuration::Seconds(seconds));

  ScenarioResult result;
  result.json = sampler.ToJson("lottop_" + name, seed);
  result.dropped = sampler.anomalies_dropped();
  for (const ts::Anomaly& a : sampler.anomalies()) {
    switch (a.kind) {
      case ts::AnomalyKind::kLag:
        ++result.lag_anomalies;
        break;
      case ts::AnomalyKind::kStarvation:
        ++result.starvation_anomalies;
        break;
      case ts::AnomalyKind::kShareError:
        ++result.share_anomalies;
        break;
    }
    if (result.first_anomaly_t_ns < 0 || a.t_ns < result.first_anomaly_t_ns) {
      result.first_anomaly_t_ns = a.t_ns;
    }
  }
  return result;
}

// --- Subcommands ------------------------------------------------------------

namespace {

RenderOptions RenderOptionsFrom(const Flags& flags) {
  RenderOptions opts;
  opts.ascii = flags.GetBool("ascii", false);
  opts.bar_width = static_cast<int>(flags.GetInt("bar-width", 24));
  opts.spark_width = static_cast<int>(flags.GetInt("spark-width", 32));
  return opts;
}

int ReportCheck(const CheckResult& check) {
  std::printf(
      "lottop check: %s (lag %llu, starvation %llu, share_error %llu, "
      "dropped %llu)\n",
      check.ok() ? "ok" : "ANOMALOUS",
      static_cast<unsigned long long>(check.lag),
      static_cast<unsigned long long>(check.starvation),
      static_cast<unsigned long long>(check.share_error),
      static_cast<unsigned long long>(check.dropped));
  return check.ok() ? 0 : 1;
}

}  // namespace

int CmdRecord(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "lottop record: need --out=PATH\n");
    return 2;
  }
  const std::string scenario = flags.GetString("scenario", "fair");
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 60);
  const ScenarioResult result = RunScenario(scenario, seed, seconds);
  obs::WriteFile(out, result.json);
  std::printf("recorded %s (%lld s, seed %u) to %s: %llu anomalies\n",
              scenario.c_str(), static_cast<long long>(seconds), seed,
              out.c_str(),
              static_cast<unsigned long long>(result.lag_anomalies +
                                              result.starvation_anomalies +
                                              result.share_anomalies));
  return 0;
}

int CmdLive(const Flags& flags) {
  const std::string scenario = flags.GetString("scenario", "fair");
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 60);
  const int64_t refresh = std::max<int64_t>(1, flags.GetInt("refresh", 4));
  const bool clear = flags.GetBool("clear", false);
  const RenderOptions opts = RenderOptionsFrom(flags);
  const std::string source = "lottop_" + scenario;

  uint64_t frames = 0;
  const ScenarioResult result = RunScenario(
      scenario, seed, seconds,
      [&](const ts::Sampler& sampler, SimTime now) {
        if (sampler.samples() % static_cast<uint64_t>(refresh) != 0) {
          return;
        }
        ++frames;
        if (clear) {
          std::fputs("\x1b[H\x1b[2J", stdout);
        }
        std::fputs(RenderFrame(BuildFrame(sampler, now, source, seed), opts)
                       .c_str(),
                   stdout);
        if (!clear) {
          std::fputs("\n", stdout);
        }
      });
  std::printf("lottop live: %llu frames, %llu anomalies\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(result.lag_anomalies +
                                              result.starvation_anomalies +
                                              result.share_anomalies));
  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    obs::WriteFile(out, result.json);
    std::printf("(timeseries written to %s)\n", out.c_str());
  }
  return 0;
}

int CmdReplay(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "lottop replay: need a timeseries path\n");
    return 2;
  }
  const TsFile file = TsFile::Load(args[1]);
  std::fputs(RenderFrame(BuildFrame(file), RenderOptionsFrom(flags)).c_str(),
             stdout);
  return 0;
}

int CmdSummarize(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "lottop summarize: need a timeseries path\n");
    return 2;
  }
  const TsFile file = TsFile::Load(args[1]);
  std::fputs(SummaryText(file).c_str(), stdout);
  return 0;
}

int CmdCheck(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "lottop check: need a timeseries path\n");
    return 2;
  }
  return ReportCheck(Check(TsFile::Load(args[1])));
}

int CmdDiff(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "lottop diff: need two timeseries paths\n");
    return 2;
  }
  const TsFile a = TsFile::Load(args[1]);
  const TsFile b = TsFile::Load(args[2]);
  const TsDiffResult result = Diff(a, b);
  if (result.identical) {
    std::printf("identical: %zu series, %lld samples\n", a.series.size(),
                static_cast<long long>(a.samples));
    return 0;
  }
  std::printf("DIVERGED at %s\n", result.detail.c_str());
  return 1;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto& args = flags.positional();
  const std::string command = args.empty() ? "" : args[0];
  if (command.empty() || flags.GetBool("help", false)) {
    std::printf(
        "usage: lottop <command> [args]\n"
        "  record    --out=PATH [--scenario=fair|monopoly|starvation]\n"
        "            [--seed=N] [--seconds=N]\n"
        "  live      [--scenario=...] [--seed=N] [--seconds=N]\n"
        "            [--refresh=K] [--clear] [--ascii] [--out=PATH]\n"
        "  replay    FILE [--ascii]\n"
        "  summarize FILE\n"
        "  check     FILE            (exit 1 on any anomaly)\n"
        "  diff      FILE_A FILE_B   (exit 1 on divergence)\n");
    return flags.GetBool("help", false) ? 0 : 2;
  }
  if (command == "record") {
    return CmdRecord(flags);
  }
  if (command == "live") {
    return CmdLive(flags);
  }
  if (command == "replay") {
    return CmdReplay(flags);
  }
  if (command == "summarize") {
    return CmdSummarize(flags);
  }
  if (command == "check") {
    return CmdCheck(flags);
  }
  if (command == "diff") {
    return CmdDiff(flags);
  }
  std::fprintf(stderr, "lottop: unknown command '%s' (try --help)\n",
               command.c_str());
  return 2;
}

}  // namespace lottop
}  // namespace lottery
