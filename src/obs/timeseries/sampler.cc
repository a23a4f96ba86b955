// lotlint: file float-ok (the sampler is observation-only: shares, rates and
// lag bounds are float reports derived from integer service counters, and
// nothing here feeds back into ticket or pass state)
#include "src/obs/timeseries/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/etrace/event.h"
#include "src/obs/json_writer.h"

namespace lottery {
namespace ts {

namespace {

// Labels become series-name segments; keep them inside the registry's
// metric-name alphabet so the hygiene gate covers recorded series too.
std::string SanitizeLabel(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    if (ch >= 'A' && ch <= 'Z') {
      out.push_back(static_cast<char>(ch - 'A' + 'a'));
    } else if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
               ch == '_' || ch == '.') {
      out.push_back(ch);
    } else {
      out.push_back('_');
    }
  }
  return out;
}

}  // namespace

const char* AnomalyKindName(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kLag:
      return "lag";
    case AnomalyKind::kStarvation:
      return "starvation";
    case AnomalyKind::kShareError:
      return "share_error";
  }
  return "unknown";
}

Sampler::Sampler(Kernel* kernel, Options options)
    : kernel_(kernel),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &kernel->metrics()),
      m_samples_(metrics_->counter("ts.samples")),
      m_lag_anomalies_(metrics_->counter("ts.lag_anomalies")),
      m_starvation_anomalies_(metrics_->counter("ts.starvation_anomalies")),
      m_share_anomalies_(metrics_->counter("ts.share_anomalies")) {
  if (options_.interval.nanos() <= 0) {
    throw std::invalid_argument("Sampler: interval must be positive");
  }
  if (options_.share_window_samples == 0) {
    throw std::invalid_argument("Sampler: share window must be non-empty");
  }
  anomalies_.reserve(options_.max_anomalies);
  win_group_.assign(options_.share_window_samples, 0);
  s_runnable_ = AddSeries("kernel.runnable");
  s_util_ = AddSeries("kernel.util");
  s_dispatch_hz_ = AddSeries("kernel.dispatch_rate_hz");
  s_total_tickets_ = AddSeries("lottery.total_tickets");
  s_starve_max_ = AddSeries("sched.starve_max_ms");
  if (kernel_->num_cpus() > 1) {
    for (int c = 0; c < kernel_->num_cpus(); ++c) {
      CpuState state;
      state.index = c;
      state.s_util = AddSeries("cpu" + std::to_string(c) + ".util");
      cpus_.push_back(state);
    }
  }
}

Sampler::~Sampler() {
  if (kernel_->sampler() == this) {
    kernel_->SetSampler(nullptr);
  }
}

size_t Sampler::AddSeries(const std::string& name) {
  for (const NamedSeries& existing : series_) {
    if (existing.name == name) {
      throw std::invalid_argument("Sampler: duplicate series " + name);
    }
  }
  series_.push_back(NamedSeries{name, Series(options_.series_capacity)});
  return series_.size() - 1;
}

void Sampler::AttachScheduler(LotteryScheduler* sched) {
  sched_ = sched;
  if (sched == nullptr || sched->partitioned_cpus() == 0) {
    return;
  }
  // One run queue per CPU: record each queue's depth and steal activity.
  // The scheduler publishes its steal counts only through its registry, so
  // read the counters it created there.
  obs::Registry& registry = sched->metrics();
  steals_ = registry.FindCounter("smp.steals");
  migrations_ = registry.FindCounter("smp.migrations");
  if (steals_ == nullptr || migrations_ == nullptr) {
    throw std::invalid_argument(
        "Sampler: partitioned scheduler publishes no smp.steals/migrations");
  }
  if (cpus_.empty()) {
    for (int c = 0; c < kernel_->num_cpus(); ++c) {
      CpuState state;
      state.index = c;
      state.s_util = AddSeries("cpu" + std::to_string(c) + ".util");
      cpus_.push_back(state);
    }
  }
  for (CpuState& state : cpus_) {
    const std::string prefix = "cpu" + std::to_string(state.index);
    state.s_queued = AddSeries(prefix + ".queued");
    state.s_steals = AddSeries(prefix + ".steals_in");
    state.steals_in = registry.counter("smp." + prefix + ".steals_in");
  }
  s_steal_hz_ = AddSeries("smp.steal_rate_hz");
  s_migration_hz_ = AddSeries("smp.migration_rate_hz");
  last_steals_ = steals_->value();
  last_migrations_ = migrations_->value();
}

void Sampler::Track(ThreadId tid, const std::string& label) {
  const std::string clean = SanitizeLabel(label);
  if (clean.empty()) {
    throw std::invalid_argument("Sampler::Track: empty label");
  }
  for (const ClientState& existing : clients_) {
    if (existing.label == clean) {
      throw std::invalid_argument("Sampler::Track: duplicate label " + clean);
    }
    if (existing.tid == tid) {
      throw std::invalid_argument("Sampler::Track: thread tracked twice");
    }
  }
  ClientState state;
  state.tid = tid;
  state.label = clean;
  state.last_cpu_ns = kernel_->CpuTime(tid).nanos();  // throws on unknown tid
  state.win_recv.assign(options_.share_window_samples, 0);
  state.win_ent.assign(options_.share_window_samples, 0);
  const std::string prefix = "client." + clean;
  state.s_lag = AddSeries(prefix + ".lag_ms");
  state.s_share = AddSeries(prefix + ".share");
  state.s_entitled = AddSeries(prefix + ".entitled_share");
  state.s_since = AddSeries(prefix + ".since_dispatch_ms");
  clients_.push_back(std::move(state));
  weights_.assign(clients_.size(), 0);
}

void Sampler::WatchCounter(const std::string& name) {
  WatchedCounter watched;
  watched.counter = metrics_->counter(name);
  watched.last = watched.counter->value();
  watched.series = AddSeries("rate." + name);
  watched_.push_back(watched);
}

uint64_t Sampler::BaseValueRaw(ThreadId tid, double* base_units) {
  Funding value = Funding::Zero();
  if (sched_ != nullptr) {
    value = sched_->ThreadBaseValue(tid);
  }
  *base_units += value.ToBaseF();
  return value.raw_unsigned();
}

void Sampler::UpdateAnomaly(bool active, bool* flag, AnomalyKind kind,
                            ThreadId tid, double value, double bound,
                            int64_t t_ns, obs::Counter* counter,
                            etrace::TraceBuffer* trace) {
  if (!active) {
    *flag = false;
    return;
  }
  if (*flag) {
    return;  // level persists; only the rising edge reports
  }
  *flag = true;
  counter->Inc();
  if (anomalies_.size() < options_.max_anomalies) {
    Anomaly a;
    a.t_ns = t_ns;
    a.tid = tid;
    a.kind = kind;
    a.value = value;
    a.bound = bound;
    anomalies_.push_back(a);
  } else {
    ++anomalies_dropped_;
  }
  if (etrace::On(trace, etrace::kCatTimeseries)) {
    etrace::Event e;
    e.t_ns = t_ns;
    e.a = tid;
    // Integer payloads: ns for lag/starvation, permille for share error.
    const double scale = kind == AnomalyKind::kShareError ? 1000.0 : 1.0;
    e.v1 = static_cast<uint64_t>(value * scale);
    e.v2 = static_cast<uint64_t>(bound * scale);
    switch (kind) {
      case AnomalyKind::kLag:
        e.type = static_cast<uint16_t>(etrace::EventType::kLagAnomaly);
        break;
      case AnomalyKind::kStarvation:
        e.type = static_cast<uint16_t>(etrace::EventType::kStarvation);
        break;
      case AnomalyKind::kShareError:
        e.type = static_cast<uint16_t>(etrace::EventType::kShareError);
        break;
    }
    trace->Append(e);
  }
}

int64_t Sampler::Sample(SimTime now) {
  const int64_t t = now.nanos();
  const int64_t interval = options_.interval.nanos();
  if (!baselined_) {
    // First firing (at SetSampler's next loop step): take deltas' baselines
    // without emitting a sample — rates need a nonzero interval.
    baselined_ = true;
    last_t_ns_ = t;
    last_idle_ns_ = kernel_->idle_time().nanos();
    last_total_dispatches_ = kernel_->total_dispatches();
    base_total_dispatches_ = last_total_dispatches_;
    for (CpuState& cpu : cpus_) {
      cpu.last_busy_ns = kernel_->CpuBusySampled(cpu.index).nanos();
    }
    if (steals_ != nullptr) {
      last_steals_ = steals_->value();
      last_migrations_ = migrations_->value();
    }
    for (ClientState& client : clients_) {
      client.last_cpu_ns = kernel_->CpuTime(client.tid).nanos();
    }
    for (WatchedCounter& watched : watched_) {
      watched.last = watched.counter->value();
    }
    return t + interval;
  }
  const int64_t dt = t - last_t_ns_;
  if (dt <= 0) {
    return t + interval;
  }
  last_t_ns_ = t;
  ++samples_;
  m_samples_->Inc();
  const double dt_s = static_cast<double>(dt) * 1e-9;
  const int num_cpus = kernel_->num_cpus();
  const int64_t quantum_ns = kernel_->options().quantum.nanos();
  etrace::TraceBuffer* trace =
      options_.trace != nullptr ? options_.trace : kernel_->etrace();

  // Pass 1: base ticket weights of the competing (runnable) tracked set.
  uint64_t total_weight = 0;
  double total_base = 0.0;
  for (size_t i = 0; i < clients_.size(); ++i) {
    const ClientState& client = clients_[i];
    uint64_t weight = 0;
    if (kernel_->Alive(client.tid) && kernel_->ThreadRunnable(client.tid)) {
      weight = BaseValueRaw(client.tid, &total_base);
    }
    weights_[i] = weight;
    total_weight += weight;
  }

  // Machine quanta delivered since attach — the N of the binomial lag bound.
  const uint64_t machine_quanta =
      kernel_->total_dispatches() - base_total_dispatches_;
  const double n_quanta =
      static_cast<double>(machine_quanta > 0 ? machine_quanta : 1);

  // Group service delivered this interval — the entitlement base. Each
  // client deserves its ticket fraction of what the tracked set received,
  // which equals machine capacity when the set is the whole competing
  // population and stays honest when it is a sampled slice of one.
  int64_t total_drecv = 0;
  for (ClientState& client : clients_) {
    const int64_t cpu_ns = kernel_->CpuTime(client.tid).nanos();
    total_drecv += cpu_ns - client.last_cpu_ns;
  }

  // Trailing share-error window: retire the sample falling out of the ring
  // before pushing this one (late-tracked clients hold zeros there).
  const size_t window = options_.share_window_samples;
  const size_t slot = static_cast<size_t>((samples_ - 1) % window);
  const bool window_full = samples_ > window;
  if (window_full) {
    win_group_sum_ -= win_group_[slot];
    for (ClientState& client : clients_) {
      client.win_recv_sum -= client.win_recv[slot];
      client.win_ent_sum -= client.win_ent[slot];
    }
  }
  win_group_[slot] = total_drecv;
  win_group_sum_ += total_drecv;

  // Pass 2: per-client service deltas, entitlement accrual, lag, anomalies.
  int64_t starve_max_ns = 0;
  for (size_t i = 0; i < clients_.size(); ++i) {
    ClientState& client = clients_[i];
    const int64_t cpu_ns = kernel_->CpuTime(client.tid).nanos();
    const int64_t drecv = cpu_ns - client.last_cpu_ns;
    client.last_cpu_ns = cpu_ns;
    client.received_ns += drecv;
    int64_t dent = 0;
    if (total_weight > 0 && weights_[i] > 0) {
      // Entitled share of the group's delivered service this interval,
      // capped at one CPU (a single thread cannot consume more). 128-bit
      // exact; the truncation loses under 1 ns per client per sample.
      const __int128 wide = static_cast<__int128>(total_drecv) *
                            static_cast<__int128>(weights_[i]) /
                            static_cast<__int128>(total_weight);
      dent = wide > dt ? dt : static_cast<int64_t>(wide);
    }
    client.entitled_ns += dent;
    client.lag_ns = client.received_ns - client.entitled_ns;

    client.win_recv[slot] = drecv;
    client.win_ent[slot] = dent;
    client.win_recv_sum += drecv;
    client.win_ent_sum += dent;

    client.share = total_drecv > 0 ? static_cast<double>(drecv) /
                                         static_cast<double>(total_drecv)
                                   : 0.0;
    client.entitled_share =
        total_weight > 0 ? static_cast<double>(weights_[i]) /
                               static_cast<double>(total_weight)
                         : 0.0;
    client.share_err =
        win_group_sum_ > 0
            ? std::abs(static_cast<double>(client.win_recv_sum -
                                           client.win_ent_sum)) /
                  static_cast<double>(win_group_sum_)
            : 0.0;

    const bool runnable =
        kernel_->Alive(client.tid) && kernel_->ThreadRunnable(client.tid);
    client.since_dispatch_ns =
        runnable ? t - kernel_->LastDispatched(client.tid).nanos() : 0;
    if (client.since_dispatch_ns > starve_max_ns) {
      starve_max_ns = client.since_dispatch_ns;
    }

    series_[client.s_lag].series.Record(
        t, static_cast<double>(client.lag_ns) * 1e-6);
    series_[client.s_share].series.Record(t, client.share);
    series_[client.s_entitled].series.Record(t, client.entitled_share);
    series_[client.s_since].series.Record(
        t, static_cast<double>(client.since_dispatch_ns) * 1e-6);

    // Anomaly 1: |lag| outside the compensation-derived binomial envelope.
    bool lag_active = false;
    client.lag_bound_ns = 0;
    if (client.entitled_share > 0.0) {
      const double p = client.entitled_share;
      const double bound =
          static_cast<double>(quantum_ns) *
          (1.0 + options_.lag_sigma * std::sqrt(n_quanta * p * (1.0 - p)));
      client.lag_bound_ns = static_cast<int64_t>(bound);
      lag_active = std::abs(static_cast<double>(client.lag_ns)) > bound;
    }
    UpdateAnomaly(lag_active, &client.in_lag_anomaly, AnomalyKind::kLag,
                  client.tid, std::abs(static_cast<double>(client.lag_ns)),
                  static_cast<double>(client.lag_bound_ns), t,
                  m_lag_anomalies_, trace);

    // Anomaly 2: a runnable client starving past the watermark.
    const bool starving =
        runnable && client.since_dispatch_ns > options_.starvation_bound.nanos();
    UpdateAnomaly(starving, &client.in_starvation, AnomalyKind::kStarvation,
                  client.tid, static_cast<double>(client.since_dispatch_ns),
                  static_cast<double>(options_.starvation_bound.nanos()), t,
                  m_starvation_anomalies_, trace);

    // Anomaly 3: windowed share error (quiet until the window fills).
    const bool share_bad =
        window_full && client.share_err > options_.share_err_bound;
    UpdateAnomaly(share_bad, &client.in_share_anomaly,
                  AnomalyKind::kShareError, client.tid, client.share_err,
                  options_.share_err_bound, t, m_share_anomalies_, trace);
  }

  // Machine-level series.
  series_[s_runnable_].series.Record(
      t, static_cast<double>(kernel_->num_runnable()));
  const int64_t idle_ns = kernel_->idle_time().nanos();
  const double capacity_ns = static_cast<double>(dt) * num_cpus;
  const double util =
      1.0 - static_cast<double>(idle_ns - last_idle_ns_) / capacity_ns;
  last_idle_ns_ = idle_ns;
  series_[s_util_].series.Record(t, util);
  const uint64_t dispatches = kernel_->total_dispatches();
  series_[s_dispatch_hz_].series.Record(
      t, static_cast<double>(dispatches - last_total_dispatches_) / dt_s);
  last_total_dispatches_ = dispatches;
  series_[s_total_tickets_].series.Record(t, total_base);
  series_[s_starve_max_].series.Record(
      t, static_cast<double>(starve_max_ns) * 1e-6);

  for (CpuState& cpu : cpus_) {
    const int64_t busy_ns = kernel_->CpuBusySampled(cpu.index).nanos();
    series_[cpu.s_util].series.Record(
        t, static_cast<double>(busy_ns - cpu.last_busy_ns) /
               static_cast<double>(dt));
    cpu.last_busy_ns = busy_ns;
    if (cpu.steals_in != nullptr) {
      series_[cpu.s_queued].series.Record(
          t, static_cast<double>(sched_->QueuedCount(cpu.index)));
      series_[cpu.s_steals].series.Record(
          t, static_cast<double>(cpu.steals_in->value()));
    }
  }
  if (steals_ != nullptr) {
    const uint64_t steals = steals_->value();
    const uint64_t migrations = migrations_->value();
    series_[s_steal_hz_].series.Record(
        t, static_cast<double>(steals - last_steals_) / dt_s);
    series_[s_migration_hz_].series.Record(
        t, static_cast<double>(migrations - last_migrations_) / dt_s);
    last_steals_ = steals;
    last_migrations_ = migrations;
  }
  for (WatchedCounter& watched : watched_) {
    const uint64_t value = watched.counter->value();
    series_[watched.series].series.Record(
        t, static_cast<double>(value - watched.last) / dt_s);
    watched.last = value;
  }

  if (snapshot_) {
    snapshot_(*this, now);
  }
  return t + interval;
}

std::vector<std::string> Sampler::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const NamedSeries& entry : series_) {
    names.push_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

const Series* Sampler::FindSeries(const std::string& name) const {
  for (const NamedSeries& entry : series_) {
    if (entry.name == name) {
      return &entry.series;
    }
  }
  return nullptr;
}

std::string Sampler::ToJson(const std::string& source, uint64_t seed) const {
  std::vector<size_t> order(series_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return series_[a].name < series_[b].name;
  });

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("anomalies").BeginArray();
  for (const Anomaly& a : anomalies_) {
    w.BeginObject();
    w.Key("bound").Double(a.bound);
    w.Key("kind").String(AnomalyKindName(a.kind));
    w.Key("t_ns").Int(a.t_ns);
    w.Key("tid").Uint(a.tid);
    w.Key("value").Double(a.value);
    w.EndObject();
  }
  w.EndArray();
  w.Key("anomalies_dropped").Uint(anomalies_dropped_);
  w.Key("clients").BeginArray();
  for (const ClientState& client : clients_) {
    w.BeginObject();
    w.Key("label").String(client.label);
    w.Key("tid").Uint(client.tid);
    w.EndObject();
  }
  w.EndArray();
  w.Key("kind").String("timeseries");
  w.Key("metadata").BeginObject();
  w.Key("interval_ns").Int(options_.interval.nanos());
  w.Key("lag_sigma").Double(options_.lag_sigma);
  w.Key("num_cpus").Int(kernel_->num_cpus());
  w.Key("quantum_ns").Int(kernel_->options().quantum.nanos());
  w.Key("samples").Uint(samples_);
  w.Key("seed").Uint(seed);
  w.Key("share_err_bound").Double(options_.share_err_bound);
  w.Key("share_window_samples").Uint(options_.share_window_samples);
  w.Key("starvation_bound_ns").Int(options_.starvation_bound.nanos());
  w.EndObject();
  w.Key("schema_version").Uint(1);
  w.Key("series").BeginObject();
  for (const size_t i : order) {
    w.Key(series_[i].name);
    series_[i].series.AppendJson(w);
  }
  w.EndObject();
  w.Key("source").String(source);
  w.EndObject();
  return w.str();
}

void Sampler::WriteJson(const std::string& path, const std::string& source,
                        uint64_t seed) const {
  obs::WriteFile(path, ToJson(source, seed));
}

}  // namespace ts
}  // namespace lottery
