#include "tools/tracectl/tracectl.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/core/lottery_scheduler.h"
#include "src/obs/etrace/export.h"
#include "src/obs/json_writer.h"
#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace tracectl {

namespace {

using etrace::Event;
using etrace::EventType;
using etrace::TraceFile;

// Stationary decision phase: the non-fallback decisions whose total equals
// the modal total. Feeds both the chi-square audit and the drift table, so
// the two always agree on which decisions they measured.
struct Stationary {
  uint64_t modal_total = 0;
  uint64_t decisions = 0;
  std::map<uint32_t, uint64_t> wins;    // tid -> wins at the modal total
  std::map<uint32_t, uint64_t> values;  // tid -> ticket value when winning
};

Stationary StationaryPhase(const TraceFile& trace) {
  std::map<uint64_t, uint64_t> totals;  // total -> decision count
  for (const Event& e : trace.events) {
    if (e.type == static_cast<uint16_t>(EventType::kDecision) &&
        (e.flags & etrace::kDecisionFallback) == 0) {
      ++totals[e.v2];
    }
  }
  Stationary out;
  for (const auto& [total, count] : totals) {
    if (total > 0 && count > totals[out.modal_total]) {
      out.modal_total = total;
    }
  }
  if (out.modal_total == 0) {
    return out;
  }
  for (const Event& e : trace.events) {
    if (e.type != static_cast<uint16_t>(EventType::kDecision) ||
        (e.flags & etrace::kDecisionFallback) != 0 ||
        e.v2 != out.modal_total) {
      continue;
    }
    ++out.decisions;
    ++out.wins[e.a];
    out.values[e.a] = e.v3;
  }
  return out;
}

}  // namespace

DecisionAudit AuditDecisions(const TraceFile& trace) {
  DecisionAudit audit;

  // Ground-truth replay: each kDecision is preceded (when the snapshot
  // category was recorded) by its kCandidate list in draw order. The winner
  // must be the first candidate whose running value sum exceeds the drawn
  // value — the one rule both backends obey (list prefix scan, tree
  // SlotForValue) — or candidates[v1] for a zero-funding fallback.
  std::vector<const Event*> candidates;
  for (const Event& e : trace.events) {
    if (e.type == static_cast<uint16_t>(EventType::kCandidate)) {
      candidates.push_back(&e);
      continue;
    }
    if (e.type != static_cast<uint16_t>(EventType::kDecision)) {
      continue;
    }
    ++audit.decisions;
    if ((e.flags & etrace::kDecisionFallback) != 0) {
      ++audit.fallbacks;
    }
    if (!candidates.empty()) {
      ++audit.replay_checked;
      uint32_t derived = kInvalidThreadId;
      if ((e.flags & etrace::kDecisionFallback) != 0) {
        if (e.v1 < candidates.size()) {
          derived = candidates[e.v1]->a;
        }
      } else {
        uint64_t sum = 0;
        for (const Event* candidate : candidates) {
          sum += candidate->v1;
          if (sum > e.v1) {
            derived = candidate->a;
            break;
          }
        }
      }
      if (derived != e.a) {
        ++audit.replay_mismatches;
      }
    }
    candidates.clear();
  }

  // Chi-square of wins against ticket shares over the stationary phase.
  const Stationary stationary = StationaryPhase(trace);
  audit.stationary_decisions = stationary.decisions;
  audit.stationary_total = stationary.modal_total;
  std::vector<int64_t> observed;
  std::vector<double> expected;
  for (const auto& [tid, wins] : stationary.wins) {
    const auto vit = stationary.values.find(tid);
    const uint64_t value = vit != stationary.values.end() ? vit->second : 0;
    if (value == 0) {
      continue;  // chi-square needs expected > 0
    }
    observed.push_back(static_cast<int64_t>(wins));
    expected.push_back(static_cast<double>(stationary.decisions) *
                       static_cast<double>(value) /
                       static_cast<double>(stationary.modal_total));
  }
  audit.df = static_cast<int>(observed.size()) - 1;
  if (audit.df >= 1) {
    audit.chi_square = ChiSquareStatistic(observed, expected);
    audit.chi_critical = ChiSquareCritical(audit.df, 0.01);
    audit.chi_ok = audit.chi_square < audit.chi_critical;
  }
  return audit;
}

std::vector<DriftRow> ComputeDrift(const TraceFile& trace) {
  const Stationary stationary = StationaryPhase(trace);
  std::map<uint32_t, uint32_t> names;  // tid -> interned name id
  std::map<uint32_t, int64_t> cpu;     // tid -> consumed ns
  for (const Event& e : trace.events) {
    if (e.type == static_cast<uint16_t>(EventType::kThreadName)) {
      names[e.a] = e.name;
    } else if (e.type == static_cast<uint16_t>(EventType::kSlice)) {
      cpu[e.a] += static_cast<int64_t>(e.v1);
    }
  }

  // Shares are relative to the measured thread set — the threads that won
  // stationary decisions — so service/idle threads outside the lottery do
  // not dilute the comparison.
  int64_t cpu_total = 0;
  for (const auto& [tid, wins] : stationary.wins) {
    cpu_total += cpu[tid];
  }

  std::vector<DriftRow> rows;
  for (const auto& [tid, wins] : stationary.wins) {
    DriftRow row;
    row.tid = tid;
    const auto nit = names.find(tid);
    row.name = nit != names.end() ? trace.Name(nit->second) : "";
    row.wins = wins;
    row.cpu_ns = cpu[tid];
    if (cpu_total > 0) {
      row.cpu_share = static_cast<double>(row.cpu_ns) /
                      static_cast<double>(cpu_total);
    }
    const auto vit = stationary.values.find(tid);
    if (vit != stationary.values.end() && stationary.modal_total > 0) {
      row.ticket_share = static_cast<double>(vit->second) /
                         static_cast<double>(stationary.modal_total);
    }
    row.drift = row.cpu_share - row.ticket_share;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderEvent(const TraceFile& trace, const Event& e) {
  std::ostringstream out;
  out << etrace::EventTypeName(e.type) << " t=" << e.t_ns << "ns a=" << e.a
      << " b=" << e.b;
  if (e.name != 0) {
    out << " name='" << trace.Name(e.name) << "'";
  }
  out << " v1=" << e.v1 << " v2=" << e.v2 << " v3=" << e.v3
      << " flags=" << e.flags;
  return out.str();
}

DiffResult DiffTraces(const TraceFile& a, const TraceFile& b) {
  DiffResult result;
  const auto differ = [&result](const std::string& field, size_t index,
                                std::string lhs, std::string rhs) {
    result.identical = false;
    result.field = field;
    result.index = index;
    result.lhs = std::move(lhs);
    result.rhs = std::move(rhs);
  };

  if (a.version != b.version) {
    differ("version", 0, std::to_string(a.version),
           std::to_string(b.version));
    return result;
  }
  if (a.mask != b.mask) {
    differ("mask", 0, std::to_string(a.mask), std::to_string(b.mask));
    return result;
  }
  if (a.seed != b.seed) {
    differ("seed", 0, std::to_string(a.seed), std::to_string(b.seed));
    return result;
  }
  const size_t nstrings = std::min(a.strings.size(), b.strings.size());
  for (size_t i = 0; i < nstrings; ++i) {
    if (a.strings[i] != b.strings[i]) {
      differ("strings", i, a.strings[i], b.strings[i]);
      return result;
    }
  }
  if (a.strings.size() != b.strings.size()) {
    differ("strings.size", nstrings, std::to_string(a.strings.size()),
           std::to_string(b.strings.size()));
    return result;
  }
  const size_t nevents = std::min(a.events.size(), b.events.size());
  for (size_t i = 0; i < nevents; ++i) {
    const Event& ea = a.events[i];
    const Event& eb = b.events[i];
    if (ea.t_ns != eb.t_ns || ea.v1 != eb.v1 || ea.v2 != eb.v2 ||
        ea.v3 != eb.v3 || ea.a != eb.a || ea.b != eb.b ||
        ea.name != eb.name || ea.type != eb.type || ea.flags != eb.flags) {
      differ("events", i, RenderEvent(a, ea), RenderEvent(b, eb));
      return result;
    }
  }
  if (a.events.size() != b.events.size()) {
    differ("events.size", nevents, std::to_string(a.events.size()),
           std::to_string(b.events.size()));
    return result;
  }
  if (a.overwritten != b.overwritten) {
    differ("overwritten", 0, std::to_string(a.overwritten),
           std::to_string(b.overwritten));
  }
  return result;
}

int CmdRecord(const Flags& flags) {
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "tracectl record: --out=PATH is required\n");
    return 2;
  }
  std::vector<int64_t> tickets;
  {
    const std::string spec = flags.GetString("tickets", "300:200:100");
    std::istringstream in(spec);
    std::string part;
    while (std::getline(in, part, ':')) {
      const int64_t amount = std::strtoll(part.c_str(), nullptr, 10);
      if (amount <= 0) {
        std::fprintf(stderr, "tracectl record: bad --tickets entry '%s'\n",
                     part.c_str());
        return 2;
      }
      tickets.push_back(amount);
    }
    if (tickets.empty()) {
      std::fprintf(stderr, "tracectl record: --tickets must be non-empty\n");
      return 2;
    }
  }
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const std::string backend = flags.GetString("backend", "list");
  if (backend != "list" && backend != "tree") {
    std::fprintf(stderr, "tracectl record: --backend must be list|tree\n");
    return 2;
  }

  uint32_t mask = etrace::kDefaultCategories;
  if (flags.GetBool("snapshots", false)) {
    mask |= etrace::kCatLotterySnapshot;
  }
  const auto capacity = static_cast<size_t>(
      flags.GetInt("capacity", static_cast<int64_t>(size_t{1} << 20)));
  etrace::TraceBuffer trace(capacity, mask);
  trace.set_seed(seed);

  obs::Registry registry;
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  sopts.backend =
      backend == "tree" ? RunQueueBackend::kTree : RunQueueBackend::kList;
  sopts.metrics = &registry;
  sopts.trace = &trace;
  LotteryScheduler scheduler(sopts);
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(flags.GetInt("quantum-ms", 100));
  kopts.metrics = &registry;
  kopts.trace = &trace;
  Kernel kernel(&scheduler, kopts);

  for (size_t i = 0; i < tickets.size(); ++i) {
    const ThreadId tid =
        kernel.Spawn("t" + std::to_string(i), std::make_unique<ComputeTask>());
    scheduler.FundThread(tid, scheduler.table().base(), tickets[i]);
  }
  kernel.RunFor(SimDuration::Seconds(flags.GetInt("seconds", 10)));

  trace.WriteToFile(out_path);
  std::printf("wrote %s: %zu events (%llu overwritten), %zu strings\n",
              out_path.c_str(), trace.size(),
              static_cast<unsigned long long>(trace.overwritten()),
              trace.strings().size());
  return 0;
}

int Convert(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "tracectl convert: need an input trace path\n");
    return 2;
  }
  const std::string in_path = args[1];
  std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    out_path = in_path + ".json";
  }
  const TraceFile trace = TraceFile::Load(in_path);
  obs::WriteFile(out_path, etrace::ToChromeTraceJson(trace));
  std::printf("wrote %s (%zu events) — open in https://ui.perfetto.dev or "
              "chrome://tracing\n",
              out_path.c_str(), trace.events.size());
  return 0;
}

int Summarize(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr, "tracectl summarize: need an input trace path\n");
    return 2;
  }
  const TraceFile trace = TraceFile::Load(args[1]);

  std::printf("trace:        %s\n", args[1].c_str());
  std::printf("seed:         %llu\n",
              static_cast<unsigned long long>(trace.seed));
  std::printf("mask:         0x%x\n", trace.mask);
  std::printf("events:       %zu (%llu overwritten)\n", trace.events.size(),
              static_cast<unsigned long long>(trace.overwritten));
  std::printf("strings:      %zu\n", trace.strings.size());

  std::vector<uint64_t> counts(etrace::kNumEventTypes, 0);
  for (const Event& e : trace.events) {
    if (e.type < etrace::kNumEventTypes) {
      ++counts[e.type];
    }
  }
  std::printf("\nevent counts:\n");
  for (uint16_t type = 1; type < etrace::kNumEventTypes; ++type) {
    if (counts[type] > 0) {
      std::printf("  %-18s %llu\n", etrace::EventTypeName(type),
                  static_cast<unsigned long long>(counts[type]));
    }
  }

  const std::vector<DriftRow> rows = ComputeDrift(trace);
  if (!rows.empty()) {
    std::printf("\nCPU share vs ticket share (stationary phase):\n");
    TextTable table({"tid", "name", "wins", "cpu (ms)", "cpu share",
                     "ticket share", "drift"});
    for (const DriftRow& row : rows) {
      table.AddRow({std::to_string(row.tid), row.name,
                    std::to_string(row.wins),
                    FormatDouble(static_cast<double>(row.cpu_ns) / 1e6, 1),
                    FormatDouble(row.cpu_share, 4),
                    FormatDouble(row.ticket_share, 4),
                    FormatDouble(row.drift, 4)});
    }
    std::ostringstream rendered;
    table.Print(rendered);
    std::fputs(rendered.str().c_str(), stdout);
  }

  const DecisionAudit audit = AuditDecisions(trace);
  std::printf("\ndecision audit:\n");
  std::printf("  decisions            %llu (%llu zero-funding fallbacks)\n",
              static_cast<unsigned long long>(audit.decisions),
              static_cast<unsigned long long>(audit.fallbacks));
  std::printf("  replayed             %llu, mismatches %llu%s\n",
              static_cast<unsigned long long>(audit.replay_checked),
              static_cast<unsigned long long>(audit.replay_mismatches),
              audit.replay_checked == 0
                  ? " (record with --snapshots to enable replay)"
                  : "");
  if (audit.df >= 1) {
    std::printf("  chi-square           %.3f vs critical %.3f "
                "(df=%d, alpha=0.01, n=%llu at total=%llu) -> %s\n",
                audit.chi_square, audit.chi_critical, audit.df,
                static_cast<unsigned long long>(audit.stationary_decisions),
                static_cast<unsigned long long>(audit.stationary_total),
                audit.chi_ok ? "PASS" : "FAIL");
  } else {
    std::printf("  chi-square           skipped (fewer than two funded "
                "threads in the stationary phase)\n");
  }

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    double max_abs_drift = 0.0;
    for (const DriftRow& row : rows) {
      max_abs_drift = std::max(max_abs_drift, std::abs(row.drift));
    }
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("bench").String("tracectl_summarize");
    w.Key("metadata").BeginObject();
    w.Key("seed").Uint(trace.seed);
    w.Key("mask").Uint(trace.mask);
    w.EndObject();
    w.Key("metrics").BeginObject();
    w.Key("events").Uint(trace.events.size());
    w.Key("overwritten").Uint(trace.overwritten);
    w.Key("strings").Uint(trace.strings.size());
    for (uint16_t type = 1; type < etrace::kNumEventTypes; ++type) {
      w.Key(std::string("count_") + etrace::EventTypeName(type))
          .Uint(counts[type]);
    }
    w.Key("decisions").Uint(audit.decisions);
    w.Key("fallbacks").Uint(audit.fallbacks);
    w.Key("replay_checked").Uint(audit.replay_checked);
    w.Key("replay_mismatches").Uint(audit.replay_mismatches);
    w.Key("stationary_decisions").Uint(audit.stationary_decisions);
    w.Key("chi_square").Double(audit.chi_square);
    w.Key("chi_critical").Double(audit.chi_critical);
    w.Key("chi_ok").Uint(audit.chi_ok ? 1 : 0);
    w.Key("max_abs_drift").Double(max_abs_drift);
    w.EndObject();
    w.Key("percentiles").BeginObject().EndObject();
    w.EndObject();
    obs::WriteFile(json_path, w.str());
    std::printf("\nwrote JSON summary to %s\n", json_path.c_str());
  }

  if (audit.replay_mismatches > 0) {
    return 1;  // recorded winners contradict their own decision inputs
  }
  if (!audit.chi_ok && flags.GetBool("strict", false)) {
    return 1;
  }
  return 0;
}

int Diff(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "tracectl diff: need two trace paths\n");
    return 2;
  }
  const TraceFile a = TraceFile::Load(args[1]);
  const TraceFile b = TraceFile::Load(args[2]);
  const DiffResult result = DiffTraces(a, b);
  if (result.identical) {
    std::printf("identical: %zu events, %zu strings\n", a.events.size(),
                a.strings.size());
    return 0;
  }
  std::printf("DIVERGED at %s[%zu]\n", result.field.c_str(), result.index);
  std::printf("  < %s\n", result.lhs.c_str());
  std::printf("  > %s\n", result.rhs.c_str());
  if (result.field == "events") {
    // A little chronological context before the split helps localize
    // *why* two runs forked (usually a decision with a different winner).
    const size_t start = result.index >= 3 ? result.index - 3 : 0;
    std::printf("  common prefix tail:\n");
    for (size_t i = start; i < result.index; ++i) {
      std::printf("    [%zu] %s\n", i, RenderEvent(a, a.events[i]).c_str());
    }
  }
  return 1;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto& args = flags.positional();
  const std::string command = args.empty() ? "" : args[0];
  if (command.empty() || flags.GetBool("help", false)) {
    std::printf(
        "usage: tracectl <command> [args]\n"
        "  record    --out=PATH [--seed=N] [--backend=list|tree]\n"
        "            [--tickets=A:B:...] [--seconds=N] [--quantum-ms=N]\n"
        "            [--snapshots] [--capacity=N]\n"
        "  convert   TRACE [--out=PATH.json]   (Perfetto / chrome://tracing)\n"
        "  summarize TRACE [--json=PATH] [--strict]\n"
        "  diff      TRACE_A TRACE_B\n");
    return flags.GetBool("help", false) ? 0 : 2;
  }
  if (command == "record") {
    return CmdRecord(flags);
  }
  if (command == "convert") {
    return Convert(flags);
  }
  if (command == "summarize") {
    return Summarize(flags);
  }
  if (command == "diff") {
    return Diff(flags);
  }
  std::fprintf(stderr, "tracectl: unknown command '%s' (try --help)\n",
               command.c_str());
  return 2;
}

}  // namespace tracectl
}  // namespace lottery
