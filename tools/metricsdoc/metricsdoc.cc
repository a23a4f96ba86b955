#include "tools/metricsdoc/metricsdoc.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/util/flags.h"

namespace lottery {
namespace metricsdoc {

namespace {

namespace fs = std::filesystem;

// The documented dynamic-name families, and how many dynamic creation sites
// each source file is expected to contain per kind. A new dynamic site
// anywhere in src/ that these tables do not account for is an error: either
// document the family here (and regenerate docs/METRICS.md) or make the
// name a literal.
const Family kFamilies[] = {
    {"smp.cpu<i>.dispatches", "counter", "src/sched/smp/smp_scheduler.cc",
     "dispatches issued by CPU i's partition"},
    {"smp.cpu<i>.steals_in", "counter", "src/sched/smp/smp_scheduler.cc",
     "threads CPU i stole from peers"},
    {"smp.cpu<i>.steals_out", "counter", "src/sched/smp/smp_scheduler.cc",
     "threads stolen away from CPU i"},
    {"cpu<i>.util", "series", "src/obs/timeseries/sampler.cc",
     "per-CPU utilization over each sample interval"},
    {"cpu<i>.queued", "series", "src/obs/timeseries/sampler.cc",
     "per-CPU run-queue depth at sample time (SMP attach only)"},
    {"cpu<i>.steals_in", "series", "src/obs/timeseries/sampler.cc",
     "cumulative steals into CPU i at sample time (SMP attach only)"},
    {"client.<label>.lag_ms", "series", "src/obs/timeseries/sampler.cc",
     "fairness lag (received − entitled) of a tracked client"},
    {"client.<label>.share", "series", "src/obs/timeseries/sampler.cc",
     "client's share of group service in each interval"},
    {"client.<label>.entitled_share", "series",
     "src/obs/timeseries/sampler.cc",
     "client's base-ticket share of the tracked runnable set"},
    {"client.<label>.since_dispatch_ms", "series",
     "src/obs/timeseries/sampler.cc",
     "time since the client last held a CPU (0 while blocked)"},
    {"rate.<counter>", "series", "src/obs/timeseries/sampler.cc",
     "rate (Hz) of any watched registry counter (Sampler::WatchCounter)"},
};

// (file suffix, kind) -> expected dynamic creation sites. Keyed by suffix so
// the table is independent of where the repo is checked out.
const std::pair<std::pair<const char*, const char*>, size_t>
    kDynamicAllowance[] = {
        {{"src/sched/smp/smp_scheduler.cc", "counter"}, 3},
        // AttachScheduler resolves smp.cpu<i>.steals_in; WatchCounter
        // resolves a caller-chosen existing counter (documented as
        // rate.<counter>).
        {{"src/obs/timeseries/sampler.cc", "counter"}, 2},
        {{"src/obs/timeseries/sampler.cc", "series"}, 9},
};

struct Pattern {
  const char* needle;
  const char* kind;
};

// Method-call spellings only — `FindCounter(`/`CounterValues(` etc. never
// match because the needles are lowercase and anchored on the call name.
const Pattern kPatterns[] = {
    {"counter(", "counter"},
    {"histogram(", "histogram"},
    {"AddSeries(", "series"},
};

bool IdentifierChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

bool HygienicName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  size_t i = 0;
  while (i < name.size()) {
    const char c = name[i];
    if (c == '<') {  // placeholder segment of a family name
      const size_t close = name.find('>', i);
      if (close == std::string::npos) {
        return false;
      }
      i = close + 1;
      continue;
    }
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
          c == '.')) {
      return false;
    }
    ++i;
  }
  return true;
}

namespace {

void ScanFile(const std::string& rel_path, const std::string& text,
              std::map<std::pair<std::string, std::string>, std::string>&
                  statics,
              std::map<std::pair<std::string, std::string>, size_t>& dynamics,
              std::vector<std::string>& errors) {
  for (const Pattern& pattern : kPatterns) {
    const std::string needle = pattern.needle;
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const size_t call = pos;
      pos += needle.size();
      // Word boundary: reject e.g. `zcounter(` and qualified definitions
      // are filtered below via the argument shape.
      if (call > 0 && IdentifierChar(text[call - 1])) {
        continue;
      }
      size_t arg = pos;
      while (arg < text.size() &&
             (text[arg] == ' ' || text[arg] == '\n' || text[arg] == '\t')) {
        ++arg;
      }
      if (arg >= text.size()) {
        continue;
      }
      // Declarations/definitions (`AddSeries(const std::string& ...)`) and
      // zero-arg forms are not creation sites.
      if (text.compare(arg, 6, "const ") == 0 || text[arg] == ')') {
        continue;
      }
      if (text[arg] != '"') {
        dynamics[{rel_path, pattern.kind}] += 1;
        continue;
      }
      const size_t close = text.find('"', arg + 1);
      if (close == std::string::npos) {
        errors.push_back(rel_path + ": unterminated metric literal");
        break;
      }
      const std::string name = text.substr(arg + 1, close - arg - 1);
      size_t after = close + 1;
      while (after < text.size() &&
             (text[after] == ' ' || text[after] == '\n' ||
              text[after] == '\t')) {
        ++after;
      }
      if (after < text.size() && text[after] == ')') {
        auto& slot = statics[{pattern.kind, name}];
        if (slot.empty()) {
          slot = rel_path;
        }
      } else {
        // A literal prefix concatenated with computed segments — dynamic.
        dynamics[{rel_path, pattern.kind}] += 1;
      }
    }
  }
}

}  // namespace

Inventory CollectInventory(const std::string& src_root) {
  Inventory inventory;
  inventory.families.assign(std::begin(kFamilies), std::end(kFamilies));

  const fs::path root = fs::path(src_root) / "src";
  std::map<std::pair<std::string, std::string>, std::string> statics;
  std::map<std::pair<std::string, std::string>, size_t> dynamics;

  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel =
        fs::relative(path, fs::path(src_root)).generic_string();
    ScanFile(rel, buffer.str(), statics, dynamics, inventory.errors);
    ++inventory.files_scanned;
  }

  for (const auto& [key, file] : statics) {
    Metric metric;
    metric.kind = key.first;
    metric.name = key.second;
    metric.file = file;
    if (!HygienicName(metric.name)) {
      inventory.errors.push_back("unhygienic " + metric.kind + " name \"" +
                                 metric.name + "\" in " + metric.file +
                                 " (alphabet is [a-z0-9_.]+)");
    }
    inventory.metrics.push_back(std::move(metric));
  }
  std::sort(inventory.metrics.begin(), inventory.metrics.end(),
            [](const Metric& a, const Metric& b) {
              return std::tie(a.kind, a.name) < std::tie(b.kind, b.name);
            });
  // Cross-kind collisions: one name must mean one thing.
  for (size_t i = 0; i + 1 < inventory.metrics.size(); ++i) {
    for (size_t j = i + 1; j < inventory.metrics.size(); ++j) {
      if (inventory.metrics[i].name != inventory.metrics[j].name) {
        break;
      }
      inventory.errors.push_back(
          "name \"" + inventory.metrics[i].name + "\" used as both " +
          inventory.metrics[i].kind + " and " + inventory.metrics[j].kind);
    }
  }

  for (const Family& family : inventory.families) {
    if (!HygienicName(family.name)) {
      inventory.errors.push_back("unhygienic family name \"" + family.name +
                                 "\"");
    }
  }

  // Dynamic-site coverage: every (file, kind) with computed names must match
  // the allowance table exactly — additions and removals both flag.
  std::map<std::pair<std::string, std::string>, size_t> expected;
  for (const auto& [key, count] : kDynamicAllowance) {
    expected[{key.first, key.second}] = count;
  }
  for (const auto& [key, count] : dynamics) {
    inventory.dynamic_sites += count;
    const auto it = expected.find(key);
    const size_t want = it == expected.end() ? 0 : it->second;
    if (count != want) {
      inventory.errors.push_back(
          key.first + ": " + std::to_string(count) + " dynamic " +
          key.second + " site(s), table expects " + std::to_string(want) +
          " — document the family in tools/metricsdoc/metricsdoc.cc");
    }
    if (it != expected.end()) {
      expected.erase(it);
    }
  }
  for (const auto& [key, count] : expected) {
    inventory.errors.push_back(
        key.first + ": expected " + std::to_string(count) + " dynamic " +
        key.second + " site(s), found none — prune the allowance table");
  }
  return inventory;
}

std::string GenerateMarkdown(const Inventory& inventory) {
  std::string out;
  out +=
      "# Metric inventory\n"
      "\n"
      "Generated by `metricsdoc` from the creation sites in `src/`; the\n"
      "hygiene gate (tests/metrics_doc_test.cc) fails CI when this file\n"
      "drifts from the code. Regenerate with:\n"
      "\n"
      "    metricsdoc --root=. --out=docs/METRICS.md\n"
      "\n"
      "Names use the alphabet `[a-z0-9_.]+`. Angle-bracket segments are\n"
      "computed at runtime (per CPU index, per tracked client label).\n";
  const char* const kKinds[] = {"counter", "histogram", "series"};
  const char* const kTitles[] = {"Counters", "Histograms",
                                 "Timeseries series"};
  for (size_t k = 0; k < 3; ++k) {
    out += "\n## " + std::string(kTitles[k]) + "\n\n";
    out += "| name | defined in |\n|---|---|\n";
    for (const Metric& metric : inventory.metrics) {
      if (metric.kind == kKinds[k]) {
        out += "| `" + metric.name + "` | `" + metric.file + "` |\n";
      }
    }
    for (const Family& family : inventory.families) {
      if (family.kind == kKinds[k]) {
        out += "| `" + family.name + "` | `" + family.file + "` |\n";
      }
    }
  }
  out += "\n## Dynamic families\n\n";
  out += "| name | kind | meaning |\n|---|---|---|\n";
  for (const Family& family : inventory.families) {
    out += "| `" + family.name + "` | " + family.kind + " | " + family.note +
           " |\n";
  }
  return out;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string root = flags.GetString("root", ".");
  const std::string out_path = flags.GetString("out", "");
  const std::string check_path = flags.GetString("check", "");
  if (out_path.empty() == check_path.empty()) {
    std::fprintf(stderr,
                 "usage: metricsdoc --root=DIR (--out=PATH | --check=PATH)\n");
    return 2;
  }
  const Inventory inventory = CollectInventory(root);
  for (const std::string& error : inventory.errors) {
    std::fprintf(stderr, "metricsdoc: %s\n", error.c_str());
  }
  if (!inventory.ok()) {
    return 1;
  }
  const std::string markdown = GenerateMarkdown(inventory);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    out << markdown;
    std::printf("metricsdoc: wrote %s (%zu metrics, %zu families, %zu files"
                " scanned)\n",
                out_path.c_str(), inventory.metrics.size(),
                inventory.families.size(), inventory.files_scanned);
    return 0;
  }
  std::ifstream in(check_path, std::ios::binary);
  std::ostringstream committed;
  committed << in.rdbuf();
  if (!in.good() && !in.eof()) {
    std::fprintf(stderr, "metricsdoc: cannot read %s\n", check_path.c_str());
    return 1;
  }
  if (committed.str() != markdown) {
    std::fprintf(stderr,
                 "metricsdoc: %s is stale — regenerate with --out\n",
                 check_path.c_str());
    return 1;
  }
  std::printf("metricsdoc: %s is current (%zu metrics)\n", check_path.c_str(),
              inventory.metrics.size());
  return 0;
}

}  // namespace metricsdoc
}  // namespace lottery
