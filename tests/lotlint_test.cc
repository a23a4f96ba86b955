// Golden-file tests for lotlint (tools/lotlint). Each fixture in
// tests/lotlint_fixtures/ carries known violations; the tests pin the
// exact rule/line sets so any analyzer change that adds false positives or
// loses true positives fails here before it fails on the real tree.
//
// Fixtures use a .txt suffix so the repo-wide `lotlint src bench tests`
// run (which the static-analysis CI job keeps at zero findings) never
// scans them; the tests re-map them to virtual src/core/ paths to put them
// in rule scope.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lotlint/lotlint.h"

namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(LOTLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// (rule, line) pairs for compact golden comparison.
std::multiset<std::pair<std::string, int>> RuleLines(
    const lotlint::Report& report) {
  std::multiset<std::pair<std::string, int>> out;
  for (const lotlint::Finding& f : report.findings) {
    out.insert({f.rule, f.line});
  }
  return out;
}

TEST(LotlintNondet, FlagsRngAndClocksSuppressesAudited) {
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/core/nondet.cc", ReadFixture("nondet.cc.txt"));
  const std::multiset<std::pair<std::string, int>> expected = {
      {"D1-nondet", 12},     // std::random_device
      {"D1-nondet", 13},     // srand
      {"D1-nondet", 14},     // rand
      {"D1-wallclock", 18},  // time(nullptr)
      {"D1-wallclock", 19},  // system_clock
      {"D1-wallclock", 20},  // steady_clock (src/core scope)
  };
  EXPECT_EQ(RuleLines(report), expected);
  EXPECT_EQ(report.suppressed, 1);  // the wallclock-ok line
}

TEST(LotlintNondet, BenchScopeAllowsSteadyClock) {
  const lotlint::Report report =
      lotlint::AnalyzeFile("bench/nondet.cc", ReadFixture("nondet.cc.txt"));
  // steady_clock is legal in bench harness code; rand/srand/random_device,
  // time() and system_clock stay banned everywhere — the line-20
  // steady_clock finding from the src/core scan must be the only one gone.
  EXPECT_EQ(RuleLines(report),
            (std::multiset<std::pair<std::string, int>>{{"D1-nondet", 12},
                                                        {"D1-nondet", 13},
                                                        {"D1-nondet", 14},
                                                        {"D1-wallclock", 18},
                                                        {"D1-wallclock", 19}}));
}

TEST(LotlintUnordered, CrossFileDeclThenIterate) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/core/unordered.h", ReadFixture("unordered.h.txt")},
       {"src/core/unordered.cc", ReadFixture("unordered.cc.txt")}});
  const std::multiset<std::pair<std::string, int>> expected = {
      {"D2-unordered-iter", 7},   // by_id_ (unordered_map)
      {"D2-unordered-iter", 10},  // dirty_ (unordered_set)
      {"D2-unordered-iter", 13},  // by_ptr_ (pointer-keyed std::map)
  };
  EXPECT_EQ(RuleLines(report), expected);
  EXPECT_EQ(report.suppressed, 1);  // the ordered-ok annotated loop
}

TEST(LotlintUnordered, StemScopingKeepsUnrelatedFilesClean) {
  // Same iteration code, but the declaring header has a different stem:
  // the decls must not leak onto unrelated files.
  const lotlint::Report report = lotlint::Analyze(
      {{"src/core/other.h", ReadFixture("unordered.h.txt")},
       {"src/core/unordered.cc", ReadFixture("unordered.cc.txt")}});
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().file << ":" << report.findings.front().line;
}

TEST(LotlintUnordered, OutOfScopeDirUnflagged) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/obs/unordered.h", ReadFixture("unordered.h.txt")},
       {"src/obs/unordered.cc", ReadFixture("unordered.cc.txt")}});
  EXPECT_TRUE(report.findings.empty());
}

TEST(LotlintFloat, FlagsTicketPathDoubles) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/core/floatmath.cc", ReadFixture("floatmath.cc.txt"));
  const std::multiset<std::pair<std::string, int>> expected = {
      {"D3-float-ticket", 6},
      {"D3-float-ticket", 7},
      {"D3-float-ticket", 10},
      {"D3-float-ticket", 11},
  };
  EXPECT_EQ(RuleLines(report), expected);
  EXPECT_EQ(report.suppressed, 2);  // float-ok signature + its cast line
}

TEST(LotlintFloat, BenchScopeIsExempt) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "bench/floatmath.cc", ReadFixture("floatmath.cc.txt"));
  EXPECT_TRUE(report.findings.empty());
}

TEST(LotlintMutator, RequiresInvariantCheckInDefinitions) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/core/mutator.cc", ReadFixture("mutator.cc.txt"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "S1-mutator-invariant");
  EXPECT_EQ(report.findings[0].line, 6);  // CurrencyTable::Fund
  EXPECT_NE(report.findings[0].message.find("CurrencyTable::Fund"),
            std::string::npos);
  EXPECT_EQ(report.suppressed, 1);  // invariant-ok DestroyTicket
}

TEST(LotlintClean, CleanFileHasNoFindings) {
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/core/clean.cc", ReadFixture("clean.cc.txt"));
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LotlintWaivers, FileWideWaiverSuppressesWholeFile) {
  const std::string content =
      "// lotlint: file float-ok — fixture\n"
      "double a;\n"
      "double b;\n";
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/core/waived.cc", content);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 2);
}

TEST(LotlintWaivers, WrongKeywordDoesNotSuppress) {
  const std::string content = "double a;  // lotlint: ordered-ok\n";
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/core/waived.cc", content);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "D3-float-ticket");
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LotlintLexer, IgnoresCommentsAndStrings) {
  const std::string content =
      "// rand() in a comment\n"
      "/* std::random_device in a block comment */\n"
      "const char* s = \"rand() time(0) system_clock\";\n"
      "const char* r = R\"(rand() inside a raw string)\";\n";
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/core/comments.cc", content);
  EXPECT_TRUE(report.findings.empty());
}

TEST(LotlintJson, SchemaStableOutput) {
  lotlint::Report report = lotlint::AnalyzeFile(
      "src/core/floatmath.cc", ReadFixture("floatmath.cc.txt"));
  const std::string json = lotlint::ReportToJson(report);
  // Key order and shape are part of the contract: CI diffs this output.
  EXPECT_EQ(json.find("{\n  \"findings\": ["), 0u);
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 2"), std::string::npos);
  EXPECT_NE(
      json.find("\"file\": \"src/core/floatmath.cc\", \"line\": 6, "
                "\"rule\": \"D3-float-ticket\""),
      std::string::npos);
  // Empty report: stable empty shape.
  const std::string empty = lotlint::ReportToJson(lotlint::Report{});
  EXPECT_EQ(empty,
            "{\n  \"findings\": [],\n  \"count\": 0,\n  \"suppressed\": 0,\n"
            "  \"baselined\": 0,\n  \"stale\": []\n}\n");
}

TEST(LotlintUnordered, IncludeGraphReachesSubdirHeaders) {
  // The decl lives in src/core/detail/ptr_map.h; the iterating file is
  // src/core/user.cc — different stems, matched only through the quoted
  // include. stranger.cc iterates the same name without the include and
  // must stay clean.
  const lotlint::Report report = lotlint::Analyze(
      {{"src/core/detail/ptr_map.h", ReadFixture("detail_ptr_map.h.txt")},
       {"src/core/user.cc", ReadFixture("detail_user.cc.txt")},
       {"src/core/stranger.cc", ReadFixture("detail_stranger.cc.txt")}});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "D2-unordered-iter");
  EXPECT_EQ(report.findings[0].file, "src/core/user.cc");
  EXPECT_EQ(report.findings[0].line, 10);
}

TEST(LotlintCallGraph, TransitiveRulesReachHelpersAcrossTus) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/sched/cg1_entry.cc", ReadFixture("cg1_entry.cc.txt")},
       {"src/obs/cg1_helper.cc", ReadFixture("cg1_helper.cc.txt")}});
  // ObserveLatency (reached from PickNext) uses a wall clock and iterates
  // an unordered_map; MixWeights (reached from Draw, a ticket-math root)
  // uses double. NotReached uses steady_clock but is never called — the
  // rules must stay quiet about it.
  const std::multiset<std::pair<std::string, int>> expected = {
      {"CG1-wallclock", 13},
      {"CG1-unordered-iter", 14},
      {"CG1-float", 21},
  };
  EXPECT_EQ(RuleLines(report), expected);
  for (const lotlint::Finding& f : report.findings) {
    EXPECT_EQ(f.file, "src/obs/cg1_helper.cc");
  }
}

TEST(LotlintCallGraph, ExportsFunctionsAndEdges) {
  // A test file calls NotReached, and Recurse calls only itself.
  const lotlint::Report report = lotlint::Analyze(
      {{"src/sched/cg1_entry.cc", ReadFixture("cg1_entry.cc.txt")},
       {"src/obs/cg1_helper.cc", ReadFixture("cg1_helper.cc.txt")},
       {"tests/cg1_test.cc",
        "void Check() { NotReached(1); }\n"
        "void Recurse(int n) { if (n > 0) Recurse(n - 1); }\n"}});
  bool saw_observe = false, saw_not_reached = false, saw_recurse = false;
  for (const lotlint::FunctionNode& f : report.functions) {
    if (f.name == "ObserveLatency") {
      saw_observe = true;
      EXPECT_TRUE(f.reachable);
      EXPECT_EQ(f.root, "PickNext");
      EXPECT_EQ(f.caller_dirs, std::vector<std::string>{"src"});
    }
    if (f.name == "NotReached") {
      saw_not_reached = true;
      EXPECT_FALSE(f.reachable);
      EXPECT_EQ(f.root, "");
      EXPECT_EQ(f.caller_dirs, std::vector<std::string>{"tests"});
    }
    if (f.name == "Recurse") {
      saw_recurse = true;
      EXPECT_TRUE(f.caller_dirs.empty());
    }
  }
  EXPECT_TRUE(saw_observe);
  EXPECT_TRUE(saw_not_reached);
  EXPECT_TRUE(saw_recurse);
  bool saw_edge = false;
  for (const lotlint::CallEdge& e : report.edges) {
    if (e.caller == "PickNext" && e.callee == "ObserveLatency") {
      saw_edge = true;
      EXPECT_EQ(e.file, "src/sched/cg1_entry.cc");
      EXPECT_EQ(e.line, 10);
    }
  }
  EXPECT_TRUE(saw_edge);
  const std::string json = lotlint::CallGraphToJson(report);
  EXPECT_EQ(json.find("{\n  \"functions\": ["), 0u);
  EXPECT_NE(json.find("\"edges\": ["), std::string::npos);
  EXPECT_NE(json.find("\"root\": \"PickNext\""), std::string::npos);
  EXPECT_NE(json.find("\"caller_dirs\": [\"tests\"]"), std::string::npos);
  EXPECT_NE(json.find("\"caller_dirs\": []"), std::string::npos);
}

TEST(LotlintCallGraph, InitializerListCallsBelongToTheConstructor) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/sim/ctor_init.cc", ReadFixture("ctor_init.cc.txt")}});
  std::set<std::pair<std::string, std::string>> edges;
  for (const lotlint::CallEdge& e : report.edges) {
    edges.insert({e.caller, e.callee});
  }
  for (const char* callee : {"Seed", "economy", "Width", "Run"}) {
    EXPECT_EQ(edges.count({"Holder::Holder", callee}), 1u) << callee;
  }
  EXPECT_EQ(edges.count({"Holder::Run", "Tick"}), 1u);
  std::set<std::string> names;
  for (const lotlint::FunctionNode& f : report.functions) {
    names.insert(f.name);
    if (f.name == "Source::economy" || f.name == "Seed") {
      EXPECT_EQ(f.caller_dirs, std::vector<std::string>{"src"}) << f.name;
    }
  }
  const std::set<std::string> expected = {"Seed", "Source::economy",
                                          "Holder::Holder", "Holder::Run"};
  EXPECT_EQ(names, expected);
}

TEST(LotlintRng, SeedAndStreamDiscipline) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/core/rngstream.cc", ReadFixture("rngstream.cc.txt"));
  const std::multiset<std::pair<std::string, int>> expected = {
      {"R2-rng-stream", 18},  // bad_ draws without a stream annotation
      {"R1-rng-seed", 21},    // default-constructed temporary
      {"R2-rng-stream", 21},  // ...and its draw is unattributable
      {"R1-rng-seed", 24},    // FastRand local; never seeded
      {"R2-rng-stream", 25},
  };
  EXPECT_EQ(RuleLines(report), expected);
  // legacy_'s rng-seed-ok + DrawWaived's stream-ok; the stream(lottery)
  // annotation is a declaration, not a waiver, and counts for neither.
  EXPECT_EQ(report.suppressed, 2);
  EXPECT_TRUE(report.stale.empty());
}

TEST(LotlintRng, SmpBalanceStreamDiscipline) {
  // The SMP balancer's contract: every steal/price draw must ride a named
  // stream (balance for steal decisions, device for crossbar jitter) so
  // per-CPU dispatch sequences stay bit-identical under rebalance churn.
  // The fixture models the smp_scheduler idiom — annotated balance_rng_ /
  // xbar_rng_ draws pass; a migrant pick from an unannotated scratch RNG
  // and an unseeded temporary are the leaks R1/R2 must flag. The shared
  // walk's stream(caller) parameter makes R2 check the generator each call
  // passes: balance_rng_ passes, scratch_rng_ is the same leak one call
  // removed.
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/sched/smp/smp_steal.cc", ReadFixture("smp_balance_stream.cc.txt"));
  const std::multiset<std::pair<std::string, int>> expected = {
      {"R2-rng-stream", 29},  // scratch_rng_ draw has no stream annotation
      {"R1-rng-seed", 31},    // default-constructed FastRand temporary
      {"R2-rng-stream", 31},  // ...whose draw is unattributable
      {"R2-rng-stream", 39},  // scratch_rng_ passed to DrawWeighted
  };
  EXPECT_EQ(RuleLines(report), expected);
  // stream(balance)/stream(device) are declarations, not waivers.
  EXPECT_EQ(report.suppressed, 0);
  EXPECT_TRUE(report.stale.empty());
}

TEST(LotlintLockOrder, FlagsDirectAndInterproceduralCycles) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/sim/lockorder.cc", ReadFixture("lockorder.cc.txt"));
  // mu_a_/mu_b_ inverted directly (TakeAB vs TakeBA); mu_c_/mu_d_ inverted
  // through HelperTakesD while TakeCThenHelper holds mu_c_.
  const std::multiset<std::pair<std::string, int>> expected = {
      {"L1-lock-order", 14},
      {"L1-lock-order", 28},
  };
  EXPECT_EQ(RuleLines(report), expected);
}

TEST(LotlintTsa, FullyAnnotatedHeaderIsClean) {
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/sim/tsa_good.h", ReadFixture("tsa_good.h.txt"));
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().rule << "@" << report.findings.front().line;
}

TEST(LotlintTsa, CatchesStrippedAnnotations) {
  const lotlint::Report report =
      lotlint::AnalyzeFile("src/sim/tsa_bad.h", ReadFixture("tsa_bad.h.txt"));
  const std::multiset<std::pair<std::string, int>> expected = {
      {"L2-tsa", 8},   // CAPABILITY class without RELEASE-family methods
      {"L2-tsa", 14},  // Seq member with no GUARDED_BY(seq_)
  };
  EXPECT_EQ(RuleLines(report), expected);
}

TEST(LotlintFingerprint, StableAcrossLineChurn) {
  const std::string content = ReadFixture("floatmath.cc.txt");
  const lotlint::Report before =
      lotlint::AnalyzeFile("src/core/floatmath.cc", content);
  ASSERT_EQ(before.findings.size(), 4u);
  std::multiset<std::string> fps_before;
  for (const lotlint::Finding& f : before.findings) {
    ASSERT_EQ(f.fingerprint.size(), 16u);
    EXPECT_EQ(f.fingerprint.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    fps_before.insert(f.fingerprint);
  }
  // Shift every finding down three lines: fingerprints hash the rule, the
  // enclosing function and the normalized snippet, not the line number.
  const lotlint::Report after = lotlint::AnalyzeFile(
      "src/core/floatmath.cc", "//\n//\n//\n" + content);
  std::multiset<std::string> fps_after;
  for (const lotlint::Finding& f : after.findings) {
    fps_after.insert(f.fingerprint);
  }
  EXPECT_EQ(fps_before, fps_after);
}

TEST(LotlintBaseline, RoundTripSuppressesKnownFindings) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/core/floatmath.cc", ReadFixture("floatmath.cc.txt")}};
  const lotlint::Report first = lotlint::Analyze(files);
  ASSERT_EQ(first.findings.size(), 4u);
  lotlint::Options options;
  options.baseline = lotlint::ParseBaseline(lotlint::BaselineToJson(first));
  const lotlint::Report second = lotlint::Analyze(files, options);
  EXPECT_TRUE(second.findings.empty());
  EXPECT_EQ(second.baselined, 4);
  const std::string json = lotlint::ReportToJson(second);
  EXPECT_NE(json.find("\"baselined\": 4"), std::string::npos);
}

TEST(LotlintStale, ReportsWaiversThatSuppressNothing) {
  const lotlint::Report report = lotlint::AnalyzeFile(
      "src/core/stale.cc", "int x = 1;  // lotlint: nondet-ok\n");
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.stale.size(), 1u);
  EXPECT_EQ(report.stale[0].file, "src/core/stale.cc");
  EXPECT_EQ(report.stale[0].line, 1);
  EXPECT_EQ(report.stale[0].keyword, "nondet-ok");
  // A waiver that fires is not stale.
  const lotlint::Report used = lotlint::AnalyzeFile(
      "src/core/used.cc", "double a;  // lotlint: float-ok audited\n");
  EXPECT_TRUE(used.findings.empty());
  EXPECT_EQ(used.suppressed, 1);
  EXPECT_TRUE(used.stale.empty());
}

// The timeseries sampler contract: Sample() runs inside RunUntil, so a wall
// clock anywhere in the sample path is a CG1 finding even though
// src/obs/timeseries/ is outside the D1-wallclock base scope — and the
// clean, sim-time-only shape must stay rule-silent despite being reachable.
TEST(LotlintSampler, WallClockInSamplePathIsCaught) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/sim/sampler_entry.cc", ReadFixture("sampler_entry.cc.txt")},
       {"src/obs/timeseries/sampler_fix.cc",
        ReadFixture("sampler_dirty.cc.txt")}});
  const std::multiset<std::pair<std::string, int>> expected = {
      {"CG1-wallclock", 15},  // steady_clock::now() inside Sample()
  };
  EXPECT_EQ(RuleLines(report), expected);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/obs/timeseries/sampler_fix.cc");
}

TEST(LotlintSampler, SimTimeOnlySamplePathIsClean) {
  const lotlint::Report report = lotlint::Analyze(
      {{"src/sim/sampler_entry.cc", ReadFixture("sampler_entry.cc.txt")},
       {"src/obs/timeseries/sampler_fix.cc",
        ReadFixture("sampler_clean.cc.txt")}});
  EXPECT_TRUE(report.findings.empty()) << report.findings.size();
  // Sample is genuinely on the RunUntil path — the clean result must come
  // from the code being clean, not from the call graph missing the edge.
  bool saw_sample = false;
  for (const lotlint::FunctionNode& f : report.functions) {
    if (f.name == "Sample") {
      saw_sample = true;
      EXPECT_TRUE(f.reachable);
      EXPECT_EQ(f.root, "RunUntil");
    }
  }
  EXPECT_TRUE(saw_sample);
}

}  // namespace
