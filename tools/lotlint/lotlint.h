// lotlint — the project's determinism & invariant static-analysis pass.
//
// A self-contained multi-pass token-level analyzer (own lexer, include
// graph, conservative cross-TU call graph — no libclang) that enforces the
// rules in DESIGN.md "Determinism contract v2":
//
//   D1-nondet     no nondeterministic RNG sources (rand, srand, drand48,
//                 std::random_device, ...) anywhere in src/, bench/, tests/.
//                 FastRand (seeded, splittable) is the sanctioned RNG.
//   D1-wallclock  no wall clocks. time(), clock(), gettimeofday and
//                 std::chrono::system_clock are banned everywhere;
//                 steady_clock / high_resolution_clock are additionally
//                 banned in src/core, src/sched, src/sim, src/workloads,
//                 src/ctl (simulations must run on SimTime — wall clocks in
//                 bench harness code are fine).
//   D2-unordered-iter  no iteration over std::unordered_map/unordered_set
//                 or pointer-keyed std::map/std::set in src/core, src/sched,
//                 src/sim: iteration order there is implementation- or
//                 address-dependent, and if it feeds a scheduling decision
//                 the fixed-seed fig4–fig11 outputs stop being bit-stable.
//                 Declarations are matched to iterations by file stem
//                 (foo.h <-> foo.cc) and through the quoted-include graph,
//                 so subdirectory headers reach their users too.
//   D3-float-ticket  no float/double in ticket/pass arithmetic (src/core
//                 and src/sched/stride.*): stride and currency paths must
//                 stay in integer/fixed-point (Funding) arithmetic.
//   S1-mutator-invariant  every public mutator of CurrencyTable and
//                 LotteryScheduler must carry a LOT_-family invariant check
//                 (LOT_ASSERT / LOT_DCHECK_*; see src/util/invariant.h).
//
//   CG1-*         call-graph transitivity. A conservative cross-TU call
//                 graph (function definitions matched to call sites by
//                 name stem; virtual calls fan out to every definition of
//                 the name) is rooted at the scheduling entry points —
//                 PickNext*, Dispatch, Draw*, Reprice and the kernel tick
//                 path (RunUntil). The scope-limited base rules are then
//                 applied transitively to every reachable function in
//                 src/ that the base scopes miss:
//                   CG1-wallclock       steady/high_resolution_clock in a
//                                       reachable function outside the
//                                       D1-wallclock sim dirs
//                   CG1-unordered-iter  unordered iteration in a reachable
//                                       function outside the D2 dirs
//                   CG1-float           float/double in a function
//                                       reachable from a ticket-math root
//                                       (Draw*/Reprice) outside D3's scope
//                 (D1-nondet and system_clock are global already, so their
//                 transitive closure adds nothing.) CG1 findings reuse the
//                 base rules' waiver keywords.
//
//   R1-rng-seed   RNG-stream discipline: every FastRand constructed in
//                 src/ must be seed-derived — its initializer names a seed
//                 (…seed…, NextFastRandSeed, Split, SetState, state) or
//                 copies an existing stream; a bare `FastRand x;` member
//                 must have a seed-deriving init site somewhere in the
//                 batch. Waiver: rng-seed-ok.
//   R2-rng-stream every draw site (.Next/.Next62/.NextBelow/.NextBelow64/
//                 .NextUnit) in src/core, src/sched, src/sim must resolve
//                 its receiver to a declaration annotated with a named
//                 stream:   FastRand rng_;  // lotlint: stream(scheduler)
//                 A FastRand parameter annotated stream(caller) makes its
//                 function a draw forwarder (DrawWeighted): each call's
//                 generator argument must resolve the same way.
//                 Waiver: stream-ok.
//
//   L1-lock-order static lock-acquisition graph. Within each function the
//                 analyzer records the ordered lock acquisition sites
//                 (SimMutex and Seq; calls named Acquire, AcquireRead,
//                 AcquireWrite, Wait, SeqGuard, Enter), extends hold sets
//                 through the call graph, and flags any cycle in the
//                 lock-order graph (a potential SMP deadlock once the
//                 per-CPU rebalancer lands). Waiver: lock-order-ok.
//   L2-tsa        thread-safety annotation presence: a class marked
//                 CAPABILITY must expose ACQUIRE/TRY_ACQUIRE and RELEASE
//                 methods; a class declaring a util::Seq serialization
//                 domain must guard at least one member with
//                 GUARDED_BY(that seq). Waiver: tsa-ok.
//
// Audited sites are allowlisted in the source with a comment on the same
// or the preceding line:   // lotlint: <keyword> — rationale
// where <keyword> is the rule's suppression keyword (nondet-ok,
// wallclock-ok, ordered-ok, float-ok, invariant-ok, rng-seed-ok,
// stream-ok, lock-order-ok, tsa-ok). A file-wide waiver is
//   // lotlint: file <keyword> — rationale
// A waiver that suppresses nothing is itself reported as stale (the CLI's
// --strict mode fails on stale waivers), so the allowlist cannot rot.
//
// Findings are schema-stable (file, line, rule, message, snippet,
// function, fingerprint). The fingerprint hashes (rule, enclosing
// qualified function — or file when at file scope — and the
// whitespace-normalized snippet), so it survives unrelated line churn;
// CI diffs findings against a committed baseline and fails only on new
// fingerprints.

#ifndef TOOLS_LOTLINT_LOTLINT_H_
#define TOOLS_LOTLINT_LOTLINT_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lotlint {

struct Finding {
  std::string file;         // repo-relative path, forward slashes
  int line = 0;             // 1-based
  std::string rule;         // e.g. "D2-unordered-iter"
  std::string message;      // human-readable diagnosis
  std::string snippet;      // the offending source line, trimmed
  std::string function;     // enclosing qualified function ("" = file scope)
  std::string fingerprint;  // 16 hex chars; stable across line moves
};

// A lotlint: waiver comment that no longer suppresses any finding.
struct StaleWaiver {
  std::string file;
  int line = 0;
  std::string keyword;
};

// Call-graph node / edge, exported by CallGraphToJson for audits.
struct FunctionNode {
  std::string name;  // qualified (Class::Method) as written at the def
  std::string file;
  int line = 0;
  bool reachable = false;  // from any scheduling entry point
  std::string root;        // entry point that first reached it ("" if not)
  // Sorted top-level directories (src, tests, ...) of the call sites whose
  // callee is this function's bare name, outside its own definition (its
  // body and, for a constructor, its member-initializer list). Matched by
  // name only: a "tests"-only list is a candidate for deletion, to be
  // checked by hand.
  std::vector<std::string> caller_dirs;
};
struct CallEdge {
  std::string caller;  // qualified name of the enclosing definition
  std::string callee;  // name stem at the call site
  std::string file;    // call-site location
  int line = 0;
};

struct Report {
  std::vector<Finding> findings;  // unsuppressed, sorted (file, line, rule)
  int suppressed = 0;   // findings waived by lotlint: annotations
  int baselined = 0;    // findings dropped because their fingerprint is
                        // in Options::baseline
  std::vector<StaleWaiver> stale;      // waivers that suppressed nothing
  std::vector<FunctionNode> functions; // cross-TU call graph (sorted)
  std::vector<CallEdge> edges;
};

struct Options {
  // Fingerprints of known findings; matching findings are counted in
  // Report::baselined instead of Report::findings.
  std::set<std::string> baseline;
};

// Analyzes a set of files together. `files` maps repo-relative virtual
// paths (used for rule scoping) to file contents. Cross-file state (D2's
// container-declaration table, the include graph, the call graph, R1/R2's
// stream registry, L1's lock graph) is built over the whole set, so
// headers must be in the same batch as the sources using them.
Report Analyze(
    const std::vector<std::pair<std::string, std::string>>& files);
Report Analyze(const std::vector<std::pair<std::string, std::string>>& files,
               const Options& options);

// Single-file convenience used by the golden-fixture tests.
Report AnalyzeFile(const std::string& virtual_path,
                   const std::string& content);

// {"findings": [{file, line, rule, message, snippet, function,
//   fingerprint}...], "count": N, "suppressed": M, "baselined": B,
//  "stale": [{file, line, keyword}...]} — stable key order, sorted.
std::string ReportToJson(const Report& report);

// {"functions": [{name, file, line, reachable, root, caller_dirs}...],
//  "edges": [{caller, callee, file, line}...]} — sorted, for audits.
std::string CallGraphToJson(const Report& report);

// {"baseline": [{rule, fingerprint}...]} — written by --write-baseline,
// consumed (tolerantly: any "fingerprint": "..." pairs) by ParseBaseline.
std::string BaselineToJson(const Report& report);
std::set<std::string> ParseBaseline(const std::string& json);

}  // namespace lotlint

#endif  // TOOLS_LOTLINT_LOTLINT_H_
