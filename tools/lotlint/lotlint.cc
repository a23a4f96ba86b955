#include "tools/lotlint/lotlint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

namespace lotlint {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  int line;
};

// A "// lotlint: <keyword>" (optionally "<keyword>(<arg>)") comment.
struct Annotation {
  std::string keyword;
  std::string arg;  // "scheduler" in stream(scheduler); "" otherwise
  int line = 0;
  bool file_wide = false;
  bool used = false;  // suppressed at least one finding (stale tracking)
};

struct Scan {
  std::string path;
  std::vector<Token> toks;
  std::vector<Annotation> annotations;
  std::vector<std::string> includes;  // quoted #include targets, verbatim
  std::vector<std::string> lines;     // raw source, for snippets
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Parses "lotlint:" annotations out of a comment's text.
void ParseAnnotations(const std::string& comment, int line, Scan* scan) {
  size_t pos = comment.find("lotlint:");
  while (pos != std::string::npos) {
    size_t i = pos + 8;
    while (i < comment.size() && comment[i] == ' ') ++i;
    bool file_wide = false;
    if (comment.compare(i, 5, "file ") == 0) {
      file_wide = true;
      i += 5;
      while (i < comment.size() && comment[i] == ' ') ++i;
    }
    size_t start = i;
    while (i < comment.size() &&
           (std::islower(static_cast<unsigned char>(comment[i])) != 0 ||
            comment[i] == '-')) {
      ++i;
    }
    if (i > start) {
      Annotation a;
      a.keyword = comment.substr(start, i - start);
      a.line = line;
      a.file_wide = file_wide;
      // An immediately following parenthesized argument, as in
      // stream(scheduler). "keyword (prose...)" is a rationale, not an arg.
      if (i < comment.size() && comment[i] == '(') {
        const size_t close = comment.find(')', i + 1);
        if (close != std::string::npos) {
          a.arg = comment.substr(i + 1, close - (i + 1));
          i = close + 1;
        }
      }
      scan->annotations.push_back(std::move(a));
    }
    pos = comment.find("lotlint:", i);
  }
}

const char* kMultiPunct[] = {"<<=", ">>=", "...", "::", "->", "<<", ">>",
                             "<=", ">=", "==", "!=", "&&", "||", "+=",
                             "-=", "*=", "/=", "++", "--"};

Scan Lex(const std::string& path, const std::string& content) {
  Scan scan;
  scan.path = path;
  {
    std::istringstream in(content);
    std::string l;
    while (std::getline(in, l)) scan.lines.push_back(l);
  }
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  bool fresh_line = true;  // nothing but whitespace seen on this line yet
  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (content[i] == '\n') {
        ++line;
        fresh_line = true;
      }
    }
  };
  while (i < n) {
    const char c = content[i];
    if (c == '\n' || c == ' ' || c == '\t' || c == '\r' || c == '\f' ||
        c == '\v') {
      advance(1);
      continue;
    }
    if (c == '#' && fresh_line) {
      // Preprocessor directive: contributes no tokens (a function-like
      // #define would otherwise parse as a definition and pollute the call
      // graph), but quoted includes feed the include graph and trailing
      // comments still carry annotations. Handles '\' continuations.
      size_t j = i;
      std::string text;
      while (j < n) {
        const char d = content[j];
        if (d == '\n') {
          if (!text.empty() && text.back() == '\\') {
            text.pop_back();
            text += ' ';
            ++j;
            continue;
          }
          break;
        }
        if (d == '/' && j + 1 < n && content[j + 1] == '/') {
          const size_t eol = content.find('\n', j);
          const size_t end = eol == std::string::npos ? n : eol;
          ParseAnnotations(content.substr(j, end - j), line, &scan);
          j = end;
          break;
        }
        if (d == '/' && j + 1 < n && content[j + 1] == '*') {
          const size_t close = content.find("*/", j + 2);
          ParseAnnotations(
              content.substr(j, (close == std::string::npos
                                     ? n
                                     : close + 2) - j),
              line, &scan);
          j = close == std::string::npos ? n : close + 2;
          continue;
        }
        text += d;
        ++j;
      }
      const size_t inc = text.find("include");
      if (inc != std::string::npos) {
        const size_t q1 = text.find('"', inc + 7);
        const size_t q2 =
            q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          scan.includes.push_back(text.substr(q1 + 1, q2 - q1 - 1));
        }
      }
      advance(j - i);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const size_t eol = content.find('\n', i);
      const size_t end = eol == std::string::npos ? n : eol;
      ParseAnnotations(content.substr(i, end - i), line, &scan);
      advance(end - i);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const int start_line = line;
      const size_t close = content.find("*/", i + 2);
      const size_t end = close == std::string::npos ? n : close + 2;
      ParseAnnotations(content.substr(i, end - i), start_line, &scan);
      advance(end - i);
      continue;
    }
    if (c == '"' || (c == 'R' && i + 1 < n && content[i + 1] == '"')) {
      if (c == 'R') {
        // Raw string: R"delim( ... )delim"
        const size_t open = content.find('(', i + 2);
        const std::string delim =
            open == std::string::npos
                ? ""
                : content.substr(i + 2, open - (i + 2));
        const std::string closer = ")" + delim + "\"";
        const size_t close = open == std::string::npos
                                 ? std::string::npos
                                 : content.find(closer, open + 1);
        const size_t end =
            close == std::string::npos ? n : close + closer.size();
        scan.toks.push_back({Token::kString, "<raw-string>", line});
        fresh_line = false;
        advance(end - i);
        continue;
      }
      size_t j = i + 1;
      while (j < n && content[j] != '"') {
        if (content[j] == '\\') ++j;
        ++j;
      }
      scan.toks.push_back({Token::kString, "<string>", line});
      fresh_line = false;
      advance((j < n ? j + 1 : n) - i);
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && content[j] != '\'') {
        if (content[j] == '\\') ++j;
        ++j;
      }
      scan.toks.push_back({Token::kString, "<char>", line});
      fresh_line = false;
      advance((j < n ? j + 1 : n) - i);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      scan.toks.push_back({Token::kIdent, content.substr(i, j - i), line});
      fresh_line = false;
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      size_t j = i;
      while (j < n && (IsIdentChar(content[j]) || content[j] == '.' ||
                       content[j] == '\'' ||
                       ((content[j] == '+' || content[j] == '-') && j > i &&
                        (content[j - 1] == 'e' || content[j - 1] == 'E' ||
                         content[j - 1] == 'p' || content[j - 1] == 'P')))) {
        ++j;
      }
      scan.toks.push_back({Token::kNumber, content.substr(i, j - i), line});
      fresh_line = false;
      advance(j - i);
      continue;
    }
    bool matched = false;
    for (const char* p : kMultiPunct) {
      const size_t len = std::char_traits<char>::length(p);
      if (content.compare(i, len, p) == 0) {
        scan.toks.push_back({Token::kPunct, p, line});
        fresh_line = false;
        advance(len);
        matched = true;
        break;
      }
    }
    if (!matched) {
      scan.toks.push_back({Token::kPunct, std::string(1, c), line});
      fresh_line = false;
      advance(1);
    }
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool PathInAny(const std::string& path,
               const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes) {
    if (StartsWith(path, p)) return true;
  }
  return false;
}

const std::vector<std::string> kSimCoreDirs = {"src/core/", "src/sched/",
                                               "src/sim/"};
const std::vector<std::string> kNoWallClockDirs = {
    "src/core/", "src/sched/", "src/sim/", "src/workloads/", "src/ctl/"};
const std::set<std::string> kWallSimCore = {"steady_clock",
                                            "high_resolution_clock"};

std::string SnippetAt(const Scan& scan, int line) {
  if (line < 1 || static_cast<size_t>(line) > scan.lines.size()) return "";
  std::string s = scan.lines[static_cast<size_t>(line) - 1];
  const size_t first = s.find_first_not_of(" \t");
  return first == std::string::npos ? "" : s.substr(first);
}

struct RawFinding {
  Finding finding;
  std::string waiver;  // keyword that suppresses it
};

void Emit(const Scan& scan, int line, const std::string& rule,
          const std::string& message, const std::string& waiver,
          std::vector<RawFinding>* out) {
  out->push_back(
      {{scan.path, line, rule, message, SnippetAt(scan, line), "", ""},
       waiver});
}

// Finds the index of the token matching an opening (/[/{ at `open`.
size_t MatchingClose(const std::vector<Token>& toks, size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

// Finds the index of the token matching a closing )/]/} at `close`.
size_t MatchingOpen(const std::vector<Token>& toks, size_t close) {
  const std::string& c = toks[close].text;
  const std::string o = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (toks[i].text == c) ++depth;
    if (toks[i].text == o && --depth == 0) return i;
  }
  return toks.size();
}

// Best-effort receiver of a member access whose '.'/'->' sits at `dot`:
// `rng_` in rng_.Next(), `rng` in ls->rng().Next(), `q` in q[i].Next().
std::string ReceiverBefore(const std::vector<Token>& toks, size_t dot) {
  if (dot == 0) return "";
  const size_t k = dot - 1;
  if (toks[k].kind == Token::kIdent) return toks[k].text;
  if (toks[k].text == ")" || toks[k].text == "]") {
    const size_t open = MatchingOpen(toks, k);
    if (open != toks.size() && open > 0 &&
        toks[open - 1].kind == Token::kIdent) {
      return toks[open - 1].text;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// D1: nondeterminism sources
// ---------------------------------------------------------------------------

void RuleNondet(const Scan& scan, std::vector<RawFinding>* out) {
  // Functions — flagged only as direct calls, so a class can declare its
  // own member named `rand` or `time` without tripping the rule.
  static const std::set<std::string> kRngCalls = {"rand", "srand", "drand48",
                                                  "lrand48", "mrand48"};
  static const std::set<std::string> kClockCalls = {"time", "clock",
                                                    "gettimeofday"};
  // Types — flagged wherever the name appears.
  static const std::set<std::string> kWallEverywhere = {"system_clock"};
  // An identifier right before the name means a declaration (`int rand()`)
  // — unless it is a statement keyword, in which case `return rand();` is
  // still a call.
  static const std::set<std::string> kStmtKeywords = {"return", "else", "do",
                                                      "co_return"};
  const bool in_sim_core = PathInAny(scan.path, kNoWallClockDirs);
  const auto& toks = scan.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent) continue;
    const std::string& t = toks[i].text;
    const std::string prev = i > 0 ? toks[i - 1].text : "";
    const std::string prev2 = i > 1 ? toks[i - 2].text : "";
    // Member access (foo.rand(), p->time()) is some other API, not libc's.
    const bool member = prev == "." || prev == "->" ||
                        (prev == "::" && prev2 != "std" && prev2 != "chrono");
    if (member) continue;
    const bool is_call =
        i + 1 < toks.size() && toks[i + 1].text == "(" &&
        (i == 0 || toks[i - 1].kind != Token::kIdent ||
         kStmtKeywords.count(prev) > 0);
    if (t == "random_device" || (kRngCalls.count(t) > 0 && is_call)) {
      Emit(scan, toks[i].line, "D1-nondet",
           "nondeterministic RNG source '" + t +
               "': use FastRand (seeded) so fixed-seed runs stay "
               "bit-identical",
           "nondet-ok", out);
      continue;
    }
    if (kWallEverywhere.count(t) > 0 ||
        (in_sim_core && kWallSimCore.count(t) > 0) ||
        (kClockCalls.count(t) > 0 && is_call)) {
      Emit(scan, toks[i].line, "D1-wallclock",
           "wall-clock source '" + t +
               "': simulation/scheduling code must run on SimTime, not "
               "host time",
           "wallclock-ok", out);
    }
  }
}

// ---------------------------------------------------------------------------
// D2: iteration over unordered / pointer-keyed containers
// ---------------------------------------------------------------------------

// Path without its extension: "src/sched/stride.h" -> "src/sched/stride".
// A header and its source file share a stem; D2 declarations collected from
// one apply to iterations in the other (and in itself). Headers elsewhere
// in the tree reach their users through the quoted-include graph instead.
std::string Stem(const std::string& path) {
  const size_t slash = path.rfind('/');
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

struct ContainerDecl {
  std::string stem;  // Stem(file)
  std::string file;  // declaring file's virtual path
  std::string name;
  std::string why;
};

// Phase A: collect names declared with hash-ordered or pointer-keyed
// container types — declarations usually live in headers; iterations in the
// paired sources or in files that (transitively) include the header.
void CollectUnorderedDecls(
    const Scan& scan,
    std::map<std::string, std::vector<ContainerDecl>>* decls) {
  const auto& toks = scan.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool unordered = t == "unordered_map" || t == "unordered_set";
    const bool ordered = (t == "map" || t == "set") && i >= 2 &&
                         toks[i - 1].text == "::" &&
                         toks[i - 2].text == "std";
    if (!unordered && !ordered) continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "<") continue;
    // Walk the template argument list; note whether the key type (tokens
    // before the first depth-1 comma) contains a pointer.
    int depth = 0;
    bool key_done = false;
    bool key_is_pointer = false;
    size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const std::string& p = toks[j].text;
      if (p == "<") ++depth;
      if (p == ">") --depth;
      if (p == ">>") depth -= 2;
      if (depth <= 0 && p != "<") break;
      if (depth == 1) {
        if (p == ",") key_done = true;
        if (p == "*" && !key_done) key_is_pointer = true;
      }
    }
    if (j >= toks.size()) continue;
    if (ordered && !key_is_pointer) continue;  // value-keyed map/set: fine
    // The declared name follows the closing '>'.
    if (j + 1 < toks.size() && toks[j + 1].kind == Token::kIdent) {
      const std::string& name = toks[j + 1].text;
      const std::string why =
          unordered ? "std::" + t
                    : "pointer-keyed std::" + t;
      auto& bucket = (*decls)[name];
      bool seen = false;
      for (const ContainerDecl& d : bucket) {
        if (d.stem == Stem(scan.path) && d.name == name) seen = true;
      }
      if (!seen) {
        bucket.push_back({Stem(scan.path), scan.path, name, why});
      }
    }
  }
}

// True when `decl` is visible from `scan`: same file stem (foo.h <-> foo.cc)
// or the declaring file is in `scan`'s transitive quoted-include closure.
bool DeclVisible(const Scan& scan, const std::set<std::string>& closure,
                 const ContainerDecl& decl) {
  return decl.stem == Stem(scan.path) || closure.count(decl.file) > 0;
}

// If the `for` at token `i` is a range-for whose range expression names a
// visible unordered decl, returns it (the first such name). Else nullptr.
const ContainerDecl* MatchRangeFor(
    const Scan& scan, size_t i,
    const std::map<std::string, std::vector<ContainerDecl>>& decls,
    const std::set<std::string>& closure) {
  const auto& toks = scan.toks;
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") return nullptr;
  const size_t close = MatchingClose(toks, i + 1);
  if (close >= toks.size()) return nullptr;
  // Find the range-for ':' — a lone colon at parenthesis depth 1 outside
  // brackets/braces ("::" lexes as its own token, so no confusion).
  size_t colon = 0;
  int depth = 0;
  for (size_t j = i + 1; j < close; ++j) {
    const std::string& p = toks[j].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") --depth;
    if (p == ":" && depth == 1) {
      colon = j;
      break;
    }
  }
  if (colon == 0) return nullptr;  // classic for(;;) loop
  for (size_t j = colon + 1; j < close; ++j) {
    if (toks[j].kind != Token::kIdent) continue;
    const auto it = decls.find(toks[j].text);
    if (it == decls.end()) continue;
    for (const ContainerDecl& d : it->second) {
      if (DeclVisible(scan, closure, d)) return &d;
    }
  }
  return nullptr;
}

// Phase B: flag range-for statements over collected container names in the
// sim/sched/core directories.
void RuleUnorderedIter(
    const Scan& scan,
    const std::map<std::string, std::vector<ContainerDecl>>& decls,
    const std::set<std::string>& closure, std::vector<RawFinding>* out) {
  if (!PathInAny(scan.path, kSimCoreDirs)) return;
  const auto& toks = scan.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i].text != "for") continue;
    const ContainerDecl* d = MatchRangeFor(scan, i, decls, closure);
    if (d == nullptr) continue;
    Emit(scan, toks[i].line, "D2-unordered-iter",
         "iteration over '" + d->name + "' (" + d->why +
             "): order is implementation/address-dependent; if it feeds "
             "a scheduling decision the fixed-seed outputs drift — use "
             "an ordered structure or annotate an audited site",
         "ordered-ok", out);
  }
}

// ---------------------------------------------------------------------------
// D3: floating point in ticket/pass arithmetic
// ---------------------------------------------------------------------------

bool InTicketScope(const std::string& path) {
  return StartsWith(path, "src/core/") ||
         StartsWith(path, "src/sched/stride");
}

void RuleFloat(const Scan& scan, std::vector<RawFinding>* out) {
  if (!InTicketScope(scan.path)) return;
  for (const Token& t : scan.toks) {
    if (t.kind == Token::kIdent && (t.text == "float" || t.text == "double")) {
      Emit(scan, t.line, "D3-float-ticket",
           "'" + t.text +
               "' in a ticket/pass arithmetic path: stride and currency "
               "math must stay integer/fixed-point (Funding) so totals "
               "never drift from the sum of the parts",
           "float-ok", out);
    }
  }
}

// ---------------------------------------------------------------------------
// S1: public mutators must carry an invariant check
// ---------------------------------------------------------------------------

struct MutatorClass {
  const char* class_name;
  std::set<std::string> mutators;
};

const MutatorClass kMutatorClasses[] = {
    {"CurrencyTable",
     {"CreateCurrency", "DestroyCurrency", "RetireCurrency", "CreateTicket",
      "DestroyTicket", "SetAmount", "Fund", "Unfund"}},
    {"LotteryScheduler",
     {"AddThread", "RemoveThread", "OnReady", "OnBlocked", "PickNext",
      "PickFrom", "OnQuantumEnd", "FundThread"}},
};

void RuleMutatorInvariant(const Scan& scan, std::vector<RawFinding>* out) {
  if (!StartsWith(scan.path, "src/core/")) return;
  const auto& toks = scan.toks;
  for (const MutatorClass& mc : kMutatorClasses) {
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].text != mc.class_name || toks[i + 1].text != "::" ||
          toks[i + 2].kind != Token::kIdent ||
          mc.mutators.count(toks[i + 2].text) == 0 ||
          toks[i + 3].text != "(") {
        continue;
      }
      // Definition, not a call: after the parameter list comes an optional
      // qualifier run, then '{'. A ';' instead means a declaration.
      const size_t params_close = MatchingClose(toks, i + 3);
      size_t j = params_close + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != "(") {
        ++j;
      }
      if (j >= toks.size() || toks[j].text != "{") continue;
      const size_t body_close = MatchingClose(toks, j);
      bool has_check = false;
      for (size_t k = j; k < body_close; ++k) {
        if (toks[k].kind == Token::kIdent &&
            StartsWith(toks[k].text, "LOT_")) {
          has_check = true;
          break;
        }
      }
      if (!has_check) {
        Emit(scan, toks[i].line, "S1-mutator-invariant",
             std::string(mc.class_name) + "::" + toks[i + 2].text +
                 " mutates shared lottery state but carries no LOT_ASSERT/"
                 "LOT_DCHECK invariant check (see src/core/invariants.h)",
             "invariant-ok", out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Function definitions and the cross-TU call graph (CG1)
// ---------------------------------------------------------------------------

const std::set<std::string>& NotFuncNames() {
  static const std::set<std::string> s = {
      "if",      "for",     "while",        "switch",   "catch",
      "return",  "sizeof",  "alignof",      "new",      "delete",
      "else",    "do",      "static_assert", "decltype", "noexcept",
      "alignas", "throw",   "case",         "co_await", "co_return",
      "co_yield", "requires", "defined"};
  return s;
}

struct FuncDef {
  std::string name;  // qualified as written (Class::Method)
  std::string stem;  // last name component
  size_t scan_idx = 0;
  size_t params_close = 0;  // token index of the parameter list's ')'
  size_t body_open = 0;     // token index of '{'
  size_t body_close = 0;    // token index of matching '}'
  int line = 0;             // line of the name token
  int line_end = 0;         // line of the closing brace
  bool reachable = false;
  bool ticket_reachable = false;
  std::string root;  // entry point that first reached it
};

struct CallSite {
  size_t tok = 0;  // token index of the callee identifier
  std::string callee;
  int line = 0;
};

// Token-level function-definition recognizer: `Qualified::Name (params)`
// followed by a qualifier/attribute/ctor-initializer tail ending in '{'.
// Declarations end in ';' and expressions hit a token that can't appear in
// the tail ('=', '?', ')', '<<', ...), so both are rejected. The scan
// resumes inside a found definition's body, so the `member_(...)` entries
// and attribute macros of its tail are not taken for definitions.
void ExtractDefs(const Scan& scan, size_t scan_idx,
                 std::vector<FuncDef>* defs) {
  const auto& toks = scan.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i + 1].text != "(") continue;
    if (NotFuncNames().count(toks[i].text) > 0) continue;
    size_t start = i;
    while (start >= 2 && toks[start - 1].text == "::" &&
           toks[start - 2].kind == Token::kIdent) {
      start -= 2;
    }
    const std::string before = start > 0 ? toks[start - 1].text : "";
    if (before == "." || before == "->") continue;  // member call
    const size_t params_close = MatchingClose(toks, i + 1);
    if (params_close >= toks.size()) continue;
    bool ctor_init = false;
    bool found = false;
    size_t j = params_close + 1;
    while (j < toks.size()) {
      const Token& t = toks[j];
      if (t.text == ";") break;  // declaration
      if (t.text == "{") {
        if (ctor_init && (toks[j - 1].kind == Token::kIdent ||
                          toks[j - 1].text == ">" ||
                          toks[j - 1].text == ">>")) {
          j = MatchingClose(toks, j) + 1;  // member brace-initializer
          continue;
        }
        found = true;
        break;
      }
      if (t.text == "(") {  // attribute macro or paren member-initializer
        j = MatchingClose(toks, j) + 1;
        continue;
      }
      if (t.text == ":") {
        ctor_init = true;
        ++j;
        continue;
      }
      if (t.kind == Token::kIdent || t.kind == Token::kNumber ||
          t.kind == Token::kString || t.text == "::" || t.text == "->" ||
          t.text == "<" || t.text == ">" || t.text == ">>" ||
          t.text == "&" || t.text == "&&" || t.text == "*" ||
          t.text == ",") {
        ++j;
        continue;
      }
      break;  // '=', '?', ')', '<<', '#', ... — not a definition
    }
    if (!found) continue;
    FuncDef def;
    for (size_t k = start; k <= i; ++k) def.name += toks[k].text;
    def.stem = toks[i].text;
    def.scan_idx = scan_idx;
    def.params_close = params_close;
    def.body_open = j;
    def.body_close = MatchingClose(toks, j);
    if (def.body_close >= toks.size()) continue;
    def.line = toks[i].line;
    def.line_end = toks[def.body_close].line;
    defs->push_back(std::move(def));
    i = j;
  }
}

bool IsEntryRoot(const std::string& stem) {
  static const std::set<std::string> kRoots = {
      "PickNext", "PickFrom", "Dispatch", "Reprice", "RunUntil"};
  return kRoots.count(stem) > 0 || StartsWith(stem, "Draw");
}

bool IsTicketRoot(const std::string& stem) {
  return StartsWith(stem, "Draw") || stem == "Reprice";
}

// ---------------------------------------------------------------------------
// R1/R2: RNG-stream discipline
// ---------------------------------------------------------------------------

const std::set<std::string>& DrawMethods() {
  static const std::set<std::string> s = {"Next", "Next62", "NextBelow",
                                          "NextBelow64", "NextUnit"};
  return s;
}

bool SeedIdent(const std::string& t) {
  if (t.find("seed") != std::string::npos ||
      t.find("Seed") != std::string::npos) {
    return true;
  }
  return t == "SetState" || t == "state" || t == "NextFastRandSeed" ||
         t == "Split";
}

// Any identifier in (open, close) that names a seed source.
bool GroupSeedDerived(const std::vector<Token>& toks, size_t open,
                      size_t close) {
  for (size_t k = open + 1; k < close && k < toks.size(); ++k) {
    if (toks[k].kind == Token::kIdent && SeedIdent(toks[k].text)) return true;
  }
  return false;
}

bool GroupIsSingleIdent(const std::vector<Token>& toks, size_t open,
                        size_t close) {
  return close == open + 2 && toks[open + 1].kind == Token::kIdent;
}

// Registry of names with a seed-deriving initialization site anywhere in
// the batch: `rng_(options.seed)` in a constructor initializer,
// `x.Seed(...)`, `x.SetState(...)`. Consulted for bare `FastRand x;`
// member declarations whose seeding happens in the paired source file.
void CollectSeededInits(const Scan& scan, std::set<std::string>* seeded) {
  const auto& toks = scan.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent) continue;
    const std::string& nxt = toks[i + 1].text;
    if ((toks[i].text == "Seed" || toks[i].text == "SetState") &&
        nxt == "(" && i >= 2 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      const std::string recv = ReceiverBefore(toks, i - 1);
      if (!recv.empty()) seeded->insert(recv);
      continue;
    }
    if (nxt != "(" && nxt != "{") continue;
    const size_t close = MatchingClose(toks, i + 1);
    if (close < toks.size() && GroupSeedDerived(toks, i + 1, close)) {
      seeded->insert(toks[i].text);
    }
  }
}

void RuleRngSeed(const Scan& scan, const std::set<std::string>& seeded,
                 std::vector<RawFinding>* out) {
  if (!StartsWith(scan.path, "src/")) return;
  const auto& toks = scan.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i].text != "FastRand") continue;
    const std::string prev = i > 0 ? toks[i - 1].text : "";
    // Type mentions that are not constructions: the class's own definition,
    // friend/explicit declarations, qualified statics (FastRand::kModulus),
    // and `FastRand&` / `FastRand*` parameter or return types.
    if (prev == "class" || prev == "struct" || prev == "explicit" ||
        prev == "friend" || prev == "typename" || prev == "~" ||
        prev == "::") {
      continue;
    }
    if (i + 1 >= toks.size()) continue;
    const Token& nxt = toks[i + 1];
    if (nxt.text == "&" || nxt.text == "*" || nxt.text == "::" ||
        nxt.text == ">" || nxt.text == ">>" || nxt.text == ")" ||
        nxt.text == "," || nxt.text == ";") {
      continue;
    }
    auto flag = [&](const std::string& what) {
      Emit(scan, toks[i].line, "R1-rng-seed",
           what +
               ": every FastRand must be seed-derived (a recorded seed, "
               "SplitMix64's NextFastRandSeed, Split(), or SetState) so "
               "RNG streams are attributable and replayable",
           "rng-seed-ok", out);
    };
    if (nxt.text == "(" || nxt.text == "{") {
      // Temporary: FastRand(...) / FastRand{...}.
      const size_t close = MatchingClose(toks, i + 1);
      if (close >= toks.size()) continue;
      if (close == i + 2) {
        flag("default-constructed FastRand temporary");
      } else if (!GroupSeedDerived(toks, i + 1, close) &&
                 !GroupIsSingleIdent(toks, i + 1, close)) {
        flag("FastRand temporary with a non-seed initializer");
      }
      continue;
    }
    if (nxt.kind != Token::kIdent) continue;
    const std::string& name = nxt.text;
    if (i + 2 >= toks.size()) continue;
    const std::string& after = toks[i + 2].text;
    if (after == "(") {
      const size_t close = MatchingClose(toks, i + 2);
      if (close >= toks.size()) continue;
      if (close == i + 3) continue;  // `FastRand f();` — a declaration
      // Parameter-style contents mean a function declaration, not an init.
      bool is_decl = false;
      for (size_t k = i + 3; k < close; ++k) {
        if (toks[k].text == "&" || toks[k].text == "*" ||
            (toks[k].kind == Token::kIdent &&
             toks[k - 1].kind == Token::kIdent)) {
          is_decl = true;
          break;
        }
      }
      if (is_decl) continue;
      if (!GroupSeedDerived(toks, i + 2, close) &&
          !GroupIsSingleIdent(toks, i + 2, close)) {
        flag("FastRand '" + name + "' initialized without a seed source");
      }
    } else if (after == "{") {
      const size_t close = MatchingClose(toks, i + 2);
      if (close >= toks.size()) continue;
      if (close == i + 3) {
        flag("default-constructed FastRand '" + name + "'");
      } else if (!GroupSeedDerived(toks, i + 2, close) &&
                 !GroupIsSingleIdent(toks, i + 2, close)) {
        flag("FastRand '" + name + "' initialized without a seed source");
      }
    } else if (after == "=") {
      // FastRand x = expr; — a copy of an existing stream is fine.
      size_t k = i + 3;
      size_t idents = 0;
      bool seeded_expr = false;
      for (; k < toks.size() && toks[k].text != ";"; ++k) {
        if (toks[k].kind == Token::kIdent) {
          ++idents;
          if (SeedIdent(toks[k].text)) seeded_expr = true;
        }
      }
      if (idents == 1 || seeded_expr) continue;
      flag("FastRand '" + name + "' initialized without a seed source");
    } else if (after == ";") {
      // Bare member/local: the seeding must happen at some init site.
      if (seeded.count(name) == 0) {
        flag("FastRand '" + name + "' has no seed-deriving initialization");
      }
    }
  }
}

// name -> stream, per declaring file and globally (header decl, source use);
// plus the draw forwarders: function name -> position of the FastRand
// parameter that carries the caller's stream.
struct StreamRegistry {
  std::map<std::pair<std::string, std::string>, std::string> local;
  std::map<std::string, std::string> global;
  std::map<std::string, size_t> forwarders;
};

// For a token inside a parameter list, the function's name and the
// parameter's position; "" when `i` is not inside one.
std::pair<std::string, size_t> EnclosingParameter(
    const std::vector<Token>& toks, size_t i) {
  size_t index = 0;
  int depth = 0;  // (), [], {} closed on the way back
  int angle = 0;  // template brackets closed on the way back
  for (size_t k = i; k-- > 0;) {
    const std::string& t = toks[k].text;
    if (t == ")" || t == "]" || t == "}") {
      ++depth;
    } else if (t == ">" || t == ">>") {
      angle += static_cast<int>(t.size());
    } else if (t == "<" && angle > 0) {
      --angle;
    } else if (t == "(" || t == "[" || t == "{") {
      if (depth-- > 0) continue;
      if (t == "(" && k > 0 && toks[k - 1].kind == Token::kIdent) {
        return {toks[k - 1].text, index};
      }
      return {"", 0};
    } else if (t == ";" && depth == 0) {
      return {"", 0};
    } else if (t == "," && depth == 0 && angle == 0) {
      ++index;
    }
  }
  return {"", 0};
}

// A `// lotlint: stream(<name>)` annotation names the FastRand declared on
// its own or the following line:   FastRand rng_;  // lotlint: stream(fault)
// `stream(caller)` on a FastRand parameter makes its function a draw
// forwarder: it draws on whatever stream each caller passes in.
void CollectStreams(const Scan& scan, StreamRegistry* reg) {
  const auto& toks = scan.toks;
  for (const Annotation& a : scan.annotations) {
    if (a.keyword != "stream" || a.arg.empty()) continue;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].line < a.line || toks[i].line > a.line + 1) continue;
      if (toks[i].kind != Token::kIdent || toks[i].text != "FastRand") {
        continue;
      }
      size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Token::kIdent) {
        reg->local[{scan.path, toks[j].text}] = a.arg;
        reg->global[toks[j].text] = a.arg;
      }
      if (a.arg == "caller") {
        const auto [function, index] = EnclosingParameter(toks, i);
        if (!function.empty()) reg->forwarders[function] = index;
      }
      break;
    }
  }
}

// The token range [begin, end) of argument `index` of the call whose '('
// sits at `open`; {0, 0} when the call has fewer arguments.
std::pair<size_t, size_t> CallArgument(const std::vector<Token>& toks,
                                       size_t open, size_t index) {
  const size_t close = MatchingClose(toks, open);
  if (close >= toks.size()) return {0, 0};
  size_t begin = open + 1;
  int depth = 0;
  for (size_t k = begin; k <= close; ++k) {
    const std::string& t = toks[k].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (k == close || (t == "," && depth == 0)) {
      if (index-- == 0) return {begin, k};
      begin = k + 1;
    }
  }
  return {0, 0};
}

bool StreamNamed(const Scan& scan, const StreamRegistry& reg,
                 const std::string& recv) {
  return !recv.empty() && (reg.local.count({scan.path, recv}) > 0 ||
                           reg.global.count(recv) > 0);
}

void RuleRngStream(const Scan& scan, const StreamRegistry& reg,
                   std::vector<RawFinding>* out) {
  if (!PathInAny(scan.path, kSimCoreDirs)) return;
  const auto& toks = scan.toks;
  for (size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i + 1].text != "(") continue;
    const auto forwarder = reg.forwarders.find(toks[i].text);
    if (forwarder != reg.forwarders.end()) {
      // A call to a draw forwarder draws on its generator argument. An
      // argument naming FastRand is the forwarder's own parameter list.
      const auto [begin, end] = CallArgument(toks, i + 1, forwarder->second);
      bool declaration = false;
      for (size_t k = begin; k < end; ++k) {
        declaration = declaration || toks[k].text == "FastRand";
      }
      const std::string recv = ReceiverBefore(toks, end);
      if (end == 0 || declaration || StreamNamed(scan, reg, recv)) continue;
      Emit(scan, toks[i].line, "R2-rng-stream",
           "generator '" + (recv.empty() ? "<expr>" : recv) +
               "' passed to draw forwarder '" + toks[i].text +
               "()' is not attributable to a named RNG stream: annotate "
               "the FastRand declaration with '// lotlint: stream(<name>)'",
           "stream-ok", out);
      continue;
    }
    if (DrawMethods().count(toks[i].text) == 0) continue;
    const std::string& prev = toks[i - 1].text;
    if (prev != "." && prev != "->") continue;
    const std::string recv = ReceiverBefore(toks, i - 1);
    if (StreamNamed(scan, reg, recv)) continue;
    const std::string shown = recv.empty() ? "<expr>" : recv;
    Emit(scan, toks[i].line, "R2-rng-stream",
         "draw '" + shown + "." + toks[i].text +
             "()' is not attributable to a named RNG stream: annotate the "
             "FastRand declaration with '// lotlint: stream(<name>)'",
         "stream-ok", out);
  }
}

// ---------------------------------------------------------------------------
// L1: static lock-order graph
// ---------------------------------------------------------------------------

struct AcquireSite {
  std::string lock;
  size_t tok = 0;
  int line = 0;
};

const std::set<std::string>& AcquireMethods() {
  static const std::set<std::string> s = {"Acquire", "AcquireRead",
                                          "AcquireWrite", "Wait", "Enter"};
  return s;
}

// Ordered lock-acquisition sites within a definition's body: member calls
// to an acquire method (lock = receiver) and SeqGuard declarations
// (lock = the guarded Seq).
std::vector<AcquireSite> CollectAcquires(const Scan& scan,
                                         const FuncDef& def) {
  std::vector<AcquireSite> sites;
  const auto& toks = scan.toks;
  for (size_t i = def.body_open + 1; i + 1 < def.body_close; ++i) {
    if (toks[i].kind != Token::kIdent) continue;
    if (AcquireMethods().count(toks[i].text) > 0 && toks[i + 1].text == "(" &&
        i >= 2 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      const std::string recv = ReceiverBefore(toks, i - 1);
      if (!recv.empty()) sites.push_back({recv, i, toks[i].line});
      continue;
    }
    if (toks[i].text == "SeqGuard" && i + 2 < def.body_close &&
        toks[i + 1].kind == Token::kIdent && toks[i + 2].text == "(") {
      const size_t close = MatchingClose(toks, i + 2);
      std::string lock;
      for (size_t k = i + 3; k < close && k < toks.size(); ++k) {
        if (toks[k].kind == Token::kIdent) lock = toks[k].text;
      }
      if (!lock.empty()) sites.push_back({lock, i, toks[i].line});
    }
  }
  return sites;
}

// ---------------------------------------------------------------------------
// L2: thread-safety annotation presence
// ---------------------------------------------------------------------------

void RuleTsa(const Scan& scan, std::vector<RawFinding>* out) {
  if (!StartsWith(scan.path, "src/")) return;
  const auto& toks = scan.toks;
  static const std::set<std::string> kAcquireAnno = {
      "ACQUIRE", "TRY_ACQUIRE", "ACQUIRE_SHARED", "TRY_ACQUIRE_SHARED"};
  static const std::set<std::string> kReleaseAnno = {
      "RELEASE", "RELEASE_SHARED", "RELEASE_GENERIC"};
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent ||
        (toks[i].text != "class" && toks[i].text != "struct")) {
      continue;
    }
    if (i > 0 && toks[i - 1].text == "enum") continue;
    // Walk the class head to '{' (definition) or ';' (fwd declaration),
    // jumping attribute-macro argument lists like CAPABILITY("mutex").
    std::string name;
    bool has_capability = false;
    bool in_bases = false;
    size_t j = i + 1;
    bool def_found = false;
    while (j < toks.size()) {
      const Token& t = toks[j];
      if (t.text == ";") break;
      if (t.text == "{") {
        def_found = true;
        break;
      }
      if (t.text == "(") {
        j = MatchingClose(toks, j) + 1;
        continue;
      }
      if (t.text == ":") in_bases = true;
      if (t.kind == Token::kIdent) {
        if (t.text == "CAPABILITY") has_capability = true;
        if (!in_bases) name = t.text;
      } else if (t.kind != Token::kNumber && t.text != "::" &&
                 t.text != "<" && t.text != ">" && t.text != ">>" &&
                 t.text != "," && t.text != "&" && t.text != "*") {
        break;  // '=', ')' ... — an expression, not a class head
      }
      ++j;
    }
    if (!def_found || name.empty()) continue;
    const size_t body_open = j;
    const size_t body_close = MatchingClose(toks, body_open);
    if (body_close >= toks.size()) continue;

    bool has_acquire = false;
    bool has_release = false;
    std::vector<std::pair<std::string, int>> seq_members;  // name, line
    std::set<std::string> guarded_by;
    for (size_t k = body_open + 1; k < body_close; ++k) {
      if (toks[k].kind != Token::kIdent) continue;
      if (kAcquireAnno.count(toks[k].text) > 0) has_acquire = true;
      if (kReleaseAnno.count(toks[k].text) > 0) has_release = true;
      if ((toks[k].text == "GUARDED_BY" || toks[k].text == "PT_GUARDED_BY") &&
          k + 1 < body_close && toks[k + 1].text == "(") {
        const size_t close = MatchingClose(toks, k + 1);
        for (size_t m = k + 2; m < close && m < toks.size(); ++m) {
          if (toks[m].kind == Token::kIdent) guarded_by.insert(toks[m].text);
        }
      }
      if (toks[k].text == "Seq" && k + 2 < body_close &&
          toks[k - 1].text != "." && toks[k - 1].text != "->" &&
          toks[k + 1].kind == Token::kIdent && toks[k + 2].text == ";") {
        seq_members.push_back({toks[k + 1].text, toks[k].line});
      }
    }
    if (has_capability && !(has_acquire && has_release)) {
      Emit(scan, toks[i].line, "L2-tsa",
           "capability class '" + name +
               "' lacks ACQUIRE/RELEASE-family annotations: without them "
               "clang -Wthread-safety cannot check callers' lock balance",
           "tsa-ok", out);
    }
    for (const auto& [seq, line] : seq_members) {
      if (guarded_by.count(seq) == 0) {
        Emit(scan, line, "L2-tsa",
             "class '" + name + "' declares serialization domain '" + seq +
                 "' but guards no member with GUARDED_BY(" + seq +
                 "): the SMP refactor cannot tell what state it covers",
             "tsa-ok", out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver helpers
// ---------------------------------------------------------------------------

bool IsWaived(Scan& scan, const RawFinding& raw) {
  bool waived = false;
  for (Annotation& a : scan.annotations) {
    if (a.keyword != raw.waiver) continue;
    if (a.file_wide || a.line == raw.finding.line ||
        a.line == raw.finding.line - 1) {
      a.used = true;
      waived = true;
    }
  }
  return waived;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// FNV-1a64 over rule + scope + whitespace-stripped snippet: stable across
// line churn, changes when the offending code or its home function changes.
std::string FingerprintOf(const Finding& f) {
  const std::string scope = f.function.empty() ? f.file : f.function;
  uint64_t h = 14695981039346656037ull;
  auto feed = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  std::string norm;
  for (const char c : f.snippet) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) norm += c;
  }
  feed(f.rule);
  h ^= 0x1f;
  h *= 1099511628211ull;
  feed(scope);
  h ^= 0x1f;
  h *= 1099511628211ull;
  feed(norm);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

Report Analyze(
    const std::vector<std::pair<std::string, std::string>>& files) {
  return Analyze(files, Options{});
}

Report Analyze(const std::vector<std::pair<std::string, std::string>>& files,
               const Options& options) {
  std::vector<Scan> scans;
  scans.reserve(files.size());
  for (const auto& [path, content] : files) {
    scans.push_back(Lex(path, content));
  }

  // Include closure (quoted repo-relative includes, within the batch).
  std::map<std::string, size_t> scan_of;
  for (size_t s = 0; s < scans.size(); ++s) scan_of[scans[s].path] = s;
  std::vector<std::set<std::string>> closure(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    std::vector<std::string> queue = {scans[s].path};
    while (!queue.empty()) {
      const std::string cur = queue.back();
      queue.pop_back();
      const auto it = scan_of.find(cur);
      if (it == scan_of.end()) continue;
      for (const std::string& inc : scans[it->second].includes) {
        if (closure[s].insert(inc).second) queue.push_back(inc);
      }
    }
  }

  std::map<std::string, std::vector<ContainerDecl>> unordered_decls;
  for (const Scan& scan : scans) {
    CollectUnorderedDecls(scan, &unordered_decls);
  }

  // Function definitions and the name-stem call graph.
  std::vector<FuncDef> defs;
  std::vector<std::vector<size_t>> defs_in_scan(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    ExtractDefs(scans[s], s, &defs);
  }
  for (size_t d = 0; d < defs.size(); ++d) {
    defs_in_scan[defs[d].scan_idx].push_back(d);
  }
  std::multimap<std::string, size_t> by_stem;
  for (size_t d = 0; d < defs.size(); ++d) by_stem.emplace(defs[d].stem, d);

  // Call sites, attributed to the innermost enclosing definition. A
  // definition spans its tail and body (from the parameter list's ')' to
  // its '}'), so the calls in a constructor's member-initializer list are
  // the constructor's.
  std::vector<std::vector<CallSite>> calls(defs.size());
  Report report;
  for (size_t s = 0; s < scans.size(); ++s) {
    const auto& toks = scans[s].toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::kIdent || toks[i + 1].text != "(") continue;
      if (NotFuncNames().count(toks[i].text) > 0) continue;
      size_t owner = defs.size();
      for (const size_t d : defs_in_scan[s]) {
        if (i > defs[d].params_close && i < defs[d].body_close &&
            (owner == defs.size() ||
             defs[d].params_close > defs[owner].params_close)) {
          owner = d;
        }
      }
      if (owner == defs.size()) continue;
      calls[owner].push_back({i, toks[i].text, toks[i].line});
      report.edges.push_back(
          {defs[owner].name, toks[i].text, scans[s].path, toks[i].line});
    }
  }

  // Reachability from the scheduling entry points (and, separately, from
  // the ticket-math roots Draw*/Reprice for CG1-float).
  {
    std::vector<size_t> queue;
    for (size_t d = 0; d < defs.size(); ++d) {
      if (IsEntryRoot(defs[d].stem)) {
        defs[d].reachable = true;
        defs[d].root = defs[d].stem;
        queue.push_back(d);
      }
    }
    while (!queue.empty()) {
      const size_t d = queue.back();
      queue.pop_back();
      for (const CallSite& c : calls[d]) {
        auto [lo, hi] = by_stem.equal_range(c.callee);
        for (auto it = lo; it != hi; ++it) {
          if (!defs[it->second].reachable) {
            defs[it->second].reachable = true;
            defs[it->second].root = defs[d].root;
            queue.push_back(it->second);
          }
        }
      }
    }
    std::vector<size_t> tqueue;
    for (size_t d = 0; d < defs.size(); ++d) {
      if (IsTicketRoot(defs[d].stem)) {
        defs[d].ticket_reachable = true;
        tqueue.push_back(d);
      }
    }
    while (!tqueue.empty()) {
      const size_t d = tqueue.back();
      tqueue.pop_back();
      for (const CallSite& c : calls[d]) {
        auto [lo, hi] = by_stem.equal_range(c.callee);
        for (auto it = lo; it != hi; ++it) {
          if (!defs[it->second].ticket_reachable) {
            defs[it->second].ticket_reachable = true;
            tqueue.push_back(it->second);
          }
        }
      }
    }
  }

  // RNG registries.
  std::set<std::string> seeded_inits;
  StreamRegistry streams;
  for (const Scan& scan : scans) {
    if (StartsWith(scan.path, "src/")) {
      CollectSeededInits(scan, &seeded_inits);
    }
    CollectStreams(scan, &streams);
  }

  // Per-file rules.
  std::vector<std::vector<RawFinding>> raws(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    RuleNondet(scans[s], &raws[s]);
    RuleUnorderedIter(scans[s], unordered_decls, closure[s], &raws[s]);
    RuleFloat(scans[s], &raws[s]);
    RuleMutatorInvariant(scans[s], &raws[s]);
    RuleRngSeed(scans[s], seeded_inits, &raws[s]);
    RuleRngStream(scans[s], streams, &raws[s]);
    RuleTsa(scans[s], &raws[s]);
  }

  // CG1: base scope-limited rules applied transitively along the call
  // graph. Emission is restricted to src/ (bench/tests are carriers, not
  // subjects); findings the base scopes already cover are excluded by
  // construction (disjoint directory predicates).
  {
    std::set<std::tuple<std::string, std::string, int>> seen;
    auto emit_once = [&](const Scan& scan, int line, const std::string& rule,
                         const std::string& message,
                         const std::string& waiver, size_t s) {
      if (seen.insert({rule, scan.path, line}).second) {
        Emit(scan, line, rule, message, waiver, &raws[s]);
      }
    };
    for (const FuncDef& def : defs) {
      if (!def.reachable) continue;
      const Scan& scan = scans[def.scan_idx];
      if (!StartsWith(scan.path, "src/")) continue;
      const auto& toks = scan.toks;
      const bool check_wallclock = !PathInAny(scan.path, kNoWallClockDirs);
      const bool check_unordered = !PathInAny(scan.path, kSimCoreDirs);
      const bool check_float =
          def.ticket_reachable && !InTicketScope(scan.path);
      if (!check_wallclock && !check_unordered && !check_float) continue;
      for (size_t k = def.body_open + 1; k < def.body_close; ++k) {
        if (toks[k].kind != Token::kIdent) continue;
        if (check_wallclock && kWallSimCore.count(toks[k].text) > 0) {
          emit_once(scan, toks[k].line, "CG1-wallclock",
                    "wall-clock source '" + toks[k].text + "' in '" +
                        def.name + "', reachable from scheduling entry "
                        "point '" + def.root + "': transitively feeds a "
                        "scheduling decision — use SimTime",
                    "wallclock-ok", def.scan_idx);
        }
        if (check_unordered && toks[k].text == "for") {
          const ContainerDecl* d = MatchRangeFor(
              scan, k, unordered_decls, closure[def.scan_idx]);
          if (d != nullptr) {
            emit_once(scan, toks[k].line, "CG1-unordered-iter",
                      "iteration over '" + d->name + "' (" + d->why +
                          ") in '" + def.name + "', reachable from "
                          "scheduling entry point '" + def.root +
                          "': order-dependent state transitively feeds a "
                          "scheduling decision",
                      "ordered-ok", def.scan_idx);
          }
        }
        if (check_float &&
            (toks[k].text == "float" || toks[k].text == "double")) {
          emit_once(scan, toks[k].line, "CG1-float",
                    "'" + toks[k].text + "' in '" + def.name +
                        "', reachable from ticket-math entry point '" +
                        def.root + "': draw/repricing arithmetic must stay "
                        "integer/fixed-point end to end",
                    "float-ok", def.scan_idx);
        }
      }
    }
  }

  // L1: lock-order graph with interprocedural hold sets, cycle detection.
  {
    std::vector<std::vector<AcquireSite>> acquires(defs.size());
    std::vector<std::set<std::string>> trans(defs.size());
    for (size_t d = 0; d < defs.size(); ++d) {
      acquires[d] = CollectAcquires(scans[defs[d].scan_idx], defs[d]);
      for (const AcquireSite& a : acquires[d]) trans[d].insert(a.lock);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t d = 0; d < defs.size(); ++d) {
        for (const CallSite& c : calls[d]) {
          auto [lo, hi] = by_stem.equal_range(c.callee);
          for (auto it = lo; it != hi; ++it) {
            for (const std::string& lock : trans[it->second]) {
              if (trans[d].insert(lock).second) changed = true;
            }
          }
        }
      }
    }
    struct EdgeSite {
      size_t scan_idx;
      int line;
    };
    std::map<std::pair<std::string, std::string>, EdgeSite> lock_edges;
    for (size_t d = 0; d < defs.size(); ++d) {
      if (!StartsWith(scans[defs[d].scan_idx].path, "src/")) continue;
      const auto& acq = acquires[d];
      for (size_t a = 0; a < acq.size(); ++a) {
        for (size_t b = a + 1; b < acq.size(); ++b) {
          if (acq[a].lock == acq[b].lock) continue;
          lock_edges.emplace(std::make_pair(acq[a].lock, acq[b].lock),
                             EdgeSite{defs[d].scan_idx, acq[b].line});
        }
        for (const CallSite& c : calls[d]) {
          if (c.tok < acq[a].tok) continue;
          auto [lo, hi] = by_stem.equal_range(c.callee);
          for (auto it = lo; it != hi; ++it) {
            for (const std::string& lock : trans[it->second]) {
              if (lock == acq[a].lock) continue;
              lock_edges.emplace(std::make_pair(acq[a].lock, lock),
                                 EdgeSite{defs[d].scan_idx, c.line});
            }
          }
        }
      }
    }
    std::map<std::string, std::set<std::string>> adj;
    for (const auto& [edge, site] : lock_edges) {
      adj[edge.first].insert(edge.second);
      adj[edge.second];  // ensure the node exists
    }
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& u) {
          color[u] = 1;
          stack.push_back(u);
          const auto it = adj.find(u);
          if (it != adj.end()) {
            for (const std::string& v : it->second) {
              if (color[v] == 1) {
                const auto at =
                    std::find(stack.begin(), stack.end(), v);
                std::vector<std::string> cycle(at, stack.end());
                std::vector<std::string> key = cycle;
                std::sort(key.begin(), key.end());
                std::string key_str;
                for (const std::string& n : key) key_str += n + "|";
                if (reported.insert(key_str).second) {
                  std::string shown;
                  for (const std::string& n : cycle) shown += n + " -> ";
                  shown += v;
                  const EdgeSite& site = lock_edges.at({u, v});
                  Emit(scans[site.scan_idx], site.line, "L1-lock-order",
                       "lock-order cycle: " + shown +
                           " — a potential SMP deadlock once per-CPU "
                           "partitioning makes these locks real; acquire "
                           "them in one global order",
                       "lock-order-ok", &raws[site.scan_idx]);
                }
              } else if (color[v] == 0) {
                dfs(v);
              }
            }
          }
          stack.pop_back();
          color[u] = 2;
        };
    for (const auto& [node, targets] : adj) {
      (void)targets;
      if (color[node] == 0) dfs(node);
    }
  }

  // Enclosing-function attribution + fingerprints, then the waiver and
  // baseline filters, then stale-waiver accounting.
  for (size_t s = 0; s < scans.size(); ++s) {
    for (RawFinding& raw : raws[s]) {
      size_t best = defs.size();
      for (const size_t d : defs_in_scan[s]) {
        if (raw.finding.line < defs[d].line ||
            raw.finding.line > defs[d].line_end) {
          continue;
        }
        if (best == defs.size() || defs[d].line > defs[best].line ||
            (defs[d].line == defs[best].line &&
             defs[d].line_end < defs[best].line_end)) {
          best = d;
        }
      }
      if (best != defs.size()) raw.finding.function = defs[best].name;
      raw.finding.fingerprint = FingerprintOf(raw.finding);
    }
  }
  for (size_t s = 0; s < scans.size(); ++s) {
    for (RawFinding& raw : raws[s]) {
      if (IsWaived(scans[s], raw)) {
        ++report.suppressed;
      } else if (options.baseline.count(raw.finding.fingerprint) > 0) {
        ++report.baselined;
      } else {
        report.findings.push_back(std::move(raw.finding));
      }
    }
  }
  for (const Scan& scan : scans) {
    for (const Annotation& a : scan.annotations) {
      if (!a.used && a.keyword != "stream") {
        report.stale.push_back({scan.path, a.line, a.keyword});
      }
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  std::sort(report.stale.begin(), report.stale.end(),
            [](const StaleWaiver& a, const StaleWaiver& b) {
              return std::tie(a.file, a.line, a.keyword) <
                     std::tie(b.file, b.line, b.keyword);
            });

  // Top-level directory of each call site, keyed by callee name.
  std::multimap<std::string, std::pair<size_t, std::string>> caller_dirs;
  for (size_t d = 0; d < defs.size(); ++d) {
    const std::string& path = scans[defs[d].scan_idx].path;
    const std::string dir = path.substr(0, path.find('/'));
    for (const CallSite& c : calls[d]) {
      caller_dirs.emplace(c.callee, std::make_pair(d, dir));
    }
  }
  for (size_t d = 0; d < defs.size(); ++d) {
    const FuncDef& def = defs[d];
    std::set<std::string> dirs;
    auto [lo, hi] = caller_dirs.equal_range(def.stem);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.first != d) dirs.insert(it->second.second);
    }
    report.functions.push_back({def.name, scans[def.scan_idx].path, def.line,
                                def.reachable, def.root,
                                std::vector<std::string>(dirs.begin(),
                                                         dirs.end())});
  }
  std::sort(report.functions.begin(), report.functions.end(),
            [](const FunctionNode& a, const FunctionNode& b) {
              return std::tie(a.file, a.line, a.name) <
                     std::tie(b.file, b.line, b.name);
            });
  std::sort(report.edges.begin(), report.edges.end(),
            [](const CallEdge& a, const CallEdge& b) {
              return std::tie(a.file, a.line, a.caller, a.callee) <
                     std::tie(b.file, b.line, b.caller, b.callee);
            });
  report.edges.erase(
      std::unique(report.edges.begin(), report.edges.end(),
                  [](const CallEdge& a, const CallEdge& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.caller == b.caller && a.callee == b.callee;
                  }),
      report.edges.end());
  return report;
}

Report AnalyzeFile(const std::string& virtual_path,
                   const std::string& content) {
  return Analyze({{virtual_path, content}});
}

std::string ReportToJson(const Report& report) {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
        << "\", \"message\": \"" << JsonEscape(f.message)
        << "\", \"snippet\": \"" << JsonEscape(f.snippet)
        << "\", \"function\": \"" << JsonEscape(f.function)
        << "\", \"fingerprint\": \"" << JsonEscape(f.fingerprint) << "\"}";
  }
  if (!report.findings.empty()) out << "\n  ";
  out << "],\n  \"count\": " << report.findings.size()
      << ",\n  \"suppressed\": " << report.suppressed
      << ",\n  \"baselined\": " << report.baselined << ",\n  \"stale\": [";
  for (size_t i = 0; i < report.stale.size(); ++i) {
    const StaleWaiver& w = report.stale[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << JsonEscape(w.file) << "\", \"line\": "
        << w.line << ", \"keyword\": \"" << JsonEscape(w.keyword) << "\"}";
  }
  if (!report.stale.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

std::string CallGraphToJson(const Report& report) {
  std::ostringstream out;
  out << "{\n  \"functions\": [";
  for (size_t i = 0; i < report.functions.size(); ++i) {
    const FunctionNode& f = report.functions[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << JsonEscape(f.name) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"reachable\": " << (f.reachable ? "true" : "false")
        << ", \"root\": \"" << JsonEscape(f.root)
        << "\", \"caller_dirs\": [";
    for (size_t j = 0; j < f.caller_dirs.size(); ++j) {
      out << (j == 0 ? "\"" : ", \"") << JsonEscape(f.caller_dirs[j]) << "\"";
    }
    out << "]}";
  }
  if (!report.functions.empty()) out << "\n  ";
  out << "],\n  \"edges\": [";
  for (size_t i = 0; i < report.edges.size(); ++i) {
    const CallEdge& e = report.edges[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"caller\": \"" << JsonEscape(e.caller)
        << "\", \"callee\": \"" << JsonEscape(e.callee)
        << "\", \"file\": \"" << JsonEscape(e.file) << "\", \"line\": "
        << e.line << "}";
  }
  if (!report.edges.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

std::string BaselineToJson(const Report& report) {
  std::vector<std::pair<std::string, std::string>> entries;  // fp, rule
  for (const Finding& f : report.findings) {
    entries.emplace_back(f.fingerprint, f.rule);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::ostringstream out;
  out << "{\n  \"baseline\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"rule\": \"" << JsonEscape(entries[i].second)
        << "\", \"fingerprint\": \"" << JsonEscape(entries[i].first)
        << "\"}";
  }
  if (!entries.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

std::set<std::string> ParseBaseline(const std::string& json) {
  std::set<std::string> out;
  const std::string key = "\"fingerprint\"";
  size_t pos = json.find(key);
  while (pos != std::string::npos) {
    size_t i = pos + key.size();
    while (i < json.size() && (json[i] == ' ' || json[i] == ':')) ++i;
    if (i < json.size() && json[i] == '"') {
      const size_t close = json.find('"', i + 1);
      if (close != std::string::npos) {
        out.insert(json.substr(i + 1, close - (i + 1)));
        i = close + 1;
      }
    }
    pos = json.find(key, i);
  }
  return out;
}

}  // namespace lotlint
