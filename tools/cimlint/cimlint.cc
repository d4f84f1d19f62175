#include "cimlint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>
#include <utility>

namespace cimlint {
namespace {

// ---------------------------------------------------------------------------
// Source stripping: split a file into per-line code text (string-literal and
// comment contents blanked out) and per-line comment text (for suppression
// lookup). A small hand-rolled scanner handles //, /* */, "..."/'...' and
// raw strings with custom delimiters and encoding prefixes:
// R"x(...)x", u8R"(...)", uR/UR/LR"(...)".
// ---------------------------------------------------------------------------

struct StrippedFile {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

StrippedFile Strip(const std::string& content) {
  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  StrippedFile out;
  std::string code_line;
  std::string comment_line;
  State state = State::kNormal;
  std::string raw_delim;  // ")delim\"" terminator for raw strings
  const std::size_t n = content.size();

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  // Number of characters in the encoding prefix plus the 'R', when content[i]
  // starts a raw-string intro ((u8|u|U|L)?R followed by '"'); 0 otherwise.
  auto raw_intro_len = [&](std::size_t i) -> std::size_t {
    std::size_t j = i;
    if (content[j] == 'u') {
      ++j;
      if (j < n && content[j] == '8') ++j;
    } else if (content[j] == 'U' || content[j] == 'L') {
      ++j;
    }
    if (j >= n || content[j] != 'R') return 0;
    ++j;
    if (j >= n || content[j] != '"') return 0;
    return j - i;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kNormal;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kNormal: {
        const bool ident_before =
            i > 0 && (std::isalnum(static_cast<unsigned char>(content[i - 1])) !=
                          0 ||
                      content[i - 1] == '_');
        std::size_t intro = 0;
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if ((c == 'R' || c == 'u' || c == 'U' || c == 'L') &&
                   !ident_before && (intro = raw_intro_len(i)) != 0) {
          // Raw string: (prefix)R"delim( ... )delim"
          std::size_t j = i + intro + 1;  // past the opening quote
          std::string delim;
          while (j < n && content[j] != '(' && content[j] != '\n') {
            delim += content[j++];
          }
          raw_delim = ")" + delim + "\"";
          code_line += "\"\"";
          state = State::kRawString;
          i = j;  // at '(' (or newline, handled next iteration)
        } else if (c == '"') {
          code_line += '"';
          state = State::kString;
        } else if (c == '\'' && !ident_before) {
          // Digit separators (1'000'000) keep us out of kChar.
          code_line += '\'';
          state = State::kChar;
        } else {
          code_line += c;
        }
        break;
      }
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kNormal;
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char
        } else if (c == '"') {
          code_line += '"';
          state = State::kNormal;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          code_line += '\'';
          state = State::kNormal;
        }
        break;
      case State::kRawString:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kNormal;
        }
        break;
    }
  }
  flush_line();
  return out;
}

[[nodiscard]] std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[nodiscard]] bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool IsHeader(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

// ---------------------------------------------------------------------------
// Suppressions. Two comment forms (see cimlint.h for the user-facing
// syntax): a per-line rule allowance and a whole-file rule allowance.
// Every parsed suppression carries a `used` flag; whatever is still unused
// after all passes is reported as stale-suppression.
// ---------------------------------------------------------------------------

struct Suppression {
  enum class Kind { kRule, kFileRule };
  std::size_t line = 0;  // 0-based line index of the comment
  Kind kind = Kind::kRule;
  std::string name;
  bool used = false;
};

[[nodiscard]] bool ValidRuleName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if ((std::islower(static_cast<unsigned char>(c)) == 0) &&
        (std::isdigit(static_cast<unsigned char>(c)) == 0) && c != '-') {
      return false;
    }
  }
  return true;
}

std::vector<Suppression> ParseSuppressions(
    const std::vector<std::string>& comments) {
  std::vector<Suppression> sups;
  for (std::size_t line = 0; line < comments.size(); ++line) {
    const std::string& text = comments[line];
    std::size_t pos = 0;
    while ((pos = text.find("cimlint:", pos)) != std::string::npos) {
      // Documentation that *mentions* the syntax (backtick-quoted, or the
      // `//`-prefixed form inside a comment) is not a suppression.
      std::size_t before = pos;
      while (before > 0 && (text[before - 1] == ' ' || text[before - 1] == '\t')) {
        --before;
      }
      const char prev = before > 0 ? text[before - 1] : '\0';
      std::size_t p = pos + std::string_view("cimlint:").size();
      pos = p;
      if (prev == '`' || prev == '/') continue;
      while (p < text.size() && text[p] == ' ') ++p;
      auto parse_paren_name = [&](std::string_view head,
                                  Suppression::Kind kind) -> bool {
        if (text.compare(p, head.size(), head) != 0) return false;
        const std::size_t open = p + head.size();
        const std::size_t close = text.find(')', open);
        if (close == std::string::npos) return false;
        const std::string name = text.substr(open, close - open);
        if (!ValidRuleName(name)) return false;
        sups.push_back(Suppression{line, kind, name, false});
        return true;
      };
      if (parse_paren_name("allow-file(", Suppression::Kind::kFileRule)) {
        continue;
      }
      (void)parse_paren_name("allow(", Suppression::Kind::kRule);
    }
  }
  return sups;
}

// ---------------------------------------------------------------------------
// Per-file analysis context shared by every pass.
// ---------------------------------------------------------------------------

struct FileContext {
  const SourceFile* file = nullptr;
  StrippedFile stripped;
  std::vector<Suppression> sups;
  // Code lines joined with '\n' for multi-line (extent-based) passes, plus a
  // joined-position -> line-index map.
  std::string joined;
  std::vector<std::size_t> line_of;
};

FileContext MakeContext(const SourceFile& file) {
  FileContext ctx;
  ctx.file = &file;
  ctx.stripped = Strip(file.content);
  ctx.sups = ParseSuppressions(ctx.stripped.comments);
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    for (std::size_t k = 0; k <= ctx.stripped.code[i].size(); ++k) {
      ctx.line_of.push_back(i);
    }
    ctx.joined += ctx.stripped.code[i];
    ctx.joined += '\n';
  }
  return ctx;
}

[[nodiscard]] bool AllowedBy(FileContext& ctx, std::size_t line_index,
                             const std::string& rule) {
  bool allowed = false;
  for (Suppression& sup : ctx.sups) {
    if (sup.kind == Suppression::Kind::kFileRule && sup.name == rule) {
      sup.used = true;
      allowed = true;
    } else if (sup.kind == Suppression::Kind::kRule && sup.name == rule &&
               (sup.line == line_index || sup.line + 1 == line_index)) {
      sup.used = true;
      allowed = true;
    }
  }
  return allowed;
}

void Report(FileContext& ctx, std::size_t line_index, const std::string& rule,
            std::string key, std::string message,
            std::vector<Finding>& findings) {
  if (AllowedBy(ctx, line_index, rule)) return;
  findings.push_back(Finding{ctx.file->repo_path, line_index + 1, rule,
                             std::move(message), std::move(key)});
}

// Index of the close bracket matching s[open], or npos when unbalanced.
[[nodiscard]] std::size_t MatchingClose(const std::string& s,
                                        std::size_t open) {
  const char oc = s[open];
  const char cc = oc == '(' ? ')' : oc == '{' ? '}' : oc == '[' ? ']' : '>';
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) {
      ++depth;
    } else if (s[i] == cc) {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Per-file rules (pass B's determinism family follows further down).
// ---------------------------------------------------------------------------

void CheckPragmaOnce(FileContext& ctx, std::vector<Finding>& findings) {
  if (!IsHeader(ctx.file->repo_path)) return;
  for (const std::string& line : ctx.stripped.code) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  Report(ctx, 0, "pragma-once", "", "header is missing #pragma once",
         findings);
}

void CheckUsingNamespace(FileContext& ctx, std::vector<Finding>& findings) {
  if (!IsHeader(ctx.file->repo_path)) return;
  static const std::regex kUsingNamespace(R"(\busing\s+namespace\b)");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (std::regex_search(ctx.stripped.code[i], kUsingNamespace)) {
      Report(ctx, i, "using-namespace-header", "",
             "`using namespace` in a header leaks into every includer",
             findings);
    }
  }
}

void CheckRawRng(FileContext& ctx, std::vector<Finding>& findings) {
  if (ctx.file->repo_path == "src/common/rng.h") return;
  static const std::regex kStdRng(
      R"(std\s*::\s*(rand|srand|random_device|mt19937(_64)?)\b)");
  static const std::regex kBareRand(R"((^|[^\w:.>])(rand|srand)\s*\()");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (std::regex_search(ctx.stripped.code[i], kStdRng) ||
        std::regex_search(ctx.stripped.code[i], kBareRand)) {
      Report(ctx, i, "raw-rng", "",
             "non-deterministic RNG source; use cim::Rng (common/rng.h)",
             findings);
    }
  }
}

void CheckRawThread(FileContext& ctx, std::vector<Finding>& findings) {
  if (ctx.file->repo_path == "src/common/thread_pool.h") return;
  static const std::regex kStdThread(
      R"(std\s*::\s*(thread|jthread|async)\b)");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (std::regex_search(ctx.stripped.code[i], kStdThread)) {
      Report(ctx, i, "raw-thread", "",
             "raw std::thread/jthread/async; use cim::ThreadPool "
             "(common/thread_pool.h) so shutdown, exceptions and "
             "utilization stay centralized",
             findings);
    }
  }
}

void CheckSecondMesh(FileContext& ctx, std::vector<Finding>& findings) {
  // bench/, tests/ and perfbench/ build bare meshes on purpose; the library
  // builds its one mesh in arch::TileGrid (noc/mesh.cc defines Create).
  const std::string& path = ctx.file->repo_path;
  if (!StartsWith(path, "src/") || path == "src/arch/fabric.cc" ||
      path == "src/noc/mesh.cc") {
    return;
  }
  static const std::regex kMeshCreate(R"(\bMeshNoc\s*::\s*Create\s*\()");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (std::regex_search(ctx.stripped.code[i], kMeshCreate)) {
      Report(ctx, i, "second-mesh", "",
             "MeshNoc::Create outside arch::TileGrid; hold an "
             "arch::TileGrid (arch/fabric.h) so the queue, the mesh and "
             "its wiring exist once",
             findings);
    }
  }
}

void CheckMagicUnitLiteral(FileContext& ctx, std::vector<Finding>& findings) {
  // Only model code is in scope: tests/benches build ad-hoc unit values as
  // test vectors, and the two parameter headers are the sanctioned homes
  // for hardware constants.
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  if (ctx.file->repo_path == "src/dpe/params.h" ||
      ctx.file->repo_path == "src/common/units.h") {
    return;
  }
  // Expression-position construction from a literal: TimeNs(12.5),
  // EnergyPj{3.0}, TimeNs::Micros(2.0). A named member default
  // (`TimeNs read_latency{10.0};`) is self-documenting and allowed.
  static const std::regex kUnitLiteral(
      R"(\b(TimeNs|EnergyPj)\s*(::\s*(Micros|Millis|Seconds|Nano|Micro|Milli)\s*)?[({]\s*([0-9][0-9'\.eE+\-]*))");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    for (std::sregex_iterator it(ctx.stripped.code[i].begin(),
                                 ctx.stripped.code[i].end(), kUnitLiteral),
         end;
         it != end; ++it) {
      const double value = std::strtod((*it)[4].str().c_str(), nullptr);
      if (value == 0.0) continue;  // zero is "nothing", not a magic constant
      Report(ctx, i, "magic-unit-literal", (*it)[1].str(),
             "magic " + (*it)[1].str() +
                 " literal; name it in a params struct (see src/dpe/params.h)",
             findings);
      break;
    }
  }
}

void CheckBannedFunctions(FileContext& ctx, std::vector<Finding>& findings) {
  static const std::regex kPrintf(R"((^|[^\w])((std\s*::\s*)?f?printf)\s*\()");
  static const std::regex kExit(R"((^|[^\w])((std\s*::\s*)?exit)\s*\()");
  static const std::regex kMain(R"(\bint\s+main\s*\()");
  bool defines_main = false;
  for (const std::string& line : ctx.stripped.code) {
    if (std::regex_search(line, kMain)) {
      defines_main = true;
      break;
    }
  }
  // Library code returns results and Status to its callers instead of
  // printing; bench/ and examples/ executables exist to print tables.
  const bool printf_allowed = !StartsWith(ctx.file->repo_path, "src/");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (!printf_allowed && std::regex_search(ctx.stripped.code[i], kPrintf)) {
      Report(ctx, i, "banned-function", "printf",
             "printf-family output in library code; return it to the caller",
             findings);
    }
    if (!defines_main && std::regex_search(ctx.stripped.code[i], kExit)) {
      Report(ctx, i, "banned-function", "exit",
             "exit() outside a main() file; return a Status instead",
             findings);
    }
  }
}

void CheckUnusedStatus(FileContext& ctx,
                       const std::set<std::string>& status_functions,
                       std::vector<Finding>& findings) {
  // A call in statement position whose callee is declared to return
  // Status/Expected<T>. Statement position: the previous non-blank code
  // line ended a statement/block (or this is the first line).
  static const std::regex kBareCall(
      R"(^\s*((?:[A-Za-z_]\w*(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*)([A-Za-z_]\w*)\s*\()");
  std::string prev_nonblank;
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    const std::string trimmed = Trim(ctx.stripped.code[i]);
    if (trimmed.empty()) continue;
    const std::string prev = prev_nonblank;
    prev_nonblank = trimmed;
    if (trimmed[0] == '#') continue;  // preprocessor
    const bool statement_start =
        prev.empty() || EndsWith(prev, ";") || EndsWith(prev, "{") ||
        EndsWith(prev, "}") || EndsWith(prev, ")") || EndsWith(prev, ":") ||
        prev[0] == '#';
    if (!statement_start) continue;
    std::smatch m;
    if (!std::regex_search(ctx.stripped.code[i], m, kBareCall)) continue;
    const std::string callee = m[2].str();
    if (status_functions.count(callee) == 0) continue;
    Report(ctx, i, "unused-status", callee,
           "result of '" + callee +
               "' (returns Status/Expected) is discarded; handle it or "
               "cast to void",
           findings);
  }
}

void CheckDiscardedStatus(FileContext& ctx,
                          const std::set<std::string>& status_functions,
                          std::vector<Finding>& findings) {
  // A `(void)` / `static_cast<void>` cast of a call whose callee is declared
  // to return Status/Expected<T>. The cast satisfies [[nodiscard]] but still
  // drops the error; production code must handle it or justify the discard
  // with an allow comment. Tests exercise failure paths on purpose, so
  // tests/ and *_test.cc are out of scope.
  if (StartsWith(ctx.file->repo_path, "tests/") ||
      EndsWith(ctx.file->repo_path, "_test.cc")) {
    return;
  }
  // Matches the discard cast, an optional receiver chain — `obj.`, `ptr->`,
  // `Ns::`, `(*tile)->`, `f(x).` — and captures the final callee name.
  static const std::regex kDiscardedCall(
      R"((?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>\s*\()\s*(?:(?:\(\s*\*+\s*[A-Za-z_]\w*\s*\)|[A-Za-z_]\w*(?:\([^()]*\))?(?:\[[^\]]*\])?)\s*(?:\.|->|::)\s*)*([A-Za-z_]\w*)\s*\()");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    for (std::sregex_iterator it(ctx.stripped.code[i].begin(),
                                 ctx.stripped.code[i].end(), kDiscardedCall),
         end;
         it != end; ++it) {
      const std::string callee = (*it)[1].str();
      if (status_functions.count(callee) == 0) continue;
      Report(ctx, i, "discarded-status", callee,
             "'" + callee +
                 "' returns Status/Expected but the result is cast to void; "
                 "handle the error or justify with `// cimlint: "
                 "allow(discarded-status)`",
             findings);
      break;
    }
  }
}

void CheckPow2InHotPath(FileContext& ctx, std::vector<Finding>& findings) {
  // Model code only: std::pow(2.0, integer) is an exact shift wearing a
  // libm costume, and the analog cycle / shift-and-add loops it showed up
  // in are the hottest code in the repo. bench/, examples/ and tests/ keep
  // their freedom. Non-integer exponents stay legitimate via an allow
  // comment.
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  static const std::regex kPow2(R"(\bstd\s*::\s*pow\s*\(\s*2(\.0*f?)?\s*,)");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (!std::regex_search(ctx.stripped.code[i], kPow2)) continue;
    Report(ctx, i, "pow2-in-hot-path", "",
           "std::pow(2, ...) in model code; use a shift-derived constant or "
           "std::ldexp(1.0, n), or justify a non-integer exponent with "
           "`// cimlint: allow(pow2-in-hot-path)`",
           findings);
  }
}

void CheckLogNormalInHotPath(FileContext& ctx,
                             std::vector<Finding>& findings) {
  // The analog hot paths (crossbar cycle kernels and the device read path
  // feeding them) must source read-noise factors through
  // device::NoiseModel::Factors so the kernel policy — reference /
  // fast-bit-exact / fast-noise — stays in control of the sampler and its
  // equivalence contract. noise_model.cc is the sanctioned home of the
  // direct draw; the golden per-cell reference path justifies its own draw
  // with an allow comment.
  const std::string& path = ctx.file->repo_path;
  if (path == "src/device/noise_model.cc") return;
  if (!StartsWith(path, "src/crossbar/") &&
      !StartsWith(path, "src/device/")) {
    return;
  }
  static const std::regex kLogNormal(R"((\.|->)\s*LogNormal\s*\()");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (!std::regex_search(ctx.stripped.code[i], kLogNormal)) continue;
    Report(ctx, i, "lognormal-in-hot-path", "",
           "direct LogNormal draw in an analog hot path; route sampling "
           "through device::NoiseModel::Factors so the kernel policy "
           "owns the sampler, or justify with `// cimlint: "
           "allow(lognormal-in-hot-path)`",
           findings);
  }
}

void CheckBlockingInServerLoop(FileContext& ctx,
                               std::vector<Finding>& findings) {
  // The serving loop (src/serve/) must never block without a deadline: a
  // sleep_for/sleep_until nap cannot observe shutdown or shed expired
  // work, and an unbounded condition_variable::wait can hang the loop
  // forever. A real-time wait, if one is ever needed, must be bounded
  // (the deadline-aware wait_for/wait_until forms do not match); a
  // genuinely justified block carries an allow comment.
  if (!StartsWith(ctx.file->repo_path, "src/serve/")) return;
  static const std::regex kBlocking(
      R"(\bsleep_(for|until)\s*\(|(\.|->)\s*wait\s*\()");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    if (!std::regex_search(ctx.stripped.code[i], kBlocking)) continue;
    Report(ctx, i, "blocking-in-server-loop", "",
           "unbounded blocking in the serving loop; use a deadline-aware "
           "bounded wait (wait_for/wait_until), or justify with "
           "`// cimlint: allow(blocking-in-server-loop)`",
           findings);
  }
}

// ---------------------------------------------------------------------------
// Pass B: determinism & concurrency rules (src/ only). These are extent-based
// passes over the joined code text: a "parallel extent" is the argument list
// of a ParallelFor call, bracket-matched so lambda bodies are covered.
// ---------------------------------------------------------------------------

struct Extent {
  std::size_t name_pos = 0;  // position of the callee name
  std::size_t open = 0;      // '(' of the argument list
  std::size_t close = 0;     // matching ')'
};

std::vector<Extent> ParallelExtents(const FileContext& ctx) {
  static const std::regex kParallelCall(R"(\bParallelFor\s*\()");
  std::vector<Extent> extents;
  for (std::sregex_iterator it(ctx.joined.begin(), ctx.joined.end(),
                               kParallelCall),
       end;
       it != end; ++it) {
    Extent e;
    e.name_pos = static_cast<std::size_t>(it->position(0));
    e.open = e.name_pos + static_cast<std::size_t>(it->length(0)) - 1;
    e.close = MatchingClose(ctx.joined, e.open);
    if (e.close != std::string::npos) extents.push_back(e);
  }
  return extents;
}

void CheckNestedParallel(FileContext& ctx, std::vector<Finding>& findings) {
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  const std::vector<Extent> extents = ParallelExtents(ctx);
  std::set<std::size_t> reported;
  for (const Extent& inner : extents) {
    for (const Extent& outer : extents) {
      if (outer.open < inner.name_pos && inner.name_pos < outer.close) {
        if (!reported.insert(inner.name_pos).second) break;
        Report(ctx, ctx.line_of[inner.name_pos], "nested-parallel-region",
               "ParallelFor",
               "ParallelFor inside a ParallelFor argument list; a nested "
               "ParallelFor always runs inline on the calling thread, so "
               "write a plain loop",
               findings);
        break;
      }
    }
  }
}

void CheckThreadLocalInParallel(FileContext& ctx,
                                std::vector<Finding>& findings) {
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  const std::vector<Extent> extents = ParallelExtents(ctx);
  auto in_parallel = [&](std::size_t pos) {
    for (const Extent& e : extents) {
      if (e.open < pos && pos < e.close) return true;
    }
    return false;
  };
  // Collect thread_local declarations; flag the keyword itself when it sits
  // inside a parallel extent (per-task scratch state belongs in the callee's
  // function-scope cache, not in the submitted lambda).
  static const std::regex kThreadLocal(R"(\bthread_local\b)");
  std::set<std::string> tl_names;
  for (std::sregex_iterator it(ctx.joined.begin(), ctx.joined.end(),
                               kThreadLocal),
       end;
       it != end; ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position(0));
    // Declared name: last identifier before the initializer/terminator.
    std::size_t semi = ctx.joined.find(';', pos);
    if (semi == std::string::npos) semi = ctx.joined.size();
    std::string decl = ctx.joined.substr(pos, semi - pos);
    const std::size_t cut = decl.find_first_of("={(");
    if (cut != std::string::npos) decl = decl.substr(0, cut);
    std::size_t e = decl.find_last_not_of(" \t\n");
    if (e != std::string::npos) {
      std::size_t b = e;
      while (b > 0 && (std::isalnum(static_cast<unsigned char>(decl[b - 1])) !=
                           0 ||
                       decl[b - 1] == '_')) {
        --b;
      }
      if (b <= e) tl_names.insert(decl.substr(b, e - b + 1));
    }
    if (in_parallel(pos)) {
      Report(ctx, ctx.line_of[pos], "thread-local-in-parallel", "",
             "thread_local declared inside a parallel region; use the "
             "callee's function-scope scratch cache or per-slot storage "
             "merged in canonical order (DESIGN.md § Threading)",
             findings);
    }
  }
  if (tl_names.empty()) return;
  // Writes to a thread_local declared elsewhere, from inside an extent.
  static const std::regex kAssign(
      R"(\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?([+\-*/|&^]?=)(?!=))");
  for (const Extent& ext : extents) {
    const std::string body =
        ctx.joined.substr(ext.open + 1, ext.close - ext.open - 1);
    for (std::sregex_iterator it(body.begin(), body.end(), kAssign), end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      if (tl_names.count(name) == 0) continue;
      const std::size_t pos =
          ext.open + 1 + static_cast<std::size_t>(it->position(0));
      if (in_parallel(pos)) {
        Report(ctx, ctx.line_of[pos], "thread-local-in-parallel", name,
               "write to thread_local '" + name +
                   "' inside a parallel region; results that depend on task "
                   "scheduling are not reproducible",
               findings);
      }
    }
  }
}

void CheckNondeterministicSeed(FileContext& ctx,
                               std::vector<Finding>& findings) {
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  static const std::regex kWallClock(
      R"((^|[^\w:])time\s*\(|\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b)");
  static const std::regex kAddrCast(
      R"(reinterpret_cast\s*<\s*(?:std\s*::\s*)?u?int)");
  static const std::regex kSeedContext(R"([Ss]eed|\bRng\b|\brng\b)");
  for (std::size_t i = 0; i < ctx.stripped.code.size(); ++i) {
    const std::string& line = ctx.stripped.code[i];
    if (!std::regex_search(line, kSeedContext)) continue;
    if (std::regex_search(line, kWallClock) ||
        std::regex_search(line, kAddrCast)) {
      Report(ctx, i, "nondeterministic-seed", "",
             "seed derived from wall clock or object address; draw it from "
             "the deterministic seed tree (common/rng.h) so runs replay "
             "bit-identically",
             findings);
    }
  }
}

void CheckUnorderedIteration(FileContext& ctx,
                             std::vector<Finding>& findings) {
  if (!StartsWith(ctx.file->repo_path, "src/")) return;
  // Names of variables declared with an unordered container type.
  static const std::regex kUnordered(
      R"(\bunordered_(?:map|set|multimap|multiset)\b)");
  std::set<std::string> containers;
  for (std::sregex_iterator it(ctx.joined.begin(), ctx.joined.end(),
                               kUnordered),
       end;
       it != end; ++it) {
    std::size_t p =
        static_cast<std::size_t>(it->position(0)) +
        static_cast<std::size_t>(it->length(0));
    while (p < ctx.joined.size() && std::isspace(static_cast<unsigned char>(
                                        ctx.joined[p])) != 0) {
      ++p;
    }
    if (p >= ctx.joined.size() || ctx.joined[p] != '<') continue;
    const std::size_t close = MatchingClose(ctx.joined, p);
    if (close == std::string::npos) continue;
    p = close + 1;
    while (p < ctx.joined.size() &&
           (std::isspace(static_cast<unsigned char>(ctx.joined[p])) != 0 ||
            ctx.joined[p] == '&' || ctx.joined[p] == '*')) {
      ++p;
    }
    std::string name;
    while (p < ctx.joined.size() &&
           (std::isalnum(static_cast<unsigned char>(ctx.joined[p])) != 0 ||
            ctx.joined[p] == '_')) {
      name += ctx.joined[p++];
    }
    if (!name.empty()) containers.insert(name);
  }
  if (containers.empty()) return;

  static const std::regex kFor(R"(\bfor\s*\()");
  static const std::regex kIdent(R"([A-Za-z_]\w*)");
  static const std::regex kBodyDecl(
      R"((?:^|[;{(])\s*(?:const\s+)?(?:auto|int|unsigned|long|double|float|bool|char|std\s*::\s*\w+|[A-Z]\w*)(?:<[^;{}]*>)?\s*[&*]?\s*([A-Za-z_]\w*)\s*(?:=|\{|;))");
  static const std::regex kAssign(
      R"(\b([A-Za-z_]\w*)((?:\s*(?:\.|->)\s*[A-Za-z_]\w*|\s*\[[^\]]*\])*)\s*([+\-*/|&^]?=)(?!=))");
  static const std::regex kMutCall(
      R"(\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:push_back|insert|emplace_back|emplace|append)\s*\()");
  for (std::sregex_iterator it(ctx.joined.begin(), ctx.joined.end(), kFor),
       end;
       it != end; ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position(0)) +
                             static_cast<std::size_t>(it->length(0)) - 1;
    const std::size_t close = MatchingClose(ctx.joined, open);
    if (close == std::string::npos) continue;
    const std::string head =
        ctx.joined.substr(open + 1, close - open - 1);
    // Range-for: no top-level ';', exactly a top-level ':' (not '::').
    int depth = 0;
    std::size_t colon = std::string::npos;
    bool classic = false;
    for (std::size_t k = 0; k < head.size(); ++k) {
      const char c = head[k];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (depth != 0) continue;
      if (c == ';') {
        classic = true;
        break;
      }
      if (c == ':' && (k + 1 >= head.size() || head[k + 1] != ':') &&
          (k == 0 || head[k - 1] != ':') && colon == std::string::npos) {
        colon = k;
      }
    }
    if (classic || colon == std::string::npos) continue;
    // Trailing identifier of the range expression.
    std::string range = Trim(head.substr(colon + 1));
    std::size_t re = range.size();
    while (re > 0 && (std::isalnum(static_cast<unsigned char>(
                          range[re - 1])) != 0 ||
                      range[re - 1] == '_')) {
      --re;
    }
    const std::string range_name = range.substr(re);
    if (containers.count(range_name) == 0) continue;
    // Everything declared before the ':' is a loop variable; writes through
    // those are per-element and order-independent.
    std::set<std::string> allowed;
    const std::string decl = head.substr(0, colon);
    for (std::sregex_iterator di(decl.begin(), decl.end(), kIdent), dend;
         di != dend; ++di) {
      allowed.insert(di->str());
    }
    // Body extent: a braced block or a single statement.
    std::size_t bstart = close + 1;
    while (bstart < ctx.joined.size() &&
           std::isspace(static_cast<unsigned char>(ctx.joined[bstart])) != 0) {
      ++bstart;
    }
    std::size_t bend;
    if (bstart < ctx.joined.size() && ctx.joined[bstart] == '{') {
      bend = MatchingClose(ctx.joined, bstart);
      if (bend == std::string::npos) continue;
      ++bstart;
    } else {
      bend = ctx.joined.find(';', bstart);
      if (bend == std::string::npos) continue;
    }
    const std::string body = ctx.joined.substr(bstart, bend - bstart);
    for (std::sregex_iterator di(body.begin(), body.end(), kBodyDecl), dend;
         di != dend; ++di) {
      allowed.insert((*di)[1].str());
    }
    // First write whose root is neither a loop variable nor body-local.
    std::size_t first_pos = std::string::npos;
    for (std::sregex_iterator wi(body.begin(), body.end(), kAssign), wend;
         wi != wend; ++wi) {
      const std::string root = (*wi)[1].str();
      if (allowed.count(root) != 0) continue;
      first_pos = std::min(first_pos, static_cast<std::size_t>(wi->position(0)));
      break;
    }
    for (std::sregex_iterator wi(body.begin(), body.end(), kMutCall), wend;
         wi != wend; ++wi) {
      const std::string root = (*wi)[1].str();
      if (allowed.count(root) != 0) continue;
      first_pos = std::min(first_pos, static_cast<std::size_t>(wi->position(0)));
      break;
    }
    if (first_pos == std::string::npos) continue;
    Report(ctx, ctx.line_of[bstart + first_pos], "unordered-iteration",
           range_name,
           "range-for over unordered container '" + range_name +
               "' writes to non-local state; iteration order is unspecified "
               "— sort the keys first or use std::map so merges stay "
               "canonical",
           findings);
  }
}

// ---------------------------------------------------------------------------
// Pass A: include-graph layering over the src/ module DAG.
// ---------------------------------------------------------------------------

struct IncludeSite {
  std::size_t ctx_index = 0;
  std::size_t line_index = 0;
  std::string path;  // the include path as written
};

// Tarjan strongly-connected components over the module graph; modules in a
// component of size > 1 participate in a cycle.
class SccFinder {
 public:
  SccFinder(const std::vector<std::string>& nodes,
            const std::map<std::string, std::set<std::string>>& adj)
      : nodes_(nodes), adj_(adj) {
    index_.assign(nodes_.size(), -1);
    low_.assign(nodes_.size(), 0);
    on_stack_.assign(nodes_.size(), false);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (index_[i] < 0) Visit(i);
    }
  }

  // component id per node index; ids are arbitrary but equal within an SCC.
  [[nodiscard]] const std::vector<int>& component() const { return comp_; }
  [[nodiscard]] int ComponentSize(int id) const { return comp_size_.at(id); }

 private:
  void Visit(std::size_t v) {
    index_[v] = low_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = true;
    const auto it = adj_.find(nodes_[v]);
    if (it != adj_.end()) {
      for (const std::string& t : it->second) {
        const auto pos = std::find(nodes_.begin(), nodes_.end(), t);
        if (pos == nodes_.end()) continue;
        const std::size_t w = static_cast<std::size_t>(pos - nodes_.begin());
        if (index_[w] < 0) {
          Visit(w);
          low_[v] = std::min(low_[v], low_[w]);
        } else if (on_stack_[w]) {
          low_[v] = std::min(low_[v], index_[w]);
        }
      }
    }
    if (low_[v] == index_[v]) {
      const int id = next_comp_++;
      int size = 0;
      while (true) {
        const std::size_t w = stack_.back();
        stack_.pop_back();
        on_stack_[w] = false;
        if (comp_.size() < nodes_.size()) comp_.resize(nodes_.size(), -1);
        comp_[w] = id;
        ++size;
        if (w == v) break;
      }
      comp_size_[id] = size;
    }
  }

  const std::vector<std::string>& nodes_;
  const std::map<std::string, std::set<std::string>>& adj_;
  std::vector<int> index_, low_, comp_;
  std::vector<bool> on_stack_;
  std::vector<std::size_t> stack_;
  std::map<int, int> comp_size_;
  int next_index_ = 0;
  int next_comp_ = 0;
};

void CheckLayering(std::vector<FileContext>& ctxs, const LayerSpec& spec,
                   std::vector<Finding>& findings) {
  // The stripped text blanks string contents, so the gate (is this line a
  // quoted include at all?) runs on stripped code — which excludes
  // commented-out includes — and the path itself comes from the raw line.
  static const std::regex kIncludeGate(R"rx(^\s*#\s*include\s*"")rx");
  static const std::regex kInclude(R"rx(^\s*#\s*include\s*"([^"]+)")rx");
  std::set<std::string> modules;
  std::map<std::string, std::size_t> first_file;  // module -> ctx index
  std::map<std::pair<std::string, std::string>, std::vector<IncludeSite>>
      edges;
  for (std::size_t c = 0; c < ctxs.size(); ++c) {
    const std::string& path = ctxs[c].file->repo_path;
    if (!StartsWith(path, "src/")) continue;
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) continue;  // file directly under src/
    const std::string mod = path.substr(4, slash - 4);
    modules.insert(mod);
    first_file.emplace(mod, c);  // ctxs are path-sorted: first wins
    std::vector<std::string> raw_lines;
    {
      std::istringstream in(ctxs[c].file->content);
      std::string line;
      while (std::getline(in, line)) raw_lines.push_back(line);
    }
    for (std::size_t i = 0; i < ctxs[c].stripped.code.size(); ++i) {
      if (!std::regex_search(ctxs[c].stripped.code[i], kIncludeGate)) continue;
      if (i >= raw_lines.size()) continue;
      std::smatch m;
      if (!std::regex_search(raw_lines[i], m, kInclude)) continue;
      const std::string inc = m[1].str();
      const std::size_t inc_slash = inc.find('/');
      if (inc_slash == std::string::npos) continue;  // not a module include
      const std::string target = inc.substr(0, inc_slash);
      if (target == mod) continue;
      edges[{mod, target}].push_back(IncludeSite{c, i, inc});
    }
  }
  // The spec must place every module the tree actually has.
  for (const std::string& mod : modules) {
    if (spec.LayerOf(mod) >= 0) continue;
    Report(ctxs[first_file.at(mod)], 0, "layer-unknown-module", mod,
           "module 'src/" + mod +
               "' is not placed in any layer of tools/cimlint/layers.txt; "
               "add it so the layering stays exhaustive",
           findings);
  }
  // Upward edges: including a module in a strictly higher layer.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [edge, sites] : edges) {
    const auto& [from, to] = edge;
    // A target counts as a module when the spec places it or the scan saw
    // it; anything else ("tools/...", vendored paths) is not a layer edge.
    if (modules.count(to) == 0 && spec.LayerOf(to) < 0) continue;
    adj[from].insert(to);
    const int lf = spec.LayerOf(from);
    const int lt = spec.LayerOf(to);
    if (lf < 0 || lt < 0 || lf >= lt) continue;
    for (const IncludeSite& site : sites) {
      Report(ctxs[site.ctx_index], site.line_index, "layer-upward-include",
             site.path,
             "module '" + from + "' (layer " + std::to_string(lf) +
                 ") includes '" + site.path + "' from module '" + to +
                 "' (layer " + std::to_string(lt) +
                 ") above it; invert the dependency or move the shared type "
                 "down (see DESIGN.md § Module layering)",
             findings);
    }
  }
  // Cycles: every edge inside a strongly-connected component of size > 1.
  const std::vector<std::string> nodes(modules.begin(), modules.end());
  const SccFinder scc(nodes, adj);
  for (const auto& [edge, sites] : edges) {
    const auto& [from, to] = edge;
    const auto fp = std::find(nodes.begin(), nodes.end(), from);
    const auto tp = std::find(nodes.begin(), nodes.end(), to);
    if (fp == nodes.end() || tp == nodes.end()) continue;
    const int cf = scc.component()[static_cast<std::size_t>(fp - nodes.begin())];
    const int ct = scc.component()[static_cast<std::size_t>(tp - nodes.begin())];
    if (cf != ct || scc.ComponentSize(cf) < 2) continue;
    const IncludeSite& site = sites.front();
    Report(ctxs[site.ctx_index], site.line_index, "layer-cycle",
           from + "->" + to,
           "include edge '" + from + "' -> '" + to +
               "' participates in a module cycle; the module graph must stay "
               "a DAG",
           findings);
  }
}

}  // namespace

int LayerSpec::LayerOf(std::string_view module) const {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    for (const std::string& m : layers[i]) {
      if (m == module) return static_cast<int>(i);
    }
  }
  return -1;
}

bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                    std::string* error) {
  spec->layers.clear();
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  std::set<std::string> seen;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    std::istringstream fields(raw);
    std::string directive;
    if (!(fields >> directive)) continue;  // blank line
    if (directive != "layer") {
      *error = "line " + std::to_string(line_no) +
               ": expected 'layer <module>...', got '" + directive + "'";
      return false;
    }
    std::vector<std::string> layer;
    std::string mod;
    while (fields >> mod) {
      if (!seen.insert(mod).second) {
        *error = "line " + std::to_string(line_no) + ": module '" + mod +
                 "' declared twice";
        return false;
      }
      layer.push_back(mod);
    }
    if (layer.empty()) {
      *error = "line " + std::to_string(line_no) +
               ": 'layer' directive with no modules";
      return false;
    }
    spec->layers.push_back(std::move(layer));
  }
  if (spec->layers.empty()) {
    *error = "no layers declared";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pass C: the deterministic SARIF writer. Hand-rolled on purpose: no
// third-party deps, and it emits fields in a fixed order so golden tests can
// compare bytes.
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] std::vector<Finding> Sorted(std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.key, a.message) <
                     std::tie(b.file, b.line, b.rule, b.key, b.message);
            });
  return findings;
}

// Every rule the engine knows, alphabetical; SARIF results refer into this
// table by index.
struct RuleInfo {
  const char* id;
  const char* description;
};
constexpr RuleInfo kRules[] = {
    {"banned-function", "printf/exit outside their sanctioned homes"},
    {"blocking-in-server-loop",
     "sleep or unbounded condition_variable::wait in src/serve/"},
    {"discarded-status", "Status/Expected result cast to void"},
    {"layer-cycle", "include edge participating in a module cycle"},
    {"layer-spec", "tools/cimlint/layers.txt is malformed"},
    {"layer-unknown-module", "src/ module missing from layers.txt"},
    {"layer-upward-include", "include of a module in a higher layer"},
    {"lognormal-in-hot-path",
     "direct LogNormal draw outside NoiseModel in analog hot paths"},
    {"magic-unit-literal", "inline TimeNs/EnergyPj constant in model code"},
    {"nested-parallel-region", "ParallelFor inside a parallel region"},
    {"nondeterministic-seed", "seed from wall clock or object address"},
    {"pow2-in-hot-path", "std::pow(2, ...) in model code"},
    {"pragma-once", "header missing #pragma once"},
    {"raw-rng", "RNG source outside common/rng.h"},
    {"raw-thread", "thread primitive outside common/thread_pool.h"},
    {"second-mesh", "MeshNoc::Create in src/ outside arch::TileGrid"},
    {"stale-suppression", "suppression comment matching no finding"},
    {"thread-local-in-parallel", "thread_local use inside a parallel region"},
    {"unordered-iteration", "order-dependent write under unordered iteration"},
    {"unused-status", "Status/Expected result silently discarded"},
    {"using-namespace-header", "using namespace in a header"},
};

[[nodiscard]] int RuleIndex(const std::string& rule) {
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    if (rule == kRules[i].id) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string ToSarif(const std::vector<Finding>& findings) {
  const std::vector<Finding> sorted = Sorted(findings);
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"cimlint\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"rules\": [";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    out << (i == 0 ? "" : ",") << "\n            {\n"
        << "              \"id\": \"" << kRules[i].id << "\",\n"
        << "              \"shortDescription\": { \"text\": \""
        << JsonEscape(kRules[i].description) << "\" }\n            }";
  }
  out << "\n          ]\n        }\n      },\n"
      << "      \"columnKind\": \"utf16CodeUnits\",\n"
      << "      \"originalUriBaseIds\": {\n"
      << "        \"SRCROOT\": { \"description\": { \"text\": \"repository "
         "root\" } }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Finding& f = sorted[i];
    const int rule_index = RuleIndex(f.rule);
    out << (i == 0 ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n";
    if (rule_index >= 0) {
      out << "          \"ruleIndex\": " << rule_index << ",\n";
    }
    out << "          \"level\": \"error\",\n"
        << "          \"message\": { \"text\": \"" << JsonEscape(f.message)
        << "\" },\n"
        << "          \"locations\": [\n            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\n"
        << "                  \"uri\": \"" << JsonEscape(f.file) << "\",\n"
        << "                  \"uriBaseId\": \"SRCROOT\"\n                },\n"
        << "                \"region\": { \"startLine\": " << f.line
        << " }\n              }\n            }\n          ],\n"
        << "          \"partialFingerprints\": {\n"
        << "            \"cimlintKey/v1\": \""
        << JsonEscape(f.file + ":" + f.rule + ":" + f.key)
        << "\"\n          }\n        }";
  }
  out << (sorted.empty() ? "]\n" : "\n      ]\n")
      << "    }\n  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Driving the passes
// ---------------------------------------------------------------------------

std::set<std::string> CollectStatusFunctions(
    const std::vector<SourceFile>& files) {
  static const std::regex kStatusDeclaration(
      R"((?:\bStatus|\bExpected\s*<[^;{}=()]*>)\s+((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\()");
  // Line-anchored declaration with some other return type; used to drop
  // ambiguous names (a void overload elsewhere would make the
  // statement-position heuristic fire on perfectly fine calls).
  static const std::regex kOtherDeclaration(
      R"((?:^|[;{:])\s*(?:(?:static|virtual|inline|constexpr|explicit|friend)\s+)*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^;{}]*>)?)\s*[&*]?\s+((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\()");
  static const std::set<std::string> kKeywords = {
      "if",     "for",   "while",  "switch", "return", "operator",
      "sizeof", "new",   "delete", "throw",  "case",   "else",
      "do",     "goto",  "using",  "typedef"};
  std::set<std::string> status_names;
  std::set<std::string> other_names;
  for (const SourceFile& file : files) {
    const StrippedFile stripped = Strip(file.content);
    std::string joined;
    for (const std::string& line : stripped.code) {
      joined += line;
      joined += '\n';
    }
    for (std::sregex_iterator it(joined.begin(), joined.end(),
                                 kStatusDeclaration),
         end;
         it != end; ++it) {
      std::string name = (*it)[1].str();
      const std::size_t pos = name.rfind("::");
      if (pos != std::string::npos) name = name.substr(pos + 2);
      if (kKeywords.count(name) != 0) continue;
      status_names.insert(name);
    }
    for (const std::string& line : stripped.code) {
      for (std::sregex_iterator it(line.begin(), line.end(),
                                   kOtherDeclaration),
           end;
           it != end; ++it) {
        const std::string type = (*it)[1].str();
        if (type == "Status" || type.rfind("Expected", 0) == 0 ||
            kKeywords.count(type) != 0 || type == "struct" ||
            type == "class" || type == "enum") {
          continue;
        }
        std::string name = (*it)[2].str();
        const std::size_t pos = name.rfind("::");
        if (pos != std::string::npos) name = name.substr(pos + 2);
        other_names.insert(name);
      }
    }
  }
  std::set<std::string> unambiguous;
  for (const std::string& name : status_names) {
    if (other_names.count(name) == 0) unambiguous.insert(name);
  }
  return unambiguous;
}

std::vector<Finding> LintFiles(const std::vector<SourceFile>& files,
                               const LayerSpec* spec) {
  const std::set<std::string> status_functions = CollectStatusFunctions(files);
  std::vector<FileContext> ctxs;
  ctxs.reserve(files.size());
  for (const SourceFile& file : files) ctxs.push_back(MakeContext(file));

  std::vector<Finding> findings;
  for (FileContext& ctx : ctxs) {
    CheckPragmaOnce(ctx, findings);
    CheckUsingNamespace(ctx, findings);
    CheckRawRng(ctx, findings);
    CheckRawThread(ctx, findings);
    CheckSecondMesh(ctx, findings);
    CheckMagicUnitLiteral(ctx, findings);
    CheckBannedFunctions(ctx, findings);
    CheckUnusedStatus(ctx, status_functions, findings);
    CheckDiscardedStatus(ctx, status_functions, findings);
    CheckPow2InHotPath(ctx, findings);
    CheckLogNormalInHotPath(ctx, findings);
    CheckBlockingInServerLoop(ctx, findings);
    CheckNestedParallel(ctx, findings);
    CheckThreadLocalInParallel(ctx, findings);
    CheckNondeterministicSeed(ctx, findings);
    CheckUnorderedIteration(ctx, findings);
  }
  if (spec != nullptr) CheckLayering(ctxs, *spec, findings);

  // Whatever suppression no rule consumed is now provably stale. Emitted
  // directly (not through Report) so it cannot suppress itself.
  for (const FileContext& ctx : ctxs) {
    for (const Suppression& sup : ctx.sups) {
      if (sup.used) continue;
      const std::string display =
          sup.kind == Suppression::Kind::kFileRule
              ? "allow-file(" + sup.name + ")"
              : "allow(" + sup.name + ")";
      findings.push_back(Finding{
          ctx.file->repo_path, sup.line + 1, "stale-suppression",
          "suppression '" + display +
              "' no longer matches any finding; delete the comment",
          display});
    }
  }
  return Sorted(std::move(findings));
}

std::vector<Finding> LintTree(const std::filesystem::path& repo_root,
                              const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const std::string& subdir : subdirs) {
    const fs::path dir = repo_root / subdir;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      files.push_back(SourceFile{
          fs::relative(entry.path(), repo_root).generic_string(),
          buffer.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.repo_path < b.repo_path;
            });

  LayerSpec spec;
  bool have_spec = false;
  const fs::path spec_path = repo_root / "tools" / "cimlint" / "layers.txt";
  std::vector<Finding> spec_findings;
  if (fs::exists(spec_path)) {
    std::ifstream in(spec_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (ParseLayerSpec(buffer.str(), &spec, &error)) {
      have_spec = true;
    } else {
      spec_findings.push_back(Finding{"tools/cimlint/layers.txt", 1,
                                      "layer-spec",
                                      "layer spec is malformed: " + error,
                                      ""});
    }
  }
  std::vector<Finding> findings =
      LintFiles(files, have_spec ? &spec : nullptr);
  findings.insert(findings.end(), spec_findings.begin(), spec_findings.end());
  return Sorted(std::move(findings));
}

}  // namespace cimlint
