#include "tools/analyze/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyze/cfg.h"
#include "tools/analyze/dataflow.h"

namespace airfair {
namespace analyze {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Lexing: comment/string stripping and include extraction.
// ---------------------------------------------------------------------------

struct StrippedLine {
  std::string code;     // Comments removed, literal contents blanked.
  std::string comment;  // Concatenated comment text on this line.
};

StrippedLine StripLine(const std::string& line, bool* in_block_comment) {
  StrippedLine out;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    if (*in_block_comment) {
      const size_t end = line.find("*/", i);
      if (end == std::string::npos) {
        out.comment.append(line, i, n - i);
        i = n;
      } else {
        out.comment.append(line, i, end - i);
        *in_block_comment = false;
        i = end + 2;
        out.code += ' ';
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < n && line[i + 1] == '/') {
      out.comment.append(line, i + 2, n - (i + 2));
      break;
    }
    if (c == '/' && i + 1 < n && line[i + 1] == '*') {
      *in_block_comment = true;
      i += 2;
      continue;
    }
    if (c == 'R' && i + 1 < n && line[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) && line[i - 1] != '_'))) {
      // Raw string literal: R"delim( ... )delim". Single-line only; the
      // code base does not use multi-line raw strings.
      const size_t paren = line.find('(', i + 2);
      if (paren != std::string::npos) {
        const std::string delim = line.substr(i + 2, paren - (i + 2));
        const std::string closer = ")" + delim + "\"";
        const size_t end = line.find(closer, paren + 1);
        out.code += "\"\"";
        i = end == std::string::npos ? n : end + closer.size();
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      out.code += c;
      ++i;
      while (i < n) {
        if (line[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (line[i] == c) {
          out.code += c;
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out.code += c;
    ++i;
  }
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds `token` in `code` with identifier boundaries on both sides.
// Returns the position or npos.
size_t FindToken(const std::string& code, const std::string& token, size_t from = 0) {
  size_t pos = code.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    // Tokens that already start with "std::" should not also match
    // "xstd::..."; the left boundary check above covers that because ':'
    // is not an identifier char but 's' of "std" is checked instead.
    if (left_ok && right_ok) {
      return pos;
    }
    pos = code.find(token, pos + 1);
  }
  return std::string::npos;
}

bool HasToken(const std::string& code, const std::string& token) {
  return FindToken(code, token) != std::string::npos;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// Parses `#include <x>` / `#include "x"`; returns the target or "".
std::string ParseInclude(const std::string& code) {
  size_t i = 0;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])) != 0) ++i;
  if (i >= code.size() || code[i] != '#') return "";
  ++i;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])) != 0) ++i;
  if (code.compare(i, 7, "include") != 0) return "";
  i += 7;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])) != 0) ++i;
  if (i >= code.size()) return "";
  char close = 0;
  if (code[i] == '<') close = '>';
  if (code[i] == '"') close = '"';
  if (close == 0) return "";
  const size_t end = code.find(close, i + 1);
  if (end == std::string::npos) return "";
  return code.substr(i + 1, end - i - 1);
}

// ---------------------------------------------------------------------------
// Per-file model.
// ---------------------------------------------------------------------------

struct FileData {
  std::string path;  // Repo-relative, forward slashes.
  bool is_header = false;
  std::vector<std::string> code;
  std::vector<std::string> comment;
  std::vector<std::string> includes;           // In order of appearance.
  std::vector<int> include_lines;              // 1-based, parallel.
  std::vector<std::string> include_targets;    // Per line; "" when not an include.
  std::set<std::string> include_set;
  // rule -> raw lines (1-based) carrying an allow() for it.
  std::map<std::string, std::set<int>> allows;
};

void ParseAllows(const std::string& comment, int line_no, FileData* file) {
  size_t pos = comment.find("airfair-lint:");
  while (pos != std::string::npos) {
    const size_t open = comment.find("allow(", pos);
    if (open == std::string::npos) break;
    const size_t close = comment.find(')', open + 6);
    if (close == std::string::npos) break;
    std::string list = comment.substr(open + 6, close - open - 6);
    size_t start = 0;
    while (start <= list.size()) {
      const size_t comma = list.find(',', start);
      const std::string id =
          Trim(comma == std::string::npos ? list.substr(start) : list.substr(start, comma - start));
      if (!id.empty()) {
        file->allows[id].insert(line_no);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    pos = comment.find("airfair-lint:", close);
  }
}

FileData LoadFile(const fs::path& abs, std::string rel) {
  FileData file;
  file.path = std::move(rel);
  file.is_header = abs.extension() == ".h";
  std::ifstream in(abs);
  std::string line;
  bool in_block = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    StrippedLine stripped = StripLine(line, &in_block);
    // Quoted include targets are string literals, which the stripper
    // blanks; parse the raw line instead, gated on the stripped line being
    // a real directive so commented-out includes do not count.
    const std::string stripped_trim = Trim(stripped.code);
    const std::string inc =
        !stripped_trim.empty() && stripped_trim[0] == '#' ? ParseInclude(line) : std::string();
    file.include_targets.push_back(inc);
    if (!inc.empty()) {
      file.includes.push_back(inc);
      file.include_lines.push_back(line_no);
      file.include_set.insert(inc);
    }
    ParseAllows(stripped.comment, line_no, &file);
    file.code.push_back(std::move(stripped.code));
    file.comment.push_back(std::move(stripped.comment));
  }
  return file;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool InHotDir(const std::string& path) {
  return StartsWith(path, "src/sim/") || StartsWith(path, "src/mac/") ||
         StartsWith(path, "src/core/") || StartsWith(path, "src/aqm/") ||
         StartsWith(path, "src/net/");
}

bool InSrc(const std::string& path) { return StartsWith(path, "src/"); }

// The dirs whose posted callbacks the callback-lifetime rule polices: the
// hot event-loop dirs plus src/obs (trace exporters post flush events).
bool InCallbackDirs(const std::string& path) {
  return InHotDir(path) || StartsWith(path, "src/obs/");
}

bool IsIdentToken(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_');
}

// CfgStmt text back into its tokens (the CFG builder joins with single
// spaces, so this is lossless).
std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> toks;
  std::istringstream in(text);
  std::string t;
  while (in >> t) toks.push_back(std::move(t));
  return toks;
}

bool Contains(const std::vector<std::string>& toks, const std::string& t) {
  return std::find(toks.begin(), toks.end(), t) != toks.end();
}

const char* kFileScopeRules[] = {"header-guard", "include-self-first", "core-needs-test",
                                 "audit-registration"};

bool IsFileScopeRule(const std::string& rule) {
  for (const char* r : kFileScopeRules) {
    if (rule == r) return true;
  }
  return false;
}

bool Suppressed(const FileData& file, const std::string& rule, int line) {
  const auto it = file.allows.find(rule);
  if (it == file.allows.end()) return false;
  if (IsFileScopeRule(rule)) return true;  // Anywhere in the file.
  // Same line or the line directly above.
  return it->second.count(line) > 0 || it->second.count(line - 1) > 0;
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

class Linter {
 public:
  explicit Linter(const LintOptions& options) : options_(options) {}

  LintResult Run() {
    CollectFiles();
    // Every rule in this loop reads only its own file (plus, for the
    // include rules, the paired header's include list); the two rules after
    // it look across files.
    for (const FileData& file : files_) {
      LintHotConstructs(file);
      LintTraceMacroDiscipline(file);
      LintAfCheck(file);
      LintIncludes(file);
      LintIwyu(file);
      LintHeaderGuard(file);
      LintUsingNamespace(file);
      LintFlowRules(file);
    }
    LintCoreNeedsTest();
    LintAuditRegistration();
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const LintFinding& a, const LintFinding& b) {
                return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
              });
    result_.files_scanned = static_cast<int>(files_.size());
    return std::move(result_);
  }

 private:
  void Report(const FileData& file, const std::string& rule, int line, std::string message) {
    if (Suppressed(file, rule, line)) return;
    result_.findings.push_back(LintFinding{rule, file.path, line, std::move(message)});
  }

  static bool SkipDir(const std::string& name) {
    return name == "build" || name == "CMakeFiles" || name == ".git" || name == "third_party" ||
           StartsWith(name, "build-") || StartsWith(name, "cmake-build");
  }

  void CollectFiles() {
    const fs::path root = fs::path(options_.repo_root);
    std::vector<fs::path> paths;
    for (const std::string& entry : options_.roots) {
      const fs::path p = root / entry;
      if (fs::is_regular_file(p)) {
        paths.push_back(p);
        continue;
      }
      if (!fs::is_directory(p)) continue;
      fs::recursive_directory_iterator it(p), end;
      while (it != end) {
        if (it->is_directory() && SkipDir(it->path().filename().string())) {
          it.disable_recursion_pending();
          ++it;
          continue;
        }
        if (it->is_regular_file()) {
          const std::string ext = it->path().extension().string();
          if (ext == ".h" || ext == ".cc") paths.push_back(it->path());
        }
        ++it;
      }
    }
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
    files_.reserve(paths.size());
    for (const fs::path& p : paths) {
      files_.push_back(LoadFile(p, fs::relative(p, root).generic_string()));
    }
  }

  // Effective includes of a .cc file: its own plus its paired header's (the
  // header already pulls those in for every translation unit including it).
  std::set<std::string> EffectiveIncludes(const FileData& file) const {
    std::set<std::string> includes = file.include_set;
    const std::string paired = PairedHeader(file.path);
    if (!paired.empty()) {
      if (const FileData* header = Find(paired); header != nullptr) {
        includes.insert(header->include_set.begin(), header->include_set.end());
      }
    }
    return includes;
  }

  static std::string PairedHeader(const std::string& path) {
    if (path.size() < 3 || path.compare(path.size() - 3, 3, ".cc") != 0) return "";
    return path.substr(0, path.size() - 3) + ".h";
  }

  const FileData* Find(const std::string& path) const {
    for (const FileData& f : files_) {
      if (f.path == path) return &f;
    }
    return nullptr;
  }

  // --- hot-std-function / hot-naked-new / hot-shared-ptr / no-const-cast /
  //     mutable-static / no-bits-include ---
  void LintHotConstructs(const FileData& file) {
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& code = file.code[i];
      const int line = static_cast<int>(i) + 1;
      if (StartsWith(file.include_targets[i], "bits/")) {
        Report(file, "no-bits-include", line,
               "libstdc++-internal <bits/...> header; include the public header");
      }
      if (!InHotDir(file.path)) continue;
      if (code.find("std::function") != std::string::npos) {
        Report(file, "hot-std-function", line,
               "std::function in a hot-path directory; use FunctionRef (non-owning "
               "call-scoped hooks) or InlineFunction (owned callbacks)");
      }
      if (code.find("shared_ptr") != std::string::npos) {
        Report(file, "hot-shared-ptr", line,
               "shared_ptr in a hot-path directory; packet/event paths move unique "
               "ownership");
      }
      if (HasToken(code, "const_cast")) {
        Report(file, "no-const-cast", line, "const_cast in a hot-path directory");
      }
      size_t pos = FindToken(code, "new");
      if (pos != std::string::npos) {
        Report(file, "hot-naked-new", line,
               "naked new in a hot-path directory; use containers, make_unique or the "
               "packet pool");
      }
      pos = FindToken(code, "delete");
      while (pos != std::string::npos) {
        // `= delete;` (deleted members) is not a deallocation.
        size_t prev = pos;
        while (prev > 0 && std::isspace(static_cast<unsigned char>(code[prev - 1])) != 0) --prev;
        if (prev == 0 || code[prev - 1] != '=') {
          Report(file, "hot-naked-new", line, "naked delete in a hot-path directory");
          break;
        }
        pos = FindToken(code, "delete", pos + 6);
      }
      MaybeReportMutableStatic(file, code, line);
    }
  }

  // --- trace-macro-discipline ---
  // Hot-path code traces through the AF_TRACE_* macros only: they carry the
  // installed-buffer null check, which a direct TraceBuffer call would
  // dodge.
  void LintTraceMacroDiscipline(const FileData& file) {
    static const char* kDirectUse[] = {"TraceBuffer", "CurrentTraceBuffer",
                                       "SetCurrentTraceBuffer", "ScopedTraceBuffer"};
    if (!InHotDir(file.path)) return;
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& code = file.code[i];
      const int line = static_cast<int>(i) + 1;
      for (const char* token : kDirectUse) {
        if (HasToken(code, token)) {
          Report(file, "trace-macro-discipline", line,
                 std::string(token) +
                     " used directly in a hot-path directory; trace through the "
                     "AF_TRACE_* macros, which carry the installed-buffer null check");
          break;
        }
      }
    }
  }

  void MaybeReportMutableStatic(const FileData& file, const std::string& code, int line) {
    const size_t pos = FindToken(code, "static");
    if (pos == std::string::npos) return;
    const std::string rest = code.substr(pos);
    if (HasToken(rest, "const") || HasToken(rest, "constexpr")) return;
    // A '(' before the statement end means a function declaration/definition,
    // not a variable. No terminator on this line: multi-line signature.
    const size_t terminator = std::min(rest.find(';'), rest.find('='));
    if (terminator == std::string::npos) return;
    const size_t paren = rest.find('(');
    if (paren != std::string::npos && paren < terminator) return;
    Report(file, "mutable-static", line,
           "mutable static state in a hot-path directory (state carried from one "
           "repetition to the next in the same process breaks per-seed output)");
  }

  // --- use-af-check ---
  void LintAfCheck(const FileData& file) {
    if (!InSrc(file.path)) return;
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& code = file.code[i];
      const int line = static_cast<int>(i) + 1;
      if (file.include_targets[i] == "cassert") {
        Report(file, "use-af-check", line, "<cassert> include; use src/util/check.h");
      }
      const size_t pos = FindToken(code, "assert");
      if (pos != std::string::npos && code.find('(', pos + 6) != std::string::npos) {
        Report(file, "use-af-check", line,
               "assert(); use AF_CHECK/AF_DCHECK (messages, failure handler, audit "
               "integration)");
      }
    }
  }

  // --- include-self-first ---
  void LintIncludes(const FileData& file) {
    if (file.is_header) return;
    if (!InSrc(file.path) && !StartsWith(file.path, "tools/")) return;
    const std::string self = PairedHeader(file.path);
    if (self.empty()) return;
    if (Find(self) == nullptr && !fs::exists(fs::path(options_.repo_root) / self)) return;
    if (file.includes.empty() || file.includes.front() != self) {
      const int line = file.include_lines.empty() ? 0 : file.include_lines.front();
      Report(file, "include-self-first", line,
             "first include must be the file's own header \"" + self + "\"");
    }
  }

  // --- iwyu-lite ---
  struct Symbol {
    const char* token;
    const char* header;
  };

  void LintIwyu(const FileData& file) {
    static const Symbol kSymbols[] = {
        {"std::vector", "vector"},
        {"std::deque", "deque"},
        {"std::string", "string"},
        {"std::to_string", "string"},
        {"std::map", "map"},
        {"std::multimap", "map"},
        {"std::unordered_map", "unordered_map"},
        {"std::unordered_set", "unordered_set"},
        {"std::set", "set"},
        {"std::unique_ptr", "memory"},
        {"std::make_unique", "memory"},
        {"std::shared_ptr", "memory"},
        {"std::move", "utility"},
        {"std::swap", "utility"},
        {"std::pair", "utility"},
        {"std::ostringstream", "sstream"},
        {"std::istringstream", "sstream"},
        {"std::stringstream", "sstream"},
        {"std::min", "algorithm"},
        {"std::max", "algorithm"},
        {"std::sort", "algorithm"},
        {"std::clamp", "algorithm"},
        {"std::lower_bound", "algorithm"},
        {"std::getenv", "cstdlib"},
        {"std::atoi", "cstdlib"},
        {"std::atof", "cstdlib"},
        {"std::function", "functional"},
        {"std::mutex", "mutex"},
        {"std::lock_guard", "mutex"},
        {"std::thread", "thread"},
        {"std::optional", "optional"},
        {"std::array", "array"},
        {"std::chrono", "chrono"},
        {"std::ofstream", "fstream"},
        {"std::ifstream", "fstream"},
    };
    if (!InSrc(file.path) && !StartsWith(file.path, "tools/")) return;
    const std::set<std::string> includes = EffectiveIncludes(file);
    std::set<std::string> reported;
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& code = file.code[i];
      if (code.find("std::") == std::string::npos) continue;
      for (const Symbol& sym : kSymbols) {
        if (includes.count(sym.header) > 0 || reported.count(sym.token) > 0) continue;
        if (!HasToken(code, sym.token)) continue;
        Report(file, "iwyu-lite", static_cast<int>(i) + 1,
               std::string(sym.token) + " used without <" + sym.header + ">");
        reported.insert(sym.token);
      }
    }
  }

  // --- header-guard ---
  void LintHeaderGuard(const FileData& file) {
    if (!file.is_header) return;
    std::string guard = "AIRFAIR_";
    for (const char c : file.path) {
      guard += IsIdentChar(c) ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                              : '_';
    }
    guard += '_';
    bool has_ifndef = false;
    bool has_define = false;
    int pragma_line = 0;
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string code = Trim(file.code[i]);
      if (code == "#ifndef " + guard) has_ifndef = true;
      if (code == "#define " + guard) has_define = true;
      if (StartsWith(code, "#pragma once")) pragma_line = static_cast<int>(i) + 1;
    }
    if (pragma_line != 0) {
      Report(file, "header-guard", pragma_line,
             "#pragma once; project convention is the include guard " + guard);
      return;
    }
    if (!has_ifndef || !has_define) {
      Report(file, "header-guard", 0, "missing or mismatched include guard; expected " + guard);
    }
  }

  // --- no-using-namespace ---
  void LintUsingNamespace(const FileData& file) {
    if (!file.is_header) return;
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (HasToken(file.code[i], "using") &&
          FindToken(file.code[i], "namespace") != std::string::npos &&
          file.code[i].find("using") < file.code[i].find("namespace")) {
        Report(file, "no-using-namespace", static_cast<int>(i) + 1,
               "using namespace in a header leaks into every includer");
      }
    }
  }

  // --- core-needs-test ---
  void LintCoreNeedsTest() {
    // Coverage search runs over tests/ on disk so it works no matter which
    // roots were requested.
    std::set<std::string> test_includes;
    const fs::path tests_dir = fs::path(options_.repo_root) / "tests";
    if (fs::is_directory(tests_dir)) {
      for (const auto& entry : fs::recursive_directory_iterator(tests_dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cc" && ext != ".h") continue;
        std::ifstream in(entry.path());
        std::string line;
        bool in_block = false;
        while (std::getline(in, line)) {
          const std::string code = Trim(StripLine(line, &in_block).code);
          if (code.empty() || code[0] != '#') continue;
          const std::string inc = ParseInclude(line);
          if (!inc.empty()) test_includes.insert(inc);
        }
      }
    }
    for (const FileData& file : files_) {
      if (file.is_header) continue;
      if (!StartsWith(file.path, "src/core/") && !StartsWith(file.path, "src/aqm/")) continue;
      const std::string header = PairedHeader(file.path);
      if (test_includes.count(header) > 0 || test_includes.count(file.path) > 0) continue;
      Report(file, "core-needs-test", 0,
             "no test under tests/ includes \"" + header +
                 "\"; src/core and src/aqm require direct test coverage");
    }
  }

  // --- audit-registration ---
  void LintAuditRegistration() {
    // Files that register checks with the auditor.
    std::vector<const FileData*> registrars;
    for (const FileData& f : files_) {
      for (const std::string& code : f.code) {
        if (code.find("AddCheck(") != std::string::npos ||
            code.find("RegisterAudits(") != std::string::npos) {
          registrars.push_back(&f);
          break;
        }
      }
    }
    for (const FileData& file : files_) {
      if (!file.is_header || !InHotDir(file.path)) continue;
      int decl_line = 0;
      for (size_t i = 0; i < file.code.size(); ++i) {
        if (HasToken(file.code[i], "CheckInvariants")) {
          decl_line = static_cast<int>(i) + 1;
          break;
        }
      }
      if (decl_line == 0) continue;
      bool registered = false;
      for (const FileData* reg : registrars) {
        if (reg == &file) continue;
        if (EffectiveIncludes(*reg).count(file.path) > 0) {
          registered = true;
          break;
        }
      }
      if (!registered) {
        // Delegation: another CheckInvariants-declaring header includes this
        // one and forwards the audit (e.g. mac_queues.h -> intrusive_list.h).
        for (const FileData& other : files_) {
          if (&other == &file || !other.is_header) continue;
          if (other.include_set.count(file.path) == 0) continue;
          bool declares = false;
          for (const std::string& code : other.code) {
            if (HasToken(code, "CheckInvariants")) {
              declares = true;
              break;
            }
          }
          if (declares) {
            registered = true;
            break;
          }
        }
      }
      if (!registered) {
        Report(file, "audit-registration", decl_line,
               "component declares CheckInvariants but nothing registers it with the "
               "auditor (AddCheck/RegisterAudits)");
      }
    }
  }

  // -------------------------------------------------------------------------
  // Flow-sensitive rules: per-function CFGs (tools/analyze/cfg.h) + forward
  // dataflow (tools/analyze/dataflow.h). Both apply to src/ only.
  // -------------------------------------------------------------------------

  void LintFlowRules(const FileData& file) {
    if (!InSrc(file.path)) return;
    for (const FunctionCfg& cfg : BuildFileCfgs(file.code)) CheckFunctionFlow(file, cfg);
  }

  void CheckFunctionFlow(const FileData& file, const FunctionCfg& cfg) {
    CheckUseAfterMove(file, cfg);
    if (InCallbackDirs(file.path)) CheckCallbackLifetime(file, cfg);
    for (const FunctionCfg& lambda : cfg.lambdas) CheckFunctionFlow(file, lambda);
  }

  // --- use-after-move ---
  // Tracks locals/parameters of the move-only hot-path types. std::move(v)
  // sends v to the moved state; the may-join makes that sticky across any
  // path reaching a later use. Reassignment, .reset() or a fresh
  // declaration revives the name. Null checks of the (guaranteed-null)
  // moved-from smart pointers are allowed uses.
  static std::set<std::string> TrackedDecls(const std::vector<std::string>& toks) {
    std::set<std::string> vars;
    for (size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i];
      size_t j = i + 1;
      bool typed = false;
      if (t == "PacketPtr" || t == "EventFn") {
        typed = true;
      } else if (t == "InlineFunction" || t == "unique_ptr") {
        typed = true;
        if (j < toks.size() && toks[j] == "<") {  // Skip template arguments.
          int depth = 0;
          while (j < toks.size()) {
            if (toks[j] == "<") ++depth;
            if (toks[j] == ">" && --depth == 0) {
              ++j;
              break;
            }
            if (toks[j] == ">>") {
              depth -= 2;
              if (depth <= 0) {
                ++j;
                break;
              }
            }
            ++j;
          }
        }
      }
      if (!typed) continue;
      while (j < toks.size() &&
             (toks[j] == "&" || toks[j] == "&&" || toks[j] == "*" || toks[j] == "const")) {
        ++j;
      }
      if (j < toks.size() && IsIdentToken(toks[j])) vars.insert(toks[j]);
    }
    return vars;
  }

  void CheckUseAfterMove(const FileData& file, const FunctionCfg& cfg) {
    std::set<std::string> tracked = TrackedDecls(SplitTokens(cfg.head));
    for (const CfgBlock& block : cfg.blocks) {
      for (const CfgStmt& stmt : block.stmts) {
        const std::vector<std::string> toks = SplitTokens(stmt.text);
        // for-headers declare loop-scoped names (range-for rebinds each
        // iteration); not tracked — documented false negative.
        if (!toks.empty() && toks[0] == "for") continue;
        const std::set<std::string> decls = TrackedDecls(toks);
        tracked.insert(decls.begin(), decls.end());
      }
    }
    if (tracked.empty()) return;

    const TransferFn transfer = [tracked](const CfgStmt& stmt, VarState* state) {
      const std::vector<std::string> toks = SplitTokens(stmt.text);
      // Revivals first, then moves: in `[p = std::move(p)] <lambda>` the
      // init-capture's '=' binds a *new* name — the enclosing local ends
      // the statement moved, not revived.
      for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (tracked.count(toks[i]) == 0) continue;
        if (toks[i + 1] == "=" ||
            (toks[i + 1] == "." && i + 2 < toks.size() && toks[i + 2] == "reset")) {
          (*state)[toks[i]] = 0;
        }
      }
      if (!toks.empty() && toks[0] != "for") {
        for (const std::string& v : TrackedDecls(toks)) (*state)[v] = 0;
      }
      for (size_t i = 0; i + 5 < toks.size(); ++i) {
        if (toks[i] == "std" && toks[i + 1] == "::" && toks[i + 2] == "move" &&
            toks[i + 3] == "(" && toks[i + 5] == ")" && tracked.count(toks[i + 4]) > 0) {
          (*state)[toks[i + 4]] = 1;
        }
      }
    };
    ForwardDataflow flow(cfg, transfer);
    flow.Solve(VarState{});
    flow.Visit([&](const CfgStmt& stmt, const VarState& before) {
      const std::vector<std::string> toks = SplitTokens(stmt.text);
      const std::set<std::string> decls =
          (!toks.empty() && toks[0] == "for") ? std::set<std::string>{} : TrackedDecls(toks);
      for (size_t i = 0; i < toks.size(); ++i) {
        const std::string& v = toks[i];
        if (tracked.count(v) == 0) continue;
        const auto it = before.find(v);
        if (it == before.end() || it->second == 0) continue;
        if (decls.count(v) > 0) continue;  // Shadowing re-declaration.
        const std::string prev = i > 0 ? toks[i - 1] : "";
        const std::string next = i + 1 < toks.size() ? toks[i + 1] : "";
        if (next == "=") continue;  // Reassignment target.
        if (next == "." && i + 2 < toks.size() && toks[i + 2] == "reset") continue;
        if (prev == "!" || prev == "==" || prev == "!=" || next == "==" || next == "!=") {
          continue;  // Null/boolean checks: moved-from pointers are null.
        }
        const std::string& head = toks[0];
        if ((head == "if" || head == "while" || head == "do-while") &&
            (prev == "(" || prev == "&&" || prev == "||") &&
            (next == ")" || next == "&&" || next == "||")) {
          continue;  // Boolean test in a condition.
        }
        Report(file, "use-after-move", stmt.line,
               "`" + v +
                   "` may have been moved-from on a path reaching this use; reassign or "
                   ".reset() it first (moved-from hot-path handles are null/empty)");
        break;  // One finding per statement.
      }
    });
  }

  // --- callback-lifetime ---
  // Detached posts (PostAt/PostAfter) cannot be cancelled, so a
  // lambda that captures `this` (or by-reference state) posted detached
  // outlives no-one's control: if the component dies before the event
  // fires, the callback runs on a dangling pointer. Such closures must go
  // through the handle-returning Schedule*/At/After and keep the handle —
  // and a handle bound to a local must actually be retained (stored,
  // returned or passed on) on every path, or it silently degrades back to
  // a detached post (EventHandle destruction does not cancel).
  static bool UnsafeCaptures(const std::string& captures) {
    const std::vector<std::string> toks = SplitTokens(captures);
    size_t i = 0;
    while (i < toks.size()) {
      // One top-level capture entry: up to ',' at depth 0.
      std::vector<std::string> entry;
      int depth = 0;
      while (i < toks.size()) {
        const std::string& t = toks[i];
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
        if (t == "," && depth == 0) {
          ++i;
          break;
        }
        entry.push_back(t);
        ++i;
      }
      if (entry.empty()) continue;
      if (entry[0] == "&" || entry[0] == "=") return true;  // By-ref / default.
      if (entry[0] == "this") return true;
      // `name = expr` init-captures are safe copies unless the expression
      // smuggles `this` in ("self = this"). `*this` is a full copy: safe.
      if (entry[0] != "*" && Contains(entry, "this")) return true;
    }
    return false;
  }

  static std::vector<size_t> LambdaRefs(const std::vector<std::string>& toks) {
    std::vector<size_t> refs;
    for (const std::string& t : toks) {
      if (t.size() > 9 && t.compare(0, 8, "<lambda#") == 0) {
        refs.push_back(static_cast<size_t>(std::atoi(t.c_str() + 8)));
      }
    }
    return refs;
  }

  void CheckCallbackLifetime(const FileData& file, const FunctionCfg& cfg) {
    static const char* kDetached[] = {"PostAt", "PostAfter"};
    static const char* kHandled[] = {"ScheduleAt", "ScheduleAfter", "At", "After"};
    std::map<std::string, int> sched_line;  // local handle var -> schedule stmt line
    for (const CfgBlock& block : cfg.blocks) {
      for (const CfgStmt& stmt : block.stmts) {
        const std::vector<std::string> toks = SplitTokens(stmt.text);
        const std::vector<size_t> refs = LambdaRefs(toks);
        if (refs.empty()) continue;
        bool unsafe = false;
        for (const size_t k : refs) {
          if (k < cfg.lambdas.size() && UnsafeCaptures(cfg.lambdas[k].captures)) unsafe = true;
        }
        if (!unsafe) continue;
        bool detached = false;
        for (const char* post : kDetached) detached = detached || Contains(toks, post);
        if (detached) {
          Report(file, "callback-lifetime", stmt.line,
                 "lambda capturing `this`/by-reference state posted detached (Post*) — "
                 "it cannot be cancelled if the captured object dies first; "
                 "use the handle-returning Schedule*/At/After and retain the EventHandle, "
                 "or suppress with a reason why the target provably outlives the loop");
          continue;
        }
        bool handled = false;
        for (const char* sched : kHandled) handled = handled || Contains(toks, sched);
        if (!handled) continue;
        // Where does the handle go? Member-ish targets and returns retain
        // it; a bare local needs the every-path dataflow check below.
        // (A fully discarded result is a -Werror=unused-result build error.)
        size_t assign = std::string::npos;
        for (size_t i = 1; i < toks.size(); ++i) {
          if (toks[i] == "=") {
            assign = i;
            break;
          }
        }
        if (assign == std::string::npos || assign == 0) continue;
        const std::string& lhs = toks[assign - 1];
        if (!IsIdentToken(lhs)) continue;
        const bool member_target =
            lhs.back() == '_' ||
            (assign >= 2 && (toks[assign - 2] == "." || toks[assign - 2] == "->"));
        if (member_target || stmt.is_return) continue;
        sched_line[lhs] = stmt.line;
      }
    }
    if (sched_line.empty()) return;
    const TransferFn transfer = [sched_line](const CfgStmt& stmt, VarState* state) {
      const std::vector<std::string> toks = SplitTokens(stmt.text);
      for (const auto& [var, line] : sched_line) {
        if (!Contains(toks, var)) continue;
        (*state)[var] = stmt.line == line ? 1 : 0;  // 1 = not yet retained.
      }
    };
    ForwardDataflow flow(cfg, transfer);
    flow.Solve(VarState{});
    const VarState& at_exit = flow.ExitState();
    for (const auto& [var, line] : sched_line) {
      const auto it = at_exit.find(var);
      if (it == at_exit.end() || it->second == 0) continue;
      Report(file, "callback-lifetime", line,
             "EventHandle `" + var +
                 "` for a this-capturing callback is dropped on some path before being "
                 "stored, returned or passed on — destruction does not cancel, so the "
                 "callback degrades to an uncancellable detached post");
    }
  }

  LintOptions options_;
  std::vector<FileData> files_;
  LintResult result_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<RuleInfo> AllRules() {
  return {
      {"hot-std-function", "std::function banned in src/{sim,mac,core,aqm,net}"},
      {"hot-naked-new", "naked new/delete banned in hot-path directories"},
      {"hot-shared-ptr", "shared_ptr banned in hot-path directories"},
      {"no-const-cast", "const_cast banned in hot-path directories"},
      {"mutable-static", "mutable static state banned in hot-path directories"},
      {"trace-macro-discipline", "hot-path code traces via AF_TRACE_* macros only"},
      {"use-af-check", "assert()/<cassert> banned in src/; use AF_CHECK/AF_DCHECK"},
      {"include-self-first", "a .cc file's first include is its own header"},
      {"no-bits-include", "no libstdc++-internal <bits/...> includes"},
      {"iwyu-lite", "used std:: symbols must be covered by includes"},
      {"header-guard", "headers carry the canonical AIRFAIR_<PATH>_ guard"},
      {"core-needs-test", "src/core and src/aqm .cc files need a test including them"},
      {"audit-registration", "CheckInvariants components must be registered with the auditor"},
      {"no-using-namespace", "no using namespace in headers"},
      {"use-after-move",
       "moved-from PacketPtr/EventFn/InlineFunction/unique_ptr locals may not be used "
       "on any path before reassignment (flow-sensitive, src/)"},
      {"callback-lifetime",
       "this-capturing lambdas in src/{sim,mac,core,aqm,net,obs} are not posted "
       "detached; schedule handles must be retained on every path"},
  };
}

LintResult RunLint(const LintOptions& options) { return Linter(options).Run(); }

std::string ResultToJson(const LintResult& result) {
  std::ostringstream out;
  out << "{\"files_scanned\":" << result.files_scanned
      << ",\"violations\":" << result.findings.size() << ",\"findings\":[";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const LintFinding& f = result.findings[i];
    if (i > 0) out << ",";
    out << "{\"rule\":\"" << JsonEscape(f.rule) << "\",\"file\":\"" << JsonEscape(f.file)
        << "\",\"line\":" << f.line << ",\"message\":\"" << JsonEscape(f.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string StripCodeLine(const std::string& line, bool* in_block_comment) {
  return StripLine(line, in_block_comment).code;
}

}  // namespace analyze
}  // namespace airfair
