#include "tools/analyze/symbol_index.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace airfair {
namespace analyze {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Token-boundary find, same contract as the lint engine's FindToken.
size_t FindToken(const std::string& code, const std::string& token, size_t from = 0) {
  size_t pos = code.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return pos;
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

// First identifier token of a trimmed line ("" when the line starts with
// punctuation).
std::string FirstToken(const std::string& code) {
  size_t i = 0;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])) != 0) ++i;
  const size_t start = i;
  while (i < code.size() && IsIdentChar(code[i])) ++i;
  return code.substr(start, i - start);
}

// The thread-safety annotation macros (src/util/thread_annotations.h) that
// count as "a declared discipline" for a field or static. AF_ATOMIC is the
// documentation-only marker for intentionally lock-free atomics.
const char* kDisciplineAnnotations[] = {"AF_GUARDED_BY", "AF_ATOMIC"};

bool HasDisciplineAnnotation(const std::string& text) {
  for (const char* a : kDisciplineAnnotations) {
    if (HasToken(text, a)) return true;
  }
  return false;
}

bool IsRawMutexDecl(const std::string& code) {
  return HasToken(code, "std::mutex") || HasToken(code, "std::recursive_mutex") ||
         HasToken(code, "std::shared_mutex") || HasToken(code, "std::timed_mutex");
}

// The annotated wrapper (src/util/mutex.h). Token boundaries keep
// "MutexLock" from matching.
bool IsWrappedMutexDecl(const std::string& code) { return HasToken(code, "Mutex"); }

// Removes AF_* annotation macros (and a directly attached argument list)
// from a declaration so name extraction sees only the real declarator.
std::string StripAnnotationMacros(const std::string& code) {
  std::string out;
  size_t i = 0;
  while (i < code.size()) {
    if (code.compare(i, 3, "AF_") == 0 && (i == 0 || !IsIdentChar(code[i - 1]))) {
      size_t j = i;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      size_t k = j;
      while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
      if (k < code.size() && code[k] == '(') {
        int balance = 0;
        while (k < code.size()) {
          if (code[k] == '(') ++balance;
          if (code[k] == ')' && --balance == 0) {
            ++k;
            break;
          }
          ++k;
        }
        j = k;
      }
      out += ' ';
      i = j;
      continue;
    }
    out += code[i];
    ++i;
  }
  return out;
}

// Last identifier before the declaration terminator (';', '=' or a brace
// initialiser), skipping macro-style identifiers that are directly followed
// by '(' and the contents of [[...]] attributes. Returns "" when none.
std::string DeclaredName(const std::string& decl) {
  const std::string code = StripAnnotationMacros(decl);
  std::string last;
  size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == ';' || c == '=' || c == '{') break;
    if (c == '[') {  // [[nodiscard]] / array extents — not names.
      while (i < code.size() && code[i] != ']') ++i;
      ++i;
      continue;
    }
    if (c == '<') {  // Template argument list: skip to the matching '>'.
      int angle = 0;
      while (i < code.size()) {
        if (code[i] == '<') ++angle;
        if (code[i] == '>' && --angle == 0) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (IsIdentChar(c)) {
      const size_t start = i;
      while (i < code.size() && IsIdentChar(code[i])) ++i;
      size_t k = i;
      while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
      if (k < code.size() && code[k] == '(') {
        // A call / function declarator, not a variable name.
        i = k;
        continue;
      }
      last = code.substr(start, i - start);
      continue;
    }
    ++i;
  }
  return last;
}

// Name of a class/struct/namespace/enum head: the last plain identifier
// between the keyword and the body / base-clause, skipping attribute macros
// like AF_CAPABILITY("mutex") and the `final` specifier.
std::string ScopeName(const std::string& code, size_t after_keyword) {
  std::string last;
  size_t i = after_keyword;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '{' || c == ';') break;
    if (c == ':' && (i + 1 >= code.size() || code[i + 1] != ':') &&
        (i == 0 || code[i - 1] != ':')) {
      break;  // Base clause or enum underlying type.
    }
    if (c == ':') {  // "::" qualifier — the qualified name is not the decl name.
      i += 2;
      last.clear();
      continue;
    }
    if (c == '[') {
      while (i < code.size() && code[i] != ']') ++i;
      ++i;
      continue;
    }
    if (c == '(') {  // Attribute-macro arguments.
      int balance = 0;
      while (i < code.size()) {
        if (code[i] == '(') ++balance;
        if (code[i] == ')' && --balance == 0) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (IsIdentChar(c)) {
      const size_t start = i;
      while (i < code.size() && IsIdentChar(code[i])) ++i;
      size_t k = i;
      while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
      if (k < code.size() && code[k] == '(') {
        i = k;  // Macro with arguments (attribute) — not the name.
        continue;
      }
      const std::string token = code.substr(start, i - start);
      if (token != "final") last = token;
      continue;
    }
    ++i;
  }
  return last;
}

enum class ScopeKind { kNamespace, kClass, kEnum };

struct Scope {
  ScopeKind kind;
  std::string name;
  int body_depth = 0;  // Brace depth inside the scope's body.
};

// A class/struct/namespace/enum head seen but whose '{' has not been
// consumed yet (heads and bodies can sit on different lines).
struct PendingScope {
  ScopeKind kind;
  std::string name;
  int line = 0;    // 1-based line of the head.
  size_t pos = 0;  // Column of the keyword on that line.
};

class FileIndexer {
 public:
  FileIndexer(const std::vector<std::string>& raw, SymbolIndex* out) : raw_(raw), out_(out) {}

  void Run(const std::vector<std::string>& code) {
    for (size_t i = 0; i < code.size(); ++i) {
      const int line_no = static_cast<int>(i) + 1;
      CollectScopeHeads(code[i], line_no);
      // Declarations are classified against the scope state at the start of
      // the line; one-liner bodies ("struct X { int a; };") are not
      // descended into — the code base declares one member per line.
      MaybeRecordDeclaration(code[i], i, line_no);
      WalkBraces(code[i], line_no);
    }
    // Fields attach to their ClassSymbol when the class scope closes; a
    // class still open at EOF (truncated file) is flushed here.
    while (!scopes_.empty()) {
      PopScope();
    }
  }

 private:
  // --- scope tracking -----------------------------------------------------

  void CollectScopeHeads(const std::string& code, int line_no) {
    const size_t template_pos = FindToken(code, "template");
    static const struct {
      const char* keyword;
      ScopeKind kind;
    } kKeywords[] = {{"namespace", ScopeKind::kNamespace},
                     {"class", ScopeKind::kClass},
                     {"struct", ScopeKind::kClass},
                     {"enum", ScopeKind::kEnum}};
    std::vector<PendingScope> found;
    for (const auto& kw : kKeywords) {
      const size_t len = std::string(kw.keyword).size();
      for (size_t pos = FindToken(code, kw.keyword); pos != std::string::npos;
           pos = FindToken(code, kw.keyword, pos + len)) {
        if (template_pos != std::string::npos && pos > template_pos) continue;
        // "enum class X" / "enum struct X": the class/struct token belongs
        // to the enum head found separately.
        if (kw.kind == ScopeKind::kClass) {
          size_t prev = pos;
          while (prev > 0 && std::isspace(static_cast<unsigned char>(code[prev - 1])) != 0) --prev;
          if (prev >= 4 && code.compare(prev - 4, 4, "enum") == 0 &&
              (prev == 4 || !IsIdentChar(code[prev - 5]))) {
            continue;
          }
        }
        if (HasToken(code.substr(0, pos), "friend")) continue;
        size_t name_from = pos + len;
        if (kw.kind == ScopeKind::kEnum) {
          // Skip the optional class/struct of a scoped enum.
          size_t k = name_from;
          while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k])) != 0) ++k;
          if (code.compare(k, 5, "class") == 0 || code.compare(k, 6, "struct") == 0) {
            name_from = k + (code.compare(k, 5, "class") == 0 ? 5 : 6);
          }
        }
        found.push_back(PendingScope{kw.kind, ScopeName(code, name_from), line_no, pos});
      }
    }
    // Keep heads in source order ('namespace a { namespace b {').
    for (size_t a = 0; a < found.size(); ++a) {
      for (size_t b = a + 1; b < found.size(); ++b) {
        if (found[b].pos < found[a].pos) std::swap(found[a], found[b]);
      }
    }
    for (PendingScope& p : found) pending_.push_back(std::move(p));
  }

  void WalkBraces(const std::string& code, int line_no) {
    for (size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth_;
        if (!pending_.empty() &&
            (pending_.front().line < line_no ||
             (pending_.front().line == line_no && pending_.front().pos < i))) {
          PendingScope head = std::move(pending_.front());
          pending_.pop_front();
          OpenScope(head);
        }
      } else if (c == '}') {
        while (!scopes_.empty() && scopes_.back().body_depth == depth_) {
          PopScope();
        }
        if (depth_ > 0) --depth_;
      } else if (c == ';') {
        // "class Foo;" — a forward declaration, not a scope head.
        if (!pending_.empty() && pending_.front().line == line_no && pending_.front().pos < i) {
          pending_.pop_front();
        }
      }
    }
  }

  void OpenScope(const PendingScope& head) {
    scopes_.push_back(Scope{head.kind, head.name, depth_});
    if (head.kind != ScopeKind::kNamespace && !head.name.empty()) {
      open_classes_.push_back(ClassSymbol{head.name, head.line, head.kind == ScopeKind::kEnum, {}});
      class_scope_index_.push_back(scopes_.size() - 1);
    }
  }

  void PopScope() {
    const Scope& top = scopes_.back();
    if (top.kind != ScopeKind::kNamespace && !top.name.empty() && !open_classes_.empty() &&
        class_scope_index_.back() == scopes_.size() - 1) {
      ClassSymbol done = std::move(open_classes_.back());
      open_classes_.pop_back();
      class_scope_index_.pop_back();
      out_->classes.push_back(std::move(done));
    }
    scopes_.pop_back();
  }

  // Innermost non-namespace scope the current line sits directly in, or
  // nullptr. "Directly" = the line's depth equals the scope's body depth.
  const Scope* DirectScope() const {
    if (scopes_.empty()) return nullptr;
    const Scope& top = scopes_.back();
    return top.body_depth == depth_ ? &top : nullptr;
  }

  // --- declarations -------------------------------------------------------

  bool AnnotationNear(const std::string& code_line, size_t line_idx) const {
    if (HasDisciplineAnnotation(code_line)) return true;
    // A marker on the raw line above also counts, for positions where the
    // macro cannot syntactically attach.
    return line_idx > 0 && HasDisciplineAnnotation(raw_[line_idx - 1]);
  }

  void MaybeRecordDeclaration(const std::string& raw_code, size_t line_idx, int line_no) {
    const std::string code = Trim(raw_code);
    if (code.empty() || code[0] == '#') return;
    const std::string first = FirstToken(code);
    if (first == "public" || first == "private" || first == "protected" || first == "using" ||
        first == "typedef" || first == "friend" || first == "template" || first == "return" ||
        first == "if" || first == "for" || first == "while" || first == "switch" ||
        first == "case" || first == "else" || first == "do" || first == "namespace" ||
        first == "class" || first == "struct" || first == "enum" || first == "extern" ||
        first == "static_assert" || first == "operator" || first == "goto") {
      return;
    }
    // Variable declarations only: a terminator on this line, with no '('
    // before it (that would be a function declarator or a call). Annotation
    // macros are stripped first so AF_GUARDED_BY(mu_)'s parentheses do not
    // make a field look like a function.
    const std::string bare = StripAnnotationMacros(code);
    const size_t terminator = std::min(bare.find(';'), bare.find('='));
    if (terminator == std::string::npos) return;
    const size_t brace = bare.find('{');
    const size_t paren = bare.find('(');
    const size_t decl_end = std::min(terminator, brace);
    if (paren != std::string::npos && paren < decl_end) return;

    const bool is_static = HasToken(code, "static");
    const bool is_thread_local = HasToken(code, "thread_local");
    const bool is_const = HasToken(code, "const") || HasToken(code, "constexpr");
    const bool is_atomic = HasToken(code, "std::atomic");
    const bool is_raw_mutex = IsRawMutexDecl(code);
    const bool is_wrapped_mutex = IsWrappedMutexDecl(code);
    const bool annotated = AnnotationNear(code, line_idx);

    const Scope* direct = DirectScope();
    if (direct != nullptr && direct->kind == ScopeKind::kEnum) return;
    if (direct != nullptr && direct->kind == ScopeKind::kClass) {
      if (open_classes_.empty()) return;
      const std::string name = DeclaredName(code);
      if (name.empty()) return;
      FieldSymbol field;
      field.name = name;
      field.line = line_no;
      field.is_static = is_static;
      field.is_thread_local = is_thread_local;
      field.is_const = is_const;
      field.is_atomic = is_atomic;
      field.is_raw_mutex = is_raw_mutex;
      field.is_wrapped_mutex = is_wrapped_mutex;
      field.has_annotation = annotated;
      open_classes_.back().fields.push_back(std::move(field));
      return;
    }

    // Outside class-field position: record mutable statics and
    // concurrency-relevant namespace-scope globals (anonymous-namespace
    // globals carry no `static` keyword).
    const int namespace_depth =
        scopes_.empty() ? 0 : scopes_.back().body_depth;
    const bool at_namespace_scope =
        (scopes_.empty() || scopes_.back().kind == ScopeKind::kNamespace) &&
        depth_ == namespace_depth;
    const bool interesting_type = is_atomic || is_raw_mutex || is_wrapped_mutex;
    if (!is_static && !(at_namespace_scope && interesting_type)) return;
    const std::string name = DeclaredName(code);
    if (name.empty()) return;
    StaticSymbol sym;
    sym.name = name;
    sym.line = line_no;
    sym.is_function_local = !at_namespace_scope;
    sym.is_thread_local = is_thread_local;
    sym.is_const = is_const;
    sym.is_atomic = is_atomic;
    sym.is_raw_mutex = is_raw_mutex;
    sym.is_wrapped_mutex = is_wrapped_mutex;
    sym.has_annotation = annotated;
    out_->statics.push_back(std::move(sym));
  }

  const std::vector<std::string>& raw_;
  SymbolIndex* out_;
  int depth_ = 0;
  std::vector<Scope> scopes_;
  std::deque<PendingScope> pending_;
  std::vector<ClassSymbol> open_classes_;
  std::vector<size_t> class_scope_index_;
};

}  // namespace

SymbolIndex BuildSymbolIndex(const std::vector<std::string>& code,
                             const std::vector<std::string>& raw) {
  SymbolIndex index;
  FileIndexer(raw, &index).Run(code);
  return index;
}

}  // namespace analyze
}  // namespace airfair
