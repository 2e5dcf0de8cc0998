// Per-file symbol index: the structure under the guarded-field-discipline
// lint rule.
//
// That rule needs more than one line of text at a time: which classes a
// file declares, which of their members are mutexes / atomics / mutable
// statics, and whether those carry thread-safety annotations. The index
// extracts exactly that in one pass over one file's stripped lines; the
// rule then reads it.
//
// This is still a lexer-level scanner, not a compiler: it tracks brace
// depth and a scope stack (namespace / class / enum) over comment-stripped
// lines, which is robust for this code base's style (one declaration per
// line, Google-ish formatting) and is kept honest by fixture tests
// (tests/tools_symbol_index_test.cc). Known limits, by design: members
// whose declarations span lines and function-pointer members are not
// indexed as fields.

#ifndef AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_
#define AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_

#include <string>
#include <vector>

namespace airfair {
namespace analyze {

// A data-member declaration inside a class/struct body.
struct FieldSymbol {
  std::string name;   // Best-effort identifier (annotations stripped first).
  int line = 0;       // 1-based.
  bool is_static = false;
  bool is_thread_local = false;
  bool is_const = false;          // const / constexpr in the declaration.
  bool is_atomic = false;         // std::atomic<...>
  bool is_raw_mutex = false;      // std::mutex / std::recursive_mutex / std::shared_mutex
  bool is_wrapped_mutex = false;  // the annotated airfair::Mutex wrapper
  bool has_annotation = false;    // AF_GUARDED_BY / AF_ATOMIC
};

struct ClassSymbol {
  std::string name;
  int line = 0;          // Line of the class/struct/enum keyword.
  bool is_enum = false;  // enum / enum class (no fields are collected).
  std::vector<FieldSymbol> fields;
};

// A mutable static outside class-field position: namespace-scope variables
// (including anonymous-namespace globals without the `static` keyword, when
// their type is concurrency-relevant) and function-local statics.
struct StaticSymbol {
  std::string name;
  int line = 0;
  bool is_function_local = false;
  bool is_thread_local = false;
  bool is_const = false;
  bool is_atomic = false;
  bool is_raw_mutex = false;
  bool is_wrapped_mutex = false;
  bool has_annotation = false;
};

struct SymbolIndex {
  std::vector<ClassSymbol> classes;
  std::vector<StaticSymbol> statics;
};

// Indexes one file: `code` holds its stripped lines (comments removed,
// string literal contents blanked — see lint.h StripCodeLine) and `raw` the
// original lines, which the index scans for annotation macros sitting on
// the previous line.
SymbolIndex BuildSymbolIndex(const std::vector<std::string>& code,
                             const std::vector<std::string>& raw);

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_
