// Tree-wide symbol index: pass 1 of the lint engine's two-pass analysis.
//
// The original airfair_lint rules were per-file and lexical: each rule saw
// one file's stripped lines and nothing else. The concurrency-discipline
// rules need *structure* that spans files — which classes exist and where, which members are mutexes /
// atomics / mutable statics and whether they carry thread-safety
// annotations, and where locks are acquired while other locks are held. The
// symbol index extracts exactly that in one pass over every loaded file;
// the rules (pass 2) then run queries against it.
//
// This is still a lexer-level scanner, not a compiler: it tracks brace
// depth and a scope stack (namespace / class / enum) over comment-stripped
// lines, which is robust for this code base's style (one declaration per
// line, Google-ish formatting) and is kept honest by fixture tests
// (tests/tools_symbol_index_test.cc). Known limits, by design: members
// whose declarations span lines and function-pointer members are not
// indexed as fields, and manual Lock()/Unlock() calls are not treated as
// acquisitions (the project locks through RAII only).

#ifndef AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_
#define AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_

#include <map>
#include <string>
#include <vector>

namespace airfair {
namespace analyze {

// One file's worth of input: stripped code lines (comments removed, string
// literal contents blanked — see lint.h StripCodeLine) plus the raw lines,
// which the index scans for annotation macros sitting on the previous line.
struct IndexSourceFile {
  std::string path;                      // Repo-relative, forward slashes.
  const std::vector<std::string>* code = nullptr;
  const std::vector<std::string>* raw = nullptr;
};

// A data-member declaration inside a class/struct body.
struct FieldSymbol {
  std::string class_name;
  std::string name;   // Best-effort identifier (annotations stripped first).
  std::string decl;   // The stripped declaration text.
  std::string file;
  int line = 0;       // 1-based.
  bool is_static = false;
  bool is_thread_local = false;
  bool is_const = false;          // const / constexpr in the declaration.
  bool is_atomic = false;         // std::atomic<...>
  bool is_raw_mutex = false;      // std::mutex / std::recursive_mutex / std::shared_mutex
  bool is_wrapped_mutex = false;  // the annotated airfair::Mutex wrapper
  bool has_annotation = false;    // AF_GUARDED_BY / AF_PT_GUARDED_BY / AF_ATOMIC
  // Last identifier of the AF_GUARDED_BY / AF_PT_GUARDED_BY argument
  // ("chunk_mutex_" for AF_GUARDED_BY(chunk_mutex_)); "" when unguarded or
  // AF_ATOMIC. Feeds the flow-sensitive guarded-field-path rule.
  std::string guard;
};

struct ClassSymbol {
  std::string name;
  std::string file;
  int line = 0;          // Line of the class/struct/enum keyword.
  bool is_enum = false;  // enum / enum class (no fields are collected).
  std::vector<FieldSymbol> fields;
};

// A mutable static outside class-field position: namespace-scope variables
// (including anonymous-namespace globals without the `static` keyword, when
// their type is concurrency-relevant) and function-local statics.
struct StaticSymbol {
  std::string name;
  std::string decl;
  std::string file;
  int line = 0;
  bool is_function_local = false;
  bool is_thread_local = false;
  bool is_const = false;
  bool is_atomic = false;
  bool is_raw_mutex = false;
  bool is_wrapped_mutex = false;
  bool has_annotation = false;
  std::string guard;  // As in FieldSymbol.
};

// One RAII lock acquisition (MutexLock / std::lock_guard / std::unique_lock
// / std::scoped_lock), with the locks lexically held at that point.
struct LockAcquisition {
  std::string lock_name;          // Last identifier of the lock expression.
  std::vector<std::string> held;  // Outermost first; empty when unnested.
  std::string file;
  int line = 0;
};

struct SymbolIndex {
  std::vector<ClassSymbol> classes;
  std::vector<StaticSymbol> statics;
  std::vector<LockAcquisition> acquisitions;
  // Type name -> files declaring it (a name can legitimately repeat, e.g.
  // nested Config structs).
  std::map<std::string, std::vector<std::string>> files_by_type;
};

SymbolIndex BuildSymbolIndex(const std::vector<IndexSourceFile>& files);

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_SYMBOL_INDEX_H_
