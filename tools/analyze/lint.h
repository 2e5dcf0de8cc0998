// airfair_lint: the project's vendored offline static checker.
//
// CI runs clang-tidy, but the local container has no LLVM tools, so the
// project-specific rules — the ones that keep the simulator's hot paths
// allocation-free and its components wired into the invariant auditor —
// are enforced by this self-contained engine instead. It is a lexer-level
// analyzer, not a compiler. It strips comments and string literals with a
// real lexer state machine, runs the per-file rules over each file's code
// text and include list in one serial pass, then runs the two cross-file
// rules (core-needs-test, audit-registration). Hazards the compiler already
// reports are left to it: discarded AF_NODISCARD results fail the build
// (-Werror=unused-result).
//
// Rules (ids are stable; they feed suppressions and CI output):
//   hot-std-function    std::function in src/{sim,mac,core,aqm,net} — use
//                       util::FunctionRef (non-owning hooks) or
//                       util::InlineFunction (owned callbacks)
//   hot-naked-new       naked new/delete in hot dirs — use containers,
//                       unique_ptr or the packet pool
//   hot-shared-ptr      shared_ptr in hot dirs (event/packet paths move
//                       unique ownership instead of refcounting)
//   no-const-cast       const_cast in hot dirs
//   mutable-static      function-local / namespace-scope mutable static in
//                       hot dirs (state carried from one repetition to the
//                       next in the same process breaks per-seed output)
//   trace-macro-discipline
//                       direct TraceBuffer / CurrentTraceBuffer use in hot
//                       dirs — trace through the AF_TRACE_* macros, which
//                       carry the installed-buffer null check
//   use-af-check        assert()/<cassert> in src/ — AF_CHECK/AF_DCHECK
//                       carry messages and honor the failure handler
//   include-self-first  a .cc file's first include must be its own header
//   no-bits-include     #include <bits/...> is libstdc++-internal
//   iwyu-lite           curated symbol→header map: used symbols must be
//                       covered by the file's includes or its paired
//                       header's includes
//   header-guard        headers carry the canonical AIRFAIR_<PATH>_ guard
//   core-needs-test     every src/core and src/aqm .cc has a test in
//                       tests/ including its header
//   audit-registration  a hot-dir header declaring CheckInvariants must be
//                       registered with the auditor somewhere (AddCheck /
//                       RegisterAudits), directly or by delegation
//   no-using-namespace  using namespace in headers
//
// Flow-sensitive rules (per-function CFGs — tools/analyze/cfg.h — with
// forward may-dataflow — tools/analyze/dataflow.h):
//   use-after-move      a moved-from PacketPtr / EventFn / InlineFunction /
//                       std::unique_ptr local used on any path before
//                       reassignment/.reset() (src/ only; null checks of
//                       the guaranteed-null moved-from pointers are fine)
//   callback-lifetime   a lambda capturing `this` (or by-reference state)
//                       passed to the detached PostAt/PostAfter in
//                       src/{sim,mac,core,aqm,net,obs}, or a Schedule*/At/
//                       After handle for such a lambda dropped on some path
//                       instead of being stored/returned/passed on
//
// Suppressions: `// airfair-lint: allow(rule-id): reason` on the flagged
// line or the line directly above it. File-scope rules (header-guard,
// include-self-first, core-needs-test, audit-registration) accept the
// suppression anywhere in the file. Multiple ids: allow(rule-a, rule-b).

#ifndef AIRFAIR_TOOLS_ANALYZE_LINT_H_
#define AIRFAIR_TOOLS_ANALYZE_LINT_H_

#include <string>
#include <vector>

namespace airfair {
namespace analyze {

struct LintFinding {
  std::string rule;
  std::string file;  // Repo-relative path, forward slashes.
  int line = 0;      // 1-based; 0 for file-scope findings.
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

// The registered rule set, in stable order.
std::vector<RuleInfo> AllRules();

struct LintOptions {
  // Repo root; relative `roots` entries and cross-file lookups (tests/
  // coverage) resolve against it.
  std::string repo_root = ".";
  // Files or directories to lint, relative to repo_root (directories are
  // walked recursively for .h/.cc, skipping build output).
  std::vector<std::string> roots;
};

struct LintResult {
  std::vector<LintFinding> findings;
  int files_scanned = 0;
};

// Runs every rule over the requested tree. Findings are sorted by
// (file, line, rule) and already have suppressions applied.
LintResult RunLint(const LintOptions& options);

// Machine-readable output: {"files_scanned":N,"findings":[...]}.
std::string ResultToJson(const LintResult& result);

// Strips //- and /**/-comments and the contents of string/char literals
// (lexer state carries across lines via `in_block_comment`). Exposed for
// tests; the quotes themselves are kept so tokens do not merge.
std::string StripCodeLine(const std::string& line, bool* in_block_comment);

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_LINT_H_
