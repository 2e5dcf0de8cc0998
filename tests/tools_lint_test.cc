// Fixture tests for the vendored lint engine (tools/analyze/lint.h).
//
// Each rule gets at least one positive fixture (the violation is reported)
// and one suppressed/negative fixture (an `airfair-lint: allow(...)`
// comment, or code that merely looks similar, reports nothing). Fixtures
// are tiny synthetic repos written to a per-test temp directory so the
// cross-file rules (include-self-first, core-needs-test,
// audit-registration, iwyu-lite's paired-header logic) run against real
// directory layouts rather than mocks.

#include "tools/analyze/lint.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace airfair {
namespace analyze {
namespace {

namespace fs = std::filesystem;

// A throwaway repo rooted in the test temp dir. Files are written with
// WriteFile; Run() lints the requested roots against it.
class TempRepo {
 public:
  TempRepo() {
    static int counter = 0;
    root_ = fs::path(::testing::TempDir()) /
            ("airfair_lint_fixture_" + std::to_string(counter++));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~TempRepo() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << content;
  }

  LintResult Run(std::vector<std::string> roots = {"src", "tests", "tools"}) const {
    LintOptions options;
    options.repo_root = root_.string();
    options.roots = std::move(roots);
    return RunLint(options);
  }

 private:
  fs::path root_;
};

// Findings for one rule (fixtures often trip several rules at once; each
// test asserts only on the rule under test).
std::vector<LintFinding> For(const LintResult& result, const std::string& rule) {
  std::vector<LintFinding> out;
  for (const LintFinding& f : result.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// The canonical include guard for a fixture header path.
std::string Guard(const std::string& path) {
  std::string guard = "AIRFAIR_";
  for (const char c : path) {
    guard += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  return guard + "_";
}

std::string WithGuard(const std::string& path, const std::string& body) {
  const std::string g = Guard(path);
  return "#ifndef " + g + "\n#define " + g + "\n" + body + "\n#endif  // " + g + "\n";
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(StripCodeLine, RemovesLineCommentsAndBlanksStrings) {
  bool in_block = false;
  EXPECT_EQ(StripCodeLine("int x = 1;  // new int", &in_block), "int x = 1;  ");
  EXPECT_EQ(StripCodeLine("call(\"new delete\");", &in_block), "call(\"\");");
  EXPECT_EQ(StripCodeLine("char c = '\"';", &in_block), "char c = '';");
}

TEST(StripCodeLine, BlockCommentStateCarriesAcrossLines) {
  bool in_block = false;
  EXPECT_EQ(StripCodeLine("int a; /* begin", &in_block), "int a; ");
  EXPECT_TRUE(in_block);
  EXPECT_EQ(StripCodeLine("still new delete inside", &in_block), "");
  EXPECT_EQ(StripCodeLine("end */ int b;", &in_block), "  int b;");
  EXPECT_FALSE(in_block);
}

// ---------------------------------------------------------------------------
// hot-std-function

TEST(LintRule, HotStdFunctionFlagged) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc", "#include <functional>\nstd::function<void()> f;\n");
  const auto findings = For(repo.Run(), "hot-std-function");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/sim/a.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRule, HotStdFunctionAllowedOutsideHotDirsAndInComments) {
  TempRepo repo;
  repo.WriteFile("src/scenario/a.cc", "#include <functional>\nstd::function<void()> f;\n");
  repo.WriteFile("src/sim/b.cc", "// std::function is banned here\nint x;\n");
  EXPECT_TRUE(For(repo.Run(), "hot-std-function").empty());
}

TEST(LintRule, HotStdFunctionSuppressedInline) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc",
                 "#include <functional>\n"
                 "// airfair-lint: allow(hot-std-function): fixture\n"
                 "std::function<void()> f;\n");
  EXPECT_TRUE(For(repo.Run(), "hot-std-function").empty());
}

// ---------------------------------------------------------------------------
// hot-naked-new

TEST(LintRule, NakedNewAndDeleteFlagged) {
  TempRepo repo;
  repo.WriteFile("src/net/a.cc", "int* p = new int;\n");
  repo.WriteFile("src/net/b.cc", "void f(int* p) { delete p; }\n");
  const auto result = repo.Run();
  EXPECT_EQ(For(result, "hot-naked-new").size(), 2u);
}

TEST(LintRule, DeletedMembersAndStringsAreNotNakedDelete) {
  TempRepo repo;
  repo.WriteFile("src/net/a.cc",
                 "struct A { A(const A&) = delete; };\n"
                 "const char* s = \"new delete\";\n"
                 "int renewed = 0;  // 'new' inside an identifier\n");
  EXPECT_TRUE(For(repo.Run(), "hot-naked-new").empty());
}

TEST(LintRule, NakedNewSuppressedOnSameLine) {
  TempRepo repo;
  repo.WriteFile("src/net/a.cc",
                 "int* p = new int;  // airfair-lint: allow(hot-naked-new): fixture\n");
  EXPECT_TRUE(For(repo.Run(), "hot-naked-new").empty());
}

// ---------------------------------------------------------------------------
// hot-shared-ptr

TEST(LintRule, SharedPtrFlaggedInHotDirOnly) {
  TempRepo repo;
  repo.WriteFile("src/mac/a.cc", "#include <memory>\nstd::shared_ptr<int> p;\n");
  repo.WriteFile("src/scenario/b.cc", "#include <memory>\nstd::shared_ptr<int> p;\n");
  const auto findings = For(repo.Run(), "hot-shared-ptr");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/mac/a.cc");
}

TEST(LintRule, SharedPtrSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/mac/a.cc",
                 "#include <memory>\n"
                 "// airfair-lint: allow(hot-shared-ptr): fixture\n"
                 "std::shared_ptr<int> p;\n");
  EXPECT_TRUE(For(repo.Run(), "hot-shared-ptr").empty());
}

// ---------------------------------------------------------------------------
// no-const-cast

TEST(LintRule, ConstCastFlaggedAndSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/core/a.cc", "int* p = const_cast<int*>(q);\n");
  repo.WriteFile("src/core/b.cc",
                 "// airfair-lint: allow(no-const-cast): fixture\n"
                 "int* p = const_cast<int*>(q);\n");
  const auto findings = For(repo.Run(), "no-const-cast");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/a.cc");
}

// ---------------------------------------------------------------------------
// mutable-static

TEST(LintRule, MutableStaticFlagged) {
  TempRepo repo;
  repo.WriteFile("src/aqm/a.cc", "static int counter = 0;\n");
  const auto findings = For(repo.Run(), "mutable-static");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRule, ConstStaticsAndFunctionDeclsAreFine) {
  TempRepo repo;
  repo.WriteFile("src/aqm/a.cc",
                 "static const int kLimit = 10;\n"
                 "static constexpr double kRate = 1.5;\n"
                 "static int Helper(int x);\n"
                 "static int Helper(int x) { return x; }\n");
  EXPECT_TRUE(For(repo.Run(), "mutable-static").empty());
}

TEST(LintRule, MutableStaticSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/aqm/a.cc",
                 "// airfair-lint: allow(mutable-static): fixture\n"
                 "static int counter = 0;\n");
  EXPECT_TRUE(For(repo.Run(), "mutable-static").empty());
}

// ---------------------------------------------------------------------------
// trace-macro-discipline

TEST(LintRule, DirectTraceBufferUseFlaggedInHotDir) {
  TempRepo repo;
  repo.WriteFile("src/aqm/a.cc",
                 "#include \"obs/trace.h\"\n"
                 "void f() { TraceBuffer* b = CurrentTraceBuffer(); (void)b; }\n");
  const auto findings = For(repo.Run(), "trace-macro-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/aqm/a.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRule, TraceMacrosAndNonHotDirsAreFine) {
  TempRepo repo;
  // Hot-dir code tracing through the macros is the sanctioned pattern.
  repo.WriteFile("src/mac/a.cc",
                 "void f() { AF_TRACE_ENQUEUE(now, 3, 0, 1500, 7); }\n");
  // The observability layer itself and the scenario glue may name the
  // buffer types directly (only src/{sim,mac,core,aqm,net} are hot).
  repo.WriteFile("src/obs/b.cc", "TraceBuffer* b = CurrentTraceBuffer();\n");
  repo.WriteFile("src/scenario/c.cc", "ScopedTraceBuffer scope(nullptr);\n");
  // Mentions in comments do not count.
  repo.WriteFile("src/sim/d.cc", "// TraceBuffer is installed by the Testbed\nint x;\n");
  EXPECT_TRUE(For(repo.Run(), "trace-macro-discipline").empty());
}

TEST(LintRule, DirectTraceBufferUseSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc",
                 "// airfair-lint: allow(trace-macro-discipline): fixture\n"
                 "ScopedTraceBuffer scope(nullptr);\n");
  EXPECT_TRUE(For(repo.Run(), "trace-macro-discipline").empty());
}

// ---------------------------------------------------------------------------
// use-af-check

TEST(LintRule, AssertAndCassertFlaggedInSrc) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc", "#include <cassert>\nvoid f() { assert(1 == 1); }\n");
  const auto findings = For(repo.Run(), "use-af-check");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);  // The include.
  EXPECT_EQ(findings[1].line, 2);  // The call.
}

TEST(LintRule, AssertOutsideSrcAndInIdentifiersIsFine) {
  TempRepo repo;
  repo.WriteFile("tests/a_test.cc", "#include <cassert>\nvoid f() { assert(true); }\n");
  repo.WriteFile("src/sim/b.cc", "int assertion_count = 0;\n");
  EXPECT_TRUE(For(repo.Run(), "use-af-check").empty());
}

TEST(LintRule, AssertSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc",
                 "void f() { assert(1); }  // airfair-lint: allow(use-af-check): fixture\n");
  EXPECT_TRUE(For(repo.Run(), "use-af-check").empty());
}

// ---------------------------------------------------------------------------
// include-self-first

TEST(LintRule, SelfIncludeMustComeFirst) {
  TempRepo repo;
  repo.WriteFile("src/net/b.h", WithGuard("src/net/b.h", "int F();"));
  repo.WriteFile("src/net/b.cc", "#include <vector>\n#include \"src/net/b.h\"\nint F() { return 1; }\n");
  const auto findings = For(repo.Run(), "include-self-first");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/net/b.cc");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRule, SelfIncludeFirstIsCleanAndNoHeaderMeansNoRule) {
  TempRepo repo;
  repo.WriteFile("src/net/b.h", WithGuard("src/net/b.h", "int F();"));
  repo.WriteFile("src/net/b.cc", "#include \"src/net/b.h\"\n#include <vector>\n");
  repo.WriteFile("src/net/standalone.cc", "#include <vector>\nint G() { return 2; }\n");
  EXPECT_TRUE(For(repo.Run(), "include-self-first").empty());
}

TEST(LintRule, SelfIncludeSuppressionIsFileScope) {
  TempRepo repo;
  repo.WriteFile("src/net/b.h", WithGuard("src/net/b.h", "int F();"));
  repo.WriteFile("src/net/b.cc",
                 "#include <vector>\n"
                 "#include \"src/net/b.h\"\n"
                 "// airfair-lint: allow(include-self-first): fixture, anywhere in file\n");
  EXPECT_TRUE(For(repo.Run(), "include-self-first").empty());
}

// ---------------------------------------------------------------------------
// no-bits-include

TEST(LintRule, BitsIncludeFlaggedEvenOutsideHotDirs) {
  TempRepo repo;
  repo.WriteFile("tools/x.cc", "#include <bits/stdc++.h>\n");
  const auto findings = For(repo.Run(), "no-bits-include");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRule, CommentedBitsIncludeIsFine) {
  TempRepo repo;
  repo.WriteFile("tools/x.cc", "// #include <bits/stdc++.h>\n#include <vector>\n");
  EXPECT_TRUE(For(repo.Run(), "no-bits-include").empty());
}

// ---------------------------------------------------------------------------
// iwyu-lite

TEST(LintRule, IwyuFlagsUncoveredSymbolOncePerFile) {
  TempRepo repo;
  repo.WriteFile("src/util/a.cc",
                 "std::vector<int> v;\n"
                 "std::vector<int> w;\n");  // Same symbol: one finding.
  const auto findings = For(repo.Run(), "iwyu-lite");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("std::vector"), std::string::npos);
  EXPECT_NE(findings[0].message.find("<vector>"), std::string::npos);
}

TEST(LintRule, IwyuCoveredByOwnOrPairedHeaderInclude) {
  TempRepo repo;
  repo.WriteFile("src/util/a.cc", "#include <vector>\nstd::vector<int> v;\n");
  // The .cc inherits its paired header's includes.
  repo.WriteFile("src/util/b.h", WithGuard("src/util/b.h", "#include <utility>\nint F();"));
  repo.WriteFile("src/util/b.cc", "#include \"src/util/b.h\"\nint F() { return std::move(1); }\n");
  EXPECT_TRUE(For(repo.Run(), "iwyu-lite").empty());
}

TEST(LintRule, IwyuSuppressed) {
  TempRepo repo;
  repo.WriteFile("src/util/a.cc",
                 "// airfair-lint: allow(iwyu-lite): fixture\n"
                 "std::vector<int> v;\n");
  EXPECT_TRUE(For(repo.Run(), "iwyu-lite").empty());
}

// ---------------------------------------------------------------------------
// header-guard

TEST(LintRule, WrongGuardAndPragmaOnceFlagged) {
  TempRepo repo;
  repo.WriteFile("src/util/g.h", "#ifndef WRONG_H\n#define WRONG_H\n#endif\n");
  repo.WriteFile("src/util/p.h", "#pragma once\nint x;\n");
  const auto result = repo.Run();
  const auto findings = For(result, "header-guard");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/util/g.h");
  EXPECT_EQ(findings[0].line, 0);  // File-scope.
  EXPECT_EQ(findings[1].file, "src/util/p.h");
  EXPECT_EQ(findings[1].line, 1);
}

TEST(LintRule, CanonicalGuardIsCleanAndSuppressionIsFileScope) {
  TempRepo repo;
  repo.WriteFile("src/util/g.h", WithGuard("src/util/g.h", "int x;"));
  repo.WriteFile("src/util/p.h",
                 "// airfair-lint: allow(header-guard): generated fixture\n"
                 "#pragma once\n");
  EXPECT_TRUE(For(repo.Run(), "header-guard").empty());
}

// ---------------------------------------------------------------------------
// no-using-namespace

TEST(LintRule, UsingNamespaceInHeaderFlagged) {
  TempRepo repo;
  repo.WriteFile("src/util/u.h", WithGuard("src/util/u.h", "using namespace std;"));
  const auto findings = For(repo.Run(), "no-using-namespace");
  ASSERT_EQ(findings.size(), 1u);
}

TEST(LintRule, UsingDeclarationsAndCcFilesAreFine) {
  TempRepo repo;
  repo.WriteFile("src/util/u.h", WithGuard("src/util/u.h", "using std::vector;\n#include <vector>"));
  repo.WriteFile("src/util/u.cc", "#include \"src/util/u.h\"\nusing namespace std;\n");
  EXPECT_TRUE(For(repo.Run(), "no-using-namespace").empty());
}

// ---------------------------------------------------------------------------
// core-needs-test

TEST(LintRule, CoreCcWithoutTestFlagged) {
  TempRepo repo;
  repo.WriteFile("src/core/sched.h", WithGuard("src/core/sched.h", "int F();"));
  repo.WriteFile("src/core/sched.cc", "#include \"src/core/sched.h\"\nint F() { return 1; }\n");
  const auto findings = For(repo.Run(), "core-needs-test");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/sched.cc");
}

TEST(LintRule, CoreCcWithTestIncludingHeaderIsClean) {
  TempRepo repo;
  repo.WriteFile("src/core/sched.h", WithGuard("src/core/sched.h", "int F();"));
  repo.WriteFile("src/core/sched.cc", "#include \"src/core/sched.h\"\nint F() { return 1; }\n");
  repo.WriteFile("tests/sched_test.cc", "#include \"src/core/sched.h\"\n");
  // The tests/ scan runs on disk regardless of the requested roots.
  EXPECT_TRUE(For(repo.Run({"src"}), "core-needs-test").empty());
}

TEST(LintRule, CoreNeedsTestSuppressionIsFileScope) {
  TempRepo repo;
  repo.WriteFile("src/aqm/q.h", WithGuard("src/aqm/q.h", "int F();"));
  repo.WriteFile("src/aqm/q.cc",
                 "#include \"src/aqm/q.h\"\n"
                 "// airfair-lint: allow(core-needs-test): covered indirectly, fixture\n");
  EXPECT_TRUE(For(repo.Run(), "core-needs-test").empty());
}

// ---------------------------------------------------------------------------
// audit-registration

TEST(LintRule, UnregisteredCheckInvariantsFlagged) {
  TempRepo repo;
  repo.WriteFile("src/mac/w.h",
                 WithGuard("src/mac/w.h", "struct W { int CheckInvariants(int fail) const; };"));
  const auto findings = For(repo.Run(), "audit-registration");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/mac/w.h");
}

TEST(LintRule, RegistrarIncludingHeaderSatisfiesAuditRegistration) {
  TempRepo repo;
  repo.WriteFile("src/mac/w.h",
                 WithGuard("src/mac/w.h", "struct W { int CheckInvariants(int fail) const; };"));
  repo.WriteFile("src/scenario/wire.cc",
                 "#include \"src/mac/w.h\"\n"
                 "void Wire(W* w) { auditor->AddCheck(\"w\", w); }\n");
  EXPECT_TRUE(For(repo.Run(), "audit-registration").empty());
}

TEST(LintRule, AuditRegistrationSuppressionIsFileScope) {
  TempRepo repo;
  repo.WriteFile("src/mac/w.h",
                 WithGuard("src/mac/w.h",
                           "// airfair-lint: allow(audit-registration): test-only fixture\n"
                           "struct W { int CheckInvariants(int fail) const; };"));
  EXPECT_TRUE(For(repo.Run(), "audit-registration").empty());
}

// ---------------------------------------------------------------------------
// use-after-move (flow-sensitive)

TEST(LintRule, UseAfterMoveFlaggedAcrossBranch) {
  TempRepo repo;
  repo.WriteFile("src/util/m.cc",
                 "#include <memory>\n"
                 "void F(bool c) {\n"
                 "  std::unique_ptr<int> p = Make();\n"
                 "  if (c) {\n"
                 "    Consume(std::move(p));\n"
                 "  }\n"
                 "  Use(p.get());\n"
                 "}\n");
  const auto findings = For(repo.Run(), "use-after-move");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/m.cc");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("`p`"), std::string::npos);
}

TEST(LintRule, UseAfterMoveRevivalsNullChecksAndAllowAreClean) {
  TempRepo repo;
  // Reassignment on the moving path revives the name; `!p` null checks are
  // sanctioned uses of the guaranteed-null moved-from pointer.
  repo.WriteFile("src/util/m.cc",
                 "#include <memory>\n"
                 "void F(bool c) {\n"
                 "  std::unique_ptr<int> p = Make();\n"
                 "  if (c) {\n"
                 "    Consume(std::move(p));\n"
                 "    p = Make();\n"
                 "  }\n"
                 "  Use(p.get());\n"
                 "}\n"
                 "void G(PacketPtr q) {\n"
                 "  Deliver(std::move(q));\n"
                 "  if (!q) {\n"
                 "    return;\n"
                 "  }\n"
                 "}\n"
                 "void H(PacketPtr r) {\n"
                 "  Deliver(std::move(r));\n"
                 "  // airfair-lint: allow(use-after-move): fixture\n"
                 "  Touch(r);\n"
                 "}\n");
  EXPECT_TRUE(For(repo.Run(), "use-after-move").empty());
}

TEST(LintRule, UseAfterMoveOnlyFlagsMovedPathsNotDeadCode) {
  TempRepo repo;
  // The move and the use sit on exclusive branches: no path moves then
  // uses, so a path-sensitive analysis must stay quiet.
  repo.WriteFile("src/util/m.cc",
                 "void F(bool c, EventFn fn) {\n"
                 "  if (c) {\n"
                 "    Run(std::move(fn));\n"
                 "  } else {\n"
                 "    Inspect(fn);\n"
                 "  }\n"
                 "}\n");
  EXPECT_TRUE(For(repo.Run(), "use-after-move").empty());
}

// ---------------------------------------------------------------------------
// callback-lifetime (flow-sensitive)

TEST(LintRule, CallbackLifetimeFlagsThisCaptureOnDetachedPost) {
  TempRepo repo;
  repo.WriteFile("src/sim/cb.cc",
                 "void Component::Arm(EventLoop* loop, TimeUs t) {\n"
                 "  loop->PostAfter(t, [this] { Fire(); });\n"
                 "}\n");
  const auto findings = For(repo.Run(), "callback-lifetime");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("detached"), std::string::npos);
}

TEST(LintRule, CallbackLifetimeFlagsHandleDroppedOnSomePath) {
  TempRepo repo;
  repo.WriteFile("src/sim/cb.cc",
                 "void Component::Arm(EventLoop* loop, TimeUs t, bool keep) {\n"
                 "  EventHandle h = loop->ScheduleAfter(t, [this] { Fire(); });\n"
                 "  if (keep) {\n"
                 "    handle_ = std::move(h);\n"
                 "  }\n"
                 "}\n");
  const auto findings = For(repo.Run(), "callback-lifetime");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);  // Reported at the schedule site.
  EXPECT_NE(findings[0].message.find("`h`"), std::string::npos);
}

TEST(LintRule, CallbackLifetimeSafeCapturesRetainedHandlesAndAllowAreClean) {
  TempRepo repo;
  repo.WriteFile("src/sim/cb.cc",
                 "void Component::Arm(EventLoop* loop, TimeUs t, int seq) {\n"
                 "  loop->PostAfter(t, [seq] { Log(seq); });\n"  // Copies only.
                 "  handle_ = loop->ScheduleAfter(t, [this] { Fire(); });\n"
                 "  EventHandle h = loop->ScheduleAfter(t, [this] { Fire(); });\n"
                 "  retained_.push_back(std::move(h));\n"  // Every path retains.
                 "  // airfair-lint: allow(callback-lifetime): fixture\n"
                 "  loop->PostAfter(t, [this] { Fire(); });\n"
                 "}\n"
                 "EventHandle Component::Make(EventLoop* loop, TimeUs t) {\n"
                 "  return loop->ScheduleAfter(t, [this] { Fire(); });\n"
                 "}\n");
  EXPECT_TRUE(For(repo.Run(), "callback-lifetime").empty());
}

TEST(LintRule, CallbackLifetimeOnlyAppliesToCallbackDirs) {
  TempRepo repo;
  // tools/ is outside the event-loop component dirs.
  repo.WriteFile("tools/t.cc",
                 "void Arm(EventLoop* loop, TimeUs t) {\n"
                 "  loop->PostAfter(t, [this] { Fire(); });\n"
                 "}\n");
  EXPECT_TRUE(For(repo.Run(), "callback-lifetime").empty());
}

// ---------------------------------------------------------------------------
// Suppression mechanics and output plumbing.

TEST(Suppressions, WrongRuleIdDoesNotSuppress) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc",
                 "// airfair-lint: allow(hot-shared-ptr): wrong id\n"
                 "int* p = new int;\n");
  EXPECT_EQ(For(repo.Run(), "hot-naked-new").size(), 1u);
}

TEST(Suppressions, CommaListCoversMultipleRules) {
  TempRepo repo;
  repo.WriteFile("src/sim/a.cc",
                 "// airfair-lint: allow(hot-naked-new, no-const-cast): fixture\n"
                 "int* p = new int; int* q = const_cast<int*>(p);\n");
  const auto result = repo.Run();
  EXPECT_TRUE(For(result, "hot-naked-new").empty());
  EXPECT_TRUE(For(result, "no-const-cast").empty());
}

TEST(Output, AllRulesAreDocumentedAndJsonIsWellFormed) {
  const auto rules = AllRules();
  EXPECT_EQ(rules.size(), 16u);
  for (const RuleInfo& rule : rules) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
  }

  TempRepo repo;
  repo.WriteFile("src/sim/a.cc", "int* p = new int;  // \"quoted\"\n");
  const auto result = repo.Run();
  const std::string json = ResultToJson(result);
  EXPECT_NE(json.find("\"findings\":["), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"hot-naked-new\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos);
}

TEST(Output, FindingsAreSortedByFileLineRule) {
  TempRepo repo;
  repo.WriteFile("src/sim/z.cc", "int* p = new int;\n");
  repo.WriteFile("src/sim/a.cc", "int* q;\nint* p = new int;\n");
  const auto result = repo.Run();
  const auto findings = For(result, "hot-naked-new");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/sim/a.cc");
  EXPECT_EQ(findings[1].file, "src/sim/z.cc");
}

}  // namespace
}  // namespace analyze
}  // namespace airfair
