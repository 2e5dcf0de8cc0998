// Structural tests for the CFG builder (tools/analyze/cfg.h): each test
// feeds a small function through BuildFileCfgs and asserts on the block /
// edge structure the flow-sensitive lint rules depend on. Failure messages
// carry CfgToString so a broken parse is diagnosable from the log alone.

#include "tools/analyze/cfg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace airfair {
namespace analyze {
namespace {

std::vector<std::string> Lines(const std::string& src) {
  std::vector<std::string> out;
  std::istringstream in(src);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// Builds and returns the single function CFG in `src`.
FunctionCfg BuildOne(const std::string& src) {
  const std::vector<FunctionCfg> cfgs = BuildFileCfgs(Lines(src));
  EXPECT_EQ(cfgs.size(), 1u) << "expected exactly one function in fixture";
  return cfgs.empty() ? FunctionCfg{} : cfgs[0];
}

// The id of the first block containing a statement whose text contains
// `marker`; -1 when absent.
int BlockWith(const FunctionCfg& cfg, const std::string& marker) {
  for (const CfgBlock& b : cfg.blocks) {
    for (const CfgStmt& s : b.stmts) {
      if (s.text.find(marker) != std::string::npos) return b.id;
    }
  }
  return -1;
}

// The statement matching `marker`, or nullptr.
const CfgStmt* StmtWith(const FunctionCfg& cfg, const std::string& marker) {
  for (const CfgBlock& b : cfg.blocks) {
    for (const CfgStmt& s : b.stmts) {
      if (s.text.find(marker) != std::string::npos) return &s;
    }
  }
  return nullptr;
}

bool HasEdge(const FunctionCfg& cfg, int from, int to) {
  if (from < 0 || from >= static_cast<int>(cfg.blocks.size())) return false;
  const auto& succs = cfg.blocks[static_cast<size_t>(from)].succs;
  return std::find(succs.begin(), succs.end(), to) != succs.end();
}

// Reachability over successor edges (from != to required for a cycle check:
// HasPath(b, b) asks whether b sits on a loop).
bool HasPath(const FunctionCfg& cfg, int from, int to) {
  std::set<int> seen;
  std::deque<int> work;
  for (const int s : cfg.blocks[static_cast<size_t>(from)].succs) work.push_back(s);
  while (!work.empty()) {
    const int b = work.front();
    work.pop_front();
    if (b == to) return true;
    if (!seen.insert(b).second) continue;
    for (const int s : cfg.blocks[static_cast<size_t>(b)].succs) work.push_back(s);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Straight-line code and function discovery.

TEST(CfgBuilder, StraightLineBodyIsEntryToExit) {
  const FunctionCfg cfg = BuildOne(
      "void F() {\n"
      "  A();\n"
      "  B();\n"
      "}\n");
  EXPECT_EQ(cfg.name, "F");
  ASSERT_GE(cfg.blocks.size(), 2u) << CfgToString(cfg);
  const int a = BlockWith(cfg, "A (");
  EXPECT_EQ(a, cfg.entry) << CfgToString(cfg);
  EXPECT_EQ(BlockWith(cfg, "B ("), cfg.entry) << CfgToString(cfg);
  EXPECT_TRUE(HasPath(cfg, cfg.entry, cfg.exit)) << CfgToString(cfg);
}

TEST(CfgBuilder, MemberFunctionsAndHeadsAreCaptured) {
  const std::vector<FunctionCfg> cfgs = BuildFileCfgs(Lines(
      "class C {\n"
      " public:\n"
      "  int Get() const { return x_; }\n"
      "  void Touch() AF_REQUIRES(mu_) { x_ = 1; }\n"
      " private:\n"
      "  int x_ = 0;\n"
      "};\n"));
  ASSERT_EQ(cfgs.size(), 2u);
  EXPECT_EQ(cfgs[0].name, "Get");
  EXPECT_EQ(cfgs[1].name, "Touch");
  EXPECT_NE(cfgs[1].head.find("AF_REQUIRES"), std::string::npos) << cfgs[1].head;
}

// ---------------------------------------------------------------------------
// if / else, nested.

TEST(CfgBuilder, IfElseBranchesRejoin) {
  const FunctionCfg cfg = BuildOne(
      "void F(bool c) {\n"
      "  if (c) {\n"
      "    A();\n"
      "  } else {\n"
      "    B();\n"
      "  }\n"
      "  C();\n"
      "}\n");
  const int cond = BlockWith(cfg, "if ( c )");
  const int a = BlockWith(cfg, "A (");
  const int b = BlockWith(cfg, "B (");
  const int join = BlockWith(cfg, "C (");
  ASSERT_NE(cond, -1) << CfgToString(cfg);
  ASSERT_NE(a, -1) << CfgToString(cfg);
  ASSERT_NE(b, -1) << CfgToString(cfg);
  ASSERT_NE(join, -1) << CfgToString(cfg);
  EXPECT_NE(a, b) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, cond, a)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, cond, b)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, a, join)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, b, join)) << CfgToString(cfg);
  // The branch blocks are exclusive: no edge from the then-block into the
  // else-block.
  EXPECT_FALSE(HasEdge(cfg, a, b)) << CfgToString(cfg);
}

TEST(CfgBuilder, IfWithoutElseFallsThrough) {
  const FunctionCfg cfg = BuildOne(
      "void F(bool c) {\n"
      "  if (c) A();\n"
      "  B();\n"
      "}\n");
  const int cond = BlockWith(cfg, "if ( c )");
  const int a = BlockWith(cfg, "A (");
  const int join = BlockWith(cfg, "B (");
  EXPECT_TRUE(HasEdge(cfg, cond, a)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, cond, join)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, a, join)) << CfgToString(cfg);
}

TEST(CfgBuilder, NestedIfElseKeepsInnerAndOuterJoinsDistinct) {
  const FunctionCfg cfg = BuildOne(
      "void F(bool c, bool d) {\n"
      "  if (c) {\n"
      "    if (d) {\n"
      "      A();\n"
      "    } else {\n"
      "      B();\n"
      "    }\n"
      "    Inner();\n"
      "  } else {\n"
      "    Outer();\n"
      "  }\n"
      "  Join();\n"
      "}\n");
  const int a = BlockWith(cfg, "A (");
  const int b = BlockWith(cfg, "B (");
  const int inner = BlockWith(cfg, "Inner (");
  const int outer = BlockWith(cfg, "Outer (");
  const int join = BlockWith(cfg, "Join (");
  ASSERT_NE(inner, -1) << CfgToString(cfg);
  // Both inner arms reach the inner join, which reaches the outer join.
  EXPECT_TRUE(HasEdge(cfg, a, inner)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, b, inner)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, inner, join)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, outer, join)) << CfgToString(cfg);
  // The outer else does not flow through the inner join.
  EXPECT_FALSE(HasPath(cfg, outer, inner)) << CfgToString(cfg);
}

// ---------------------------------------------------------------------------
// Loops.

TEST(CfgBuilder, WhileLoopHasBackEdgeAndExit) {
  const FunctionCfg cfg = BuildOne(
      "void F(int n) {\n"
      "  while (n > 0) {\n"
      "    Body();\n"
      "  }\n"
      "  After();\n"
      "}\n");
  const int cond = BlockWith(cfg, "while ( n > 0 )");
  const int body = BlockWith(cfg, "Body (");
  const int after = BlockWith(cfg, "After (");
  ASSERT_NE(cond, -1) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, cond, body)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, body, cond)) << CfgToString(cfg);  // Back edge.
  EXPECT_TRUE(HasPath(cfg, cond, after)) << CfgToString(cfg);
}

TEST(CfgBuilder, DoWhileBodyRunsBeforeCondition) {
  const FunctionCfg cfg = BuildOne(
      "void F(int n) {\n"
      "  do {\n"
      "    Body();\n"
      "  } while (n > 0);\n"
      "  After();\n"
      "}\n");
  const int body = BlockWith(cfg, "Body (");
  const int cond = BlockWith(cfg, "do-while ( n > 0 )");
  const int after = BlockWith(cfg, "After (");
  ASSERT_NE(body, -1) << CfgToString(cfg);
  ASSERT_NE(cond, -1) << CfgToString(cfg);
  // Entry reaches the body without passing the condition...
  EXPECT_TRUE(HasEdge(cfg, cfg.entry, body)) << CfgToString(cfg);
  // ...the body feeds the condition, which loops back or exits.
  EXPECT_TRUE(HasEdge(cfg, body, cond)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, cond, body)) << CfgToString(cfg);
  EXPECT_TRUE(HasPath(cfg, cond, after)) << CfgToString(cfg);
}

TEST(CfgBuilder, ForLoopBreakAndContinueTargetTheRightBlocks) {
  const FunctionCfg cfg = BuildOne(
      "void F() {\n"
      "  for (int i = 0; i < 8; ++i) {\n"
      "    if (Skip(i)) continue;\n"
      "    if (Done(i)) break;\n"
      "    Body();\n"
      "  }\n"
      "  After();\n"
      "}\n");
  const int head = BlockWith(cfg, "for (");
  const int body = BlockWith(cfg, "Body (");
  const int after = BlockWith(cfg, "After (");
  const int skip = BlockWith(cfg, "if ( Skip ( i ) )");
  const int done = BlockWith(cfg, "if ( Done ( i ) )");
  ASSERT_NE(head, -1) << CfgToString(cfg);
  ASSERT_NE(skip, -1) << CfgToString(cfg);
  // continue re-enters the loop head without touching Body.
  EXPECT_TRUE(HasPath(cfg, skip, head)) << CfgToString(cfg);
  // break leaves the loop: the Done branch reaches After without Body.
  EXPECT_TRUE(HasPath(cfg, done, after)) << CfgToString(cfg);
  // The normal path executes Body and loops back.
  EXPECT_TRUE(HasPath(cfg, body, head)) << CfgToString(cfg);
}

TEST(CfgBuilder, EarlyReturnInLoopEdgesToExit) {
  const FunctionCfg cfg = BuildOne(
      "int F(int n) {\n"
      "  while (n > 0) {\n"
      "    if (Found(n)) return n;\n"
      "    --n;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const int ret = BlockWith(cfg, "return n");
  ASSERT_NE(ret, -1) << CfgToString(cfg);
  const CfgStmt* stmt = StmtWith(cfg, "return n");
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->is_return);
  EXPECT_TRUE(HasEdge(cfg, ret, cfg.exit)) << CfgToString(cfg);
  // The return block does not fall through back into the loop.
  const int cond = BlockWith(cfg, "while ( n > 0 )");
  EXPECT_FALSE(HasEdge(cfg, ret, cond)) << CfgToString(cfg);
}

// ---------------------------------------------------------------------------
// switch.

TEST(CfgBuilder, SwitchFallthroughChainsCasesAndBreakLeaves) {
  const FunctionCfg cfg = BuildOne(
      "void F(int k) {\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      Zero();\n"
      "\n"  // BuildFileCfgs takes StripCodeLine output: a `// fallthrough`
            // comment here reaches the builder as a blank line.
      "    case 1:\n"
      "      One();\n"
      "      break;\n"
      "    default:\n"
      "      Other();\n"
      "      break;\n"
      "  }\n"
      "  After();\n"
      "}\n");
  const int head = BlockWith(cfg, "switch ( k )");
  const int zero = BlockWith(cfg, "Zero (");
  const int one = BlockWith(cfg, "One (");
  const int other = BlockWith(cfg, "Other (");
  const int after = BlockWith(cfg, "After (");
  ASSERT_NE(head, -1) << CfgToString(cfg);
  // Every label is dispatched from the switch head.
  EXPECT_TRUE(HasEdge(cfg, head, zero)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, head, one)) << CfgToString(cfg);
  EXPECT_TRUE(HasEdge(cfg, head, other)) << CfgToString(cfg);
  // case 0 falls through into case 1; case 1 breaks out and cannot reach
  // the default arm.
  EXPECT_TRUE(HasEdge(cfg, zero, one)) << CfgToString(cfg);
  EXPECT_TRUE(HasPath(cfg, one, after)) << CfgToString(cfg);
  EXPECT_FALSE(HasPath(cfg, one, other)) << CfgToString(cfg);
}

TEST(CfgBuilder, SwitchWithoutDefaultCanSkipAllCases) {
  const FunctionCfg cfg = BuildOne(
      "void F(int k) {\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      Zero();\n"
      "      break;\n"
      "  }\n"
      "  After();\n"
      "}\n");
  const int head = BlockWith(cfg, "switch ( k )");
  const int zero = BlockWith(cfg, "Zero (");
  const int after = BlockWith(cfg, "After (");
  // No default: the head has a direct edge past every case.
  EXPECT_TRUE(HasEdge(cfg, head, after)) << CfgToString(cfg);
  EXPECT_TRUE(HasPath(cfg, zero, after)) << CfgToString(cfg);
}

// ---------------------------------------------------------------------------
// Lambdas.

TEST(CfgBuilder, LambdaBodyBecomesNestedFunction) {
  const FunctionCfg cfg = BuildOne(
      "void F(EventLoop* loop) {\n"
      "  loop->PostAfter(t, [this, p = std::move(p)]() mutable {\n"
      "    Deliver(std::move(p));\n"
      "  });\n"
      "  After();\n"
      "}\n");
  ASSERT_EQ(cfg.lambdas.size(), 1u) << CfgToString(cfg);
  // The enclosing statement keeps the capture list and a placeholder; the
  // body statements live only in the nested CFG.
  const CfgStmt* post = StmtWith(cfg, "PostAfter");
  ASSERT_NE(post, nullptr) << CfgToString(cfg);
  EXPECT_NE(post->text.find("<lambda#0>"), std::string::npos) << post->text;
  EXPECT_NE(post->text.find("std :: move ( p )"), std::string::npos) << post->text;
  EXPECT_EQ(BlockWith(cfg, "Deliver ("), -1) << CfgToString(cfg);
  const FunctionCfg& lambda = cfg.lambdas[0];
  EXPECT_EQ(lambda.name, "<lambda>");
  EXPECT_NE(lambda.captures.find("this"), std::string::npos) << lambda.captures;
  EXPECT_NE(BlockWith(lambda, "Deliver ("), -1) << CfgToString(lambda);
}

TEST(CfgBuilder, LambdasInLambdasNestRecursively) {
  const FunctionCfg cfg = BuildOne(
      "void F(EventLoop* loop) {\n"
      "  auto outer = [loop](int k) {\n"
      "    auto inner = [k] { return k + 1; };\n"
      "    return inner();\n"
      "  };\n"
      "  outer(1);\n"
      "}\n");
  ASSERT_EQ(cfg.lambdas.size(), 1u) << CfgToString(cfg);
  const FunctionCfg& outer = cfg.lambdas[0];
  ASSERT_EQ(outer.lambdas.size(), 1u) << CfgToString(outer);
  const FunctionCfg& inner = outer.lambdas[0];
  const CfgStmt* ret = StmtWith(inner, "return k + 1");
  ASSERT_NE(ret, nullptr) << CfgToString(inner);
  EXPECT_TRUE(ret->is_return);
  // The inner body does not leak into the outer lambda's statements.
  EXPECT_EQ(BlockWith(outer, "k + 1"), -1) << CfgToString(outer);
}

// ---------------------------------------------------------------------------
// Robustness.

TEST(CfgBuilder, MalformedInputNeverThrows) {
  // Truncated bodies, unbalanced braces, stray tokens: the contract is a
  // well-formed (possibly truncated) graph, never a crash.
  const std::vector<std::string> fixtures = {
      "void F() { if (x { A(); }\n",
      "void F() {\n  while (\n",
      "int F() { return\n",
      "void F() { [ ( } ) ]\n",
      "}}}}\n",
  };
  for (const std::string& src : fixtures) {
    const std::vector<FunctionCfg> cfgs = BuildFileCfgs(Lines(src));
    for (const FunctionCfg& cfg : cfgs) {
      for (const CfgBlock& b : cfg.blocks) {
        for (const int s : b.succs) {
          EXPECT_GE(s, 0);
          EXPECT_LT(s, static_cast<int>(cfg.blocks.size()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace analyze
}  // namespace airfair
