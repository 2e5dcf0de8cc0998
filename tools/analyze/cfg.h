// Per-function control-flow graphs: the structural layer under the lint
// engine's flow-sensitive rules.
//
// The lint engine (lint.h) sees stripped lines — enough for lexical and
// cross-file structure, blind to *order of execution*. The lifetime rules
// (use-after-move, callback-lifetime) need to reason about paths: "is this
// PacketPtr used after the branch that moved it?", "does every path from
// this schedule call retain the handle?". This module parses each function
// body out of the stripped token stream into basic blocks connected by
// control-flow edges, on which the dataflow framework
// (tools/analyze/dataflow.h) runs forward may-analyses.
//
// What the builder understands: if/else, while, do-while, for (classic and
// range), switch with fallthrough (case blocks chain unless a break/return
// ends the previous one), break/continue to the innermost loop or switch,
// early return (edge to the synthetic exit block), plain compound blocks,
// and lambdas — a lambda body becomes a
// *nested* FunctionCfg under its enclosing function, and the enclosing
// statement keeps the capture list followed by a `<lambda#k>` placeholder,
// so capture-initializer moves stay visible to the enclosing analysis while
// body statements do not leak into it.
//
// Still a lexer, not a compiler: robust for this code base's style, kept
// honest by structural tests (tests/tools_cfg_test.cc). Known limits, by design: no goto/labels (the
// tree has none), exceptions are approximated (a catch block is an
// alternative successor of the statement before its try), preprocessor
// lines are skipped wholesale, and a lambda assigned at namespace scope is
// not extracted as a function.

#ifndef AIRFAIR_TOOLS_ANALYZE_CFG_H_
#define AIRFAIR_TOOLS_ANALYZE_CFG_H_

#include <string>
#include <vector>

namespace airfair {
namespace analyze {

// One statement as the dataflow analyses see it: the token text (single
// spaces between tokens; string/char literal contents were already blanked
// by the line stripper) plus the source line.
struct CfgStmt {
  std::string text;
  int line = 0;  // 1-based line where the statement starts.
  bool is_return = false;  // `return ...;` — sole successor is the exit.
};

struct CfgBlock {
  int id = 0;
  std::vector<CfgStmt> stmts;
  std::vector<int> succs;  // Successor block ids, in creation order.
};

// A function (or lambda) body as a graph. Block 0 is the entry; `exit` is a
// synthetic empty block every return and the final fall-off edge feed.
struct FunctionCfg {
  std::string name;  // Last declarator identifier; "<lambda>" for lambdas.
  // Head text from the start of the declarator line to the body '{':
  // carries the qualified name and the parameters (use-after-move tracks
  // the move-only ones).
  std::string head;
  std::string captures;  // Lambda capture-list text; "" for functions.
  int line = 0;          // 1-based line of the body '{'.
  int entry = 0;
  int exit = 1;
  std::vector<CfgBlock> blocks;
  std::vector<FunctionCfg> lambdas;  // In order of appearance in the body.
};

// Extracts a CFG for every function definition in one file's stripped code
// lines (lint.h StripCodeLine output, one entry per source line). Member
// functions defined inside class bodies are included; lambdas nest inside
// their enclosing function's `lambdas`. Never throws on malformed input —
// an unparseable body yields a truncated (but well-formed) graph.
std::vector<FunctionCfg> BuildFileCfgs(const std::vector<std::string>& code);

// Multi-line debug rendering of a CFG ("B0 -> B1 B2" plus statements),
// used by the structural tests' failure messages.
std::string CfgToString(const FunctionCfg& cfg);

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_CFG_H_
