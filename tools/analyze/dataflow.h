// Forward dataflow over the per-function CFGs (tools/analyze/cfg.h).
//
// The flow-sensitive lint rules are all instances of one shape: walk every
// execution path through a function, tracking a small per-variable state
// machine (moved-from? handle retained?), and report statements reached in a
// bad state. This module provides that shape once: a worklist solver that
// joins predecessor states at block entries (max over the lattice: a state
// reached on ANY incoming path holds), runs a rule-supplied transfer
// function across each block, and iterates to a fixpoint (loops converge
// because transfer functions are monotone over a finite lattice; a hard
// iteration cap backstops a rule that is not). After the fixpoint, the
// solver replays each *reachable* block and hands the rule every statement
// together with the state holding just before it — unreachable code gets no
// callbacks and therefore no findings.
//
// State is a map from variable name to a small integer lattice value; absent
// means 0 (the rule's bottom). Rules define their own value meanings, e.g.
// use-after-move uses {0: untracked/valid, 1: maybe-moved, 2: moved}: the
// may-join (max) makes a variable moved on *any* incoming path count, which
// is exactly the "used on any path after the move" semantics the rule wants.

#ifndef AIRFAIR_TOOLS_ANALYZE_DATAFLOW_H_
#define AIRFAIR_TOOLS_ANALYZE_DATAFLOW_H_

#include <functional>
#include <map>
#include <string>

#include "tools/analyze/cfg.h"

namespace airfair {
namespace analyze {

// Per-variable abstract state. Absent key == 0.
using VarState = std::map<std::string, int>;

// Mutates `state` with the effect of one statement.
using TransferFn = std::function<void(const CfgStmt& stmt, VarState* state)>;

// Called after the fixpoint for every statement of every reachable block, in
// block-id then statement order, with the state just BEFORE the statement.
using VisitFn = std::function<void(const CfgStmt& stmt, const VarState& before)>;

// Solves the forward problem on `cfg` starting from `entry_state` at the
// entry block, then replays reachable blocks through `visit`. `visit` may be
// null when only `ExitState` matters.
class ForwardDataflow {
 public:
  ForwardDataflow(const FunctionCfg& cfg, TransferFn transfer);

  void Solve(const VarState& entry_state);
  void Visit(const VisitFn& visit) const;

  // Joined state at the synthetic exit block (state when the function
  // returns, over all paths). Empty if the exit was never reached.
  const VarState& ExitState() const;

 private:
  const FunctionCfg& cfg_;
  TransferFn transfer_;
  std::map<int, VarState> in_states_;  // Only reachable blocks have entries.
};

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_DATAFLOW_H_
