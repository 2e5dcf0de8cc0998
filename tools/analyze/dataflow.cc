#include "tools/analyze/dataflow.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

namespace airfair {
namespace analyze {
namespace {

// Joins `from` into `*into` (max, absent == 0: only keys present in `from`
// can raise `into`); returns true if `*into` changed.
bool JoinInto(VarState* into, const VarState& from) {
  bool changed = false;
  for (const auto& [var, value] : from) {
    auto [it, inserted] = into->emplace(var, value);
    if (inserted) {
      changed = changed || value != 0;
    } else if (value > it->second) {
      it->second = value;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

ForwardDataflow::ForwardDataflow(const FunctionCfg& cfg, TransferFn transfer)
    : cfg_(cfg), transfer_(std::move(transfer)) {}

void ForwardDataflow::Solve(const VarState& entry_state) {
  in_states_.clear();
  if (cfg_.blocks.empty()) return;
  in_states_[cfg_.entry] = entry_state;
  std::deque<int> worklist{cfg_.entry};
  std::set<int> queued{cfg_.entry};
  // Monotone transfers over a finite lattice converge well before this; the
  // cap only guards a buggy non-monotone rule from spinning.
  int budget = static_cast<int>(cfg_.blocks.size()) * 64 + 256;
  while (!worklist.empty() && budget-- > 0) {
    const int id = worklist.front();
    worklist.pop_front();
    queued.erase(id);
    if (id < 0 || static_cast<size_t>(id) >= cfg_.blocks.size()) continue;
    const CfgBlock& block = cfg_.blocks[static_cast<size_t>(id)];
    VarState state = in_states_[id];
    for (const CfgStmt& stmt : block.stmts) transfer_(stmt, &state);
    for (const int succ : block.succs) {
      const auto it = in_states_.find(succ);
      bool changed;
      if (it == in_states_.end()) {
        in_states_[succ] = state;
        changed = true;
      } else {
        changed = JoinInto(&it->second, state);
      }
      if (changed && queued.insert(succ).second) worklist.push_back(succ);
    }
  }
}

void ForwardDataflow::Visit(const VisitFn& visit) const {
  if (!visit) return;
  for (const CfgBlock& block : cfg_.blocks) {
    const auto it = in_states_.find(block.id);
    if (it == in_states_.end()) continue;  // Unreachable: no findings.
    VarState state = it->second;
    for (const CfgStmt& stmt : block.stmts) {
      visit(stmt, state);
      transfer_(stmt, &state);
    }
  }
}

const VarState& ForwardDataflow::ExitState() const {
  static const VarState kEmpty;
  const auto it = in_states_.find(cfg_.exit);
  return it == in_states_.end() ? kEmpty : it->second;
}

}  // namespace analyze
}  // namespace airfair
