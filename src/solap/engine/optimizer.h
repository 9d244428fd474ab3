// Cost-based strategy selection — the beginnings of the "S-OLAP query
// optimizer" the paper names as its most important future work (§4.2.2):
// "In fact, this is a sophisticated S-OLAP query optimization problem where
//  many factors such as storage space, memory availability, and execution
//  speed are parts of the formula."
//
// The optimizer chooses between the counter-based and the inverted-index
// strategy per query by estimating the number of sequences each would
// touch, given which indices are already cached.
#ifndef SOLAP_ENGINE_OPTIMIZER_H_
#define SOLAP_ENGINE_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solap/engine/engine.h"

namespace solap {

/// Per-group detail of the verdict: what the II strategy would do for one
/// selected sequence group and what each side is estimated to cost.
/// EXPLAIN renders one line per entry.
struct GroupPlan {
  size_t group_index = 0;
  uint64_t num_sequences = 0;
  /// Estimated sequences touched by each strategy in this group.
  double cb_cost = 0;
  double ii_cost = 0;
  /// How II would obtain the group's index ("exact cached index",
  /// "cold BuildIndex scan", ...).
  std::string ii_source;
  /// Canonical shape of the cached index II would reuse; empty when cold.
  std::string reused_index;
};

/// The optimizer's verdict for one query, with its reasoning — exposed so
/// that tests, EXPLAIN and the ablation benchmark can audit decisions.
struct StrategyChoice {
  ExecStrategy strategy = ExecStrategy::kCounterBased;
  /// Estimated sequences touched by each strategy.
  double cb_cost = 0;
  double ii_cost = 0;
  /// Human-readable explanation ("exact index cached", "selective slice
  /// reuses prefix", "cold unselective query favors one scan", ...).
  std::string reason;
  /// One entry per selected group, in selection order (EXPLAIN detail).
  std::vector<GroupPlan> groups;
  /// The template, formation and group selection the costing resolved;
  /// execution takes them over instead of resolving the query again.
  ResolvedQuery resolved;
};

/// \brief Chooses CB vs II for `spec` against the engine's current cache
/// state.
///
/// Cost model (unit = one sequence scan):
///  - CB always scans every sequence of every selected group once.
///  - II pays, per group: nothing for an exact cached index; a merge
///    (~0, list arithmetic) when a complete finer index exists; a refine
///    bounded by the (slice-filtered) coarse lists when a coarser one
///    exists; the cached-prefix extension cost estimated from the prefix
///    index's selectivity; or a full BuildIndex scan when cold.
///  - Counting rescans list entries only when a matching predicate, an
///    ALL-MATCHED restriction or a non-COUNT aggregate forces it.
///  - Under a memory budget, II is infeasible when the estimated bytes of
///    its cold index builds exceed the governor's headroom: the build would
///    be refused and re-run as CB, so CB is chosen directly.
class StrategyOptimizer {
 public:
  explicit StrategyOptimizer(SOlapEngine* engine) : engine_(engine) {}

  /// Evaluates `spec`; never executes it. Errors (unresolvable spec)
  /// surface here exactly as Execute would report them. The engine runs it
  /// on repository misses only; every cached index costs O(1) here except
  /// on the prefix/suffix branch, which weighs the usable lists.
  Result<StrategyChoice> Choose(const CuboidSpec& spec);

 private:
  SOlapEngine* engine_;
};

}  // namespace solap

#endif  // SOLAP_ENGINE_OPTIMIZER_H_
