// Portal -- the rule-set concept consumed by the multi-tree traversal.
//
// Algorithm 1 of the paper is parameterized by a rule set R providing
// Prune/Approximate, ComputeApprox, and BaseCase. In this implementation the
// first two are fused into `prune_or_approx` (returning true means the node
// tuple was fully handled -- either pruned or replaced by its approximation),
// matching how lines 1-2 of Algorithm 1 consume them.
#pragma once

#include <concepts>
#include <cstdint>

#include "util/common.h"

namespace portal {

/// Minimal rule set: enough to drive the traversal.
template <typename R>
concept DualRuleSet = requires(R r, index_t q, index_t ref) {
  { r.prune_or_approx(q, ref) } -> std::convertible_to<bool>;
  { r.base_case(q, ref) };
};

/// Optional extension: rules may order sibling recursions by a score
/// (lower visits first). Visiting near reference nodes first tightens bounds
/// early, which is how the expert implementations maximize pruning.
template <typename R>
concept ScoredDualRuleSet = DualRuleSet<R> && requires(R r, index_t q, index_t ref) {
  { r.score(q, ref) } -> std::convertible_to<real_t>;
};

/// Counters the traversal fills. Plain (non-atomic) integers: the parallel
/// traversal accumulates into a task-local copy threaded through each
/// recursion and merges it into a cacheline-padded per-thread slot when the
/// task finishes, so counting adds zero shared read-modify-writes per
/// visited node pair. Merging happens at task boundaries; totals are exact
/// once the traversal's join completes, and for a fixed (non-adaptive) rule
/// set they equal the serial counts bit-for-bit.
struct TraversalStats {
  std::uint64_t pairs_visited = 0;  // node tuples examined
  std::uint64_t prunes = 0;         // tuples handled by Prune/Approximate
  std::uint64_t base_cases = 0;     // leaf tuples evaluated exactly
  /// Point pairs whose distance a base case evaluated; counted by the k-NN
  /// rules (problems/knn.cpp), 0 for rule sets that do not count them.
  std::uint64_t pair_evals = 0;
  /// Wall-clock seconds of the traversal itself (set by dual_traverse and
  /// multi_traverse; excludes tree construction, whose cost lives in the
  /// tree's own stats). Gives callers the build vs. traverse time split.
  double elapsed_seconds = 0;

  TraversalStats& operator+=(const TraversalStats& other) {
    pairs_visited += other.pairs_visited;
    prunes += other.prunes;
    base_cases += other.base_cases;
    pair_evals += other.pair_evals;
    elapsed_seconds += other.elapsed_seconds;
    return *this;
  }
};

} // namespace portal
