// Portal -- the generic execution engine behind the VM and JIT backends.
//
// Runs an analyzed ProblemPlan through the multi-tree traversal (Algorithm 1)
// with *generic* reducers driven by the layer operators and a kernel
// evaluator supplied by the backend (bytecode for the VM engine, dlopen'd
// native functions for the JIT engine). The prune, approximation and leaf
// rules are the rule core's (core/rule_core.h), shared with the serve
// engine; this file keeps only the dual-tree shape around them. The pattern
// backend bypasses this and dispatches to the specialized problem kernels
// instead.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "core/plan.h"
#include "core/rule_core.h"
#include "tree/kdtree.h"
#include "traversal/rules.h"

namespace portal {

/// kd-trees are cached across execute() calls keyed by (dataset identity,
/// leaf size) so iterative programs (Boruvka MST, EM) rebuild nothing. The
/// cache pins each dataset, so an identity pointer can never be recycled by
/// a different dataset while its tree is cached.
///
/// Thread-safe: get() is callable from concurrent executions of the same
/// cached plan (the serving runtime's workers share one cache). The lock
/// covers only map access; a missing tree is built *outside* the lock, so
/// a slow build never serializes hits on other datasets. Two threads racing
/// on the same cold key may both build; the first insert wins and both get
/// a valid tree (the loser's build is dropped -- trees are immutable).
class TreeCache {
 public:
  std::shared_ptr<const KdTree> get(const Storage& storage, index_t leaf_size);
  /// Seed the cache with `tree`, already built over `storage`'s points at
  /// tree->leaf_size(), so programs over `storage` at that leaf size reuse
  /// it instead of building their own.
  void adopt(const Storage& storage, std::shared_ptr<const KdTree> tree);

 private:
  struct Entry {
    std::shared_ptr<const Dataset> pinned;
    std::shared_ptr<const KdTree> tree;
  };
  std::mutex mutex_;
  std::map<std::pair<const void*, index_t>, Entry> cache_;
};

struct ExecutionResult {
  std::shared_ptr<OutputData> output;
  TraversalStats stats;
  double tree_seconds = 0;
  double traversal_seconds = 0;
};

/// Run the plan with tree acceleration (the optimal algorithm).
ExecutionResult execute_generic(const ProblemPlan& plan, const PortalConfig& config,
                                const EvaluatorFns& eval, TreeCache* cache);

/// Run the plan by exhaustive O(N^2) evaluation -- the brute-force program
/// the compiler also emits for correctness checks (Sec. IV).
ExecutionResult execute_bruteforce(const ProblemPlan& plan,
                                   const PortalConfig& config,
                                   const EvaluatorFns& eval);

/// Compare two outputs within a tolerance; returns an empty string on match,
/// a human-readable mismatch description otherwise (validation mode).
std::string compare_outputs(const OutputData& expected, const OutputData& actual,
                            real_t tolerance);

} // namespace portal
