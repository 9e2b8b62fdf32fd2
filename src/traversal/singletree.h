// Portal -- single-tree traversal: one query entity descends one tree.
//
// The multi-tree traversal (Algorithm 1) is the paper's contribution; the
// single-tree descent is the classic alternative that library baselines use
// (scikit-learn's per-point radius queries, FDPS's per-particle Barnes-Hut
// walk) and the per-request descent of the serving engine (src/serve).
// Having it as a first-class module keeps the Table V comparators honest and
// reviewable, and gives downstream users the per-query flavor when queries
// arrive online rather than in batch.
#pragma once

#include <algorithm>
#include <concepts>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "traversal/multitree.h"
#include "traversal/rules.h"
#include "util/common.h"

namespace portal {

/// Rule set for one descent: `prune_or_take(node)` returns true when the
/// subtree is fully handled (pruned as irrelevant OR consumed in bulk, e.g. a
/// Barnes-Hut cell acceptance); `base_case(node)` evaluates a leaf exactly.
template <typename R>
concept SingleRuleSet = requires(R r, index_t node) {
  { r.prune_or_take(node) } -> std::convertible_to<bool>;
  { r.base_case(node) };
};

/// Optional nearest-first child ordering, exactly as in the dual traversal.
template <typename R>
concept ScoredSingleRuleSet = SingleRuleSet<R> && requires(R r, index_t node) {
  { r.score(node) } -> std::convertible_to<real_t>;
};

/// The descent stack: LIFO of node indices with an inline buffer sized for
/// every tree the builders produce (binary median splits stay under ~64
/// entries; the depth-60 octree worst case is ~428) and transparent heap
/// growth beyond it, so no tree shape -- including degenerate
/// externally-built ones -- can overflow it.
class NodeFrontier {
 public:
  NodeFrontier() = default;
  // data_ points into the object; default copy/move would alias the source's
  // buffer. A descent owns its frontier, so neither is needed.
  NodeFrontier(const NodeFrontier&) = delete;
  NodeFrontier& operator=(const NodeFrontier&) = delete;

  bool empty() const { return size_ == 0; }
  index_t size() const { return size_; }
  /// Next node pop() returns; callers must check !empty().
  index_t top() const { return data_[size_ - 1]; }
  index_t pop() { return data_[--size_]; }
  void push(index_t node) {
    if (size_ == capacity_) grow();
    data_[size_++] = node;
  }
  /// True once the descent outgrew the inline buffer (obs: the same event
  /// bumps traversal/single/frontier_spills).
  bool spilled() const { return data_ != small_; }

  /// Inline capacity: covers the worst case of every in-tree builder
  /// without touching the heap.
  static constexpr index_t kInlineCapacity = 512;

 private:
  void grow() {
    const index_t next_capacity = capacity_ * 2;
    heap_.resize(static_cast<std::size_t>(next_capacity));
    if (data_ == small_) std::copy(small_, small_ + size_, heap_.data());
    data_ = heap_.data(); // resize preserves prior heap contents
    capacity_ = next_capacity;
    PORTAL_OBS_COUNT("traversal/single/frontier_spills", 1);
  }

  index_t small_[kInlineCapacity];
  std::vector<index_t> heap_;
  index_t* data_ = small_;
  index_t size_ = 0;
  index_t capacity_ = kInlineCapacity;
};

/// Depth-first descent from the root. Serial: callers parallelize over
/// queries (the natural axis for single-tree work), so the stats counters
/// are plain increments on the caller's stack. `elapsed_seconds` is left 0
/// here -- a per-query clock read would dominate small descents; callers
/// time whole query batches instead.
///
/// Reentrant: the descent's mutable state lives in `rules` and on this
/// stack frame, so any number of threads may descend the same immutable
/// tree concurrently, each with its own rule set.
template <typename Tree, typename Rules>
  requires SingleRuleSet<Rules>
TraversalStats single_traverse(const Tree& tree, Rules& rules) {
  TraversalStats stats;
  // Explicit stack: single-tree descents can be deep and run per query, so
  // recursion overhead and stack depth both matter.
  NodeFrontier frontier;
  frontier.push(tree.root_index());

  index_t children[8];
  while (!frontier.empty()) {
    const index_t node = frontier.pop();
    ++stats.pairs_visited;
    if (rules.prune_or_take(node)) {
      ++stats.prunes;
      continue;
    }
    if (tree_node_is_leaf(tree, node)) {
      ++stats.base_cases;
      rules.base_case(node);
      continue;
    }
    const int count = tree_children(tree, node, children);
    // Scored rule sets push farthest-first so the nearest child pops first;
    // unscored rule sets push right-to-left so leaves evaluate in ascending
    // permuted order (load-bearing for the serving engine's bitwise SUM
    // determinism, src/serve/engine.h).
    if constexpr (ScoredSingleRuleSet<Rules>) {
      real_t score[8];
      for (int i = 0; i < count; ++i) score[i] = rules.score(children[i]);
      for (int i = 1; i < count; ++i)
        for (int j = i; j > 0 && score[j] < score[j - 1]; --j) {
          std::swap(score[j], score[j - 1]);
          std::swap(children[j], children[j - 1]);
        }
    }
    for (int i = count - 1; i >= 0; --i) frontier.push(children[i]);
  }
  // One bulk merge into the session counters per descent; single-tree
  // descents run per query, so no per-node instrumentation here.
  PORTAL_OBS_COUNT("traversal/single/nodes_visited", stats.pairs_visited);
  PORTAL_OBS_COUNT("traversal/single/prunes", stats.prunes);
  PORTAL_OBS_COUNT("traversal/single/base_cases", stats.base_cases);
  return stats;
}

} // namespace portal
