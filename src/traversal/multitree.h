// Portal -- multi-tree traversal (Algorithm 1 of the paper).
//
// Two entry points:
//   * dual_traverse(): the m = 2 specialization every evaluated problem uses.
//     Serial or OpenMP task-parallel (Sec. IV-F: tasks are spawned down the
//     recursion until threads saturate, then execution switches to data
//     parallelism inside the base cases). Parallel recursion only forks on
//     *query-side* splits so concurrent rule invocations always see disjoint
//     query ranges -- rule sets need no locking for per-query state.
//   * multi_traverse(): the general m-way PowerSet-Tuples recursion, faithful
//     to Algorithm 1 line 9-11, used for m != 2 problems and as the oracle
//     the dual specialization is tested against.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include <omp.h>

#include "obs/trace.h"
#include "tree/kdtree.h"
#include "tree/octree.h"
#include "traversal/rules.h"
#include "util/common.h"
#include "util/threading.h"
#include "util/timer.h"

namespace portal {

/// Child enumeration adapters so one traversal serves kd-trees and octrees.
inline int tree_children(const KdTree& tree, index_t node, index_t out[8]) {
  const KdNode& n = tree.node(node);
  if (n.is_leaf()) return 0;
  out[0] = n.left;
  out[1] = n.right;
  return 2;
}

inline int tree_children(const Octree& tree, index_t node, index_t out[8]) {
  const OctreeNode& n = tree.node(node);
  if (n.is_leaf()) return 0;
  int count = 0;
  for (index_t child : n.children)
    if (child >= 0) out[count++] = child;
  return count;
}

inline bool tree_node_is_leaf(const KdTree& tree, index_t node) {
  return tree.node(node).is_leaf();
}
inline bool tree_node_is_leaf(const Octree& tree, index_t node) {
  return tree.node(node).is_leaf();
}

/// Node width used by SplitPolicy::Larger.
inline real_t tree_node_extent(const KdTree& tree, index_t node) {
  return tree.node(node).box.widest_extent();
}
inline real_t tree_node_extent(const Octree& tree, index_t node) {
  return tree.node(node).half_width * 2;
}

/// How a visited pair of non-leaf nodes is split (Algorithm 1 line 6-9).
enum class SplitPolicy {
  /// Split every non-leaf node and recurse over the cartesian product --
  /// Algorithm 1 verbatim. Right choice for binary kd-trees (4 subpairs).
  Both,
  /// Split only the wider node. Standard for octrees, where splitting both
  /// sides would fan out into up to 64 subpairs per visit.
  Larger,
};

struct TraversalOptions {
  bool parallel = true;
  /// Recursion depth below which OpenMP tasks are spawned; -1 derives it from
  /// the current thread count via task_spawn_depth().
  int task_depth = -1;
  SplitPolicy split = SplitPolicy::Both;
};

namespace detail {

template <typename TreeQ, typename TreeR, typename Rules>
class DualTraverser {
 public:
  DualTraverser(const TreeQ& qtree, const TreeR& rtree, Rules& rules,
                int task_depth, SplitPolicy split)
      : qtree_(qtree),
        rtree_(rtree),
        rules_(rules),
        task_depth_(task_depth),
        split_(split) {}

  void run_serial(index_t q, index_t r) {
    // Stack-local accumulator: the hot recursion increments memory the
    // compiler can prove nothing else aliases.
    TraversalStats local;
    recurse<false>(q, r, 0, local);
    total_ += local;
  }

  void run_parallel(index_t q, index_t r) {
    // One padded slot per thread: a slot is only ever written by its owning
    // thread (OpenMP tasks are tied, and merge_local runs at most once per
    // task body), so the merges need no synchronization beyond the implicit
    // barrier closing the parallel region.
    thread_stats_.assign(static_cast<std::size_t>(omp_get_max_threads()),
                         PaddedStats{});
#pragma omp parallel
#pragma omp single nowait
    {
      TraversalStats local;
      recurse<true>(q, r, 0, local);
      merge_local(local);
    }
    for (const PaddedStats& slot : thread_stats_) total_ += slot.stats;
    thread_stats_.clear();
  }

  TraversalStats stats() const { return total_; }

 private:
  /// Order reference children nearest-first when the rule set exposes a
  /// score; tightens reduction bounds before farther nodes are examined.
  void order_by_score(index_t q, index_t* children, int count) {
    if constexpr (ScoredDualRuleSet<Rules>) {
      std::array<real_t, 8> score;
      for (int i = 0; i < count; ++i) score[i] = rules_.score(q, children[i]);
      // insertion sort; count <= 8
      for (int i = 1; i < count; ++i)
        for (int j = i; j > 0 && score[j] < score[j - 1]; --j) {
          std::swap(score[j], score[j - 1]);
          std::swap(children[j], children[j - 1]);
        }
    } else {
      (void)q;
      (void)children;
      (void)count;
    }
  }

  /// Cacheline-padded per-thread accumulator so neighboring threads' merges
  /// never share a line (the false-sharing hazard the atomic counters had).
  struct alignas(64) PaddedStats {
    TraversalStats stats;
  };

  /// Fold a finished task's local counters into this thread's slot. Called
  /// once per task, not per node pair.
  void merge_local(const TraversalStats& local) {
    thread_stats_[static_cast<std::size_t>(omp_get_thread_num())].stats += local;
  }

  /// `stats` is the enclosing task's private accumulator: counting is plain
  /// increments on task-local state, zero shared RMWs per visited pair.
  template <bool Par>
  void recurse(index_t q, index_t r, int depth, TraversalStats& stats) {
    ++stats.pairs_visited;
    if (rules_.prune_or_approx(q, r)) {
      ++stats.prunes;
      return;
    }

    const bool q_leaf = tree_node_is_leaf(qtree_, q);
    const bool r_leaf = tree_node_is_leaf(rtree_, r);

    if (q_leaf && r_leaf) {
      ++stats.base_cases;
      rules_.base_case(q, r);
      return;
    }

    index_t q_children[8];
    index_t r_children[8];
    int qn = q_leaf ? 0 : tree_children(qtree_, q, q_children);
    int rn = r_leaf ? 0 : tree_children(rtree_, r, r_children);

    // Larger-side policy: when both could split, keep the narrower node
    // whole and only open the wider one (octree fan-out control).
    if (split_ == SplitPolicy::Larger && qn > 0 && rn > 0) {
      if (tree_node_extent(qtree_, q) >= tree_node_extent(rtree_, r)) {
        rn = 0;
      } else {
        qn = 0;
      }
    }

    if (qn > 0 && rn > 0) {
      // Fork on query children (disjoint query ranges); each task walks all
      // reference children sequentially, nearest-first.
      for (int qi = 0; qi < qn; ++qi) {
        const index_t qc = q_children[qi];
        if constexpr (Par) {
          if (depth < task_depth_) {
            // firstprivate keeps the task self-contained: libgomp's task
            // synchronization is futex-based and invisible to TSan, so a
            // default(shared) read of the parent's stack here reports as a
            // phantom race. Each task sorts its own private children copy.
#pragma omp task default(shared) firstprivate(qc, depth, rn, r_children)
            {
              TraversalStats task_stats;
              order_by_score(qc, r_children, rn);
              for (int ri = 0; ri < rn; ++ri)
                recurse<Par>(qc, r_children[ri], depth + 1, task_stats);
              merge_local(task_stats);
            }
            continue;
          }
        }
        index_t ordered[8];
        for (int i = 0; i < rn; ++i) ordered[i] = r_children[i];
        order_by_score(qc, ordered, rn);
        for (int ri = 0; ri < rn; ++ri)
          recurse<Par>(qc, ordered[ri], depth + 1, stats);
      }
      if constexpr (Par) {
        if (depth < task_depth_) {
#pragma omp taskwait
        }
      }
    } else if (qn > 0) {
      // Reference is a leaf: fork on query children.
      for (int qi = 0; qi < qn; ++qi) {
        const index_t qc = q_children[qi];
        if constexpr (Par) {
          if (depth < task_depth_) {
#pragma omp task default(shared) firstprivate(qc, r, depth)
            {
              TraversalStats task_stats;
              recurse<Par>(qc, r, depth + 1, task_stats);
              merge_local(task_stats);
            }
            continue;
          }
        }
        recurse<Par>(qc, r, depth + 1, stats);
      }
      if constexpr (Par) {
        if (depth < task_depth_) {
#pragma omp taskwait
        }
      }
    } else {
      // Query is a leaf: both reference children share its output range, so
      // they run sequentially in this task, nearest-first.
      order_by_score(q, r_children, rn);
      for (int ri = 0; ri < rn; ++ri)
        recurse<Par>(q, r_children[ri], depth + 1, stats);
    }
  }

  const TreeQ& qtree_;
  const TreeR& rtree_;
  Rules& rules_;
  int task_depth_;
  SplitPolicy split_;
  TraversalStats total_;
  std::vector<PaddedStats> thread_stats_;
};

} // namespace detail

/// Run Algorithm 1 for m = 2 over (qtree, rtree) with the given rule set.
/// The returned stats carry exact counters (merged from per-task locals; no
/// shared atomics are involved) plus the traversal wall-clock in
/// `elapsed_seconds`, which together with the tree stats' `build_seconds`
/// gives callers the build vs. traverse split.
template <typename TreeQ, typename TreeR, typename Rules>
  requires DualRuleSet<Rules>
TraversalStats dual_traverse(const TreeQ& qtree, const TreeR& rtree, Rules& rules,
                             const TraversalOptions& options = {}) {
  PORTAL_OBS_SCOPE(traverse_scope, "traversal/dual");
  Timer timer;
  detail::DualTraverser<TreeQ, TreeR, Rules> traverser(
      qtree, rtree, rules,
      options.task_depth >= 0 ? options.task_depth
                              : task_spawn_depth(num_threads()),
      options.split);
  if (options.parallel && num_threads() > 1) {
    traverser.run_parallel(qtree.root_index(), rtree.root_index());
  } else {
    traverser.run_serial(qtree.root_index(), rtree.root_index());
  }
  TraversalStats stats = traverser.stats();
  stats.elapsed_seconds = timer.elapsed_s();
  // Unify the task-merged stats with the session counters: one bulk add per
  // traversal, so the per-pair hot path stays untouched.
  PORTAL_OBS_COUNT("traversal/pairs_visited", stats.pairs_visited);
  PORTAL_OBS_COUNT("traversal/prunes", stats.prunes);
  PORTAL_OBS_COUNT("traversal/base_cases", stats.base_cases);
  return stats;
}

/// General m-way rule set: same contract as DualRuleSet but over node tuples.
template <typename R>
concept MultiRuleSet = requires(R r, const std::vector<index_t>& nodes) {
  { r.prune_or_approx(nodes) } -> std::convertible_to<bool>;
  { r.base_case(nodes) };
};

/// Algorithm 1 verbatim for m trees (lines 6-11: split every non-leaf node
/// and recurse over the PowerSet-Tuples cartesian product). Serial; the
/// evaluated problems are all m = 2 and use dual_traverse instead.
template <typename Tree, typename Rules>
  requires MultiRuleSet<Rules>
TraversalStats multi_traverse(const std::vector<const Tree*>& trees, Rules& rules) {
  PORTAL_OBS_SCOPE(traverse_scope, "traversal/multi");
  Timer timer;
  TraversalStats stats;
  std::vector<index_t> nodes(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) nodes[i] = trees[i]->root_index();

  struct Frame {
    std::vector<index_t> nodes;
  };
  std::vector<Frame> stack;
  stack.push_back({nodes});

  std::vector<std::vector<index_t>> splits(trees.size());
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    ++stats.pairs_visited;

    if (rules.prune_or_approx(frame.nodes)) {
      ++stats.prunes;
      continue;
    }

    bool all_leaves = true;
    for (std::size_t i = 0; i < trees.size(); ++i)
      if (!tree_node_is_leaf(*trees[i], frame.nodes[i])) all_leaves = false;

    if (all_leaves) {
      ++stats.base_cases;
      rules.base_case(frame.nodes);
      continue;
    }

    // N_i^split = {N_i} when leaf else {left, right, ...} (Algorithm 1 line 7-8).
    for (std::size_t i = 0; i < trees.size(); ++i) {
      splits[i].clear();
      index_t children[8];
      const int count = tree_children(*trees[i], frame.nodes[i], children);
      if (count == 0) {
        splits[i].push_back(frame.nodes[i]);
      } else {
        splits[i].assign(children, children + count);
      }
    }

    // Cartesian product (PowerSet-Tuples, line 9).
    std::vector<std::size_t> cursor(trees.size(), 0);
    while (true) {
      Frame next;
      next.nodes.resize(trees.size());
      for (std::size_t i = 0; i < trees.size(); ++i)
        next.nodes[i] = splits[i][cursor[i]];
      stack.push_back(std::move(next));

      std::size_t i = 0;
      while (i < trees.size() && ++cursor[i] == splits[i].size()) {
        cursor[i] = 0;
        ++i;
      }
      if (i == trees.size()) break;
    }
  }
  stats.elapsed_seconds = timer.elapsed_s();
  PORTAL_OBS_COUNT("traversal/pairs_visited", stats.pairs_visited);
  PORTAL_OBS_COUNT("traversal/prunes", stats.prunes);
  PORTAL_OBS_COUNT("traversal/base_cases", stats.base_cases);
  return stats;
}

} // namespace portal
