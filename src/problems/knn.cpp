#include "problems/knn.h"

#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "kernels/batch.h"
#include "problems/common.h"
#include "traversal/multitree.h"
#include "util/threading.h"

namespace portal {
namespace {

/// Per-thread scratch: a contiguous copy of the current query point, a
/// distance buffer covering the largest reference leaf, and the thread's
/// evaluated-pair count (cache-line aligned: the count is written per base
/// case, next to other threads' slots).
struct alignas(64) KnnWorkspace {
  std::vector<real_t> qpt;
  std::vector<real_t> dists;
  std::uint64_t pair_evals = 0;
};

/// Dual-tree k-NN rule set (Sec. II-C instantiated for argmin^k):
///   Prune: dmin(Nq, Nr) > B(Nq), where B(Nq) is the max over Nq's points of
///   their current k-th best distance, maintained per node and tightened
///   bottom-up as base cases improve leaf candidates.
/// Templated over the tree type (kd-tree or ball tree): the node bound
/// interface (`box.min_dist`, `box.min_sq_dist_point`) is all it needs --
/// the "plug and play with different trees" abstraction of Sec. II.
template <typename Tree>
class KnnRules {
 public:
  KnnRules(const Tree& qtree, const Tree& rtree, const KnnOptions& options,
           std::vector<real_t>& dists, std::vector<index_t>& ids)
      : qtree_(qtree),
        rtree_(rtree),
        options_(options),
        dists_(dists),
        ids_(ids),
        node_bounds_(qtree.num_nodes()),
        batch_(options.batch && !rtree.mirror().empty()),
        workspaces_(num_threads()) {
    const index_t max_leaf = rtree.stats().max_leaf_count;
    for (KnnWorkspace& ws : workspaces_) {
      ws.qpt.resize(qtree.data().dim());
      ws.dists.resize(max_leaf);
    }
  }

  bool prune_or_approx(index_t q, index_t r) {
    const real_t dmin =
        qtree_.node(q).box.min_dist(bound_metric(), rtree_.node(r).box);
    return dmin > node_bounds_[q].load();
  }

  /// Point pairs evaluated so far, summed over the per-thread workspaces.
  std::uint64_t pair_evals() const {
    std::uint64_t total = 0;
    for (const KnnWorkspace& ws : workspaces_) total += ws.pair_evals;
    return total;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_dist(bound_metric(), rtree_.node(r).box);
  }

  void base_case(index_t q, index_t r) {
    const auto& qnode = qtree_.node(q);
    const auto& rnode = rtree_.node(r);
    KnnWorkspace& ws = workspaces_[omp_get_thread_num()];
    const index_t k = options_.k;
    const index_t rcount = rnode.count();

    real_t leaf_bound = 0;
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      KnnList list(dists_.data() + qi * k, ids_.data() + qi * k, k);
      qtree_.data().copy_point(qi, ws.qpt.data());
      // Point-level prune before touching reference coordinates.
      const real_t point_min = point_box_min(ws.qpt.data(), rnode.box);
      if (point_min <= list.worst()) {
        // Batched flavor streams the SoA mirror tile (same dimension-outer
        // accumulation order as dists_to_range, so results are identical).
        if (batch_) {
          batch::dists(options_.metric, rtree_.mirror().tile(rnode.begin, rcount),
                       ws.qpt.data(), nullptr, nullptr, ws.dists.data());
          batch::count_batch_tile(rcount);
        } else {
          dists_to_range(options_.metric, rtree_.data(), rnode.begin, rnode.end,
                         ws.qpt.data(), ws.dists.data());
          batch::count_scalar_tail(rcount);
        }
        ws.pair_evals += static_cast<std::uint64_t>(rcount);
        for (index_t j = 0; j < rcount; ++j)
          list.insert(ws.dists[j], rnode.begin + j);
      }
      leaf_bound = std::max(leaf_bound, list.worst());
    }

    // Tighten this leaf's bound, then propagate the (monotone decreasing)
    // max-of-children bound toward the root.
    node_bounds_[q].store_min(leaf_bound);
    index_t parent = qnode.parent;
    while (parent >= 0) {
      const auto& pnode = qtree_.node(parent);
      const real_t combined = std::max(node_bounds_[pnode.left].load(),
                                       node_bounds_[pnode.right].load());
      if (combined >= node_bounds_[parent].load()) break;
      node_bounds_[parent].store_min(combined);
      parent = pnode.parent;
    }
  }

 private:
  /// Pruning happens in the same space dists_to_range reports: squared L2 for
  /// the Euclidean family, plain distance otherwise.
  MetricKind bound_metric() const {
    return options_.metric == MetricKind::Euclidean ? MetricKind::SqEuclidean
                                                    : options_.metric;
  }

  template <typename Bound>
  real_t point_box_min(const real_t* qpt, const Bound& box) const {
    switch (options_.metric) {
      case MetricKind::Euclidean:
      case MetricKind::SqEuclidean:
        return box.min_sq_dist_point(qpt);
      default:
        // Conservative: skip point-level pruning for other metrics.
        return 0;
    }
  }

  const Tree& qtree_;
  const Tree& rtree_;
  const KnnOptions& options_;
  std::vector<real_t>& dists_;
  std::vector<index_t>& ids_;
  std::vector<AtomicBound> node_bounds_;
  bool batch_;
  std::vector<KnnWorkspace> workspaces_;
};

void validate(const Dataset& query, const Dataset& reference, index_t k) {
  if (query.dim() != reference.dim())
    throw std::invalid_argument("knn: query/reference dimensionality mismatch");
  if (k < 1 || k > reference.size())
    throw std::invalid_argument("knn: k must be in [1, reference.size()]");
  if (query.empty()) throw std::invalid_argument("knn: empty query set");
}

/// L2 results are computed squared; report plain Euclidean at the edge.
void finalize_distances(MetricKind metric, std::vector<real_t>& dists) {
  if (metric == MetricKind::Euclidean)
    for (real_t& d : dists) d = std::sqrt(d);
}

/// Tree-generic dual-tree k-NN core (results in permuted order).
template <typename Tree>
KnnResult run_knn_dualtree(const Tree& qtree, const Tree& rtree,
                           const KnnOptions& options) {
  const index_t nq = qtree.data().size();
  const index_t k = options.k;
  KnnResult result;
  result.k = k;
  result.indices.assign(nq * k, -1);
  result.distances.assign(nq * k, std::numeric_limits<real_t>::max());

  KnnRules<Tree> rules(qtree, rtree, options, result.distances, result.indices);
  TraversalOptions topt;
  topt.parallel = options.parallel;
  topt.task_depth = options.task_depth;
  result.stats = dual_traverse(qtree, rtree, rules, topt);
  result.stats.pair_evals = rules.pair_evals();
  finalize_distances(options.metric, result.distances);
  return result;
}

/// Un-permute a tree-order result: permuted row i describes original query
/// perm_q[i]; permuted reference id j is original perm_r[j].
KnnResult unpermute(const KnnResult& permuted, index_t nq, index_t k,
                    const std::vector<index_t>& perm_q,
                    const std::vector<index_t>& perm_r) {
  KnnResult result;
  result.k = k;
  result.stats = permuted.stats;
  result.indices.assign(nq * k, -1);
  result.distances.assign(nq * k, 0);
  for (index_t i = 0; i < nq; ++i) {
    const index_t original = perm_q[i];
    for (index_t j = 0; j < k; ++j) {
      result.distances[original * k + j] = permuted.distances[i * k + j];
      const index_t rid = permuted.indices[i * k + j];
      result.indices[original * k + j] = rid >= 0 ? perm_r[rid] : -1;
    }
  }
  return result;
}

} // namespace

KnnResult knn_bruteforce(const Dataset& query, const Dataset& reference,
                         index_t k, MetricKind metric) {
  validate(query, reference, k);
  const index_t nq = query.size();
  KnnResult result;
  result.k = k;
  result.indices.assign(nq * k, -1);
  result.distances.assign(nq * k, std::numeric_limits<real_t>::max());

#pragma omp parallel
  {
    std::vector<real_t> qpt(query.dim());
    std::vector<real_t> dists(reference.size());
#pragma omp for schedule(static)
    for (index_t i = 0; i < nq; ++i) {
      query.copy_point(i, qpt.data());
      dists_to_range(metric, reference, 0, reference.size(), qpt.data(),
                     dists.data());
      KnnList list(result.distances.data() + i * k, result.indices.data() + i * k,
                   k);
      for (index_t j = 0; j < reference.size(); ++j) list.insert(dists[j], j);
    }
  }
  finalize_distances(metric, result.distances);
  return result;
}

KnnResult knn_dualtree_permuted(const KdTree& qtree, const KdTree& rtree,
                                const KnnOptions& options) {
  return run_knn_dualtree(qtree, rtree, options);
}

KnnResult knn_expert(const Dataset& query, const Dataset& reference,
                     const KnnOptions& options) {
  validate(query, reference, options.k);
  const KdTree qtree(query, options.leaf_size);
  const KdTree rtree(reference, options.leaf_size);
  const KnnResult permuted = run_knn_dualtree(qtree, rtree, options);
  return unpermute(permuted, query.size(), options.k, qtree.perm(), rtree.perm());
}

KnnResult knn_expert_balltree(const Dataset& query, const Dataset& reference,
                              const KnnOptions& options) {
  validate(query, reference, options.k);
  const BallTree qtree(query, options.leaf_size);
  const BallTree rtree(reference, options.leaf_size);
  const KnnResult permuted = run_knn_dualtree(qtree, rtree, options);
  return unpermute(permuted, query.size(), options.k, qtree.perm(), rtree.perm());
}

} // namespace portal
