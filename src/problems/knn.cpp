#include "problems/knn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "kernels/batch.h"
#include "problems/common.h"
#include "traversal/multitree.h"
#include "util/threading.h"

namespace portal {
namespace {

/// Per-thread scratch: the query leaf's point-to-box lower bounds (whole
/// lane blocks, see batch::box_sq_lower), the leaf rows whose bound lets
/// them through, a contiguous copy of one query row (the scalar leaves and
/// the metrics without a row-block kernel), distances for kDistRows rows
/// against the largest reference leaf in whole blocks (batch::sq_dists_rows),
/// and the thread's evaluated-pair count (cache-line aligned: the count is
/// written per base case, next to other threads' slots).
struct alignas(64) KnnWorkspace {
  std::vector<real_t> lower;
  std::vector<index_t> rows;
  std::vector<real_t> qpt;
  std::vector<real_t> dists;
  std::uint64_t pair_evals = 0;
};

/// Dual-tree k-NN rule set (Sec. II-C instantiated for argmin^k):
///   Prune: dmin(Nq, Nr) > B(Nq), where B(Nq) is the max over Nq's points of
///   their current k-th best distance, maintained per node and tightened
///   bottom-up as base cases improve leaf candidates.
/// The base case works on the whole query leaf: one bound pass over the
/// query tree's mirror gives every row's point-to-box lower bound, rows the
/// bound rules out skip the reference leaf, and the rest run distance tiles
/// (batch::sq_dists_rows, kDistRows rows at a time for the L2 family) whose
/// candidates pass KnnList::insert_bulk's worst-distance filter.
class KnnRules {
 public:
  KnnRules(const KdTree& qtree, const KdTree& rtree, const KnnOptions& options,
           std::vector<real_t>& dists, std::vector<index_t>& ids)
      : qtree_(qtree),
        rtree_(rtree),
        options_(options),
        dists_(dists),
        ids_(ids),
        node_bounds_(qtree.num_nodes()),
        batch_(options.batch && !rtree.mirror().empty()),
        workspaces_(num_threads()) {
    for (KnnWorkspace& ws : workspaces_) {
      ws.lower.resize(batch::whole_blocks(qtree.stats().max_leaf_count));
      ws.rows.resize(qtree.stats().max_leaf_count);
      ws.qpt.resize(qtree.data().dim());
      ws.dists.resize(batch::kDistRows *
                      batch::whole_blocks(rtree.stats().max_leaf_count));
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
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    KnnWorkspace& ws = workspaces_[omp_get_thread_num()];
    const index_t qcount = qnode.count();
    const index_t rcount = rnode.count();

    // Point-level prune before touching reference coordinates. Only the L2
    // family has a point-to-box bound; other metrics use 0 (conservative).
    if (l2_bound())
      batch::box_sq_lower(qtree_.mirror().tile(qnode.begin, qcount),
                          rnode.box.lo_data(), rnode.box.hi_data(),
                          ws.lower.data());
    else
      std::fill_n(ws.lower.data(), qcount, real_t{0});

    // The rows the bound lets through; each row's own list decides, and only
    // its own inserts change it, so selecting first changes nothing.
    index_t selected = 0;
    for (index_t i = 0; i < qcount; ++i)
      if (ws.lower[i] <= row_list(qnode.begin + i).worst()) ws.rows[selected++] = i;
    ws.pair_evals += static_cast<std::uint64_t>(selected * rcount);

    if (batch_ && l2_bound()) {
      // kDistRows rows at a time share each loaded reference block; each
      // row's candidates are its distance run's real rcount lanes.
      const batch::Tile rows = qtree_.mirror().tile(qnode.begin, qcount);
      const batch::Tile ref = rtree_.mirror().tile(rnode.begin, rcount);
      const index_t run = batch::whole_blocks(rcount);
      for (index_t g = 0; g < selected; g += batch::kDistRows) {
        const index_t n = std::min(batch::kDistRows, selected - g);
        batch::sq_dists_rows(rows, ws.rows.data() + g, n, ref, ws.dists.data());
        for (index_t s = 0; s < n; ++s) {
          batch::count_batch_tile(rcount);
          row_list(qnode.begin + ws.rows[g + s])
              .insert_bulk(ws.dists.data() + s * run, rcount, rnode.begin);
        }
      }
    } else {
      for (index_t s = 0; s < selected; ++s) {
        const index_t qi = qnode.begin + ws.rows[s];
        qtree_.data().copy_point(qi, ws.qpt.data());
        // Same dimension-outer accumulation order as dists_to_range, so
        // both flavors give identical results.
        if (batch_) {
          batch::dists(options_.metric, rtree_.mirror().tile(rnode.begin, rcount),
                       ws.qpt.data(), nullptr, nullptr, ws.dists.data());
          batch::count_batch_tile(rcount);
        } else {
          dists_to_range(options_.metric, rtree_.data(), rnode.begin, rnode.end,
                         ws.qpt.data(), ws.dists.data());
          batch::count_scalar_tail(rcount);
        }
        row_list(qi).insert_bulk(ws.dists.data(), rcount, rnode.begin);
      }
    }

    real_t leaf_bound = 0;
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi)
      leaf_bound = std::max(leaf_bound, row_list(qi).worst());

    // Tighten this leaf's bound, then propagate the (monotone decreasing)
    // max-of-children bound toward the root.
    node_bounds_[q].store_min(leaf_bound);
    index_t parent = qnode.parent;
    while (parent >= 0) {
      const KdNode& pnode = qtree_.node(parent);
      const real_t combined = std::max(node_bounds_[pnode.left].load(),
                                       node_bounds_[pnode.right].load());
      if (combined >= node_bounds_[parent].load()) break;
      node_bounds_[parent].store_min(combined);
      parent = pnode.parent;
    }
  }

 private:
  /// Query row qi's k candidates.
  KnnList row_list(index_t qi) {
    const index_t k = options_.k;
    return KnnList(dists_.data() + qi * k, ids_.data() + qi * k, k);
  }

  /// Pruning happens in the same space dists_to_range reports: squared L2 for
  /// the Euclidean family, plain distance otherwise.
  MetricKind bound_metric() const {
    return options_.metric == MetricKind::Euclidean ? MetricKind::SqEuclidean
                                                    : options_.metric;
  }

  bool l2_bound() const {
    return options_.metric == MetricKind::Euclidean ||
           options_.metric == MetricKind::SqEuclidean;
  }

  const KdTree& qtree_;
  const KdTree& rtree_;
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
  const index_t nq = qtree.data().size();
  const index_t k = options.k;
  KnnResult result;
  result.k = k;
  result.indices.assign(nq * k, -1);
  result.distances.assign(nq * k, std::numeric_limits<real_t>::max());

  KnnRules rules(qtree, rtree, options, result.distances, result.indices);
  TraversalOptions topt;
  topt.parallel = options.parallel;
  topt.task_depth = options.task_depth;
  result.stats = dual_traverse(qtree, rtree, rules, topt);
  result.stats.pair_evals = rules.pair_evals();
  finalize_distances(options.metric, result.distances);
  return result;
}

KnnResult knn_expert(const Dataset& query, const Dataset& reference,
                     const KnnOptions& options) {
  validate(query, reference, options.k);
  const KdTree qtree(query, options.leaf_size);
  const KdTree rtree(reference, options.leaf_size);
  const KnnResult permuted = knn_dualtree_permuted(qtree, rtree, options);
  return unpermute(permuted, query.size(), options.k, qtree.perm(), rtree.perm());
}

} // namespace portal
