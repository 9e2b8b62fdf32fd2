#include "problems/kde.h"

#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "kernels/batch.h"
#include "kernels/gaussian.h"
#include "obs/trace.h"
#include "problems/common.h"
#include "traversal/multitree.h"
#include "util/threading.h"

namespace portal {
namespace {

class KdeRules {
 public:
  KdeRules(const KdTree& qtree, const KdTree& rtree, const KdeOptions& options,
           std::vector<real_t>& densities)
      : qtree_(qtree),
        rtree_(rtree),
        kernel_(options.sigma),
        tau_(options.tau),
        densities_(densities),
        batch_(options.batch && !rtree.mirror().empty()),
        workspaces_(num_threads()) {
    const index_t max_rleaf = rtree.stats().max_leaf_count;
    const index_t max_qleaf = qtree.stats().max_leaf_count;
    const index_t dim = qtree.data().dim();
    for (Workspace& ws : workspaces_) {
      ws.qpt.resize(dim);
      ws.center.resize(dim);
      ws.dists.resize(batch::whole_blocks(max_rleaf));
      ws.rows.resize(3 * batch::whole_blocks(max_qleaf));
    }
  }

  /// Approximation condition (Sec. II-C): K(dmin) - K(dmax) <= tau means all
  /// pairs between the nodes contribute nearly the same kernel value, so the
  /// pair is replaced by the center contribution scaled by node density.
  /// tau = 0 means exact: a zero-spread pair is not approximated either.
  bool prune_or_approx(index_t q, index_t r) {
    if (tau_ <= 0) return false;
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    const real_t dmin_sq = qnode.box.min_sq_dist(rnode.box);
    const real_t dmax_sq = qnode.box.max_sq_dist(rnode.box);
    const real_t kmax = kernel_.eval_sq(dmin_sq);
    const real_t kmin = kernel_.eval_sq(dmax_sq);
    if (kmax - kmin > tau_) return false;
    PORTAL_OBS_COUNT("rules/approximations", 1);

    // ComputeApprox: center kernel value times reference-node density, added
    // to every query point in Nq. Query ranges are task-disjoint, so the
    // writes need no synchronization.
    Workspace& ws = workspaces_[omp_get_thread_num()];
    qnode.box.center_point(ws.qpt.data());
    rnode.box.center_point(ws.center.data());
    const real_t contribution =
        kernel_.eval_sq(sq_to_centre(ws.qpt.data(), ws.center.data())) *
        static_cast<real_t>(rnode.count());
    for (index_t i = qnode.begin; i < qnode.end; ++i)
      densities_[i] += contribution;
    return true;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_sq_dist(rtree_.node(r).box);
  }

  /// The node rule once per query row: a row whose point-to-box bounds
  /// against the reference box give K(lo) - K(hi) <= tau takes the centre
  /// value K(|x - c_R|^2) * |R| and skips its tile (every pair's kernel value
  /// and the centre's lie in [K(hi), K(lo)], so the per-pair error is at most
  /// tau, as for the node rule). The other rows run the exact tile.
  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    const index_t qcount = qnode.count();
    const index_t rcount = rnode.count();
    const index_t lanes = batch::whole_blocks(qcount);
    const real_t* k_near = ws.rows.data();
    const real_t* k_far = k_near + lanes;
    const real_t* k_centre = k_far + lanes;
    const bool row_rule = tau_ > 0;
    if (row_rule) row_kernel_values(qnode, rnode, ws);
    const real_t weight = static_cast<real_t>(rcount);
    index_t approximated = 0;
    for (index_t i = 0; i < qcount; ++i) {
      const index_t qi = qnode.begin + i;
      if (row_rule && k_near[i] - k_far[i] <= tau_) {
        densities_[qi] += k_centre[i] * weight;
        ++approximated;
        continue;
      }
      qtree_.data().copy_point(qi, ws.qpt.data());
      real_t total = 0;
      if (batch_) {
        // Distances evaluate lane-parallel off the SoA mirror, in whole lane
        // blocks; the exp-sum then adds the real count in the same
        // ascending-j order as the scalar path, so the result is
        // bitwise-identical.
        batch::Tile rtile = rtree_.mirror().tile(rnode.begin, rcount);
        rtile.count = batch::whole_block_count(rtile);
        batch::sq_dists(rtile, ws.qpt.data(), ws.dists.data());
        batch::count_batch_tile(rcount);
        total += batch::gaussian_sq_sum(ws.dists.data(), rcount,
                                        kernel_.inv_two_sigma_sq());
      } else {
        sq_dists_to_range(rtree_.data(), rnode.begin, rnode.end, ws.qpt.data(),
                          ws.dists.data());
        batch::count_scalar_tail(rcount);
        for (index_t j = 0; j < rcount; ++j) total += kernel_.eval_sq(ws.dists[j]);
      }
      densities_[qi] += total;
    }
    if (approximated > 0)
      PORTAL_OBS_COUNT("rules/row_approximations",
                       static_cast<std::uint64_t>(approximated));
  }

 private:
  /// Per-thread scratch. `rows` holds the row rule's kernel values for a
  /// query leaf, three runs of whole_blocks(count) reals: K at each row's
  /// point-to-box lower bound, at its upper bound, and at its distance to
  /// the reference box centre. `dists` covers the largest reference leaf in
  /// whole lane blocks.
  struct Workspace {
    std::vector<real_t> qpt;
    std::vector<real_t> center;
    std::vector<real_t> dists;
    std::vector<real_t> rows;
  };

  /// Fills ws.rows for the query leaf against the reference box. Batched:
  /// one bounds pass and one centre-distance pass over the query tree's
  /// mirror, then one Gaussian pass over all three runs. Scalar: the same
  /// values per row through BBox's point bounds and eval_sq, which each
  /// lane equals bitwise, so both paths make the same decisions.
  void row_kernel_values(const KdNode& qnode, const KdNode& rnode,
                         Workspace& ws) {
    const index_t qcount = qnode.count();
    const index_t lanes = batch::whole_blocks(qcount);
    real_t* k_near = ws.rows.data();
    real_t* k_far = k_near + lanes;
    real_t* k_centre = k_far + lanes;
    rnode.box.center_point(ws.center.data());
    if (batch_) {
      const batch::Tile qtile = qtree_.mirror().tile(qnode.begin, qcount);
      batch::box_sq_bounds(qtile, rnode.box.lo_data(), rnode.box.hi_data(),
                           k_near, k_far);
      batch::Tile centre_tile = qtile;
      centre_tile.count = batch::whole_block_count(qtile);
      batch::sq_dists(centre_tile, ws.center.data(), k_centre);
      batch::gaussian_sq(k_near, 3 * lanes, kernel_.inv_two_sigma_sq(), k_near);
      return;
    }
    for (index_t i = 0; i < qcount; ++i) {
      qtree_.data().copy_point(qnode.begin + i, ws.qpt.data());
      k_near[i] = kernel_.eval_sq(rnode.box.min_sq_dist_point(ws.qpt.data()));
      k_far[i] = kernel_.eval_sq(rnode.box.max_sq_dist_point(ws.qpt.data()));
      k_centre[i] =
          kernel_.eval_sq(sq_to_centre(ws.qpt.data(), ws.center.data()));
    }
  }

  /// ||p - c||^2 summed in ascending dimension order (the order sq_dists'
  /// lanes use).
  real_t sq_to_centre(const real_t* p, const real_t* c) const {
    real_t sq = 0;
    for (index_t d = 0; d < qtree_.data().dim(); ++d) {
      const real_t diff = p[d] - c[d];
      sq += diff * diff;
    }
    return sq;
  }

  const KdTree& qtree_;
  const KdTree& rtree_;
  GaussianKernel kernel_;
  real_t tau_;
  std::vector<real_t>& densities_;
  bool batch_;
  std::vector<Workspace> workspaces_;
};

void validate(const Dataset& query, const Dataset& reference, real_t sigma) {
  if (query.dim() != reference.dim())
    throw std::invalid_argument("kde: query/reference dimensionality mismatch");
  if (sigma <= 0) throw std::invalid_argument("kde: sigma must be positive");
  if (reference.empty()) throw std::invalid_argument("kde: empty reference set");
}

} // namespace

KdeResult kde_bruteforce(const Dataset& query, const Dataset& reference,
                         real_t sigma, bool normalize) {
  validate(query, reference, sigma);
  const GaussianKernel kernel(sigma);
  const index_t nq = query.size();
  KdeResult result;
  result.densities.assign(nq, 0);

#pragma omp parallel
  {
    std::vector<real_t> qpt(query.dim());
    std::vector<real_t> dists(reference.size());
#pragma omp for schedule(static)
    for (index_t i = 0; i < nq; ++i) {
      query.copy_point(i, qpt.data());
      sq_dists_to_range(reference, 0, reference.size(), qpt.data(), dists.data());
      real_t total = 0;
      for (index_t j = 0; j < reference.size(); ++j)
        total += kernel.eval_sq(dists[j]);
      result.densities[i] = total;
    }
  }
  if (normalize) {
    const real_t norm = kernel.normalization(query.dim(), reference.size());
    for (real_t& d : result.densities) d *= norm;
  }
  return result;
}

KdeResult kde_dualtree_permuted(const KdTree& qtree, const KdTree& rtree,
                                const KdeOptions& options) {
  KdeResult result;
  result.densities.assign(qtree.data().size(), 0);
  KdeRules rules(qtree, rtree, options, result.densities);
  TraversalOptions topt;
  topt.parallel = options.parallel;
  topt.task_depth = options.task_depth;
  result.stats = dual_traverse(qtree, rtree, rules, topt);
  if (options.normalize) {
    const GaussianKernel kernel(options.sigma);
    const real_t norm =
        kernel.normalization(qtree.data().dim(), rtree.data().size());
    for (real_t& d : result.densities) d *= norm;
  }
  return result;
}

KdeResult kde_expert(const Dataset& query, const Dataset& reference,
                     const KdeOptions& options) {
  validate(query, reference, options.sigma);
  const KdTree qtree(query, options.leaf_size);
  const KdTree rtree(reference, options.leaf_size);
  KdeResult permuted = kde_dualtree_permuted(qtree, rtree, options);

  KdeResult result;
  result.stats = permuted.stats;
  result.densities.assign(query.size(), 0);
  for (index_t i = 0; i < query.size(); ++i)
    result.densities[qtree.perm()[i]] = permuted.densities[i];
  return result;
}

} // namespace portal
