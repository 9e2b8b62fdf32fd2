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
    const index_t max_qleaf = qtree.stats().max_leaf_count;
    const index_t dim = qtree.data().dim();
    const index_t lanes = batch::whole_blocks(max_qleaf);
    for (Workspace& ws : workspaces_) {
      ws.qpt.resize(dim);
      ws.center.resize(dim);
      if (batch_) {
        ws.row_values.resize(3 * lanes);
        ws.rows.resize(dim * lanes);
        ws.run.resize(batch::row_sums_scratch(max_qleaf));
        ws.sums.resize(lanes);
      } else {
        ws.dists.resize(rtree.stats().max_leaf_count);
      }
    }
  }

  /// Approximation condition (Sec. II-C): K(dmin) - K(dmax) <= tau means all
  /// pairs between the nodes contribute nearly the same kernel value, so the
  /// pair is replaced by the center contribution scaled by node density.
  /// Only tau > 0 approximates, as in the rule core: tau = 0 is exact (a
  /// zero-spread pair is not approximated either), and so is a NaN tau.
  bool prune_or_approx(index_t q, index_t r) {
    if (!(tau_ > 0)) return false;
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
  /// tau, as for the node rule). The other rows run the exact tile. Batched
  /// and scalar leaves make the same decisions and the same sums, bit for
  /// bit.
  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    rnode.box.center_point(ws.center.data());
    const index_t approximated = batch_ ? batched_rows(qnode, rnode, ws)
                                        : scalar_rows(qnode, rnode, ws);
    if (approximated > 0)
      PORTAL_OBS_COUNT("rules/row_approximations",
                       static_cast<std::uint64_t>(approximated));
  }

 private:
  /// Per-thread scratch. Batched leaves: `row_values` holds the row rule's
  /// kernel values, three runs of whole_blocks(max query leaf) reals: K at
  /// each row's point-to-box lower bound, at its upper bound and at its
  /// distance to the reference box centre; `rows` the tiled rows as a
  /// dimension-major block, `run` gaussian_row_sums' pair run and `sums` its
  /// row sums. Scalar leaves: `dists` covers the largest reference leaf.
  struct Workspace {
    std::vector<real_t> qpt;
    std::vector<real_t> center;
    std::vector<real_t> row_values;
    std::vector<real_t> rows;
    std::vector<real_t> run;
    std::vector<real_t> sums;
    std::vector<real_t> dists;
  };

  /// The leaf on the mirrors: one bounds pass and one centre-distance pass
  /// over the query leaf and one Gaussian pass over the three runs decide
  /// the rows and give the approximated ones their centre values; the tiled
  /// rows (ascending) are packed into a query block for one
  /// gaussian_row_sums against the reference leaf, one det_exp per real
  /// pair. Each value is bitwise the scalar leaf's: the bound lanes are
  /// BBox's point bounds, the centre lanes sq_to_centre, and every row sum
  /// adds the same kernel values in the same ascending-j order.
  index_t batched_rows(const KdNode& qnode, const KdNode& rnode,
                       Workspace& ws) {
    const index_t qcount = qnode.count();
    const index_t rcount = rnode.count();
    const index_t lanes = batch::whole_blocks(qcount);
    const index_t dim = qtree_.data().dim();
    const batch::Tile qtile = qtree_.mirror().tile(qnode.begin, qcount);
    real_t* k_near = ws.row_values.data();
    real_t* k_far = k_near + lanes;
    real_t* k_centre = k_far + lanes;
    const bool row_rule = tau_ > 0;
    if (row_rule) {
      batch::box_sq_bounds(qtile, rnode.box.lo_data(), rnode.box.hi_data(),
                           k_near, k_far);
      batch::sq_dists(qtile, ws.center.data(), k_centre);
      batch::gaussian_sq(k_near, 3 * lanes, kernel_.inv_two_sigma_sq(), k_near);
    }
    const auto takes_centre = [&](index_t i) {
      return row_rule && k_near[i] - k_far[i] <= tau_;
    };

    batch::Tile tiled{ws.rows.data(), lanes, 0, 0, dim};
    for (index_t i = 0; i < qcount; ++i) {
      if (takes_centre(i)) continue;
      for (index_t d = 0; d < dim; ++d)
        ws.rows[d * lanes + tiled.count] = qtile.lane(d)[i];
      ++tiled.count;
    }
    // The block's padding lanes copy its last row. Their sums are ignored,
    // but a lane left holding a far row of an earlier leaf would underflow
    // its det_exp to subnormals, which run slow (EXPERIMENTS.md).
    const index_t padded = batch::whole_blocks(tiled.count);
    for (index_t d = 0; d < dim; ++d) {
      real_t* lane = ws.rows.data() + d * lanes;
      for (index_t k = tiled.count; k < padded; ++k) lane[k] = lane[tiled.count - 1];
    }
    if (tiled.count > 0) {
      batch::gaussian_row_sums(tiled, rtree_.mirror().tile(rnode.begin, rcount),
                               kernel_.inv_two_sigma_sq(), ws.run.data(),
                               ws.sums.data());
      batch::count_batch_tile(tiled.count * rcount);
    }

    const real_t weight = static_cast<real_t>(rcount);
    index_t k = 0;
    for (index_t i = 0; i < qcount; ++i)
      densities_[qnode.begin + i] +=
          takes_centre(i) ? k_centre[i] * weight : ws.sums[k++];
    return qcount - tiled.count;
  }

  /// The same rows one at a time through BBox's point bounds and eval_sq,
  /// with each tiled row's pairs summed in ascending j.
  index_t scalar_rows(const KdNode& qnode, const KdNode& rnode, Workspace& ws) {
    const index_t rcount = rnode.count();
    const real_t weight = static_cast<real_t>(rcount);
    index_t approximated = 0;
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      qtree_.data().copy_point(qi, ws.qpt.data());
      if (tau_ > 0 &&
          kernel_.eval_sq(rnode.box.min_sq_dist_point(ws.qpt.data())) -
                  kernel_.eval_sq(rnode.box.max_sq_dist_point(ws.qpt.data())) <=
              tau_) {
        densities_[qi] +=
            kernel_.eval_sq(sq_to_centre(ws.qpt.data(), ws.center.data())) *
            weight;
        ++approximated;
        continue;
      }
      sq_dists_to_range(rtree_.data(), rnode.begin, rnode.end, ws.qpt.data(),
                        ws.dists.data());
      batch::count_scalar_tail(rcount);
      real_t total = 0;
      for (index_t j = 0; j < rcount; ++j) total += kernel_.eval_sq(ws.dists[j]);
      densities_[qi] += total;
    }
    return approximated;
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
