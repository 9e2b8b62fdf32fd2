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
    const index_t max_leaf = rtree.stats().max_leaf_count;
    const index_t dim = qtree.data().dim();
    for (Workspace& ws : workspaces_) {
      ws.qpt.resize(dim);
      ws.center.resize(dim);
      ws.dists.resize(max_leaf);
    }
  }

  /// Approximation condition (Sec. II-C): K(dmin) - K(dmax) <= tau means all
  /// pairs between the nodes contribute nearly the same kernel value, so the
  /// pair is replaced by the center contribution scaled by node density.
  bool prune_or_approx(index_t q, index_t r) {
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
    real_t center_sq = 0;
    for (index_t d = 0; d < qtree_.data().dim(); ++d) {
      const real_t diff = ws.qpt[d] - ws.center[d];
      center_sq += diff * diff;
    }
    const real_t contribution =
        kernel_.eval_sq(center_sq) * static_cast<real_t>(rnode.count());
    for (index_t i = qnode.begin; i < qnode.end; ++i)
      densities_[i] += contribution;
    return true;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_sq_dist(rtree_.node(r).box);
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    const index_t rcount = rnode.count();
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      qtree_.data().copy_point(qi, ws.qpt.data());
      real_t total = 0;
      if (batch_) {
        // Distances evaluate lane-parallel off the SoA mirror; the exp-sum
        // then adds in the same ascending-j order as the scalar path, so the
        // result is bitwise-identical.
        batch::sq_dists(rtree_.mirror().tile(rnode.begin, rcount),
                        ws.qpt.data(), ws.dists.data());
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
  }

 private:
  struct Workspace {
    std::vector<real_t> qpt;
    std::vector<real_t> center;
    std::vector<real_t> dists;
  };

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
