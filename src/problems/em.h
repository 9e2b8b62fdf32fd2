// Portal -- expectation-maximization for Gaussian mixtures (paper Table III
// rows 6-7: the E-step and log-likelihood N-body sub-problems; the outer EM
// loop is native code, as the paper's 30-line Portal program + 74 native
// lines indicate).
//
// The E-step is an approximation problem: for a kd-tree node whose
// responsibility vector varies less than tau across the node (bounds derived
// from box-to-mean Mahalanobis bounds), every point in the node receives the
// node-center responsibilities (ComputeApprox). tau = 0 computes every
// point's responsibilities exactly; only the order in which the tree path
// sums the log-likelihood and the M-step (tree order, not input order)
// differs from the brute-force oracle, which is how the tests pin correctness.
// Both paths sum in a fixed order, so each is bitwise the same at any thread
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "tree/kdtree.h"
#include "util/common.h"

namespace portal {

struct EmOptions {
  index_t num_components = 3;
  index_t max_iters = 10;
  real_t tol = 1e-5;   // stop when relative loglik improvement drops below
  real_t tau = 0;      // E-step responsibility approximation threshold
  real_t jitter = 1e-6;
  index_t leaf_size = kDefaultLeafSize;
  bool parallel = true;
  std::uint64_t seed = 1234; // initial means are seeded random data points
};

struct EmResult {
  index_t num_components = 0;
  std::vector<real_t> weights;            // K mixing weights pi_k
  std::vector<real_t> means;              // K x d, row-major
  std::vector<std::vector<real_t>> covs;  // K matrices, d x d row-major
  std::vector<real_t> resp;               // n x K final responsibilities
  real_t log_likelihood = 0;
  std::vector<real_t> loglik_history;     // one entry per iteration
  index_t iters = 0;
  std::uint64_t approx_nodes = 0;         // E-step nodes handled by ComputeApprox
  std::uint64_t exact_points = 0;         // points that got exact E-step evals
};

/// Flat (no tree) EM: exact E-step each iteration. The oracle.
EmResult em_bruteforce(const Dataset& data, const EmOptions& options);

/// Tree-accelerated EM: single-tree E-step with responsibility bounds.
EmResult em_expert(const Dataset& data, const EmOptions& options);

/// One exact E-step given fixed parameters; returns per-point loglik sum,
/// added in point order so it is bitwise the same at every thread count.
/// `parallel` splits the points across OpenMP threads (EmOptions::parallel).
/// Exposed for the Portal executor and for tests.
real_t em_estep_exact(const Dataset& data, const std::vector<real_t>& weights,
                      const std::vector<real_t>& means,
                      const std::vector<std::vector<real_t>>& covs,
                      real_t jitter, std::vector<real_t>* resp,
                      bool parallel);

} // namespace portal
