// Tests for EM: tau = 0 tree EM must track the flat oracle, log-likelihood
// must ascend (the EM guarantee), responsibilities must be distributions, and
// the tau knob must trade accuracy for approximation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include <omp.h>

#include "data/generators.h"
#include "problems/em.h"
#include "util/rng.h"

namespace portal {
namespace {

EmOptions base_options() {
  EmOptions options;
  options.num_components = 3;
  options.max_iters = 6;
  options.tol = 0; // run all iterations; tests reason about trajectories
  options.seed = 99;
  options.parallel = false;
  return options;
}

TEST(Em, ResponsibilitiesAreDistributions) {
  const Dataset data = make_gaussian_mixture(600, 3, 3, 91);
  const EmResult result = em_bruteforce(data, base_options());
  const index_t K = result.num_components;
  for (index_t i = 0; i < data.size(); ++i) {
    real_t sum = 0;
    for (index_t k = 0; k < K; ++k) {
      const real_t r = result.resp[i * K + k];
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0 + 1e-12);
      sum += r;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  real_t wsum = 0;
  for (real_t w : result.weights) wsum += w;
  EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST(Em, LogLikelihoodAscends) {
  const Dataset data = make_gaussian_mixture(800, 2, 3, 92);
  const EmResult result = em_bruteforce(data, base_options());
  ASSERT_GE(result.loglik_history.size(), 2u);
  for (std::size_t i = 1; i < result.loglik_history.size(); ++i)
    EXPECT_GE(result.loglik_history[i], result.loglik_history[i - 1] - 1e-6)
        << "EM must not decrease the log-likelihood (iter " << i << ")";
}

TEST(Em, TreeTauZeroMatchesBruteForce) {
  const Dataset data = make_gaussian_mixture(500, 3, 3, 93);
  EmOptions options = base_options();
  options.tau = 0;
  const EmResult brute = em_bruteforce(data, options);
  const EmResult tree = em_expert(data, options);
  ASSERT_EQ(brute.loglik_history.size(), tree.loglik_history.size());
  for (std::size_t i = 0; i < brute.loglik_history.size(); ++i)
    EXPECT_NEAR(tree.loglik_history[i], brute.loglik_history[i],
                1e-6 * std::abs(brute.loglik_history[i]));
  // Final parameters agree (summation order differs, hence loose tolerance).
  for (std::size_t i = 0; i < brute.means.size(); ++i)
    EXPECT_NEAR(tree.means[i], brute.means[i], 1e-5);
  EXPECT_EQ(tree.approx_nodes, 0u);
}

TEST(Em, TauApproximatesAndStaysClose) {
  const Dataset data = make_gaussian_mixture(3000, 2, 3, 94);
  EmOptions exact = base_options();
  exact.max_iters = 4;
  EmOptions approx = exact;
  approx.tau = 0.05;
  const EmResult a = em_expert(data, exact);
  const EmResult b = em_expert(data, approx);
  EXPECT_GT(b.approx_nodes, 0u) << "tau must actually trigger ComputeApprox";
  EXPECT_LT(b.exact_points, a.exact_points);
  // Approximate trajectory stays within ~1% of exact loglik per point.
  const real_t per_point = std::abs(a.log_likelihood) / data.size();
  EXPECT_NEAR(b.log_likelihood / data.size(), a.log_likelihood / data.size(),
              0.05 * per_point + 0.05);
}

TEST(Em, RecoversWellSeparatedComponents) {
  // Three components far apart: fitted weights should be near 1/3 each.
  std::vector<std::vector<real_t>> points;
  Rng rng(95);
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 400; ++i)
      points.push_back({c * 50.0 + rng.normal(), c * 50.0 + rng.normal()});
  const Dataset data = Dataset::from_points(points);
  EmOptions options = base_options();
  options.max_iters = 15;
  const EmResult result = em_expert(data, options);
  std::vector<real_t> weights = result.weights;
  std::sort(weights.begin(), weights.end());
  for (real_t w : weights) EXPECT_NEAR(w, 1.0 / 3.0, 0.05);
}

TEST(Em, DeterministicPerSeed) {
  const Dataset data = make_gaussian_mixture(300, 2, 2, 96);
  EmOptions options = base_options();
  const EmResult a = em_bruteforce(data, options);
  const EmResult b = em_bruteforce(data, options);
  EXPECT_EQ(a.loglik_history, b.loglik_history);
  options.seed = 1000;
  const EmResult c = em_bruteforce(data, options);
  EXPECT_NE(a.loglik_history.front(), c.loglik_history.front());
}

// Both E-steps sum the log-likelihood in a fixed order (per-point partials in
// index order, per-node partials in preorder), so the trajectory must be
// bitwise the same however many threads computed the partials, and with
// EmOptions::parallel off.
TEST(Em, LogLikelihoodIsTheSameAtEveryThreadCount) {
  const Dataset data = make_gaussian_mixture(2000, 2, 3, 98);
  EmOptions options = base_options();
  options.parallel = true;
  options.tau = 0.05; // the tree E-step both approximates nodes and runs leaves
  const int saved_threads = omp_get_max_threads();
  std::vector<EmResult> brute, tree;
  for (int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    brute.push_back(em_bruteforce(data, options));
    tree.push_back(em_expert(data, options));
  }
  options.parallel = false;
  brute.push_back(em_bruteforce(data, options));
  tree.push_back(em_expert(data, options));
  omp_set_num_threads(saved_threads);
  EXPECT_GT(tree.front().approx_nodes, 0u);
  EXPECT_GT(tree.front().exact_points, 0u);
  for (std::size_t i = 1; i < brute.size(); ++i) {
    EXPECT_EQ(brute[i].loglik_history, brute.front().loglik_history);
    EXPECT_EQ(tree[i].loglik_history, tree.front().loglik_history);
  }
}

TEST(Em, InvalidArgumentsThrow) {
  const Dataset data = make_uniform(5, 2, 97);
  EmOptions options;
  options.num_components = 10; // more components than points
  EXPECT_THROW(em_expert(data, options), std::invalid_argument);
  options.num_components = 0;
  EXPECT_THROW(em_bruteforce(data, options), std::invalid_argument);
}

} // namespace
} // namespace portal
