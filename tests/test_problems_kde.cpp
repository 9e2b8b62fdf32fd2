// Tests for kernel density estimation: the approximation error must respect
// the tau-derived bound (Sec. II-C), tau -> 0 must converge to brute force,
// and normalization must turn kernel sums into densities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "kernels/gaussian.h"
#include "obs/trace.h"
#include "problems/common.h"
#include "problems/kde.h"
#include "traversal/multitree.h"
#include "tree/kdtree.h"
#include "util/threading.h"

namespace portal {
namespace {

class KdeSweep
    : public testing::TestWithParam<std::tuple<index_t, index_t, real_t, real_t>> {};

TEST_P(KdeSweep, ApproxErrorWithinTauBound) {
  const auto [n, dim, sigma, tau] = GetParam();
  const Dataset reference = make_gaussian_mixture(n, dim, 3, 300 + n);
  const Dataset query = make_gaussian_mixture(n / 2, dim, 3, 400 + n);

  // Compare unnormalized kernel sums: the per-pair error is bounded by tau,
  // so per-query error is bounded by tau * N.
  const KdeResult brute = kde_bruteforce(query, reference, sigma, false);
  KdeOptions options;
  options.sigma = sigma;
  options.tau = tau;
  options.normalize = false;
  const KdeResult expert = kde_expert(query, reference, options);

  const real_t bound = tau * static_cast<real_t>(reference.size()) + 1e-9;
  for (index_t i = 0; i < query.size(); ++i)
    EXPECT_NEAR(expert.densities[i], brute.densities[i], bound) << "query " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdeSweep,
    testing::Values(std::make_tuple(200, 2, 0.5, 1e-2),
                    std::make_tuple(500, 3, 1.0, 1e-3),
                    std::make_tuple(500, 3, 2.0, 5e-2),
                    std::make_tuple(300, 6, 1.5, 1e-3),
                    std::make_tuple(800, 2, 0.25, 1e-4)));

TEST(Kde, TauZeroIsExact) {
  const Dataset data = make_gaussian_mixture(400, 3, 2, 21);
  const KdeResult brute = kde_bruteforce(data, data, 1.0, false);
  KdeOptions options;
  options.sigma = 1.0;
  options.tau = 0;
  options.normalize = false;
  options.parallel = false;
  const KdeResult expert = kde_expert(data, data, options);
  for (index_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(expert.densities[i], brute.densities[i],
                1e-9 * std::max(real_t(1), brute.densities[i]));
}

// tau = 0 means exact in the expert too: neither the node rule nor the row
// rule may approximate, not even a zero-spread pair (300 copies of one point,
// where K(dmin) == K(dmax) exactly), as in the rule core.
TEST(Kde, TauZeroNeverApproximates) {
  const Dataset mixture = make_gaussian_mixture(300, 3, 2, 31);
  std::vector<std::vector<real_t>> points(300, {0.25, -0.5, 1.0});
  for (index_t i = 0; i < mixture.size(); ++i)
    points.push_back({mixture.coord(i, 0), mixture.coord(i, 1), mixture.coord(i, 2)});
  const Dataset data = Dataset::from_points(points);
  KdeOptions options;
  options.sigma = 0.5;
  options.tau = 0;
  options.normalize = false;
  options.parallel = false;

  obs::set_enabled(true);
  obs::reset();
  const KdeResult expert = kde_expert(data, data, options);
  const obs::TraceReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();

  EXPECT_EQ(report.counter("rules/approximations"), 0u);
  EXPECT_EQ(report.counter("rules/row_approximations"), 0u);
  const KdeResult brute = kde_bruteforce(data, data, options.sigma, false);
  for (index_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(expert.densities[i], brute.densities[i],
                1e-9 * std::max(real_t(1), brute.densities[i]))
        << "query " << i;
}

// A NaN tau is exact too: the node rule's guard is `!(tau > 0)`, as in the
// rule core, so no node pair and no row is approximated and every density is
// bitwise the tau = 0 one. (A guard written `tau <= 0` lets NaN through, and
// then `K(dmin) - K(dmax) > tau` is false too, so the root pair itself was
// approximated: every density came out as the reference count.)
TEST(Kde, NanTauIsExact) {
  const Dataset data = make_gaussian_mixture(500, 3, 3, 41);
  KdeOptions options;
  options.sigma = 0.5;
  options.tau = 0;
  options.normalize = false;
  options.parallel = false;
  const KdeResult exact = kde_expert(data, data, options);
  options.tau = std::numeric_limits<real_t>::quiet_NaN();
  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batched" : "scalar");
    options.batch = batch;
    obs::set_enabled(true);
    obs::reset();
    const KdeResult nan_tau = kde_expert(data, data, options);
    const obs::TraceReport report = obs::collect();
    obs::set_enabled(false);
    obs::reset();
    EXPECT_EQ(nan_tau.stats.prunes, exact.stats.prunes);
    EXPECT_EQ(nan_tau.stats.base_cases, exact.stats.base_cases);
    EXPECT_EQ(report.counter("rules/approximations"), 0u);
    EXPECT_EQ(report.counter("rules/row_approximations"), 0u);
    for (index_t i = 0; i < data.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(nan_tau.densities[i]),
                std::bit_cast<std::uint64_t>(exact.densities[i]))
          << "query " << i << ": " << nan_tau.densities[i] << " vs "
          << exact.densities[i];
  }
}

TEST(Kde, LargerTauPrunesMore) {
  const Dataset data = make_gaussian_mixture(3000, 3, 5, 22);
  KdeOptions tight;
  tight.sigma = 1.0;
  tight.tau = 1e-6;
  tight.parallel = false;
  KdeOptions loose = tight;
  loose.tau = 1e-1;
  const KdeResult a = kde_expert(data, data, tight);
  const KdeResult b = kde_expert(data, data, loose);
  EXPECT_LT(b.stats.base_cases, a.stats.base_cases);
  EXPECT_GT(b.stats.prunes, 0u);
}

// Prune/approximate correctness, cross-checked against the trace counters:
// the approximated result must stay within the tau-derived bound of the exact
// answer, AND the run must actually have pruned and approximated (otherwise
// the bound is vacuous -- an all-base-case traversal trivially matches brute
// force without exercising the approximation machinery at all).
TEST(Kde, ApproximationIsObservableAndWithinBound) {
  obs::set_enabled(true);
  obs::reset();
  const Dataset data = make_gaussian_mixture(4000, 3, 4, 29);
  const real_t sigma = 0.7;
  const real_t tau = 1e-3;
  KdeOptions options;
  options.sigma = sigma;
  options.tau = tau;
  options.normalize = false;
  const KdeResult expert = kde_expert(data, data, options);
  const obs::TraceReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();

  const KdeResult brute = kde_bruteforce(data, data, sigma, false);
  const real_t bound = tau * static_cast<real_t>(data.size()) + 1e-9;
  for (index_t i = 0; i < data.size(); ++i)
    ASSERT_NEAR(expert.densities[i], brute.densities[i], bound) << "query " << i;

  // The counters prove the bound was earned, not vacuous.
  EXPECT_GT(report.counter("traversal/prunes"), 0u);
  EXPECT_GT(report.counter("rules/approximations"), 0u);
  EXPECT_GT(report.counter("traversal/pairs_visited"), 0u);
  // Approximation + pruning must have skipped work: strictly fewer base cases
  // than the n^2 node-pair worst case implies the traversal cut branches.
  EXPECT_LT(report.counter("traversal/base_cases"),
            static_cast<std::uint64_t>(data.size()) *
                static_cast<std::uint64_t>(data.size()));
}

TEST(Kde, NormalizationIntegratesToUnitMass) {
  // Densities of a standard normal sample, evaluated at the sample, averaged,
  // approximate the expected density value; sanity-check scale (not exact).
  const Dataset data = make_gaussian_mixture(2000, 1, 1, 23);
  KdeOptions options;
  options.sigma = 0.2;
  options.tau = 0;
  const KdeResult result = kde_expert(data, data, options);
  for (index_t i = 0; i < data.size(); ++i) {
    EXPECT_GT(result.densities[i], 0.0);
    EXPECT_LT(result.densities[i], 5.0); // a pdf value, not a raw kernel sum
  }
}

TEST(Kde, SelfContributionIncluded) {
  // A single faraway point's density is dominated by its self-contribution:
  // unnormalized sum >= K(0) = 1.
  const Dataset data = Dataset::from_points({{0, 0}, {100, 100}});
  const KdeResult result = kde_bruteforce(data, data, 1.0, false);
  EXPECT_GE(result.densities[1], 1.0);
  EXPECT_LT(result.densities[1], 1.0 + 1e-6);
}

TEST(Kde, ParallelMatchesSerial) {
  const Dataset data = make_gaussian_mixture(1200, 3, 4, 24);
  KdeOptions serial;
  serial.sigma = 1.0;
  serial.tau = 1e-3;
  serial.parallel = false;
  KdeOptions parallel = serial;
  parallel.parallel = true;
  parallel.task_depth = 5;
  set_num_threads(4);
  const KdeResult a = kde_expert(data, data, serial);
  const KdeResult b = kde_expert(data, data, parallel);
  // Same approximation decisions (tau identical), so same results modulo
  // floating-point summation order inside leaves (which is also identical;
  // only the outer accumulation order can differ via approximations).
  for (index_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(a.densities[i], b.densities[i],
                1e-9 * std::max(real_t(1), std::abs(a.densities[i])));
}

// ---------------------------------------------------------------------------
// KdeLeafPass: the expert KDE base case (one bounds pass over the query leaf,
// the row rule, one transposed pair run per leaf) against a per-point copy of
// the same rules. The oracle decides each row alone through BBox's point bounds
// and sums exact rows one pair at a time in ascending order, so every density
// must match bit for bit; for each approximated row it also checks every pair
// the centre value stands for against tau.

bool same_bits(real_t a, real_t b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class PerRowKdeRules {
 public:
  PerRowKdeRules(const KdTree& qtree, const KdTree& rtree, real_t sigma,
                 real_t tau, std::vector<real_t>& densities)
      : qtree_(qtree),
        rtree_(rtree),
        kernel_(sigma),
        tau_(tau),
        densities_(densities),
        qpt_(qtree.data().dim()),
        centre_(qtree.data().dim()),
        dists_(rtree.stats().max_leaf_count) {}

  std::uint64_t approximated_rows = 0;
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_beyond_tau = 0;

  /// The expert's node rule, unchanged.
  bool prune_or_approx(index_t q, index_t r) {
    if (tau_ <= 0) return false;
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    const real_t kmax = kernel_.eval_sq(qnode.box.min_sq_dist(rnode.box));
    const real_t kmin = kernel_.eval_sq(qnode.box.max_sq_dist(rnode.box));
    if (kmax - kmin > tau_) return false;
    qnode.box.center_point(qpt_.data());
    rnode.box.center_point(centre_.data());
    const real_t value = kernel_.eval_sq(sq_to_centre(qpt_.data())) *
                         static_cast<real_t>(rnode.count());
    for (index_t i = qnode.begin; i < qnode.end; ++i) densities_[i] += value;
    return true;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_sq_dist(rtree_.node(r).box);
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    rnode.box.center_point(centre_.data());
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      qtree_.data().copy_point(qi, qpt_.data());
      sq_dists_to_range(rtree_.data(), rnode.begin, rnode.end, qpt_.data(),
                        dists_.data());
      const real_t k_near = kernel_.eval_sq(rnode.box.min_sq_dist_point(qpt_.data()));
      const real_t k_far = kernel_.eval_sq(rnode.box.max_sq_dist_point(qpt_.data()));
      if (tau_ > 0 && k_near - k_far <= tau_) {
        const real_t k_centre = kernel_.eval_sq(sq_to_centre(qpt_.data()));
        for (index_t j = 0; j < rnode.count(); ++j) {
          ++pairs_checked;
          if (std::abs(kernel_.eval_sq(dists_[j]) - k_centre) > tau_)
            ++pairs_beyond_tau;
        }
        densities_[qi] += k_centre * static_cast<real_t>(rnode.count());
        ++approximated_rows;
        continue;
      }
      real_t total = 0;
      for (index_t j = 0; j < rnode.count(); ++j) total += kernel_.eval_sq(dists_[j]);
      densities_[qi] += total;
    }
  }

 private:
  real_t sq_to_centre(const real_t* p) const {
    real_t total = 0;
    for (index_t d = 0; d < qtree_.data().dim(); ++d) {
      const real_t diff = p[d] - centre_[d];
      total += diff * diff;
    }
    return total;
  }

  const KdTree& qtree_;
  const KdTree& rtree_;
  GaussianKernel kernel_;
  real_t tau_;
  std::vector<real_t>& densities_;
  std::vector<real_t> qpt_, centre_, dists_;
};

struct LeafPassCase {
  Dataset query, reference;
  real_t sigma, tau;
};

/// A query and a reference mixture in `dim` dimensions, with sigma scaled to
/// the dimension so that every dimension sees both tiled and approximated
/// rows.
LeafPassCase leaf_pass_case(index_t dim) {
  return {make_gaussian_mixture(900, dim, 3, 500 + dim),
          make_gaussian_mixture(1100, dim, 3, 600 + dim),
          real_t(0.35) * std::sqrt(static_cast<real_t>(dim)), real_t(1e-3)};
}

/// Expert densities (tree order, unnormalized) and its row-approximation
/// count, read from the trace counters.
std::pair<std::vector<real_t>, std::uint64_t> expert_leaf_pass(
    const KdTree& qtree, const KdTree& rtree, const LeafPassCase& c, bool batch,
    bool parallel) {
  KdeOptions options;
  options.sigma = c.sigma;
  options.tau = c.tau;
  options.normalize = false;
  options.parallel = parallel;
  options.batch = batch;
  obs::set_enabled(true);
  obs::reset();
  KdeResult result = kde_dualtree_permuted(qtree, rtree, options);
  const obs::TraceReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();
  return {std::move(result.densities), report.counter("rules/row_approximations")};
}

void expect_bitwise(const std::vector<real_t>& want, const std::vector<real_t>& got) {
  ASSERT_EQ(want.size(), got.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!same_bits(want[i], got[i]) && diffs++ < 3)
      ADD_FAILURE() << "row " << i << ": " << want[i] << " vs " << got[i];
  EXPECT_EQ(diffs, 0u);
}

/// Leaf sizes of the query and the reference tree.
struct LeafSizes {
  index_t query, reference;
};

void PrintTo(const LeafSizes& leaf, std::ostream* os) {
  *os << leaf.query << "/" << leaf.reference;
}

void expect_matches_per_row_oracle(index_t dim, LeafSizes leaf) {
  const LeafPassCase c = leaf_pass_case(dim);
  const KdTree qtree(c.query, leaf.query);
  const KdTree rtree(c.reference, leaf.reference);

  std::vector<real_t> oracle(c.query.size(), 0);
  PerRowKdeRules rules(qtree, rtree, c.sigma, c.tau, oracle);
  TraversalOptions topt;
  topt.parallel = false;
  dual_traverse(qtree, rtree, rules, topt);
  EXPECT_GT(rules.approximated_rows, 0u) << "vacuous: no row was approximated";
  EXPECT_GT(rules.pairs_checked, 0u);
  EXPECT_EQ(rules.pairs_beyond_tau, 0u);

  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batched" : "scalar");
    const auto [densities, row_approximations] =
        expert_leaf_pass(qtree, rtree, c, batch, false);
    expect_bitwise(oracle, densities);
    EXPECT_EQ(row_approximations, rules.approximated_rows);
  }
}

void expect_batched_equals_scalar(index_t dim, LeafSizes leaf) {
  const LeafPassCase c = leaf_pass_case(dim);
  const KdTree qtree(c.query, leaf.query);
  const KdTree rtree(c.reference, leaf.reference);
  const int saved = num_threads();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    set_num_threads(threads);
    const auto batched = expert_leaf_pass(qtree, rtree, c, true, true);
    const auto scalar = expert_leaf_pass(qtree, rtree, c, false, true);
    expect_bitwise(scalar.first, batched.first);
    EXPECT_GT(batched.second, 0u);
    EXPECT_EQ(batched.second, scalar.second);
  }
  set_num_threads(saved);
}

const auto kKdeLeafPassDims = testing::Values(index_t(1), index_t(2), index_t(3),
                                              index_t(5), index_t(8));

/// The default shape, leaf 16 in both trees, per dimension.
class KdeLeafPassByDim : public testing::TestWithParam<index_t> {};

TEST_P(KdeLeafPassByDim, ExpertMatchesPerRowOracle) {
  expect_matches_per_row_oracle(GetParam(), {16, 16});
}

TEST_P(KdeLeafPassByDim, BatchedEqualsScalarAtOneAndFourThreads) {
  expect_batched_equals_scalar(GetParam(), {16, 16});
}

INSTANTIATE_TEST_SUITE_P(Dims, KdeLeafPassByDim, kKdeLeafPassDims,
                         [](const testing::TestParamInfo<index_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

/// The same walls at other leaf sizes. A one-point reference leaf (16/1)
/// runs base cases against |R| = 1; 64/64 packs whole and partial lane
/// blocks of up to 64 rows; 100/100 runs reference leaves that span two
/// 64-point chunks of batch::gaussian_row_sums. (A one-point query leaf
/// approximates no row: its point bounds are the node rule's box bounds, so
/// the node rule has already decided the pair.)
class KdeLeafPassByLeaf
    : public testing::TestWithParam<std::tuple<index_t, LeafSizes>> {};

TEST_P(KdeLeafPassByLeaf, ExpertMatchesPerRowOracle) {
  expect_matches_per_row_oracle(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(KdeLeafPassByLeaf, BatchedEqualsScalarAtOneAndFourThreads) {
  expect_batched_equals_scalar(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Leaves, KdeLeafPassByLeaf,
    testing::Combine(kKdeLeafPassDims,
                     testing::Values(LeafSizes{16, 1}, LeafSizes{64, 64},
                                     LeafSizes{100, 100})),
    [](const testing::TestParamInfo<std::tuple<index_t, LeafSizes>>& info) {
      const LeafSizes leaf = std::get<1>(info.param);
      return "d" + std::to_string(std::get<0>(info.param)) + "_q" +
             std::to_string(leaf.query) + "_r" + std::to_string(leaf.reference);
    });

TEST(Kde, InvalidArgumentsThrow) {
  const Dataset a = make_uniform(10, 2, 25);
  const Dataset b = make_uniform(10, 3, 26);
  KdeOptions options;
  EXPECT_THROW(kde_expert(a, b, options), std::invalid_argument);
  options.sigma = 0;
  EXPECT_THROW(kde_expert(a, a, options), std::invalid_argument);
  EXPECT_THROW(kde_bruteforce(a, Dataset(0, 2), 1.0), std::invalid_argument);
}

} // namespace
} // namespace portal
