// Tests for the k-nearest-neighbor problem: the dual-tree expert
// implementation must reproduce brute force exactly (pruning is lossless for
// pruning-class problems, Sec. II-B), across a TEST_P sweep of shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <omp.h>

#include "core/portal.h"
#include "data/generators.h"
#include "kernels/batch.h"
#include "problems/common.h"
#include "problems/emst.h"
#include "problems/knn.h"
#include "traversal/multitree.h"
#include "util/rng.h"
#include "util/threading.h"

namespace portal {
namespace {

void expect_same_distances(const KnnResult& expected, const KnnResult& actual,
                           real_t tol = 1e-9) {
  ASSERT_EQ(expected.k, actual.k);
  ASSERT_EQ(expected.distances.size(), actual.distances.size());
  for (std::size_t i = 0; i < expected.distances.size(); ++i)
    EXPECT_NEAR(expected.distances[i], actual.distances[i], tol)
        << "at slot " << i;
}

class KnnSweep : public testing::TestWithParam<
                     std::tuple<index_t, index_t, index_t, index_t, bool>> {};

TEST_P(KnnSweep, ExpertMatchesBruteForce) {
  const auto [n, dim, k, leaf_size, parallel] = GetParam();
  const Dataset reference = make_gaussian_mixture(n, dim, 3, 100 + n);
  const Dataset query = make_gaussian_mixture(n / 2 + 5, dim, 3, 200 + n);

  const KnnResult brute = knn_bruteforce(query, reference, k);
  KnnOptions options;
  options.k = k;
  options.leaf_size = leaf_size;
  options.parallel = parallel;
  const KnnResult expert = knn_expert(query, reference, options);

  expect_same_distances(brute, expert);
  // Distances ascending per row.
  for (index_t i = 0; i < query.size(); ++i)
    for (index_t j = 1; j < k; ++j)
      EXPECT_LE(expert.distances[i * k + j - 1], expert.distances[i * k + j]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnSweep,
    testing::Values(std::make_tuple(50, 2, 1, 8, false),
                    std::make_tuple(200, 3, 5, 16, false),
                    std::make_tuple(500, 2, 3, 32, true),
                    std::make_tuple(300, 7, 10, 8, false),
                    std::make_tuple(1000, 4, 2, 64, true),
                    std::make_tuple(128, 12, 4, 4, false),
                    std::make_tuple(64, 1, 8, 8, false),
                    // High dimension, where boxes overlap and little prunes.
                    std::make_tuple(300, 40, 2, 8, false)));

TEST(Knn, SelfQueryFindsSelfFirst) {
  const Dataset data = make_gaussian_mixture(300, 3, 2, 42);
  KnnOptions options;
  options.k = 2;
  const KnnResult result = knn_expert(data, data, options);
  for (index_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(result.distances[i * 2], 0.0, 1e-12);
    EXPECT_EQ(result.indices[i * 2], i);
  }
}

TEST(Knn, IndicesPointAtTrueNeighbors) {
  // Distances recomputed from the returned indices must equal the reported
  // distances (catches index permutation bugs that distance-only checks miss).
  const Dataset reference = make_gaussian_mixture(200, 3, 2, 9);
  const Dataset query = make_gaussian_mixture(70, 3, 2, 10);
  KnnOptions options;
  options.k = 3;
  const KnnResult result = knn_expert(query, reference, options);
  for (index_t i = 0; i < query.size(); ++i)
    for (index_t j = 0; j < 3; ++j) {
      const index_t r = result.indices[i * 3 + j];
      ASSERT_GE(r, 0);
      real_t sq = 0;
      for (index_t d = 0; d < 3; ++d) {
        const real_t diff = query.coord(i, d) - reference.coord(r, d);
        sq += diff * diff;
      }
      EXPECT_NEAR(std::sqrt(sq), result.distances[i * 3 + j], 1e-9);
    }
}

TEST(Knn, ManhattanAndChebyshevMetrics) {
  const Dataset reference = make_gaussian_mixture(300, 4, 2, 11);
  const Dataset query = make_gaussian_mixture(100, 4, 2, 12);
  for (MetricKind metric : {MetricKind::Manhattan, MetricKind::Chebyshev}) {
    const KnnResult brute = knn_bruteforce(query, reference, 4, metric);
    KnnOptions options;
    options.k = 4;
    options.metric = metric;
    const KnnResult expert = knn_expert(query, reference, options);
    expect_same_distances(brute, expert);
  }
}

TEST(Knn, PruningActuallyHappens) {
  // Clustered data must let the dual-tree skip most node pairs.
  const Dataset data = make_gaussian_mixture(4000, 3, 8, 13);
  KnnOptions options;
  options.k = 1;
  options.parallel = false;
  const KnnResult result = knn_expert(data, data, options);
  EXPECT_GT(result.stats.prunes, 0u);
  // Visited node pairs far fewer than leaves^2.
  const std::uint64_t leaves = 4000 / 32 + 1;
  EXPECT_LT(result.stats.base_cases, leaves * leaves / 4);
}

TEST(Knn, WorksWithColMajorLowDim) {
  const Dataset reference = make_gaussian_mixture(400, 2, 3, 14); // col-major
  ASSERT_EQ(reference.layout(), Layout::ColMajor);
  const Dataset query = make_gaussian_mixture(150, 2, 3, 15);
  const KnnResult brute = knn_bruteforce(query, reference, 3);
  KnnOptions options;
  options.k = 3;
  const KnnResult expert = knn_expert(query, reference, options);
  expect_same_distances(brute, expert);
}

TEST(Knn, KEqualsReferenceSize) {
  const Dataset reference = make_uniform(16, 2, 16);
  const Dataset query = make_uniform(8, 2, 17);
  KnnOptions options;
  options.k = 16;
  const KnnResult expert = knn_expert(query, reference, options);
  const KnnResult brute = knn_bruteforce(query, reference, 16);
  expect_same_distances(brute, expert);
}

TEST(Knn, InvalidArgumentsThrow) {
  const Dataset a = make_uniform(10, 2, 18);
  const Dataset b = make_uniform(10, 3, 19);
  KnnOptions options;
  options.k = 1;
  EXPECT_THROW(knn_expert(a, b, options), std::invalid_argument); // dim mismatch
  options.k = 0;
  EXPECT_THROW(knn_expert(a, a, options), std::invalid_argument);
  options.k = 11;
  EXPECT_THROW(knn_expert(a, a, options), std::invalid_argument); // k > n
  EXPECT_THROW(knn_bruteforce(Dataset(0, 2), a, 1), std::invalid_argument);
}

TEST(Knn, ParallelMatchesSerial) {
  const Dataset data = make_gaussian_mixture(1500, 3, 4, 20);
  KnnOptions serial;
  serial.k = 5;
  serial.parallel = false;
  KnnOptions parallel;
  parallel.k = 5;
  parallel.parallel = true;
  parallel.task_depth = 6;
  set_num_threads(4);
  const KnnResult a = knn_expert(data, data, serial);
  const KnnResult b = knn_expert(data, data, parallel);
  expect_same_distances(a, b);
}

// ---------------------------------------------------------------------------
// KnnLeafPass, KnnLeafPassByDim and KnnLeafPassByLeaf: the per-leaf base
// cases (one batch::box_sq_lower pass over the query leaf, the selected rows'
// batch::sq_dists_rows tiles, KnnList::insert_bulk's worst-distance filter)
// against a copy of the per-point loop they replaced: one
// BBox::min_sq_dist_point call, one distance tile and one KnnList::insert
// per candidate. Values must match bit for bit and ids exactly, so any
// bound, tile or filter that decides differently shows.

enum class Shape { Gaussian, Duplicated, Grid };

/// n points in `dim` dimensions: a Gaussian mixture, the same with every
/// point repeated three times (exact distance ties between copies), or
/// points on a small integer grid (ties everywhere, zero-width boxes).
Dataset make_shape(Shape shape, index_t n, index_t dim, std::uint64_t seed) {
  std::vector<real_t> raw(static_cast<std::size_t>(n * dim));
  if (shape == Shape::Grid) {
    Rng rng(seed);
    for (real_t& v : raw) v = static_cast<real_t>(rng.uniform_index(4));
  } else {
    const Dataset base = make_gaussian_mixture(
        shape == Shape::Duplicated ? (n + 2) / 3 : n, dim, 3, seed);
    for (index_t i = 0; i < n; ++i)
      for (index_t d = 0; d < dim; ++d)
        raw[static_cast<std::size_t>(i * dim + d)] =
            base.coord(shape == Shape::Duplicated ? i / 3 : i, d);
  }
  return Dataset::from_row_major(raw.data(), n, dim);
}

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::Gaussian: return "gaussian";
    case Shape::Duplicated: return "duplicated";
    case Shape::Grid: return "grid";
  }
  return "?";
}

bool same_bits(real_t a, real_t b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The expert k-NN rules with the per-point base case, as before the leaf
/// bound pass: the oracle of the KnnLeafPass wall.
class PerPointKnnRules {
 public:
  PerPointKnnRules(const KdTree& qtree, const KdTree& rtree,
                   const KnnOptions& options, std::vector<real_t>& dists,
                   std::vector<index_t>& ids)
      : qtree_(qtree),
        rtree_(rtree),
        options_(options),
        dists_(dists),
        ids_(ids),
        node_bounds_(qtree.num_nodes()),
        workspaces_(num_threads()) {
    for (Workspace& ws : workspaces_) {
      ws.qpt.resize(qtree.data().dim());
      ws.dists.resize(rtree.stats().max_leaf_count);
    }
  }

  bool prune_or_approx(index_t q, index_t r) {
    return score(q, r) > node_bounds_[q].load();
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_dist(bound_metric(), rtree_.node(r).box);
  }

  std::uint64_t pair_evals() const {
    std::uint64_t total = 0;
    for (const Workspace& ws : workspaces_) total += ws.pair_evals;
    return total;
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    const index_t k = options_.k;
    const index_t rcount = rnode.count();
    const bool l2 = options_.metric == MetricKind::Euclidean ||
                    options_.metric == MetricKind::SqEuclidean;

    real_t leaf_bound = 0;
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      KnnList list(dists_.data() + qi * k, ids_.data() + qi * k, k);
      qtree_.data().copy_point(qi, ws.qpt.data());
      const real_t point_min = l2 ? rnode.box.min_sq_dist_point(ws.qpt.data()) : 0;
      if (point_min <= list.worst()) {
        if (options_.batch)
          batch::dists(options_.metric, rtree_.mirror().tile(rnode.begin, rcount),
                       ws.qpt.data(), nullptr, nullptr, ws.dists.data());
        else
          dists_to_range(options_.metric, rtree_.data(), rnode.begin, rnode.end,
                         ws.qpt.data(), ws.dists.data());
        ws.pair_evals += static_cast<std::uint64_t>(rcount);
        for (index_t j = 0; j < rcount; ++j)
          list.insert(ws.dists[j], rnode.begin + j);
      }
      leaf_bound = std::max(leaf_bound, list.worst());
    }

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
  struct Workspace {
    std::vector<real_t> qpt;
    std::vector<real_t> dists;
    std::uint64_t pair_evals = 0;
  };

  MetricKind bound_metric() const {
    return options_.metric == MetricKind::Euclidean ? MetricKind::SqEuclidean
                                                    : options_.metric;
  }

  const KdTree& qtree_;
  const KdTree& rtree_;
  const KnnOptions& options_;
  std::vector<real_t>& dists_;
  std::vector<index_t>& ids_;
  std::vector<AtomicBound> node_bounds_;
  std::vector<Workspace> workspaces_;
};

/// The oracle's k-NN over pre-built trees, in the shape knn_dualtree_permuted
/// returns (tree order, L2 distances un-squared at the edge).
KnnResult per_point_knn(const KdTree& qtree, const KdTree& rtree,
                        const KnnOptions& options) {
  const index_t nq = qtree.data().size();
  KnnResult result;
  result.k = options.k;
  result.indices.assign(nq * options.k, -1);
  result.distances.assign(nq * options.k, std::numeric_limits<real_t>::max());
  PerPointKnnRules rules(qtree, rtree, options, result.distances, result.indices);
  TraversalOptions topt;
  topt.parallel = options.parallel;
  result.stats = dual_traverse(qtree, rtree, rules, topt);
  result.stats.pair_evals = rules.pair_evals();
  if (options.metric == MetricKind::Euclidean)
    for (real_t& d : result.distances) d = std::sqrt(d);
  return result;
}

void expect_bitwise_rows(const std::vector<real_t>& want_values,
                         const std::vector<index_t>& want_ids,
                         const std::vector<real_t>& got_values,
                         const std::vector<index_t>& got_ids) {
  ASSERT_EQ(want_values.size(), got_values.size());
  ASSERT_EQ(want_ids.size(), got_ids.size());
  std::size_t value_diffs = 0, id_diffs = 0;
  for (std::size_t s = 0; s < want_values.size(); ++s) {
    if (!same_bits(want_values[s], got_values[s]) && value_diffs++ < 3)
      ADD_FAILURE() << "value slot " << s << ": " << want_values[s] << " vs "
                    << got_values[s];
    if (want_ids[s] != got_ids[s] && id_diffs++ < 3)
      ADD_FAILURE() << "id slot " << s << ": " << want_ids[s] << " vs "
                    << got_ids[s];
  }
  EXPECT_EQ(value_diffs, 0u);
  EXPECT_EQ(id_diffs, 0u);
}

constexpr index_t kLeafPassDims[] = {1, 2, 3, 4, 5, 8, 17, 32};
constexpr Shape kLeafPassShapes[] = {Shape::Gaussian, Shape::Duplicated,
                                     Shape::Grid};

/// The expert k-NN against the per-point oracle over every shape, mono- and
/// bichromatic, at 1 and 4 threads, for each leaf size of `leaves`.
void expect_expert_matches_per_point(index_t dim,
                                     const std::vector<index_t>& leaves) {
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const Shape shape : kLeafPassShapes)
      for (const index_t leaf : leaves)
        for (const bool mono : {true, false}) {
          const std::uint64_t seed = 1000 + 10 * static_cast<std::uint64_t>(dim);
          const Dataset reference = make_shape(shape, 260, dim, seed);
          const Dataset query =
              mono ? reference : make_shape(shape, 171, dim, seed + 1);
          const KdTree rtree(reference, leaf);
          const KdTree qtree(query, leaf);
          // k = 1, and k above the leaf size (k = 70 > 64 > 1).
          for (const index_t k : {index_t(1), index_t(70)}) {
            KnnOptions options;
            options.k = k;
            options.leaf_size = leaf;
            options.parallel = threads > 1;
            SCOPED_TRACE(std::string(shape_name(shape)) + " dim " +
                         std::to_string(dim) + " leaf " + std::to_string(leaf) +
                         " k " + std::to_string(k) + " threads " +
                         std::to_string(threads) + (mono ? " mono" : " bi"));
            const KnnResult want = per_point_knn(qtree, rtree, options);
            const KnnResult got = knn_dualtree_permuted(qtree, rtree, options);
            expect_bitwise_rows(want.distances, want.indices, got.distances,
                                got.indices);
            // The same traversal: only the per-leaf cost changed. Counts
            // are exact only without concurrent bound updates.
            if (threads == 1) {
              EXPECT_EQ(want.stats.pairs_visited, got.stats.pairs_visited);
              EXPECT_EQ(want.stats.prunes, got.stats.prunes);
              EXPECT_EQ(want.stats.base_cases, got.stats.base_cases);
              EXPECT_EQ(want.stats.pair_evals, got.stats.pair_evals);
            }
          }
        }
  }
  set_num_threads(4);
}

TEST(KnnLeafPass, ExpertMatchesPerPointLoopOnScalarLeavesAndOtherMetrics) {
  // The scalar dists_to_range leaves, squared L2, and a metric without a
  // point-to-box bound (every row runs its tile).
  for (const index_t dim : {index_t(3), index_t(8)})
    for (const MetricKind metric : {MetricKind::SqEuclidean, MetricKind::Manhattan})
      for (const bool batch : {true, false}) {
        const Dataset reference = make_shape(Shape::Grid, 300, dim, 77 + dim);
        const Dataset query = make_shape(Shape::Gaussian, 120, dim, 78 + dim);
        const KdTree rtree(reference, 8);
        const KdTree qtree(query, 8);
        KnnOptions options;
        options.k = 5;
        options.leaf_size = 8;
        options.metric = metric;
        options.batch = batch;
        options.parallel = false;
        SCOPED_TRACE("dim " + std::to_string(dim) + " metric " +
                     std::to_string(static_cast<int>(metric)) +
                     (batch ? " batch" : " scalar"));
        const KnnResult want = per_point_knn(qtree, rtree, options);
        const KnnResult got = knn_dualtree_permuted(qtree, rtree, options);
        expect_bitwise_rows(want.distances, want.indices, got.distances,
                            got.indices);
        EXPECT_EQ(want.stats.prunes, got.stats.prunes);
        EXPECT_EQ(want.stats.pair_evals, got.stats.pair_evals);
      }
}

TEST(KnnLeafPass, BulkInsertMatchesPerCandidateInserts) {
  // NaN candidates park in the worst slot, after which every later
  // candidate must reach insert; ties keep the earlier id.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const std::vector<std::vector<real_t>> rows = {
      {3, 1, 2, 2, 0, 5, 1},
      {4, nan, 3, 9, 1, 2, 2, 0.5},
      {nan, nan, 1, 7, 0},
      {2, 2, 2, 2, 2, 2, 2, 2, 2},
  };
  for (const index_t k : {index_t(1), index_t(2), index_t(3)})
    for (const auto& row : rows)
      for (const real_t seed_worst : {real_t(2.5), nan,
                                      std::numeric_limits<real_t>::max()}) {
        std::vector<real_t> want_d(k, std::numeric_limits<real_t>::max());
        std::vector<index_t> want_i(k, -1);
        want_d[k - 1] = seed_worst;
        std::vector<real_t> got_d = want_d;
        std::vector<index_t> got_i = want_i;
        KnnList want(want_d.data(), want_i.data(), k);
        for (index_t j = 0; j < static_cast<index_t>(row.size()); ++j)
          want.insert(row[j], 10 + j);
        KnnList(got_d.data(), got_i.data(), k)
            .insert_bulk(row.data(), static_cast<index_t>(row.size()), 10);
        expect_bitwise_rows(want_d, want_i, got_d, got_i);
      }
}

/// The VM engine's point-prunable reduction base case against the same
/// oracle over the same trees (the executor builds them with the config's
/// leaf size).
void expect_executor_matches_per_point(index_t dim,
                                       const std::vector<index_t>& leaves) {
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const Shape shape : kLeafPassShapes)
      for (const index_t leaf : leaves) {
        const std::uint64_t seed = 2000 + 10 * static_cast<std::uint64_t>(dim);
        const Dataset rd = make_shape(shape, 230, dim, seed);
        const Dataset qd = make_shape(shape, 157, dim, seed + 1);
        for (const index_t k : {index_t(1), index_t(70)}) {
          SCOPED_TRACE(std::string(shape_name(shape)) + " dim " +
                       std::to_string(dim) + " leaf " + std::to_string(leaf) +
                       " k " + std::to_string(k) + " threads " +
                       std::to_string(threads));
          Storage query(qd), reference(rd);
          PortalExpr expr;
          expr.addLayer(PortalOp::FORALL, query);
          expr.addLayer({PortalOp::KARGMIN, k}, reference, PortalFunc::EUCLIDEAN);
          PortalConfig config;
          config.engine = Engine::VM;
          config.leaf_size = leaf;
          config.parallel = threads > 1;
          expr.execute(config);
          const OutputData& out = expr.getOutput().output();

          KnnOptions options;
          options.k = k;
          options.leaf_size = leaf;
          options.parallel = threads > 1;
          const KdTree qtree(qd, leaf);
          const KdTree rtree(rd, leaf);
          const KnnResult permuted = per_point_knn(qtree, rtree, options);
          std::vector<real_t> want_values(permuted.distances.size());
          std::vector<index_t> want_ids(permuted.indices.size());
          for (index_t i = 0; i < qd.size(); ++i)
            for (index_t j = 0; j < k; ++j) {
              const std::size_t from = static_cast<std::size_t>(i * k + j);
              const std::size_t to =
                  static_cast<std::size_t>(qtree.perm()[i] * k + j);
              want_values[to] = permuted.distances[from];
              want_ids[to] = rtree.perm()[permuted.indices[from]];
            }
          expect_bitwise_rows(want_values, want_ids, out.values, out.indices);
        }
      }
  }
  set_num_threads(4);
}

/// Dual-tree Boruvka with EMST's per-point base case, as before the leaf
/// bound pass: the oracle for emst_expert.
EmstResult per_point_emst(const Dataset& data, const EmstOptions& options) {
  const index_t n = data.size();
  const KdTree tree(data, options.leaf_size);
  std::vector<index_t> parent(n);
  for (index_t i = 0; i < n; ++i) parent[i] = i;
  std::vector<index_t> size(n, 1);
  const auto find = [&](index_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  struct Rules {
    const KdTree& tree;
    const std::vector<index_t>& comp;
    const std::vector<index_t>& node_comp;
    std::vector<AtomicBound> node_bounds;
    std::vector<real_t> best_dist;
    std::vector<index_t> best_to;
    std::vector<std::vector<real_t>> qpt, dists; // per thread

    bool prune_or_approx(index_t q, index_t r) {
      if (node_comp[q] >= 0 && node_comp[q] == node_comp[r]) return true;
      return score(q, r) > node_bounds[q].load();
    }
    real_t score(index_t q, index_t r) {
      return tree.node(q).box.min_sq_dist(tree.node(r).box);
    }
    void base_case(index_t q, index_t r) {
      const KdNode& qnode = tree.node(q);
      const KdNode& rnode = tree.node(r);
      std::vector<real_t>& pt = qpt[omp_get_thread_num()];
      std::vector<real_t>& dd = dists[omp_get_thread_num()];
      real_t leaf_bound = 0;
      for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
        real_t best = best_dist[qi];
        tree.data().copy_point(qi, pt.data());
        if (rnode.box.min_sq_dist_point(pt.data()) <= best) {
          sq_dists_to_range(tree.data(), rnode.begin, rnode.end, pt.data(),
                            dd.data());
          index_t best_j = best_to[qi];
          for (index_t j = 0; j < rnode.count(); ++j) {
            if (comp[rnode.begin + j] == comp[qi]) continue;
            if (dd[j] < best) {
              best = dd[j];
              best_j = rnode.begin + j;
            }
          }
          best_dist[qi] = best;
          best_to[qi] = best_j;
        }
        leaf_bound = std::max(leaf_bound, best);
      }
      node_bounds[q].store_min(leaf_bound);
      for (index_t p = qnode.parent; p >= 0; p = tree.node(p).parent) {
        const real_t combined =
            std::max(node_bounds[tree.node(p).left].load(),
                     node_bounds[tree.node(p).right].load());
        if (combined >= node_bounds[p].load()) break;
        node_bounds[p].store_min(combined);
      }
    }
  };

  std::vector<index_t> comp(n), node_comp;
  EmstResult result;
  TraversalOptions topt;
  topt.parallel = options.parallel;
  index_t components = n;
  while (components > 1) {
    ++result.boruvka_rounds;
    for (index_t i = 0; i < n; ++i) comp[i] = find(i);
    node_comp.assign(tree.num_nodes(), -1);
    for (index_t i = tree.num_nodes() - 1; i >= 0; --i) {
      const KdNode& node = tree.node(i);
      index_t label = -1;
      if (node.is_leaf()) {
        label = comp[node.begin];
        for (index_t p = node.begin + 1; p < node.end; ++p)
          if (comp[p] != label) label = -1;
      } else if (node_comp[node.left] >= 0 &&
                 node_comp[node.left] == node_comp[node.right]) {
        label = node_comp[node.left];
      }
      node_comp[i] = label;
    }
    Rules rules{tree, comp, node_comp, std::vector<AtomicBound>(tree.num_nodes()),
                std::vector<real_t>(n, std::numeric_limits<real_t>::max()),
                std::vector<index_t>(n, -1),
                std::vector<std::vector<real_t>>(num_threads(),
                                                 std::vector<real_t>(data.dim())),
                std::vector<std::vector<real_t>>(
                    num_threads(), std::vector<real_t>(tree.stats().max_leaf_count))};
    result.stats += dual_traverse(tree, tree, rules, topt);

    std::vector<real_t> win_dist(n, std::numeric_limits<real_t>::max());
    std::vector<index_t> win_a(n, -1), win_b(n, -1);
    for (index_t i = 0; i < n; ++i) {
      if (rules.best_to[i] < 0) continue;
      if (rules.best_dist[i] < win_dist[comp[i]]) {
        win_dist[comp[i]] = rules.best_dist[i];
        win_a[comp[i]] = i;
        win_b[comp[i]] = rules.best_to[i];
      }
    }
    for (index_t c = 0; c < n; ++c) {
      if (win_a[c] < 0) continue;
      index_t a = find(win_a[c]), b = find(win_b[c]);
      if (a == b) continue;
      if (size[a] < size[b]) std::swap(a, b);
      parent[b] = a;
      size[a] += size[b];
      const real_t weight = std::sqrt(win_dist[c]);
      result.edges.push_back({tree.perm()[win_a[c]], tree.perm()[win_b[c]], weight});
      result.total_weight += weight;
      --components;
    }
  }
  std::sort(result.edges.begin(), result.edges.end());
  return result;
}

/// emst_expert against the per-point Boruvka oracle.
void expect_emst_matches_per_point(index_t dim,
                                   const std::vector<index_t>& leaves) {
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const Shape shape : kLeafPassShapes)
      for (const index_t leaf : leaves) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim " +
                     std::to_string(dim) + " leaf " + std::to_string(leaf) +
                     " threads " + std::to_string(threads));
        const Dataset data =
            make_shape(shape, 240, dim, 3000 + 10 * static_cast<std::uint64_t>(dim));
        EmstOptions options;
        options.leaf_size = leaf;
        options.parallel = threads > 1;
        const EmstResult want = per_point_emst(data, options);
        const EmstResult got = emst_expert(data, options);
        ASSERT_EQ(want.edges.size(), got.edges.size());
        EXPECT_TRUE(same_bits(want.total_weight, got.total_weight));
        EXPECT_EQ(want.boruvka_rounds, got.boruvka_rounds);
        std::size_t diffs = 0;
        for (std::size_t e = 0; e < want.edges.size(); ++e)
          if ((want.edges[e].a != got.edges[e].a ||
               want.edges[e].b != got.edges[e].b ||
               !same_bits(want.edges[e].weight, got.edges[e].weight)) &&
              diffs++ < 3)
            ADD_FAILURE() << "edge " << e << ": (" << want.edges[e].a << ","
                          << want.edges[e].b << "," << want.edges[e].weight
                          << ") vs (" << got.edges[e].a << "," << got.edges[e].b
                          << "," << got.edges[e].weight << ")";
        EXPECT_EQ(diffs, 0u);
        if (threads == 1) {
          EXPECT_EQ(want.stats.pairs_visited, got.stats.pairs_visited);
          EXPECT_EQ(want.stats.prunes, got.stats.prunes);
        }
      }
  }
  set_num_threads(4);
}

/// The per-point walls run once per dimension of kLeafPassDims, at a
/// one-point leaf and a 64-point one, so a failing layout or lane tail is
/// named by its case (`.../d17`). d = 32 is the k-NN graph build's.
class KnnLeafPassByDim : public testing::TestWithParam<index_t> {};

TEST_P(KnnLeafPassByDim, ExpertMatchesPerPointLoop) {
  expect_expert_matches_per_point(GetParam(), {1, 64});
}

TEST_P(KnnLeafPassByDim, ExecutorKargminMatchesPerPointLoop) {
  expect_executor_matches_per_point(GetParam(), {1, 64});
}

TEST_P(KnnLeafPassByDim, EmstMatchesPerPointLoop) {
  expect_emst_matches_per_point(GetParam(), {1, 64});
}

INSTANTIATE_TEST_SUITE_P(Dims, KnnLeafPassByDim, testing::ValuesIn(kLeafPassDims),
                         [](const testing::TestParamInfo<index_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

/// The same walls at leaf sizes around the lane block: 7, 8 and 9 points
/// give reference tiles just under, at and just over one kLaneBlock block
/// (and row groups of batch::sq_dists_rows that end part-way), 33 one lane
/// past four blocks, 64 whole blocks and a 64-row query leaf.
class KnnLeafPassByLeaf
    : public testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(KnnLeafPassByLeaf, ExpertMatchesPerPointLoop) {
  expect_expert_matches_per_point(std::get<0>(GetParam()), {std::get<1>(GetParam())});
}

TEST_P(KnnLeafPassByLeaf, ExecutorKargminMatchesPerPointLoop) {
  expect_executor_matches_per_point(std::get<0>(GetParam()),
                                    {std::get<1>(GetParam())});
}

TEST_P(KnnLeafPassByLeaf, EmstMatchesPerPointLoop) {
  expect_emst_matches_per_point(std::get<0>(GetParam()), {std::get<1>(GetParam())});
}

INSTANTIATE_TEST_SUITE_P(
    Leaves, KnnLeafPassByLeaf,
    testing::Combine(testing::Values(index_t(1), index_t(8), index_t(32)),
                     testing::Values(index_t(7), index_t(8), index_t(9),
                                     index_t(33), index_t(64))),
    [](const testing::TestParamInfo<std::tuple<index_t, index_t>>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_leaf" +
             std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace portal
