// Tests for the exact k-NN graph index (src/index/knn_graph.h): rows equal
// to the brute-force k-NN, build determinism (serial vs parallel and across
// thread counts, bitwise), degenerate inputs, the bitwise-distance contract
// of the row kernel, the search against a reference beam search (answers,
// hops and distance evaluations), one scratch across graph sizes, the
// beam-search recall floor at the default width, and snapshot-swap
// consistency under concurrent approximate readers. The IndexGraph* suites run in the ASan and TSan CI jobs (the
// swap suite is the explicit concurrent-reader-during-publish TSan step).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "index/knn_graph.h"
#include "kernels/batch.h"
#include "obs/trace.h"
#include "problems/common.h"
#include "problems/knn.h"
#include "serve/engine.h"
#include "serve/plan_cache.h"
#include "tree/snapshot.h"
#include "tree/soa_mirror.h"
#include "util/rng.h"

namespace portal {
namespace {

/// Exact k smallest (squared distance, id) pairs by linear scan -- the
/// recall oracle.
std::vector<std::pair<real_t, index_t>> exact_knn_sq(const Dataset& data,
                                                     const real_t* q,
                                                     index_t k) {
  std::vector<std::pair<real_t, index_t>> scored(
      static_cast<std::size_t>(data.size()));
  for (index_t i = 0; i < data.size(); ++i) {
    real_t sq = 0;
    sq_dists_to_range(data, i, i + 1, q, &sq);
    scored[static_cast<std::size_t>(i)] = {sq, i};
  }
  const std::size_t kk = std::min<std::size_t>(
      static_cast<std::size_t>(k), scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(kk),
                    scored.end());
  scored.resize(kk);
  return scored;
}

/// Points on a small integer grid: many exactly equal pair distances, so
/// rows have ties at their K-th distance -- where a build that depended on
/// visiting order would show it.
Dataset make_grid_points(index_t n, index_t dim, std::uint64_t seed) {
  Dataset data(n, dim);
  Rng rng(seed);
  for (index_t i = 0; i < n; ++i)
    for (index_t d = 0; d < dim; ++d)
      data.coord(i, d) = static_cast<real_t>(rng.uniform_index(5));
  return data;
}

void expect_same_rows(const KnnGraph& a, const KnnGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.degree(), b.degree());
  for (index_t i = 0; i < a.size(); ++i)
    for (index_t s = 0; s < a.degree(); ++s) {
      EXPECT_EQ(a.neighbor_ids(i)[s], b.neighbor_ids(i)[s])
          << "row " << i << " slot " << s;
      EXPECT_EQ(a.neighbor_sq(i)[s], b.neighbor_sq(i)[s])
          << "row " << i << " slot " << s;
    }
}

TEST(IndexGraph, SeededBuildIsDeterministicSerialVsParallel) {
  const Dataset data = make_gaussian_mixture(1200, 12, 4, 77);
  KnnGraphOptions serial_opts;
  serial_opts.parallel_build = false;
  KnnGraphOptions parallel_opts;
  parallel_opts.parallel_build = true;
  const KnnGraph serial(data, serial_opts);
  const KnnGraph parallel(data, parallel_opts);

  expect_same_rows(serial, parallel);
  // Same options, second build: also bitwise.
  const KnnGraph again(data, parallel_opts);
  expect_same_rows(serial, again);
}

// The build is exact: every row holds the K nearest other points, with
// squared distances bitwise-equal to the brute-force scan's. Ids match slot
// for slot below the row's K-th distance; a tie at the K-th distance may
// resolve to any of the tied ids (the bitwise distances pin those down).
TEST(IndexGraph, RowsAreTheExactKnn) {
  Dataset mixture = make_gaussian_mixture(600, 20, 3, 9);
  for (index_t i = 0; i < 10; ++i)  // exact duplicates: zero-distance ties
    for (index_t d = 0; d < mixture.dim(); ++d)
      mixture.coord(300 + i, d) = mixture.coord(i, d);
  for (const Dataset& data : {mixture, make_grid_points(500, 3, 17)}) {
    const KnnGraph graph(data, {});
    const index_t K = graph.degree();
    ASSERT_EQ(K, 20);
    const KnnResult brute =
        knn_bruteforce(data, data, K + 1, MetricKind::SqEuclidean);
    for (index_t u = 0; u < data.size(); ++u) {
      std::vector<std::pair<real_t, index_t>> want;
      for (index_t j = 0; j <= K; ++j)
        want.emplace_back(brute.distances[static_cast<std::size_t>(u * (K + 1) + j)],
                          brute.indices[static_cast<std::size_t>(u * (K + 1) + j)]);
      const auto self = std::find_if(want.begin(), want.end(),
                                     [u](const auto& w) { return w.second == u; });
      want.erase(self != want.end() ? self : want.end() - 1);
      const real_t kth = want.back().first;
      for (index_t s = 0; s < K; ++s) {
        const auto& w = want[static_cast<std::size_t>(s)];
        EXPECT_EQ(graph.neighbor_sq(u)[s], w.first) << "row " << u << " slot " << s;
        if (w.first < kth) {
          EXPECT_EQ(graph.neighbor_ids(u)[s], w.second)
              << "row " << u << " slot " << s;
        }
      }
    }
  }
}

// The exact build has no thread-count dependence: the dual-tree traversal
// forks on query nodes only, so each point's candidate list fills in the
// serial order. Grid data puts ties at the K-th distance to make any
// order dependence visible.
TEST(IndexGraph, SameGraphAtEveryThreadCount) {
  const int saved_threads = omp_get_max_threads();
  for (const Dataset& data : {make_gaussian_mixture(1500, 12, 4, 77),
                              make_grid_points(1500, 3, 19)}) {
    std::vector<KnnGraph> graphs;
    for (const int threads : {1, 2, 4}) {
      omp_set_num_threads(threads);
      graphs.emplace_back(data, KnnGraphOptions{});
    }
    for (std::size_t g = 1; g < graphs.size(); ++g)
      expect_same_rows(graphs.front(), graphs[g]);
  }
  omp_set_num_threads(saved_threads);
}

// A kd-tree handed in (the snapshot's) is reused by the all-kNN program; at
// the default leaf size it is the tree the build would have made, so the
// rows are the same. A tree over a dataset of another size is refused.
TEST(IndexGraph, ReusesAGivenKdTree) {
  const Dataset data = make_grid_points(800, 4, 23);
  const KnnGraph own(data, {});
  const auto tree = std::make_shared<const KdTree>(data);
  obs::set_enabled(true);
  obs::reset();
  const KnnGraph reused(data, {}, tree);
  const obs::TraceReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(report.counter("tree/kd/builds"), 0u);  // no tree of its own
  expect_same_rows(own, reused);
  const Dataset other = make_grid_points(700, 4, 23);
  EXPECT_THROW(KnnGraph(data, {}, std::make_shared<const KdTree>(other)),
               std::invalid_argument);
}

// The build runs Portal's all-kNN program on the pattern engine: one
// pattern dispatch, never a JIT compile.
TEST(IndexGraph, BuildRunsThePatternEngineWithoutJit) {
  const Dataset data = make_gaussian_mixture(500, 16, 3, 41);
  obs::set_enabled(true);
  obs::reset();
  const KnnGraph graph(data, {});
  const obs::TraceReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(report.counter("pattern/dispatches"), 1u);
  EXPECT_EQ(report.counter("tree/kd/builds"), 1u);
  EXPECT_EQ(report.counter("jit/artifact/compiles"), 0u);
  EXPECT_EQ(report.counter("index/graph/builds"), 1u);
}

// The seed shapes only the search entry points: both permutations cover
// every id, they differ, and no row changes.
TEST(IndexGraph, SeedChangesSearchEntryPointsButNoRow) {
  const Dataset data = make_gaussian_mixture(400, 8, 3, 5);
  KnnGraphOptions a;
  a.seed = 1;
  KnnGraphOptions b;
  b.seed = 2;
  const KnnGraph ga(data, a);
  const KnnGraph gb(data, b);
  expect_same_rows(ga, gb);
  EXPECT_NE(ga.seed_order(), gb.seed_order());
  for (const KnnGraph* g : {&ga, &gb}) {
    std::vector<index_t> ids = g->seed_order();
    std::sort(ids.begin(), ids.end());
    for (index_t i = 0; i < data.size(); ++i)
      EXPECT_EQ(ids[static_cast<std::size_t>(i)], i);
  }
  // Same seed, same entry points.
  EXPECT_EQ(ga.seed_order(), KnnGraph(data, a).seed_order());
}

TEST(IndexGraph, RowsAreSortedValidAndBitwiseExact) {
  const Dataset data = make_gaussian_mixture(600, 20, 3, 9);
  const KnnGraph graph(data, {});
  for (index_t i = 0; i < graph.size(); ++i) {
    const index_t* ids = graph.neighbor_ids(i);
    const real_t* sq = graph.neighbor_sq(i);
    for (index_t s = 0; s < graph.degree(); ++s) {
      ASSERT_GE(ids[s], 0);
      ASSERT_LT(ids[s], graph.size());
      EXPECT_NE(ids[s], i) << "self loop in row " << i;
      // Ascending by (distance, id); no duplicate ids.
      if (s > 0) {
        EXPECT_TRUE(sq[s] > sq[s - 1] ||
                    (sq[s] == sq[s - 1] && ids[s] > ids[s - 1]))
            << "row " << i << " slot " << s;
      }
      // Stored distances are bitwise-equal to the scalar ascending-dimension
      // accumulation -- the same contract the serve engine relies on.
      real_t want = 0;
      std::vector<real_t> q(static_cast<std::size_t>(data.dim()));
      data.copy_point(i, q.data());
      sq_dists_to_range(graph.data(), ids[s], ids[s] + 1, q.data(), &want);
      EXPECT_EQ(sq[s], want) << "row " << i << " slot " << s;
    }
  }
}

TEST(IndexGraph, DegenerateInputs) {
  EXPECT_THROW(KnnGraph(Dataset(), {}), std::invalid_argument);

  // One point: degree clamps to zero, searches still answer.
  const Dataset one = make_uniform(1, 5, 3);
  const KnnGraph g1(one, {});
  EXPECT_EQ(g1.degree(), 0);
  KnnGraph::SearchScratch scratch;
  real_t sq[4];
  index_t ids[4];
  EXPECT_EQ(g1.search(one.row_ptr(0), 4, 8, scratch, sq, ids), 1);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(sq[0], real_t{0});

  // Tiny sets: degree clamps to size - 1 and every row is the full set.
  for (index_t n : {index_t{2}, index_t{3}}) {
    const Dataset tiny = make_uniform(n, 4, 11);
    const KnnGraph g(tiny, {});
    EXPECT_EQ(g.degree(), n - 1);
    for (index_t i = 0; i < n; ++i) {
      std::vector<index_t> row(g.neighbor_ids(i), g.neighbor_ids(i) + g.degree());
      std::sort(row.begin(), row.end());
      index_t expect = 0;
      for (const index_t id : row) {
        if (expect == i) ++expect;
        EXPECT_EQ(id, expect++);
      }
    }
  }

  // A row never lists its own id, nor any id twice -- also when more than
  // degree + 1 copies of a point crowd it out of its own exact k-NN list.
  const auto expect_clean_rows = [](const KnnGraph& g) {
    for (index_t i = 0; i < g.size(); ++i) {
      std::vector<index_t> row(g.neighbor_ids(i), g.neighbor_ids(i) + g.degree());
      EXPECT_EQ(std::find(row.begin(), row.end(), i), row.end())
          << "self loop in row " << i;
      std::sort(row.begin(), row.end());
      EXPECT_EQ(std::unique(row.begin(), row.end()), row.end())
          << "repeated id in row " << i;
    }
  };

  // All-duplicate points: zero distances everywhere, ties resolve by id,
  // build terminates, search returns valid distinct ids.
  Dataset dup(64, 6);
  for (index_t i = 0; i < dup.size(); ++i)
    for (index_t d = 0; d < dup.dim(); ++d) dup.coord(i, d) = real_t(1.5);
  const KnnGraph gd(dup, {});
  ASSERT_EQ(gd.degree(), 20);
  expect_clean_rows(gd);
  for (index_t i = 0; i < gd.size(); ++i)
    for (index_t s = 0; s < gd.degree(); ++s)
      EXPECT_EQ(gd.neighbor_sq(i)[s], real_t{0});

  // One point repeated 30 times (> degree + 1 = 21) among distinct points:
  // each copy's row is 20 other copies at distance 0.
  Dataset crowd = make_gaussian_mixture(200, 6, 3, 29);
  for (index_t i = 1; i < 30; ++i)
    for (index_t d = 0; d < crowd.dim(); ++d)
      crowd.coord(i, d) = crowd.coord(0, d);
  const KnnGraph gc(crowd, {});
  expect_clean_rows(gc);
  for (index_t i = 0; i < 30; ++i)
    for (index_t s = 0; s < gc.degree(); ++s) {
      EXPECT_EQ(gc.neighbor_sq(i)[s], real_t{0});
      EXPECT_LT(gc.neighbor_ids(i)[s], 30);
    }
  std::vector<real_t> dsq(10);
  std::vector<index_t> dids(10);
  ASSERT_EQ(gd.search(dup.row_ptr(0), 10, 16, scratch, dsq.data(), dids.data()),
            10);
  std::sort(dids.begin(), dids.end());
  EXPECT_EQ(std::unique(dids.begin(), dids.end()), dids.end());

  // degree larger than the dataset: clamps, still exact on such tiny sets.
  KnnGraphOptions wide;
  wide.degree = 100;
  const Dataset small = make_uniform(10, 3, 21);
  const KnnGraph gs(small, wide);
  EXPECT_EQ(gs.degree(), 9);
}

TEST(IndexGraph, SearchIsExactWhenBeamCoversTheDataset) {
  const Dataset data = make_gaussian_mixture(300, 16, 3, 13);
  const KnnGraph graph(data, {});
  KnnGraph::SearchScratch scratch;
  std::vector<real_t> sq(5);
  std::vector<index_t> ids(5);
  for (index_t qi = 0; qi < 20; ++qi) {
    std::vector<real_t> q(static_cast<std::size_t>(data.dim()));
    data.copy_point(qi * 7, q.data());
    q[0] += real_t(0.25);
    // beam >= n visits every seed... not every point, but the beam keeps the
    // global best among all visited; with beam == n the seed set alone is
    // the whole dataset, so the answer is exact.
    ASSERT_EQ(graph.search(q.data(), 5, data.size(), scratch, sq.data(),
                           ids.data()),
              5);
    const auto want = exact_knn_sq(data, q.data(), 5);
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(sq[s], want[s].first) << "slot " << s;
      EXPECT_EQ(ids[s], want[s].second) << "slot " << s;
    }
  }
}

/// One search's answer and effort, for bitwise comparisons.
struct SearchOutcome {
  std::vector<real_t> sq;
  std::vector<index_t> ids;
  std::uint64_t hops = 0;
  std::uint64_t dist_evals = 0;
};

void expect_same_outcome(const SearchOutcome& got, const SearchOutcome& want,
                         const std::string& where) {
  EXPECT_EQ(got.ids, want.ids) << where;
  ASSERT_EQ(got.sq.size(), want.sq.size()) << where;
  for (std::size_t s = 0; s < want.sq.size(); ++s)
    EXPECT_EQ(got.sq[s], want.sq[s]) << where << " slot " << s;
  EXPECT_EQ(got.hops, want.hops) << where;
  EXPECT_EQ(got.dist_evals, want.dist_evals) << where;
}

SearchOutcome run_search(const KnnGraph& graph, const real_t* q, index_t k,
                         index_t beam, KnnGraph::SearchScratch& scratch) {
  SearchOutcome out;
  out.sq.resize(static_cast<std::size_t>(k));
  out.ids.resize(static_cast<std::size_t>(k));
  const index_t got =
      graph.search(q, k, beam, scratch, out.sq.data(), out.ids.data());
  out.sq.resize(static_cast<std::size_t>(got));
  out.ids.resize(static_cast<std::size_t>(got));
  out.hops = scratch.hops;
  out.dist_evals = scratch.dist_evals;
  return out;
}

/// Reference beam search: the straightforward form of KnnGraph::search.
/// Candidates are gathered from a dimension-major mirror into a tile and
/// scored there, every scored candidate goes through the sorted insert, and
/// the next entry to expand is found by a linear scan from the front. Seeds
/// and expansion order follow the same rules (component representatives,
/// then the seed permutation; forward row, then reverse edges).
SearchOutcome reference_search(const KnnGraph& graph, const SoaMirror& mirror,
                               const real_t* q, index_t k, index_t beam) {
  const index_t n = graph.size();
  const index_t dim = graph.dim();
  const index_t K = graph.degree();
  const index_t width = std::min<index_t>(std::max<index_t>(beam, k), n);

  // Min-id representative of every connected component of the rows.
  std::vector<index_t> parent(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  const auto find = [&parent](index_t x) {
    while (parent[static_cast<std::size_t>(x)] != x)
      x = parent[static_cast<std::size_t>(x)];
    return x;
  };
  for (index_t u = 0; u < n; ++u)
    for (index_t s = 0; s < K; ++s) {
      const index_t a = find(u);
      const index_t b = find(graph.neighbor_ids(u)[s]);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    }

  SearchOutcome out;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<real_t> beam_sq;
  std::vector<index_t> beam_ids;
  std::vector<char> expanded;
  const auto insert = [&](real_t d, index_t id) {
    std::size_t pos = 0;
    while (pos < beam_sq.size() &&
           (beam_sq[pos] < d || (beam_sq[pos] == d && beam_ids[pos] < id)))
      ++pos;
    if (pos >= static_cast<std::size_t>(width)) return;
    beam_sq.insert(beam_sq.begin() + static_cast<std::ptrdiff_t>(pos), d);
    beam_ids.insert(beam_ids.begin() + static_cast<std::ptrdiff_t>(pos), id);
    expanded.insert(expanded.begin() + static_cast<std::ptrdiff_t>(pos), 0);
    if (beam_sq.size() > static_cast<std::size_t>(width)) {
      beam_sq.pop_back();
      beam_ids.pop_back();
      expanded.pop_back();
    }
  };
  // Gathered dimension-major tile of the candidates, scored lane by lane.
  const auto score = [&](const std::vector<index_t>& ids) {
    const index_t m = static_cast<index_t>(ids.size());
    std::vector<real_t> tile(static_cast<std::size_t>(dim * m));
    for (index_t d = 0; d < dim; ++d)
      for (index_t j = 0; j < m; ++j)
        tile[static_cast<std::size_t>(d * m + j)] =
            mirror.lane(d)[ids[static_cast<std::size_t>(j)]];
    std::vector<real_t> sq(static_cast<std::size_t>(m));
    batch::sq_dists(batch::Tile{tile.data(), m, 0, m, dim}, q, sq.data());
    out.dist_evals += static_cast<std::uint64_t>(m);
    for (index_t j = 0; j < m; ++j)
      insert(sq[static_cast<std::size_t>(j)], ids[static_cast<std::size_t>(j)]);
  };

  std::vector<index_t> seeds;
  const auto seed = [&](index_t id) {
    if (visited[static_cast<std::size_t>(id)]) return;
    visited[static_cast<std::size_t>(id)] = 1;
    seeds.push_back(id);
  };
  for (index_t i = 0; i < n; ++i)
    if (find(i) == i) seed(i);
  for (index_t j = 0;
       j < n && static_cast<index_t>(seeds.size()) < width; ++j)
    seed(graph.seed_order()[static_cast<std::size_t>(j)]);
  score(seeds);

  for (;;) {
    std::size_t p = 0;
    while (p < expanded.size() && expanded[p]) ++p;
    if (p == expanded.size()) break;
    expanded[p] = 1;
    ++out.hops;
    const index_t v = beam_ids[p];
    std::vector<index_t> fresh;
    const auto visit = [&](index_t c) {
      if (visited[static_cast<std::size_t>(c)]) return;
      visited[static_cast<std::size_t>(c)] = 1;
      fresh.push_back(c);
    };
    for (index_t s = 0; s < K; ++s) visit(graph.neighbor_ids(v)[s]);
    for (index_t s = 0; s < graph.reverse_count(v); ++s)
      visit(graph.reverse_ids(v)[s]);
    if (!fresh.empty()) score(fresh);
  }
  const std::size_t filled =
      std::min(static_cast<std::size_t>(k), beam_sq.size());
  out.sq.assign(beam_sq.begin(), beam_sq.begin() + static_cast<std::ptrdiff_t>(filled));
  out.ids.assign(beam_ids.begin(), beam_ids.begin() + static_cast<std::ptrdiff_t>(filled));
  return out;
}

// The search returns exactly what the reference beam search returns -- the
// same (sq, id) lists, hops and distance evaluations -- for both input
// layouts (column-major at d <= 4), beams from k to the whole dataset,
// duplicated points (zero-distance ties) and integer-grid data, whose many
// equal distances put ties at the beam's worst entry.
TEST(IndexGraph, SearchMatchesReferenceBeamSearch) {
  const index_t n = 400, k = 5;
  for (const index_t dim : {index_t{2}, index_t{3}, index_t{4}, index_t{5},
                            index_t{8}, index_t{32}}) {
    Dataset mixture = make_gaussian_mixture(n, dim, 4, 100 + dim);
    for (index_t i = 0; i < 12; ++i)  // exact duplicates
      for (index_t d = 0; d < dim; ++d)
        mixture.coord(200 + i, d) = mixture.coord(i, d);
    const Dataset grid = make_grid_points(n, dim, 200 + dim);
    const Dataset* const datasets[] = {&mixture, &grid};
    for (const Dataset* data : datasets) {
      const KnnGraph graph(*data, {});
      SoaMirror mirror;
      mirror.build(graph.data(), false);
      KnnGraph::SearchScratch scratch;
      Rng rng(static_cast<std::uint64_t>(dim));
      std::vector<real_t> q(static_cast<std::size_t>(dim));
      for (int trial = 0; trial < 12; ++trial) {
        const index_t base = static_cast<index_t>(
            rng.uniform_index(static_cast<std::uint64_t>(n)));
        data->copy_point(base, q.data());
        // Grid queries stay on the grid (ties everywhere); mixture queries
        // are jittered off a point, or the point itself (a duplicate).
        if (data == &mixture && trial % 3 != 0)
          for (index_t d = 0; d < dim; ++d)
            q[static_cast<std::size_t>(d)] += rng.uniform(-0.05, 0.05);
        for (const index_t beam : {k, index_t{16}, index_t{64}, n}) {
          const std::string where =
              "dim " + std::to_string(dim) +
              (data == &grid ? " grid" : " mixture") + " trial " +
              std::to_string(trial) + " beam " + std::to_string(beam);
          expect_same_outcome(run_search(graph, q.data(), k, beam, scratch),
                              reference_search(graph, mirror, q.data(), k, beam),
                              where);
        }
      }
    }
  }
}

// A serve workspace keeps one SearchScratch across publishes, so one scratch
// meets graphs that grow and shrink: its visited stamps are resized (and
// their generation restarted) or reused with stale stamps from a larger
// graph. Every answer equals a fresh scratch's, bitwise.
TEST(IndexGraph, SharedScratchAcrossGraphSizes) {
  const index_t dim = 16, k = 10, beam = 32;
  KnnGraph::SearchScratch shared;
  std::vector<real_t> q(static_cast<std::size_t>(dim));
  std::uint64_t seed = 500;
  for (const index_t n : {index_t{500}, index_t{4000}, index_t{200},
                          index_t{4000}}) {
    const Dataset data = make_gaussian_mixture(n, dim, 4, ++seed);
    const KnnGraph graph(data, {});
    Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      data.copy_point(static_cast<index_t>(rng.uniform_index(
                          static_cast<std::uint64_t>(n))),
                      q.data());
      q[0] += rng.uniform(-0.1, 0.1);
      KnnGraph::SearchScratch fresh;
      expect_same_outcome(run_search(graph, q.data(), k, beam, shared),
                          run_search(graph, q.data(), k, beam, fresh),
                          "n " + std::to_string(n) + " trial " +
                              std::to_string(trial));
    }
  }
}

TEST(IndexGraph, RecallFloorAtDefaultBeamOnGaussianMixture) {
  const index_t n = 4000, dim = 32, k = 10;
  const Dataset data = make_gaussian_mixture(n, dim, 10, 123);
  const Dataset queries = make_gaussian_mixture(100, dim, 10, 321);
  const KnnGraph graph(data, {});
  KnnGraph::SearchScratch scratch;
  const index_t beam = 64; // the serve default (EngineOptions::beam_width)
  std::vector<real_t> sq(static_cast<std::size_t>(beam));
  std::vector<index_t> ids(static_cast<std::size_t>(beam));
  std::vector<real_t> q(static_cast<std::size_t>(dim));

  std::uint64_t hit = 0, total = 0;
  for (index_t qi = 0; qi < queries.size(); ++qi) {
    queries.copy_point(qi, q.data());
    ASSERT_EQ(graph.search(q.data(), k, beam, scratch, sq.data(), ids.data()),
              k);
    const auto want = exact_knn_sq(data, q.data(), k);
    for (const auto& w : want) {
      total += 1;
      hit += std::find(ids.begin(), ids.begin() + k, w.second) !=
                     ids.begin() + k
                 ? 1
                 : 0;
    }
    // Distances are bitwise-exact for whatever the beam returned.
    for (index_t s = 0; s < k; ++s) {
      real_t want_sq = 0;
      queries.copy_point(qi, q.data());
      sq_dists_to_range(data, ids[static_cast<std::size_t>(s)],
                        ids[static_cast<std::size_t>(s)] + 1, q.data(),
                        &want_sq);
      EXPECT_EQ(sq[static_cast<std::size_t>(s)], want_sq);
    }
  }
  const double recall =
      static_cast<double>(hit) / static_cast<double>(total);
  EXPECT_GE(recall, 0.9) << "recall@" << k << " = " << recall;
}

// Regression: at high dimension the graph falls apart into one component
// per cluster, and the original id-stride seed sample aliased against the
// dataset ordering -- at some beam widths an entire cluster had no seed, so
// queries in it returned 0-recall answers from the wrong cluster. Search
// now seeds every component representative first (plus a build-time
// pseudo-random permutation), so even a tiny beam reaches every cluster.
TEST(IndexGraph, SmallBeamReachesEveryClusterOnHighDimData) {
  const index_t n = 3000, dim = 48, k = 5;
  const Dataset data = make_gaussian_mixture(n, dim, 5, 31);
  const KnnGraph graph(data, {});
  KnnGraph::SearchScratch scratch;
  std::vector<real_t> sq(static_cast<std::size_t>(k));
  std::vector<index_t> ids(static_cast<std::size_t>(k));
  std::vector<real_t> q(static_cast<std::size_t>(dim));
  Rng rng(7);
  for (const index_t beam : {index_t{5}, index_t{8}, index_t{16},
                             index_t{32}}) {
    std::uint64_t hit = 0, total = 0;
    for (int trial = 0; trial < 100; ++trial) {
      // Jittered dataset points: the true neighborhood is unambiguous and
      // always deep inside one cluster.
      const index_t base = static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
      data.copy_point(base, q.data());
      for (index_t d = 0; d < dim; ++d)
        q[static_cast<std::size_t>(d)] += rng.uniform(-1e-3, 1e-3);
      ASSERT_EQ(
          graph.search(q.data(), k, beam, scratch, sq.data(), ids.data()), k);
      const auto want = exact_knn_sq(data, q.data(), k);
      for (const auto& w : want) {
        total += 1;
        if (std::find(ids.begin(), ids.end(), w.second) != ids.end()) ++hit;
      }
    }
    const double recall = static_cast<double>(hit) / static_cast<double>(total);
    EXPECT_GE(recall, 0.9) << "recall@" << k << " at beam " << beam << " = "
                           << recall;
  }
}

TEST(IndexGraph, BuildStatsArePopulated) {
  const Dataset data = make_gaussian_mixture(800, 16, 4, 55);
  const KnnGraph graph(data, {});
  EXPECT_EQ(graph.stats().rounds, 0);
  // The traversal's evaluated pairs plus the n * degree row re-scores.
  const std::uint64_t n = 800, rescored = n * 20;
  EXPECT_GT(graph.stats().dist_evals, rescored);
  EXPECT_LT(graph.stats().dist_evals, n * n + rescored);
  EXPECT_GE(graph.stats().build_seconds, 0.0);
}

// --- snapshot-swap consistency under concurrent approximate readers ------
//
// Writers publish fresh epochs (graph included) while readers run
// approximate queries against whatever epoch they pinned. Every answer must
// be internally consistent with *its own* snapshot: ids within that epoch's
// dataset, values bitwise-equal to distances recomputed from that epoch's
// source. TSan runs this suite as the explicit reader-during-swap step.
TEST(IndexGraphSwap, ConcurrentReadersDuringPublish) {
  const index_t dim = 16, k = 5;
  SnapshotOptions opts;
  opts.build_graph = true;

  SnapshotSlot slot;
  slot.publish(std::make_shared<const Dataset>(
                   make_gaussian_mixture(600, dim, 3, 1000)),
               opts);

  // One plan serves every epoch (all share the dimensionality).
  serve::PlanCache cache;
  LayerSpec inner;
  inner.op = OpSpec(PortalOp::KARGMIN, k);
  inner.func = PortalFunc::EUCLIDEAN;
  const serve::PlanHandle plan = cache.get_or_compile(
      inner, *slot.load()->source(), PortalConfig{});
  ASSERT_TRUE(plan);

  serve::EngineOptions eopt;
  eopt.approx = true;
  eopt.beam_width = 32;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  const Dataset queries = make_gaussian_mixture(32, dim, 3, 2000);

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      serve::Workspace ws;
      std::vector<real_t> q(static_cast<std::size_t>(dim));
      index_t qi = r;
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const TreeSnapshot> snap = slot.load();
        queries.copy_point(qi % queries.size(), q.data());
        ++qi;
        const serve::QueryResult res =
            serve::run_query(*plan, *snap, q.data(), eopt, ws);
        if (res.ids.size() != static_cast<std::size_t>(k)) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t s = 0; s < res.ids.size(); ++s) {
          const index_t id = res.ids[s];
          if (id < 0 || id >= snap->size()) {
            failures.fetch_add(1);
            continue;
          }
          real_t sq = 0;
          sq_dists_to_range(*snap->source(), id, id + 1, q.data(), &sq);
          if (res.values[s] != std::sqrt(sq)) failures.fetch_add(1);
        }
      }
    });
  }

  for (std::uint64_t e = 0; e < 8; ++e) {
    slot.publish(std::make_shared<const Dataset>(make_gaussian_mixture(
                     500 + static_cast<index_t>(e) * 100, dim, 3, 3000 + e)),
                 opts);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

} // namespace
} // namespace portal
