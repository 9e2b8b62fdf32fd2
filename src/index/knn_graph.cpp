#include "index/knn_graph.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/portal.h"
#include "kernels/batch.h"
#include "obs/trace.h"
#include "util/aligned.h"
#include "util/threading.h"

namespace portal {
namespace {

/// splitmix64 finalizer -- the deterministic stream behind the search-seed
/// permutation.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Build scratch for re-scoring one row: its candidate ids and the scored
/// list the row sort orders. Reused across points.
struct BuildScratch {
  std::vector<index_t> pool;
  std::vector<std::pair<real_t, index_t>> scored;
};

/// Runs Portal's all-kNN program over `data` (forall_q argmin^k_r ||q - r||,
/// a self-join) on the pattern engine's dual-tree k-NN and returns the
/// row-major n x k neighbour ids in original order. `tree`, when given, is
/// a kd-tree already built over `data`; the program reuses it. Adds the
/// point pairs the traversal evaluated to `*pair_evals`.
std::vector<index_t> all_knn_ids(const Dataset& data, index_t k, bool parallel,
                                 std::shared_ptr<const KdTree> tree,
                                 std::uint64_t* pair_evals) {
  const Storage points(data);
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, points);
  expr.addLayer({PortalOp::KARGMIN, k}, points, PortalFunc::EUCLIDEAN);
  PortalConfig config;
  // The pattern engine runs the pre-compiled dual-tree k-NN: a JIT compile
  // (a system compiler run) never lands in a graph build, and recognition
  // throws if this program ever stops matching the pattern.
  config.engine = Engine::Pattern;
  config.parallel = parallel;
  if (tree) {
    if (tree->data().size() != data.size() || tree->data().dim() != data.dim())
      throw std::invalid_argument("KnnGraph: kd-tree does not match the dataset");
    config.leaf_size = tree->leaf_size();
    expr.treeCache()->adopt(points, std::move(tree));
  }
  expr.execute(config);
  *pair_evals += expr.stats().pair_evals;
  return expr.getOutput().output().indices;
}

} // namespace

KnnGraph::KnnGraph(const Dataset& data, const KnnGraphOptions& options,
                   std::shared_ptr<const KdTree> tree) {
  if (data.empty())
    throw std::invalid_argument("KnnGraph: empty dataset");
  const auto t0 = std::chrono::steady_clock::now();
  PORTAL_OBS_SCOPE(graph_build_scope, "index/graph/build");

  // One point-contiguous copy in original order (neighbor ids are client
  // ids): the layout the row kernel reads. Column-major input (d <= 4) is
  // converted straight into it; row-major input is copied as is.
  data_ = data.layout() == Layout::RowMajor ? data
                                            : data.with_layout(Layout::RowMajor);
  const index_t n = data_.size();
  const index_t dim = data_.dim();
  degree_ = std::min<index_t>(std::max<index_t>(options.degree, 0), n - 1);
  const index_t K = degree_;

  std::uint64_t total_evals = 0;

  if (K > 0) {
    adj_.resize(static_cast<std::size_t>(n * K));
    adj_sq_.resize(static_cast<std::size_t>(n * K));
    const bool use_threads = options.parallel_build && !in_parallel_region();

    // Exact K+1 nearest per point, self included (K + 1 <= n).
    std::vector<index_t> knn =
        all_knn_ids(data, K + 1, use_threads, std::move(tree), &total_evals);

    // Each row: the K+1 ids minus the point itself -- or minus the last id
    // when more than K+1 duplicates crowd the point out of its own list --
    // re-scored through the row kernel (straight into the row's distance
    // slots) and sorted by (sq, id). The stored squared distances are then
    // bitwise-equal to the scalar ascending-dimension accumulation, exactly
    // what the exact engine and the search report for the same pair.
    const real_t* rows = data_.raw();
#pragma omp parallel if (use_threads)
    {
      BuildScratch s;
#pragma omp for schedule(static)
      for (index_t u = 0; u < n; ++u) {
        const index_t* ids = knn.data() + u * (K + 1);
        s.pool.assign(ids, ids + K + 1);
        const auto self = std::find(s.pool.begin(), s.pool.end(), u);
        s.pool.erase(self != s.pool.end() ? self : s.pool.end() - 1);

        real_t* row_sq = adj_sq_.data() + u * K;
        batch::row_sq_dists(rows, dim, s.pool.data(), K, data_.row_ptr(u),
                            row_sq);
        s.scored.clear();
        for (index_t j = 0; j < K; ++j)
          s.scored.emplace_back(row_sq[j], s.pool[static_cast<std::size_t>(j)]);
        std::sort(s.scored.begin(), s.scored.end());
        for (index_t slot = 0; slot < K; ++slot) {
          adj_[static_cast<std::size_t>(u * K + slot)] =
              s.scored[static_cast<std::size_t>(slot)].second;
          adj_sq_[static_cast<std::size_t>(u * K + slot)] =
              s.scored[static_cast<std::size_t>(slot)].first;
        }
      }
    }
    std::vector<index_t>().swap(knn);  // free the (K+1)-wide result now
    total_evals += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(K);

    // Reverse-edge CSR for the search (symmetrized expansion), capped at 2K
    // per target, first occurrences in ascending-u order.
    const index_t rev_cap = 2 * K;
    std::vector<index_t> rev_cnt(static_cast<std::size_t>(n), 0);
    for (index_t u = 0; u < n; ++u)
      for (index_t slot = 0; slot < K; ++slot) {
        const index_t v = adj_[static_cast<std::size_t>(u * K + slot)];
        if (rev_cnt[static_cast<std::size_t>(v)] < rev_cap)
          ++rev_cnt[static_cast<std::size_t>(v)];
      }
    rev_off_.resize(static_cast<std::size_t>(n) + 1);
    rev_off_[0] = 0;
    for (index_t v = 0; v < n; ++v)
      rev_off_[static_cast<std::size_t>(v) + 1] =
          rev_off_[static_cast<std::size_t>(v)] +
          rev_cnt[static_cast<std::size_t>(v)];
    rev_ids_.resize(static_cast<std::size_t>(rev_off_[static_cast<std::size_t>(n)]));
    std::vector<index_t> rev_cursor(rev_off_.begin(), rev_off_.end() - 1);
    for (index_t u = 0; u < n; ++u)
      for (index_t slot = 0; slot < K; ++slot) {
        const index_t v = adj_[static_cast<std::size_t>(u * K + slot)];
        index_t& cur = rev_cursor[static_cast<std::size_t>(v)];
        if (cur < rev_off_[static_cast<std::size_t>(v) + 1])
          rev_ids_[static_cast<std::size_t>(cur++)] = u;
      }
  } else {
    rev_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  }

  // Fixed search-seed permutation: a search with beam width w enters the
  // graph at the first w entries. A plain id-stride sample here is a trap:
  // it can alias against the dataset's ordering (observed on clustered
  // data, where every multiple of the stride missed one cluster) and at
  // high dimension the graph's components are disconnected, so a component
  // with no seed is simply unreachable. A seeded Fisher-Yates shuffle is
  // deterministic, gives distinct ids at every width, still covers the
  // whole dataset at width == n, and cannot alias with data order.
  seed_order_.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) seed_order_[static_cast<std::size_t>(i)] = i;
  for (index_t i = n - 1; i > 0; --i) {
    const std::uint64_t r =
        mix64(options.seed ^ 0x5851f42d4c957f2dULL ^
              static_cast<std::uint64_t>(i) * 0x14057b7ef767814fULL);
    std::swap(seed_order_[static_cast<std::size_t>(i)],
              seed_order_[static_cast<std::size_t>(
                  r % static_cast<std::uint64_t>(i + 1))]);
  }

  // Component representatives: at high dimension the k-NN graph falls apart
  // into one component per cluster (no point's row reaches across), and a
  // component without a seed is unreachable no matter how wide the beam.
  // A deterministic union-find over the forward edges (reverse edges add no
  // connectivity: undirected reachability is the same) yields the min-id
  // representative of every component; search seeds those first, so every
  // component has an entry point at any beam width.
  {
    std::vector<index_t> parent(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
    const auto find = [&parent](index_t x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    };
    for (index_t u = 0; u < n; ++u)
      for (index_t slot = 0; slot < K; ++slot) {
        const index_t a = find(u);
        const index_t b = find(adj_[static_cast<std::size_t>(u * K + slot)]);
        if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
            std::min(a, b);
      }
    comp_reps_.clear();
    for (index_t i = 0; i < n; ++i)
      if (find(i) == i) comp_reps_.push_back(i);  // ascending => min ids
  }

  stats_.dist_evals = total_evals;
  stats_.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  PORTAL_OBS_COUNT("index/graph/builds", 1);
  PORTAL_OBS_COUNT("index/graph/build_dist_evals", total_evals);
  PORTAL_OBS_COUNT("index/graph/build_points", static_cast<std::uint64_t>(n));
}

index_t KnnGraph::search(const real_t* query, index_t k, index_t beam,
                         SearchScratch& scratch, real_t* out_sq,
                         index_t* out_ids) const {
  scratch.hops = 0;
  scratch.dist_evals = 0;
  const index_t n = size();
  if (n == 0 || k <= 0) return 0;
  const index_t width = std::min<index_t>(std::max<index_t>(beam, k), n);
  const index_t dim = data_.dim();
  const real_t* rows = data_.raw();  // point i at rows + i * dim

  if (static_cast<index_t>(scratch.visited.size()) < n) {
    scratch.visited.assign(static_cast<std::size_t>(n), 0);
    scratch.generation = 0;
  }
  const std::uint64_t gen = ++scratch.generation;
  std::uint64_t* visited = scratch.visited.data();
  scratch.beam_sq.resize(static_cast<std::size_t>(width));
  scratch.beam_ids.resize(static_cast<std::size_t>(width));
  scratch.expanded.resize(static_cast<std::size_t>(width));
  real_t* beam_sq = scratch.beam_sq.data();
  index_t* beam_ids = scratch.beam_ids.data();
  char* expanded = scratch.expanded.data();
  // Expansion scores one forward row plus up to 2x degree reverse edges;
  // seeds are scored in batches of the same size.
  const index_t cap = std::max<index_t>(3 * degree_, 1);
  scratch.cand_ids.resize(static_cast<std::size_t>(cap));
  scratch.cand_sq.resize(static_cast<std::size_t>(cap));
  index_t* cand_ids = scratch.cand_ids.data();
  real_t* cand_sq = scratch.cand_sq.data();

  index_t count = 0;
  // Every beam entry below `cursor` is expanded, so the nearest unexpanded
  // entry is found by scanning on from it; an insert below it pulls it back.
  index_t cursor = 0;
  // Sorted (sq, id) insert; ties break toward the smaller id, so the beam
  // contents are a deterministic function of the visited set alone.
  const auto insert = [&](real_t d, index_t id) {
    if (count == width) {
      const real_t wd = beam_sq[width - 1];
      const index_t wi = beam_ids[width - 1];
      if (d > wd || (d == wd && id > wi)) return;
    }
    index_t pos = count < width ? count : width - 1;
    while (pos > 0 && (beam_sq[pos - 1] > d ||
                       (beam_sq[pos - 1] == d && beam_ids[pos - 1] > id))) {
      beam_sq[pos] = beam_sq[pos - 1];
      beam_ids[pos] = beam_ids[pos - 1];
      expanded[pos] = expanded[pos - 1];
      --pos;
    }
    beam_sq[pos] = d;
    beam_ids[pos] = id;
    expanded[pos] = 0;
    if (count < width) ++count;
    cursor = std::min(cursor, pos);
  };

  // Scores cand_ids[0, m) and inserts each; the insert's own worst-entry
  // test turns away the ones that cannot enter.
  const auto eval_batch = [&](index_t m) {
    batch::row_sq_dists(rows, dim, cand_ids, m, query, cand_sq);
    scratch.dist_evals += static_cast<std::uint64_t>(m);
    for (index_t j = 0; j < m; ++j) insert(cand_sq[j], cand_ids[j]);
  };

  // Query-independent seeds: every component representative first (so no
  // part of the graph is unreachable at any width), then the build-time
  // pseudo-random permutation until `width` distinct entry points are in
  // -- spread across the dataset without aliasing against its ordering.
  index_t m = 0;
  index_t seeded = 0;
  const auto seed = [&](index_t id) {
    if (visited[id] == gen) return;
    visited[id] = gen;
    cand_ids[m++] = id;
    ++seeded;
    if (m == cap) {
      eval_batch(m);
      m = 0;
    }
  };
  for (const index_t rep : comp_reps_) seed(rep);
  for (index_t j = 0; j < n && seeded < width; ++j)
    seed(seed_order_[static_cast<std::size_t>(j)]);
  if (m > 0) eval_batch(m);

  // Best-first expansion: always the nearest unexpanded beam entry; stops
  // when the whole beam is expanded (anything discovered from here on would
  // have had to beat the current worst to enter the beam).
  const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(real_t);
  for (;;) {
    while (cursor < count && expanded[cursor]) ++cursor;
    if (cursor == count) break;
    expanded[cursor] = 1;
    ++scratch.hops;
    // Symmetrized expansion: forward row plus reverse edges. The forward
    // graph alone is short-range -- without the reverse edges a beam seeded
    // far from the query cannot walk into its true neighborhood.
    const index_t v = beam_ids[cursor];
    const index_t* row = neighbor_ids(v);
    const index_t* rev = reverse_ids(v);
    const index_t nrev = reverse_count(v);
    // Branch-free visited stamps: every candidate is written, and only an
    // unstamped one advances `fresh` (a stamped one is overwritten next).
    index_t fresh = 0;
    const auto visit = [&](index_t c) {
      cand_ids[fresh] = c;
      fresh += static_cast<index_t>(visited[c] != gen);
      visited[c] = gen;
    };
    for (index_t slot = 0; slot < degree_; ++slot) visit(row[slot]);
    for (index_t slot = 0; slot < nrev; ++slot) visit(rev[slot]);
    // Fetch the fresh candidates' rows ahead of the kernel's loads. This
    // pays once the points outgrow L2 (graph QPS +24% at n=16k, +47% at 60k,
    // d=32; EXPERIMENTS.md); at 4k it is neutral.
    for (index_t j = 0; j < fresh; ++j) {
      const char* p = reinterpret_cast<const char*>(rows + cand_ids[j] * dim);
      for (std::size_t b = 0; b < row_bytes; b += kCacheLineBytes)
        __builtin_prefetch(p + b);
    }
    if (fresh > 0) eval_batch(fresh);
  }

  const index_t filled = std::min<index_t>(k, count);
  for (index_t j = 0; j < filled; ++j) {
    out_sq[j] = beam_sq[j];
    out_ids[j] = beam_ids[j];
  }
  PORTAL_OBS_COUNT("index/graph/queries", 1);
  PORTAL_OBS_COUNT("index/graph/hops", scratch.hops);
  PORTAL_OBS_COUNT("index/graph/dist_evals", scratch.dist_evals);
  return filled;
}

} // namespace portal
