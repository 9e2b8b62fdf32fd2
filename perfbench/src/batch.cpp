// perfbench -- batch workloads: one all-rows solve through PortalExpr.
//
//   batch-knn  all-kNN, k = 10, Euclidean, d = 8 mixture (row-major storage:
//              SoA mirror + batched squared-distance tiles, prune rule)
//   batch-kde  Gaussian KDE (SUM, tau = 1e-6), d = 3 mixture (column-major
//              storage: Gaussian tiles, approximation rule)
//
// Every solve is a fresh PortalExpr, so it compiles, builds its tree and
// traverses. The parallel solves run kParallelThreads OpenMP threads, the
// 1-thread solves one; the two alternate so host drift hits both alike.
// Each 1-thread solve is timed beside the benchmark's reference work
// (Yardstick) on one CPU. The ratio follows the host's speed more closely
// the shorter the work between the two reference runs, so the sizes keep a
// 1-thread solve near 0.3 s.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/portal.h"
#include "core/ir/ir.h"
#include "obs/trace.h"
#include "tree/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using portal::index_t;

/// Fixed OpenMP team for the parallel solves (clamped to the CPUs this
/// process may use; the value is in the machine record).
constexpr int kParallelThreads = 2;
constexpr int kSetupReps = 5;
constexpr int kMinSolves = 3;
constexpr std::size_t kMinOneSolves = 12;
constexpr int kQualityRows = 256;
constexpr double kStageSumTolerance = 0.10;

struct BatchSpec {
  bool knn;
  int dim;
  int clusters;
  std::int64_t n;
  int k;         // knn
  double sigma;  // kde bandwidth
  double tau;    // kde approximation budget; tau * n must stay far below
                 // every row's exact sum (at least 1, the row itself) so the
                 // kde check has teeth
};

BatchSpec spec_for(const std::string& workload) {
  if (workload == "batch-knn") return {true, 8, 12, 24000, 10, 0, 0};
  return {false, 3, 8, 20000, 0, 0.18, 1e-6};
}

struct Solve {
  double wall_s = 0;
  double compile_s = 0, tree_s = 0, traversal_s = 0;
  portal::TraversalStats stats;
  portal::Storage out;
  std::string engine;
  double ir_nodes = 0;
};

Solve solve(const portal::Storage& data, const BatchSpec& spec, int threads) {
  omp_set_num_threads(threads);
  portal::PortalExpr expr;
  expr.addLayer(portal::PortalOp::FORALL, data);
  if (spec.knn)
    expr.addLayer({portal::PortalOp::KARGMIN, spec.k}, data,
                  portal::PortalFunc::EUCLIDEAN);
  else
    expr.addLayer(portal::PortalOp::SUM, data,
                  portal::PortalFunc::gaussian(spec.sigma));
  portal::PortalConfig config;
  config.tau = spec.tau;
  const double t0 = now_s();
  expr.execute(config);
  Solve s;
  s.wall_s = now_s() - t0;
  const portal::CompileArtifacts& a = expr.artifacts();
  s.compile_s = a.compile_seconds;
  s.tree_s = a.tree_build_seconds;
  s.traversal_s = a.traversal_seconds;
  s.stats = expr.stats();
  s.out = expr.getOutput();
  s.engine = a.chosen_engine;
  const portal::KernelInfo& kernel = expr.plan().kernel;
  s.ir_nodes = static_cast<double>(portal::ir_node_count(kernel.kernel_ir) +
                                   (kernel.envelope_ir
                                        ? portal::ir_node_count(kernel.envelope_ir)
                                        : 0));
  return s;
}

/// Share of sampled rows whose answer matches the benchmark's brute force.
/// k-NN is exact: every distance within 1e-9 relative, every returned id at
/// its slot's distance. KDE must stay within the approximation contract
/// |got - exact| <= tau * n per row (each approximated pair errs by <= tau);
/// the run fails if that budget is not below a tenth of a row's exact sum.
double check_quality(const Solve& s, const std::vector<double>& rows,
                     const BatchSpec& spec, const std::vector<std::int64_t>& sample) {
  int matched = 0;
  const int dim = spec.dim;
  for (const std::int64_t i : sample) {
    const double* q = rows.data() + i * dim;
    bool ok = true;
    if (spec.knn) {
      const std::vector<Neighbor> want = knn_reference(rows, dim, q, spec.k);
      std::vector<double> got_d, want_d;
      for (int j = 0; j < spec.k; ++j) {
        got_d.push_back(s.out.value(i, j));
        want_d.push_back(std::sqrt(want[static_cast<std::size_t>(j)].first));
        const index_t id = s.out.index_at(i, j);
        if (id < 0 || id >= spec.n) {
          ok = false;
          break;
        }
        const double id_d = std::sqrt(sq_dist(q, rows.data() + id * dim, dim));
        if (!distances_match({id_d}, {want_d.back()}, 1e-9)) ok = false;
      }
      ok = ok && distances_match(got_d, want_d, 1e-9);
    } else {
      const double inv = 1.0 / (2.0 * spec.sigma * spec.sigma);
      double exact = 0;
      for (std::int64_t r = 0; r < spec.n; ++r)
        exact += std::exp(-sq_dist(q, rows.data() + r * dim, dim) * inv);
      const double bound = spec.tau * static_cast<double>(spec.n) + 1e-9 * exact;
      if (bound >= exact / 10)
        fail("vacuous kde check: error budget " + std::to_string(bound) +
             " is not below a tenth of the exact sum " + std::to_string(exact));
      ok = std::abs(s.out.value(i, 0) - exact) <= bound;
    }
    matched += ok ? 1 : 0;
  }
  return static_cast<double>(matched) / static_cast<double>(sample.size());
}

void stage_sum_check(const std::vector<Solve>& solves) {
  std::vector<double> wall, stages;
  for (const Solve& s : solves) {
    wall.push_back(s.wall_s);
    stages.push_back(s.compile_s + s.tree_s + s.traversal_s);
  }
  const double w = median(wall), st = median(stages);
  if (std::abs(w - st) > kStageSumTolerance * w) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "stage-sum self-check: compile + tree + traversal = %.4f s "
                  "vs solve = %.4f s (more than %.0f%% apart)",
                  st, w, kStageSumTolerance * 100);
    fail(buf);
  }
}

}  // namespace

double tile_ns_per_pair(const portal::Dataset& data, double gaussian_inv,
                        double seconds) {
  const auto snap = portal::TreeSnapshot::build(
      std::make_shared<const portal::Dataset>(data), 1, portal::SnapshotOptions{});
  const portal::KdTree& kd = *snap->kd();
  std::vector<index_t> leaves;
  kd.for_each_leaf([&](index_t i) { leaves.push_back(i); });
  const portal::SoaMirror& mirror = kd.mirror();
  const int dim = static_cast<int>(data.dim());
  std::vector<double> q(static_cast<std::size_t>(dim));
  std::vector<double> out(static_cast<std::size_t>(kd.leaf_size()) * 4 + 64);
  double sink = 0;
  std::uint64_t pairs = 0;
  const double t0 = now_s();
  double elapsed = 0;
  while (elapsed < seconds) {
    for (std::size_t l = 0; l + 1 < leaves.size(); ++l) {
      const portal::KdNode& a = kd.node(leaves[l]);
      const portal::KdNode& b = kd.node(leaves[l + 1]);
      const portal::batch::Tile tile = mirror.tile(b.begin, b.count());
      for (index_t p = a.begin; p < a.end; ++p) {
        for (int d = 0; d < dim; ++d)
          q[static_cast<std::size_t>(d)] = mirror.lane(d)[p];
        portal::batch::sq_dists(tile, q.data(), out.data());
        sink += gaussian_inv > 0
                    ? portal::batch::gaussian_sq_sum(out.data(), tile.count, gaussian_inv)
                    : out[0];
        pairs += static_cast<std::uint64_t>(tile.count);
      }
    }
    elapsed = now_s() - t0;
  }
  if (sink == -1) std::printf("%g\n", sink);  // keep the work observable
  return elapsed * 1e9 / static_cast<double>(pairs);
}

void run_batch(const Args& args, Report& report) {
  const BatchSpec spec = spec_for(args.workload);
  const int threads = std::min(kParallelThreads, available_cpus());
  report.note(machine_record(args, threads, threads));

  // The mixture's shape is fixed per workload; the seed draws the points, so
  // runs on different seeds do comparable work.
  Rng shape(spec.knn ? 0x6b6e6eULL : 0x6b6465ULL);
  const Mixture mixture(spec.dim, spec.clusters, shape);
  Rng rng(args.seed);
  const std::vector<double> rows = mixture.rows(spec.n, rng);
  std::vector<std::int64_t> sample;
  for (int i = 0; i < kQualityRows; ++i)
    sample.push_back(static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(spec.n))));

  const auto make_storage = [&] {
    return portal::Storage(portal::Dataset::from_row_major(rows.data(), spec.n, spec.dim));
  };

  // Set-up: a cold solve from raw rows (fresh dataset copy, layout
  // conversion, fresh expression and tree cache) at one thread, because
  // parallel solve times can be bimodal (perfbench/README.md). The first one
  // in the process also pays first-touch costs; the median of kSetupReps is
  // reported.
  std::vector<double> setup;
  double quality = 1;
  for (int r = 0; r < (args.trace ? 1 : kSetupReps); ++r) {
    const double t0 = now_s();
    const portal::Storage cold = make_storage();
    const Solve s = solve(cold, spec, 1);
    setup.push_back(now_s() - t0);
    if (r == 0) quality = check_quality(s, rows, spec, sample);
  }
  if (quality < 1) fail("wrong answers on the first solve: quality " + std::to_string(quality));

  const portal::Storage data = make_storage();
  std::vector<Solve> par, one;
  const double deadline = now_s() + args.seconds * (args.trace ? 0.6 : 1.0);
  // Two 1-thread solves per parallel one: the gated figure gets the samples.
  // Resident memory grows with every solve in the process, so the peak is
  // read after the set-up and a fixed kMinSolves rounds: read at the end, it
  // would grow with solve speed.
  Yardstick yardstick;
  std::vector<double> one_rel, par_rel, reference_s;
  const auto timed_one = [&] {
    Solve s;
    const Yardstick::Timing t = yardstick.time([&] { s = solve(data, spec, 1); });
    one_rel.push_back(t.ratio());
    reference_s.push_back(t.reference_s);
    one.push_back(std::move(s));
  };
  double rss_mb = 0;
  while (now_s() < deadline || par.size() < kMinSolves || one.size() < kMinOneSolves) {
    timed_one();
    {
      Solve s;
      par_rel.push_back(yardstick.time([&] { s = solve(data, spec, threads); }, false).ratio());
      par.push_back(std::move(s));
    }
    timed_one();
    if (par.size() == kMinSolves) rss_mb = peak_rss_mb();
  }
  const double q_last = check_quality(par.back(), rows, spec, sample);
  if (q_last < 1) fail("wrong answers on a warm solve: quality " + std::to_string(q_last));
  stage_sum_check(par);
  stage_sum_check(one);
  report.attempted = par.size() + one.size() + setup.size();

  std::vector<double> par_s, one_s;
  for (const Solve& s : par) par_s.push_back(s.wall_s);
  for (const Solve& s : one) one_s.push_back(s.wall_s);

  if (!args.trace) {
    // Parallel solves: on some hosts a share of them get no speedup at all
    // (perfbench/README.md), so they are reported, not gated.
    report.metric("setup_s", median(setup), "s");
    report.metric("solve_1t_rel", median(one_rel), "ratio");
    report.metric("quality", std::min(quality, q_last), "ratio");
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.info("solve_1t_s", median(one_s), "s");
    report.info("reference_s", median(reference_s), "s");
    report.info("solve_s", median(par_s), "s");
    report.info("solve_rel", median(par_rel), "ratio");
    report.info("capacity_qps", static_cast<double>(spec.n) / median(par_s), "1/s");
    std::string times = "parallel solve s:";
    for (double t : par_s) {
      times += ' ';
      times += std::to_string(t);
    }
    report.note(times);
    report.note("engine: " + par.back().engine + ", parallel solves " +
                std::to_string(par.size()) + ", 1-thread solves " +
                std::to_string(one.size()));
    return;
  }

  // Traced run: alternate untraced and traced 1-thread solves for the
  // overhead ratio; the traced ones feed the obs counters and timers.
  std::vector<double> untraced, traced;
  portal::obs::set_enabled(true);
  portal::obs::reset();
  portal::obs::set_enabled(false);
  Solve last_traced;
  const double deadline2 = now_s() + args.seconds * 0.3;
  int traced_solves = 0;
  while (now_s() < deadline2 || traced_solves < 2) {
    untraced.push_back(solve(data, spec, 1).wall_s);
    portal::obs::set_enabled(true);
    last_traced = solve(data, spec, 1);
    portal::obs::set_enabled(false);
    traced.push_back(last_traced.wall_s);
    ++traced_solves;
  }
  const portal::obs::TraceReport trace = portal::obs::collect();
  const double per = 1.0 / traced_solves;

  std::vector<double> trav_par, trav_one, compile_ms, tree_ms;
  for (const Solve& s : par) {
    trav_par.push_back(s.traversal_s);
    compile_ms.push_back(s.compile_s * 1e3);
    tree_ms.push_back(s.tree_s * 1e3);
  }
  for (const Solve& s : one) trav_one.push_back(s.traversal_s);

  report.metric("core.compile_ms", median(compile_ms), "ms");
  report.metric("core.ir_nodes_out", last_traced.ir_nodes, "count");
  report.metric("tree.build_ms", median(tree_ms), "ms");
  report.metric("tree.soa_mirror_ms", trace.timer_seconds("tree/soa_mirror") * 1e3 * per, "ms");
  report.metric("traversal.ms", median(trav_par) * 1e3, "ms");
  const portal::TraversalStats& st = last_traced.stats;
  report.metric("traversal.pairs_visited", static_cast<double>(st.pairs_visited), "count");
  report.metric("traversal.prunes", static_cast<double>(st.prunes), "count");
  report.metric("traversal.base_cases", static_cast<double>(st.base_cases), "count");
  report.metric("traversal.prune_ratio",
                st.pairs_visited ? static_cast<double>(st.prunes) / st.pairs_visited : 0,
                "ratio");
  report.metric("traversal.parallel_speedup", median(trav_one) / median(trav_par), "ratio");
  const double batch_pairs = static_cast<double>(trace.counter("base/batch_pairs"));
  const double scalar_pairs = static_cast<double>(trace.counter("base/scalar_pairs"));
  report.metric("kernels.batch_pair_ratio",
                batch_pairs + scalar_pairs > 0 ? batch_pairs / (batch_pairs + scalar_pairs) : 0,
                "ratio");
  omp_set_num_threads(1);
  report.metric("kernels.tile_ns_per_pair",
                tile_ns_per_pair(data.dataset(),
                                 spec.knn ? 0 : 1.0 / (2.0 * spec.sigma * spec.sigma),
                                 args.seconds * 0.1),
                "ns");
  report.metric("obs.trace_overhead_ratio", median(traced) / median(untraced), "ratio");
}

}  // namespace perfbench
