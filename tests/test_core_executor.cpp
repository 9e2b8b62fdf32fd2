// Tests for the generic execution engine across the full operator algebra:
// every inner reduction kind, max-like sense handling, UNION value
// collection, scalar outer reductions over each inner kind, Mahalanobis
// pruning bounds, and the label-exclusion constraint -- each checked against
// the compiler's own brute-force program or a hand progress oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/codegen/jit.h"
#include "core/portal.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "problems/knn.h"

namespace portal {
namespace {

PortalConfig vm_config() {
  PortalConfig config;
  config.parallel = false;
  config.engine = Engine::VM;
  return config;
}

/// Kernel values for query i against every reference point (oracle helper).
std::vector<real_t> kernel_row(const Dataset& q, const Dataset& r, index_t i,
                               const std::function<real_t(real_t)>& env) {
  std::vector<real_t> out(r.size());
  for (index_t j = 0; j < r.size(); ++j) {
    real_t sq = 0;
    for (index_t d = 0; d < q.dim(); ++d) {
      const real_t diff = q.coord(i, d) - r.coord(j, d);
      sq += diff * diff;
    }
    out[j] = env(std::sqrt(sq));
  }
  return out;
}

TEST(Executor, KmaxFindsLargestDistances) {
  const Dataset qd = make_gaussian_mixture(60, 3, 2, 1);
  const Dataset rd = make_gaussian_mixture(120, 3, 2, 2);
  Storage query(qd), reference(rd);

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer({PortalOp::KMAX, 3}, reference, PortalFunc::EUCLIDEAN);
  expr.execute(vm_config());
  Storage out = expr.getOutput();

  for (index_t i = 0; i < qd.size(); ++i) {
    std::vector<real_t> row = kernel_row(qd, rd, i, [](real_t d) { return d; });
    std::sort(row.rbegin(), row.rend());
    for (index_t j = 0; j < 3; ++j)
      EXPECT_NEAR(out.value(i, j), row[j], 1e-9) << i << "," << j;
    // Descending magnitudes reported largest-first.
    EXPECT_GE(out.value(i, 0), out.value(i, 2));
  }
}

TEST(Executor, KargmaxIndicesAreFarthestPoints) {
  const Dataset qd = make_gaussian_mixture(40, 2, 2, 3);
  const Dataset rd = make_gaussian_mixture(90, 2, 2, 4);
  Storage query(qd), reference(rd);

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer({PortalOp::KARGMAX, 2}, reference, PortalFunc::EUCLIDEAN);
  expr.execute(vm_config());
  Storage out = expr.getOutput();
  ASSERT_TRUE(out.has_indices());

  for (index_t i = 0; i < qd.size(); ++i) {
    const std::vector<real_t> row =
        kernel_row(qd, rd, i, [](real_t d) { return d; });
    const index_t argmax =
        std::max_element(row.begin(), row.end()) - row.begin();
    EXPECT_EQ(out.index_at(i, 0), argmax);
    EXPECT_NEAR(out.value(i, 0), row[argmax], 1e-9);
  }
}

TEST(Executor, ProdReduction) {
  // prod_r K(q, r) with a Gaussian kernel: strictly positive, <= 1 per term.
  const Dataset qd = make_uniform(20, 2, 5);
  const Dataset rd = make_uniform(15, 2, 6);
  Storage query(qd), reference(rd);

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer(PortalOp::PROD, reference, PortalFunc::gaussian(2.0));
  PortalConfig config = vm_config();
  config.tau = 0;
  expr.execute(config);
  Storage out = expr.getOutput();

  for (index_t i = 0; i < qd.size(); ++i) {
    const std::vector<real_t> row = kernel_row(
        qd, rd, i, [](real_t d) { return std::exp(-d * d / 8.0); });
    real_t expected = 1;
    for (real_t v : row) expected *= v;
    EXPECT_NEAR(out.value(i), expected,
                1e-9 * std::max(expected, real_t(1e-30)));
  }
}

TEST(Executor, UnionCollectsKernelValues) {
  // UNION keeps (value, index) pairs where the kernel is non-zero.
  const Dataset qd = make_gaussian_mixture(30, 2, 2, 7);
  Storage data(qd);
  Var q, r;
  const Expr d = sqrt(pow(Expr(q) - Expr(r), 2));

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  expr.addLayer(PortalOp::UNION, r, data, (d < Expr(1.0)) * d);
  expr.execute(vm_config());
  Storage out = expr.getOutput();
  ASSERT_TRUE(out.has_lists());

  for (index_t i = 0; i < qd.size(); ++i) {
    const std::vector<real_t> row =
        kernel_row(qd, qd, i, [](real_t dd) { return dd < 1.0 ? dd : 0.0; });
    index_t nonzero = 0;
    for (real_t v : row)
      if (v != 0) ++nonzero;
    ASSERT_EQ(out.list_size(i), nonzero) << "query " << i;
  }
}

TEST(Executor, ScalarOuterReductions) {
  const Dataset qd = make_gaussian_mixture(80, 3, 2, 8);
  const Dataset rd = make_gaussian_mixture(60, 3, 2, 9);
  Storage a(qd), b(rd);

  // Oracle: per-query nearest distance.
  std::vector<real_t> nn(qd.size());
  for (index_t i = 0; i < qd.size(); ++i) {
    const std::vector<real_t> row =
        kernel_row(qd, rd, i, [](real_t d) { return d; });
    nn[i] = *std::min_element(row.begin(), row.end());
  }

  { // MIN of MIN: the closest pair distance.
    PortalExpr expr;
    expr.addLayer(PortalOp::MIN, a);
    expr.addLayer(PortalOp::MIN, b, PortalFunc::EUCLIDEAN);
    expr.execute(vm_config());
    EXPECT_NEAR(expr.getOutput().scalar(),
                *std::min_element(nn.begin(), nn.end()), 1e-9);
  }
  { // SUM of MIN: total nearest-neighbor distance.
    PortalExpr expr;
    expr.addLayer(PortalOp::SUM, a);
    expr.addLayer(PortalOp::MIN, b, PortalFunc::EUCLIDEAN);
    expr.execute(vm_config());
    real_t expected = 0;
    for (real_t v : nn) expected += v;
    EXPECT_NEAR(expr.getOutput().scalar(), expected, 1e-7);
  }
  { // MAX of MIN: directed Hausdorff (generic engine; no pattern dispatch
    // because the VM engine is forced).
    PortalExpr expr;
    expr.addLayer(PortalOp::MAX, a);
    expr.addLayer(PortalOp::MIN, b, PortalFunc::EUCLIDEAN);
    expr.execute(vm_config());
    EXPECT_NEAR(expr.getOutput().scalar(),
                *std::max_element(nn.begin(), nn.end()), 1e-9);
  }
  { // SUM of SUM over a Gaussian: total affinity.
    PortalExpr expr;
    expr.addLayer(PortalOp::SUM, a);
    expr.addLayer(PortalOp::SUM, b, PortalFunc::gaussian(1.0));
    PortalConfig config = vm_config();
    config.tau = 0;
    expr.execute(config);
    real_t expected = 0;
    for (index_t i = 0; i < qd.size(); ++i)
      for (real_t v :
           kernel_row(qd, rd, i, [](real_t d) { return std::exp(-d * d / 2); }))
        expected += v;
    EXPECT_NEAR(expr.getOutput().scalar(), expected, 1e-6 * expected);
  }
}

TEST(Executor, MahalanobisKnnPrunesSoundly) {
  // Mahalanobis metric k-NN runs through the generic engine with
  // eigenvalue-scaled box bounds -- conservative, so results must equal the
  // brute-force program exactly.
  const Dataset qd = make_gaussian_mixture(600, 3, 6, 10);
  const Dataset rd = make_gaussian_mixture(1200, 3, 6, 11);
  Storage query(qd), reference(rd);

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer({PortalOp::KARGMIN, 3}, reference, PortalFunc::MAHALANOBIS);
  PortalConfig config = vm_config();
  config.leaf_size = 16;
  expr.execute(config);
  Storage tree_out = expr.getOutput();

  PortalExpr oracle;
  oracle.addLayer(PortalOp::FORALL, query);
  oracle.addLayer({PortalOp::KARGMIN, 3}, reference, PortalFunc::MAHALANOBIS);
  oracle.setConfig(vm_config());
  Storage brute_out = oracle.executeBruteForce();

  for (index_t i = 0; i < qd.size(); ++i)
    for (index_t j = 0; j < 3; ++j)
      EXPECT_NEAR(tree_out.value(i, j), brute_out.value(i, j), 1e-9);
  EXPECT_GT(expr.stats().prunes, 0u);
}

TEST(Executor, ChebyshevAndManhattanPrograms) {
  const Dataset qd = make_gaussian_mixture(80, 4, 2, 12);
  const Dataset rd = make_gaussian_mixture(150, 4, 2, 13);
  Storage query(qd), reference(rd);

  struct Case {
    PortalFunc func;
    MetricKind metric;
  };
  for (const Case& c : {Case{PortalFunc::MANHATTAN, MetricKind::Manhattan},
                        Case{PortalFunc::CHEBYSHEV, MetricKind::Chebyshev}}) {
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query);
    expr.addLayer(PortalOp::MIN, reference, c.func);
    expr.execute(vm_config());
    Storage out = expr.getOutput();
    const KnnResult brute = knn_bruteforce(qd, rd, 1, c.metric);
    for (index_t i = 0; i < qd.size(); ++i)
      EXPECT_NEAR(out.value(i), brute.distances[i], 1e-9);
  }
}

TEST(Executor, LabelsExcludeSameGroup) {
  const Dataset data = make_gaussian_mixture(120, 2, 2, 14);
  Storage storage(data);
  std::vector<index_t> labels(data.size());
  for (index_t i = 0; i < data.size(); ++i) labels[i] = i % 5;

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, storage);
  expr.addLayer(PortalOp::ARGMIN, storage, PortalFunc::EUCLIDEAN);
  PortalConfig config = vm_config();
  config.exclude_same_label = &labels;
  expr.execute(config);
  Storage out = expr.getOutput();

  for (index_t i = 0; i < data.size(); ++i) {
    const index_t to = out.index_at(i);
    ASSERT_GE(to, 0);
    EXPECT_NE(labels[to], labels[i]) << "same-label candidate survived";
    // And it is the true nearest foreign point.
    const std::vector<real_t> row =
        kernel_row(data, data, i, [](real_t d) { return d; });
    real_t best = std::numeric_limits<real_t>::max();
    for (index_t j = 0; j < data.size(); ++j)
      if (labels[j] != labels[i]) best = std::min(best, row[j]);
    EXPECT_NEAR(out.value(i), best, 1e-9);
  }
}

TEST(Executor, LabelsValidation) {
  const Dataset a = make_uniform(20, 2, 15);
  const Dataset b = make_uniform(20, 2, 16);
  Storage sa(a), sb(b);
  std::vector<index_t> labels(20, 0);

  { // labels require a shared dataset
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, sa);
    expr.addLayer(PortalOp::ARGMIN, sb, PortalFunc::EUCLIDEAN);
    PortalConfig config = vm_config();
    config.exclude_same_label = &labels;
    EXPECT_THROW(expr.execute(config), std::invalid_argument);
  }
  { // size mismatch
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, sa);
    expr.addLayer(PortalOp::ARGMIN, sa, PortalFunc::EUCLIDEAN);
    std::vector<index_t> wrong(19, 0);
    PortalConfig config = vm_config();
    config.exclude_same_label = &wrong;
    EXPECT_THROW(expr.execute(config), std::invalid_argument);
  }
}

TEST(Executor, ForallForallMemoryGuard) {
  const Dataset big = make_uniform(20000, 2, 17);
  Storage storage(big);
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, storage);
  expr.addLayer(PortalOp::FORALL, storage, PortalFunc::gaussian(1.0));
  EXPECT_THROW(expr.execute(vm_config()), std::invalid_argument);
}

TEST(Executor, ScalarOuterRequiresScalarInner) {
  const Dataset data = make_uniform(30, 2, 18);
  Storage storage(data);
  PortalExpr expr;
  expr.addLayer(PortalOp::SUM, storage);
  expr.addLayer({PortalOp::KMIN, 3}, storage, PortalFunc::EUCLIDEAN);
  EXPECT_THROW(expr.execute(vm_config()), std::invalid_argument);
}

TEST(Executor, TreeCacheSharingAcrossExpressions) {
  const Dataset data = make_gaussian_mixture(400, 3, 2, 19);
  Storage storage(data);

  PortalExpr first;
  first.addLayer(PortalOp::FORALL, storage);
  first.addLayer(PortalOp::ARGMIN, storage, PortalFunc::EUCLIDEAN);
  first.execute(vm_config());
  const double cold_tree = first.artifacts().tree_build_seconds;

  PortalExpr second;
  second.setTreeCache(first.treeCache());
  second.addLayer(PortalOp::FORALL, storage);
  second.addLayer({PortalOp::KARGMIN, 2}, storage, PortalFunc::EUCLIDEAN);
  second.execute(vm_config());
  // Cache hit: effectively no tree time on the second expression.
  EXPECT_LT(second.artifacts().tree_build_seconds, cold_tree / 2 + 1e-4);

  // Results still correct.
  const KnnResult brute = knn_bruteforce(data, data, 2);
  Storage out = second.getOutput();
  for (index_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(out.value(i, 0), brute.distances[i * 2], 1e-9);
}

TEST(Executor, ValidationCatchesApproximationWithinTau) {
  // validate = true on an approximation problem must pass (tau-derived
  // tolerance) rather than reporting spurious mismatches.
  const Dataset data = make_gaussian_mixture(300, 3, 3, 20);
  Storage storage(data);
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, storage);
  expr.addLayer(PortalOp::SUM, storage, PortalFunc::gaussian(1.0));
  PortalConfig config = vm_config();
  config.tau = 1e-2;
  config.validate = true;
  EXPECT_NO_THROW(expr.execute(config));
}

// tau = 0 means exact. Clusters of duplicates give node pairs whose
// envelope spread is exactly zero, which a bare "spread <= tau" test would
// still replace by count x centre value; the rule core approximates only
// when tau > 0, on every engine.
TEST(Executor, TauZeroNeverApproximates) {
  Dataset data(256, 3); // 4 distinct points x 64 copies
  for (index_t i = 0; i < data.size(); ++i)
    for (index_t d = 0; d < 3; ++d) data.coord(i, d) = i % 4 == d ? 1.5 : 0;
  Storage storage(data);

  std::vector<Engine> engines = {Engine::VM};
  if (jit_available()) engines.push_back(Engine::JIT);
  for (const Engine engine : engines) {
    SCOPED_TRACE(engine_name(engine));
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, storage);
    expr.addLayer(PortalOp::SUM, storage, PortalFunc::gaussian(0.8));
    PortalConfig config = vm_config();
    config.engine = engine;
    config.leaf_size = 8;
    config.tau = 0;
    config.tau_explicit = true;
    obs::set_enabled(true);
    obs::reset();
    expr.execute(config);
    const obs::TraceReport report = obs::collect();
    obs::set_enabled(false);
    obs::reset();
    EXPECT_EQ(report.counter("rules/approximations"), 0u);

    const Storage out = expr.getOutput();
    const Storage brute = expr.executeBruteForce();
    for (index_t i = 0; i < data.size(); ++i)
      EXPECT_NEAR(out.value(i, 0), brute.value(i, 0), 1e-12) << "query " << i;
  }
}

TEST(Executor, EmptyDatasetRejected) {
  Storage empty(Dataset(0, 2));
  Storage ok(make_uniform(10, 2, 21));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, ok);
  expr.addLayer(PortalOp::ARGMIN, empty, PortalFunc::EUCLIDEAN);
  EXPECT_THROW(expr.execute(vm_config()), std::invalid_argument);
}

} // namespace
} // namespace portal

// ---------------------------------------------------------------------------
// Leaf-size auto-tuning (paper Sec. V-B as a feature: leaf_size = 0).
#include "core/tuner.h"

namespace portal {
namespace {

TEST(Tuner, PicksACandidateAndRunsCorrectly) {
  const Dataset data = make_gaussian_mixture(2000, 3, 3, 30);
  Storage storage(data);

  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, storage);
  expr.addLayer({PortalOp::KARGMIN, 3}, storage, PortalFunc::EUCLIDEAN);
  PortalConfig config;
  config.parallel = false;
  config.leaf_size = 0; // auto-tune
  expr.execute(config);
  Storage out = expr.getOutput();

  // The tuner must have picked a real candidate and recorded it.
  EXPECT_NE(expr.artifacts().pipeline_trace.find("leaf-size tuner"),
            std::string::npos);

  // Results still exact.
  const KnnResult brute = knn_bruteforce(data, data, 3);
  for (index_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(out.value(i, 0), brute.distances[i * 3], 1e-9);
}

TEST(Tuner, ReportsProbeTimings) {
  const Dataset data = make_gaussian_mixture(1500, 3, 3, 31);
  Storage storage(data);
  std::vector<LayerSpec> layers(2);
  layers[0].op = OpSpec(PortalOp::FORALL);
  layers[0].storage = storage;
  layers[1].op = OpSpec(PortalOp::ARGMIN);
  layers[1].storage = storage;
  layers[1].func = PortalFunc::EUCLIDEAN;

  PortalConfig config;
  config.parallel = false;
  const TuneReport report = tune_leaf_size(layers, config, {8, 32, 128}, 1000);
  ASSERT_EQ(report.probes.size(), 3u);
  bool found = false;
  for (const auto& [leaf, seconds] : report.probes) {
    EXPECT_GT(seconds, 0.0);
    if (leaf == report.best_leaf_size) found = true;
  }
  EXPECT_TRUE(found);
}

} // namespace
} // namespace portal
