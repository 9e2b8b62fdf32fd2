// Tests for the IR dataflow analysis framework (src/core/analysis/):
// kernel-property inference (intervals, monotonicity, symmetry, legality
// facts) and the PTL-Wxxx lint pass. Every warning code gets a firing AND a
// non-firing program, per the append-only diagnostics contract
// (docs/DIAGNOSTICS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/analysis/dataflow.h"
#include "core/analysis/lint.h"
#include "core/portal.h"
#include "data/generators.h"

namespace portal {
namespace {

constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

bool has_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  for (const Diagnostic& d : diags)
    if (d.code == code) return true;
  return false;
}

Storage cluster_at(real_t center, index_t n = 40, index_t dim = 3,
                   unsigned seed = 7) {
  Dataset base = make_gaussian_mixture(n, dim, 1, seed);
  for (index_t i = 0; i < base.size(); ++i)
    for (index_t d = 0; d < dim; ++d) base.coord(i, d) += center;
  return Storage(std::move(base));
}

// -- kernel-property inference ----------------------------------------------

TEST(AnalysisFacts, KnnChainProvesIdentityEnvelope) {
  Storage query(make_gaussian_mixture(80, 3, 2, 11));
  Storage reference(make_gaussian_mixture(150, 3, 2, 12));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer({PortalOp::KARGMIN, 3}, reference, PortalFunc::EUCLIDEAN);
  expr.compile();

  const KernelFacts& facts = expr.plan().facts;
  EXPECT_TRUE(facts.envelope_identity);
  EXPECT_FALSE(facts.envelope_indicator);
  EXPECT_EQ(facts.mono, Monotonicity::NonDecreasing);
  EXPECT_EQ(facts.mono_confidence, FactConfidence::Proven);
  EXPECT_TRUE(facts.reduction_prune_legal);
  EXPECT_FALSE(facts.indicator_prune_legal);
  EXPECT_FALSE(facts.approx_legal);
  // KARGMIN breaks commutativity at kernel-value ties.
  EXPECT_FALSE(facts.accum_commutative);
  EXPECT_FALSE(facts.accum_associative);
  // Normalized kernel: pair dependence flows only through the symmetric
  // distance.
  EXPECT_TRUE(facts.symmetric);
  // Distance bounds come from the actual bounding boxes.
  EXPECT_GE(facts.dist_lo, 0);
  EXPECT_LT(facts.dist_hi, kInf);
  EXPECT_FALSE(facts.may_nan);
}

TEST(AnalysisFacts, GaussianKernelProvenNonIncreasing) {
  Storage data(make_gaussian_mixture(120, 3, 2, 21));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.8));
  expr.compile();

  const KernelFacts& facts = expr.plan().facts;
  EXPECT_EQ(facts.mono, Monotonicity::NonIncreasing);
  EXPECT_EQ(facts.mono_confidence, FactConfidence::Proven);
  EXPECT_TRUE(facts.approx_legal);
  EXPECT_FALSE(facts.reduction_prune_legal);
  // exp(-d^2 / 2s^2) lives in (0, 1] on the achievable distance range.
  EXPECT_GE(facts.value_lo, 0);
  EXPECT_LE(facts.value_hi, 1 + 1e-12);
  EXPECT_FALSE(facts.may_nan);
  EXPECT_TRUE(facts.accum_commutative);
  EXPECT_TRUE(facts.accum_associative);
}

TEST(AnalysisFacts, IndicatorChainFacts) {
  Storage data(make_gaussian_mixture(100, 3, 2, 31));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::UNIONARG, data, PortalFunc::indicator(0.1, 1.5));
  expr.compile();

  const KernelFacts& facts = expr.plan().facts;
  EXPECT_TRUE(facts.envelope_indicator);
  EXPECT_TRUE(facts.indicator_prune_legal);
  EXPECT_FALSE(facts.reduction_prune_legal);
  // A step function is not monotone.
  EXPECT_NE(facts.mono_confidence, FactConfidence::Proven);
}

TEST(AnalysisFacts, ExternalKernelIsOpaque) {
  Storage data(make_gaussian_mixture(60, 3, 1, 41));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(
      PortalOp::SUM, data,
      [](const real_t* a, const real_t* b, index_t dim) {
        real_t s = 0;
        for (index_t d = 0; d < dim; ++d) s += a[d] * b[d];
        return s;
      },
      "dot");
  expr.compile();

  const KernelFacts& facts = expr.plan().facts;
  EXPECT_FALSE(facts.symmetric); // no structural view into the callable
  EXPECT_FALSE(facts.envelope_identity);
  EXPECT_FALSE(facts.reduction_prune_legal);
  EXPECT_FALSE(facts.approx_legal);
  EXPECT_EQ(facts.mono, Monotonicity::Unknown);
}

// -- the interval/monotonicity sweep itself ---------------------------------

TEST(AnalysisSweep, IntervalAndMonotonicityRules) {
  AnalysisInputs in;
  in.dist_lo = 1;
  in.dist_hi = 4;

  auto dist = std::make_shared<IrExpr>();
  dist->op = IrOp::Dist;
  auto c2 = std::make_shared<IrExpr>();
  c2->op = IrOp::Const;
  c2->value = 2;

  // 2 * d: range [2, 8], non-decreasing.
  auto mul = std::make_shared<IrExpr>();
  mul->op = IrOp::Mul;
  mul->children = {c2, dist};
  ExprFacts f = analyze_expr(mul, in);
  EXPECT_DOUBLE_EQ(f.range.lo, 2);
  EXPECT_DOUBLE_EQ(f.range.hi, 8);
  EXPECT_EQ(f.mono, Monotonicity::NonDecreasing);
  EXPECT_TRUE(f.depends_on_dist);

  // -d: flips direction.
  auto neg = std::make_shared<IrExpr>();
  neg->op = IrOp::Neg;
  neg->children = {dist};
  f = analyze_expr(neg, in);
  EXPECT_EQ(f.mono, Monotonicity::NonIncreasing);
  EXPECT_DOUBLE_EQ(f.range.lo, -4);
  EXPECT_DOUBLE_EQ(f.range.hi, -1);

  // 2 / d: decreasing, range [1/2, 2].
  auto div = std::make_shared<IrExpr>();
  div->op = IrOp::Div;
  div->children = {c2, dist};
  f = analyze_expr(div, in);
  EXPECT_EQ(f.mono, Monotonicity::NonIncreasing);
  EXPECT_DOUBLE_EQ(f.range.lo, 0.5);
  EXPECT_DOUBLE_EQ(f.range.hi, 2);
  EXPECT_FALSE(f.range.may_nan);

  // d - d is treated conservatively (no cancellation in interval land).
  auto sub = std::make_shared<IrExpr>();
  sub->op = IrOp::Sub;
  sub->children = {dist, dist};
  f = analyze_expr(sub, in);
  EXPECT_EQ(f.mono, Monotonicity::Unknown);

  // Coordinate loads poison monotonicity-in-distance.
  auto q = std::make_shared<IrExpr>();
  q->op = IrOp::LoadQCoord;
  auto mixed = std::make_shared<IrExpr>();
  mixed->op = IrOp::Add;
  mixed->children = {dist, q};
  f = analyze_expr(mixed, in);
  EXPECT_EQ(f.mono, Monotonicity::Unknown);
  EXPECT_TRUE(f.depends_on_coords);
}

TEST(AnalysisSweep, DivisionByIntervalContainingZeroMayNan) {
  AnalysisInputs in;
  in.dist_lo = 0;
  in.dist_hi = 4;
  auto dist = std::make_shared<IrExpr>();
  dist->op = IrOp::Dist;
  auto one = std::make_shared<IrExpr>();
  one->op = IrOp::Const;
  one->value = 1;
  auto div = std::make_shared<IrExpr>();
  div->op = IrOp::Div;
  div->children = {one, dist};
  const ExprFacts f = analyze_expr(div, in);
  // 1/[0,4]: unbounded, but 1/0 = inf, not NaN.
  EXPECT_FALSE(f.range.may_nan);

  auto div00 = std::make_shared<IrExpr>();
  div00->op = IrOp::Div;
  div00->children = {dist, dist};
  EXPECT_TRUE(analyze_expr(div00, in).range.may_nan); // 0/0 possible
}

TEST(AnalysisSweep, StructuralSymmetry) {
  Var q, r;
  (void)q;
  (void)r;
  auto load_q = std::make_shared<IrExpr>();
  load_q->op = IrOp::LoadQCoord;
  auto load_r = std::make_shared<IrExpr>();
  load_r->op = IrOp::LoadRCoord;
  auto sub = std::make_shared<IrExpr>();
  sub->op = IrOp::Sub;
  sub->children = {load_q, load_r};
  // q - r swaps to r - q: not structurally identical.
  EXPECT_FALSE(ir_kernel_symmetric(sub));
  // A kernel with no coordinate dependence is trivially symmetric.
  auto c = std::make_shared<IrExpr>();
  c->op = IrOp::Const;
  c->value = 3;
  EXPECT_TRUE(ir_kernel_symmetric(c));
  EXPECT_TRUE(ir_structurally_equal(sub, sub));
  EXPECT_FALSE(ir_structurally_equal(sub, c));
}

// -- PTL-W101: constant kernel ----------------------------------------------

TEST(Lint, W101FiresOnConstantKernel) {
  Storage data(make_gaussian_mixture(50, 3, 1, 51));
  Var q, r;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  expr.addLayer(PortalOp::SUM, r, data, Expr(2.0) + Expr(1.0));
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W101"));
}

TEST(Lint, W101QuietOnDistanceKernel) {
  Storage data(make_gaussian_mixture(50, 3, 1, 52));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(1.0));
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W101"));
}

// -- PTL-W102: unsatisfiable prune condition --------------------------------

TEST(Lint, W102FiresWhenIndicatorDisjointFromData) {
  // Two clusters ~100 apart; the shell [0.5, 1.5] can never hold.
  Storage a = cluster_at(0);
  Storage b = cluster_at(100);
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, a);
  expr.addLayer(PortalOp::UNIONARG, b, PortalFunc::indicator(0.5, 1.5));
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W102"));
}

TEST(Lint, W102QuietWhenIndicatorAchievable) {
  Storage data(make_gaussian_mixture(100, 3, 2, 53));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::UNIONARG, data, PortalFunc::indicator(0.1, 1.5));
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W102"));
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W103"));
}

// -- PTL-W103: always-true prune condition ----------------------------------

TEST(Lint, W103FiresWhenIndicatorCoversEverything) {
  Storage data(make_gaussian_mixture(80, 3, 2, 54));
  Var q, r;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  // d < 1e9 holds for every achievable pair: selects all, prunes nothing.
  expr.addLayer(PortalOp::SUM, r, data,
                sqrt(pow(Expr(q) - Expr(r), 2)) < Expr(1e9));
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W103"));
}

TEST(Lint, W103QuietWhenBoundBites) {
  Storage data(make_gaussian_mixture(80, 3, 2, 55));
  Var q, r;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  expr.addLayer(PortalOp::SUM, r, data,
                sqrt(pow(Expr(q) - Expr(r), 2)) < Expr(1.0));
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W103"));
}

// -- PTL-W104: guaranteed non-finite kernel ---------------------------------

TEST(Lint, W104FiresOnGuaranteedNaN) {
  Storage data(make_gaussian_mixture(50, 3, 1, 56));
  Var q, r;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  // log(-1 - d): argument is <= -1 for every pair -> NaN always.
  expr.addLayer(PortalOp::SUM, r, data,
                log(Expr(-1.0) - sqrt(pow(Expr(q) - Expr(r), 2))));
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W104"));
}

TEST(Lint, W104QuietOnFiniteKernel) {
  Storage data(make_gaussian_mixture(50, 3, 1, 57));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.5));
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W104"));
}

// -- PTL-W105: pruning traversal without a usable prune rule ----------------

TEST(Lint, W105FiresOnOpaqueKernelUnderArgmin) {
  Storage data(make_gaussian_mixture(60, 3, 2, 58));
  Var q, r;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, q, data);
  // A dot-product kernel reaches coordinates outside the distance atom, so
  // no envelope exists and ARGMIN cannot prune.
  expr.addLayer(PortalOp::ARGMIN, r, data, dimsum(Expr(q) * Expr(r)));
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W105"));
}

TEST(Lint, W105QuietOnPrunableChain) {
  Storage data(make_gaussian_mixture(60, 3, 2, 59));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::ARGMIN, data, PortalFunc::EUCLIDEAN);
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W105"));
}

// -- PTL-W106: tau supplied to a family that ignores it ---------------------

TEST(Lint, W106FiresWhenTauIgnored) {
  Storage data(make_gaussian_mixture(60, 3, 2, 60));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer({PortalOp::KARGMIN, 3}, data, PortalFunc::EUCLIDEAN);
  PortalConfig config;
  config.tau = 0.01;
  config.tau_explicit = true; // as `set tau = ...` / --tau mark it
  expr.setConfig(config);
  expr.compile();
  EXPECT_TRUE(has_code(expr.artifacts().lint_diagnostics, "PTL-W106"));
}

TEST(Lint, W106QuietWhenTauDrivesApproximation) {
  Storage data(make_gaussian_mixture(60, 3, 2, 61));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.8));
  PortalConfig config;
  config.tau = 0.01;
  config.tau_explicit = true;
  expr.setConfig(config);
  expr.compile();
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W106"));
}

TEST(Lint, W106QuietWhenTauDefaulted) {
  Storage data(make_gaussian_mixture(60, 3, 2, 62));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer({PortalOp::KARGMIN, 3}, data, PortalFunc::EUCLIDEAN);
  expr.compile(); // tau not explicitly set: nothing to warn about
  EXPECT_FALSE(has_code(expr.artifacts().lint_diagnostics, "PTL-W106"));
}

// -- facts on the compiled plan ---------------------------------------------

TEST(AnalysisGating, FactsCachedOnPlanNextToFingerprint) {
  Storage data(make_gaussian_mixture(60, 3, 2, 65));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.8));
  expr.compile();
  EXPECT_NE(expr.plan().fingerprint, 0u);
  EXPECT_TRUE(expr.plan().facts.approx_legal);
  // Facts must not perturb plan identity: a recompile under a config that
  // leaves the verified IR alone keeps the fingerprint.
  const std::uint64_t fp = expr.plan().fingerprint;
  PortalConfig config;
  config.parallel = false;
  expr.setConfig(config);
  expr.compile();
  EXPECT_EQ(expr.plan().fingerprint, fp);
  EXPECT_TRUE(expr.plan().facts.approx_legal);
}

TEST(AnalysisGating, FactsDrivenKminPrunesAndMatchesBruteForce) {
  // KMIN over an identity envelope: the facts alone license the prune, the
  // engines must use it, and the answers must stay those of a full scan.
  Storage query(make_gaussian_mixture(60, 3, 2, 63));
  Storage reference(make_gaussian_mixture(120, 3, 2, 64));
  const index_t k = 3;

  const Dataset& qdata = query.dataset();
  const Dataset& rdata = reference.dataset();
  std::vector<real_t> brute;
  for (index_t i = 0; i < qdata.size(); ++i) {
    std::vector<real_t> dists;
    for (index_t j = 0; j < rdata.size(); ++j) {
      real_t sq = 0;
      for (index_t d = 0; d < qdata.dim(); ++d) {
        const real_t diff = qdata.coord(i, d) - rdata.coord(j, d);
        sq += diff * diff;
      }
      dists.push_back(std::sqrt(sq));
    }
    std::sort(dists.begin(), dists.end());
    brute.insert(brute.end(), dists.begin(), dists.begin() + k);
  }

  for (const Engine engine : {Engine::VM, Engine::Pattern}) {
    SCOPED_TRACE(engine == Engine::VM ? "vm" : "pattern");
    PortalConfig config;
    config.parallel = false;
    config.engine = engine;
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query);
    expr.addLayer({PortalOp::KMIN, k}, reference, PortalFunc::EUCLIDEAN);
    expr.execute(config);
    EXPECT_TRUE(expr.plan().facts.reduction_prune_legal);
    EXPECT_GT(expr.stats().prunes, 0u);

    Storage out = expr.getOutput();
    ASSERT_EQ(out.rows() * out.cols(), static_cast<index_t>(brute.size()));
    for (index_t i = 0; i < out.rows(); ++i)
      for (index_t j = 0; j < out.cols(); ++j) {
        const real_t want = brute[static_cast<std::size_t>(i * k + j)];
        EXPECT_NEAR(out.value(i, j), want, 1e-12 * std::max(want, real_t(1)))
            << "query " << i << " rank " << j;
      }
  }
}

TEST(AnalysisGating, OpaqueKernelIsNeverPruned) {
  // An external callable proves nothing, so no engine may skip a pair: the
  // sum must see every reference point.
  Storage query(make_gaussian_mixture(30, 3, 1, 67));
  Storage reference(make_gaussian_mixture(90, 3, 1, 68));
  PortalConfig config;
  config.parallel = false;
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, query);
  expr.addLayer(
      PortalOp::SUM, reference,
      [](const real_t*, const real_t*, index_t) { return real_t(1); },
      "one");
  expr.execute(config);
  const KernelFacts& facts = expr.plan().facts;
  EXPECT_FALSE(facts.reduction_prune_legal);
  EXPECT_FALSE(facts.indicator_prune_legal);
  EXPECT_FALSE(facts.approx_legal);
  EXPECT_EQ(expr.stats().prunes, 0u);

  Storage out = expr.getOutput();
  ASSERT_EQ(out.rows(), query.dataset().size());
  for (index_t i = 0; i < out.rows(); ++i)
    EXPECT_EQ(out.value(i, 0), static_cast<real_t>(reference.dataset().size()))
        << "query " << i;
}

// -- pass-manager hook: analysis runs in the verify sandwich ----------------

TEST(AnalysisHook, SummaryAppearsInVerifyReport) {
  Storage data(make_gaussian_mixture(60, 3, 2, 66));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.8));
  expr.compile();
  EXPECT_NE(expr.artifacts().verify_report.find("analysis:"), std::string::npos);
  EXPECT_NE(expr.artifacts().pipeline_trace.find("analysis"), std::string::npos);
}

} // namespace
} // namespace portal
