// Tests for the rule core (core/rule_core.h): the node decision as a table
// over hand-built (dmin, dmax, bound, tau) cases, the selection space, the
// reduction output mapping, and the leaf evaluator's branches agreeing bit
// for bit on a real compiled kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/portal.h"
#include "core/rule_core.h"
#include "data/generators.h"

namespace portal {
namespace {

using D = NodeDecision;

/// A hand-built plan view: facts and kernel set directly, envelope exp(-d).
struct HandPlan {
  KernelFacts facts;
  KernelInfo kernel;
  EvaluatorFns fns;
  Evaluator ev;

  explicit HandPlan(bool identity) {
    kernel.normalized = true;
    kernel.metric = MetricKind::Euclidean;
    fns.envelope = [](const real_t* d, index_t count, real_t* out) {
      for (index_t j = 0; j < count; ++j) out[j] = std::exp(-d[j]);
    };
    ev.fns = &fns;
    ev.kernel = &kernel;
    ev.normalized = true;
    ev.identity = identity;
    ev.metric = kernel.metric;
    facts.envelope_identity = identity;
  }

  D decide(const OpTraits& t, real_t dmin, real_t dmax, real_t bound,
           real_t tau) const {
    return decide_node(facts, ev, t, dmin, dmax, bound, tau);
  }
};

TEST(RuleCore, ComparativePruneReadsTheBestCaseBound) {
  HandPlan s(/*identity=*/true);
  s.facts.reduction_prune_legal = true;
  const OpTraits kmin = op_traits(OpSpec(PortalOp::KARGMIN, 3));
  EXPECT_EQ(s.decide(kmin, 2, 5, 1, 0), D::Prune);   // nearest 2 > bound 1
  EXPECT_EQ(s.decide(kmin, 2, 5, 2, 0), D::Descend); // ties can still enter
  EXPECT_EQ(s.decide(kmin, 2, 5, 3, 0), D::Descend);
  // Max sense: the best case is the far corner, -dmax in sense space.
  const OpTraits kmax = op_traits(OpSpec(PortalOp::KMAX, 2));
  EXPECT_EQ(s.decide(kmax, 2, 5, -6, 0), D::Prune);
  EXPECT_EQ(s.decide(kmax, 2, 5, -4, 0), D::Descend);
  // tau never enables anything for a reduction.
  EXPECT_EQ(s.decide(kmin, 2, 5, 3, 10), D::Descend);

  s.facts.reduction_prune_legal = false;
  EXPECT_EQ(s.decide(kmin, 2, 5, 1, 0), D::Descend);
  EXPECT_FALSE(decides_nodes(s.facts, kmin, 1));
}

TEST(RuleCore, ComparativePruneThroughAShapedEnvelope) {
  HandPlan s(/*identity=*/false); // exp(-d): decreasing
  s.facts.reduction_prune_legal = true;
  const OpTraits kmin = op_traits(OpSpec(PortalOp::KMIN, 1));
  // Best (smallest) value over [2, 5] is exp(-5) ~ 6.7e-3.
  EXPECT_EQ(s.decide(kmin, 2, 5, 1e-3, 0), D::Prune);
  EXPECT_EQ(s.decide(kmin, 2, 5, 1e-2, 0), D::Descend);
  const OpTraits kmax = op_traits(OpSpec(PortalOp::MAX));
  // Best (largest) value is exp(-2) ~ 0.135, -0.135 in sense space.
  EXPECT_EQ(s.decide(kmax, 2, 5, -0.2, 0), D::Prune);
  EXPECT_EQ(s.decide(kmax, 2, 5, -0.1, 0), D::Descend);
}

TEST(RuleCore, IndicatorIntervalContainment) {
  HandPlan s(/*identity=*/false);
  s.facts.indicator_prune_legal = true;
  s.kernel.indicator_lo = 0.5;
  s.kernel.indicator_hi = 1.5;
  for (const PortalOp op : {PortalOp::SUM, PortalOp::UNION, PortalOp::UNIONARG}) {
    const OpTraits t = op_traits(OpSpec(op));
    SCOPED_TRACE(op_name(op));
    EXPECT_EQ(s.decide(t, 2, 3, 0, 0), D::Prune);       // beyond hi
    EXPECT_EQ(s.decide(t, 1.5, 3, 0, 0), D::Prune);     // dmin == hi: open
    EXPECT_EQ(s.decide(t, 0.1, 0.5, 0, 0), D::Prune);   // dmax == lo: open
    EXPECT_EQ(s.decide(t, 0.6, 1.4, 0, 0), D::AcceptAll);
    EXPECT_EQ(s.decide(t, 0.5, 1.4, 0, 0), D::Descend); // dmin on lo
    EXPECT_EQ(s.decide(t, 0.6, 1.5, 0, 0), D::Descend); // dmax on hi
    EXPECT_EQ(s.decide(t, 0.4, 1.0, 0, 0), D::Descend); // straddles lo
    EXPECT_TRUE(decides_nodes(s.facts, t, 0));
  }
  // A comparative op over an indicator is never pruned: zeros compete too.
  const OpTraits argmin = op_traits(OpSpec(PortalOp::ARGMIN));
  EXPECT_EQ(s.decide(argmin, 2, 3, -1, 0), D::Descend);
}

TEST(RuleCore, ApproximationNeedsPositiveTau) {
  HandPlan s(/*identity=*/false);
  s.facts.approx_legal = true;
  const OpTraits sum = op_traits(OpSpec(PortalOp::SUM));
  // A zero-spread node (duplicates): exact at tau = 0, approximated above.
  EXPECT_EQ(s.decide(sum, 1, 1, 0, 0), D::Descend);
  EXPECT_EQ(s.decide(sum, 1, 1, 0, 1e-12), D::Approximate);
  EXPECT_FALSE(decides_nodes(s.facts, sum, 0));
  EXPECT_TRUE(decides_nodes(s.facts, sum, 1e-12));
  // Spread exp(-0) - exp(-5) ~ 0.993 against the budget.
  EXPECT_EQ(s.decide(sum, 0, 5, 0, 0.5), D::Descend);
  EXPECT_EQ(s.decide(sum, 0, 5, 0, 1.0), D::Approximate);
  EXPECT_EQ(s.decide(sum, 0, 5, 0, -1), D::Descend);

  s.facts.approx_legal = false;
  EXPECT_EQ(s.decide(sum, 1, 1, 0, 1), D::Descend);
  EXPECT_FALSE(decides_nodes(s.facts, sum, 1));
}

TEST(RuleCore, SelectionSpaceAndReductionOutput) {
  ProblemPlan plan;
  plan.kernel.normalized = true;
  plan.kernel.metric = MetricKind::Euclidean;
  plan.facts.envelope_identity = true;
  plan.facts.reduction_prune_legal = true;
  const EvaluatorFns fns;

  const OpTraits kargmin = op_traits(OpSpec(PortalOp::KARGMIN, 2));
  const Evaluator sq = make_evaluator(plan, kargmin, fns);
  EXPECT_TRUE(sq.sq_select);
  EXPECT_EQ(sq.metric, MetricKind::SqEuclidean);
  EXPECT_EQ(reduction_output(9, kargmin, sq), 3);
  EXPECT_TRUE(std::isnan(
      reduction_output(std::numeric_limits<real_t>::max(), kargmin, sq)));

  // Max sense, sums and non-Euclidean metrics stay in the plan's space.
  const OpTraits kmax = op_traits(OpSpec(PortalOp::KMAX, 2));
  const Evaluator natural = make_evaluator(plan, kmax, fns);
  EXPECT_FALSE(natural.sq_select);
  EXPECT_EQ(natural.metric, MetricKind::Euclidean);
  EXPECT_EQ(reduction_output(-9, kmax, natural), 9);
  EXPECT_FALSE(make_evaluator(plan, op_traits(OpSpec(PortalOp::SUM)), fns).sq_select);
  plan.kernel.metric = MetricKind::Manhattan;
  EXPECT_FALSE(make_evaluator(plan, kargmin, fns).sq_select);
  plan.kernel.metric = MetricKind::Euclidean;
  plan.facts.reduction_prune_legal = false;
  EXPECT_FALSE(make_evaluator(plan, kargmin, fns).sq_select);
}

TEST(RuleCore, OpTraitsDecomposition) {
  const OpTraits k = op_traits(OpSpec(PortalOp::KARGMAX, 5));
  EXPECT_TRUE(k.is_reduction);
  EXPECT_TRUE(k.is_arg);
  EXPECT_EQ(k.slots, 5);
  EXPECT_EQ(k.sense, -1);
  const OpTraits m = op_traits(OpSpec(PortalOp::MIN));
  EXPECT_TRUE(m.is_reduction);
  EXPECT_FALSE(m.is_arg);
  EXPECT_EQ(m.slots, 1);
  EXPECT_EQ(m.sense, 1);
  EXPECT_TRUE(op_traits(OpSpec(PortalOp::SUM)).is_sum);
  EXPECT_TRUE(op_traits(OpSpec(PortalOp::PROD)).is_prod);
  EXPECT_TRUE(op_traits(OpSpec(PortalOp::FORALL)).is_forall);
  EXPECT_TRUE(op_traits(OpSpec(PortalOp::UNION)).is_union);
  EXPECT_TRUE(op_traits(OpSpec(PortalOp::UNIONARG)).is_unionarg);
  EXPECT_FALSE(op_traits(OpSpec(PortalOp::UNIONARG)).is_reduction);
}

// The four leaf branches (batched natural distances + envelope, scalar
// natural distances + envelope, kernel_batch, scalar kernel_pair) and
// one-slot scalar ranges (serve's delta slots) agree bit for bit on
// compiled VM kernels.
TEST(RuleCore, LeafBranchesAgreeBitwise) {
  const Dataset data = make_gaussian_mixture(120, 3, 3, 5);
  const KdTree tree(data, 16);
  const Dataset& permuted = tree.data();
  for (const PortalFunc& func :
       {PortalFunc::gaussian(0.7), PortalFunc::EUCLIDEAN, PortalFunc::MANHATTAN,
        PortalFunc::MAHALANOBIS}) {
    SCOPED_TRACE(func.name());
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, Storage(data));
    expr.addLayer(PortalOp::SUM, Storage(data), func);
    expr.compile();
    const ProblemPlan& plan = expr.plan();
    ASSERT_TRUE(plan.kernel.normalized);
    const EvaluatorFns fns = vm_evaluators(plan.kernel);
    const OpTraits sum = op_traits(OpSpec(PortalOp::SUM));
    const Evaluator ev = make_evaluator(plan, sum, fns);
    Evaluator opaque = ev; // the same kernel through its full IR
    opaque.normalized = false;

    LeafScratch ws;
    ws.resize(3, permuted.size());
    std::vector<real_t> qpt(3);
    data.copy_point(7, qpt.data());
    const index_t begin = 9, count = 70;
    const auto run = [&](const Evaluator& e, const SoaMirror* mirror) {
      const real_t* vals =
          leaf_values(e, permuted, mirror, begin, count, qpt.data(), ws);
      return std::vector<real_t>(vals, vals + count);
    };
    const std::vector<real_t> batched = run(ev, &tree.mirror());
    EXPECT_EQ(run(ev, nullptr), batched);
    EXPECT_EQ(run(opaque, &tree.mirror()), run(opaque, nullptr));
    for (index_t j = 0; j < count; ++j)
      EXPECT_EQ(*scalar_values(ev, permuted, begin + j, 1, qpt.data(), ws),
                batched[j])
          << "point " << j;
  }
}

} // namespace
} // namespace portal
