#include "core/codegen/pattern.h"

#include <cmath>
#include <limits>

#include "core/verify/verify.h"
#include "obs/trace.h"
#include "problems/barneshut.h"
#include "problems/kde.h"
#include "problems/knn.h"
#include "problems/range_search.h"
#include "problems/twopoint.h"
#include "tree/octree.h"
#include "util/timer.h"

namespace portal {
namespace {

bool is_min_family(PortalOp op) {
  return op == PortalOp::ARGMIN || op == PortalOp::KARGMIN ||
         op == PortalOp::MIN || op == PortalOp::KMIN;
}

/// exp(c * Dist) with c < 0 over squared Euclidean distance: the Gaussian
/// kernel; returns sigma or 0 when unmatched.
real_t match_gaussian_sigma(const KernelInfo& kernel) {
  if (!kernel.normalized || kernel.metric != MetricKind::SqEuclidean) return 0;
  const IrExprPtr& env = kernel.envelope_ir;
  if (!env || env->op != IrOp::Exp) return 0;
  const IrExprPtr& mul = env->children[0];
  if (mul->op != IrOp::Mul) return 0;
  const IrExprPtr& a = mul->children[0];
  const IrExprPtr& b = mul->children[1];
  real_t c = 0;
  if (a->op == IrOp::Const && b->op == IrOp::Dist) c = a->value;
  else if (b->op == IrOp::Const && a->op == IrOp::Dist) c = b->value;
  else return 0;
  if (c >= 0) return 0;
  return std::sqrt(real_t(-1) / (2 * c));
}

std::shared_ptr<OutputData> from_scalar(real_t value) {
  auto out = std::make_shared<OutputData>();
  out->rows = 1;
  out->cols = 1;
  out->values = {value};
  out->has_scalar = true;
  out->scalar = value;
  return out;
}

} // namespace

std::string recognize_pattern(const ProblemPlan& plan, const PortalConfig& config) {
  if (config.exclude_same_label != nullptr) return {}; // generic engine only
  const OpSpec outer = plan.layers[0].op;
  const OpSpec inner = plan.layers[1].op;
  const KernelInfo& kernel = plan.kernel;

  if (kernel.is_gravity) return "barnes-hut";
  if (!kernel.normalized) return {};

  const bool euclid_family = kernel.metric == MetricKind::Euclidean ||
                             kernel.metric == MetricKind::SqEuclidean;
  // Envelope classification consulted by recognition, read from the plan's
  // KernelFacts (the one legality source).
  const bool identity_env = plan.facts.envelope_identity;
  const bool indicator_env = plan.facts.envelope_indicator;

  if (outer.op == PortalOp::FORALL && is_min_family(inner.op) &&
      identity_env && kernel.metric != MetricKind::Mahalanobis)
    return "knn";

  if (outer.op == PortalOp::FORALL && inner.op == PortalOp::UNIONARG &&
      indicator_env && euclid_family && kernel.indicator_lo >= 0 &&
      kernel.indicator_hi < std::numeric_limits<real_t>::infinity())
    return "range-search";

  if (outer.op == PortalOp::FORALL && inner.op == PortalOp::SUM &&
      match_gaussian_sigma(kernel) > 0)
    return "kde";

  if (outer.op == PortalOp::SUM && inner.op == PortalOp::SUM &&
      indicator_env && euclid_family &&
      kernel.indicator_lo == -std::numeric_limits<real_t>::infinity() &&
      kernel.indicator_hi < std::numeric_limits<real_t>::infinity() &&
      plan.layers[0].storage.identity() == plan.layers[1].storage.identity())
    return "two-point";

  if (outer.op == PortalOp::MAX && inner.op == PortalOp::MIN &&
      identity_env && kernel.metric == MetricKind::Euclidean)
    return "hausdorff";

  return {};
}

PatternDispatch try_pattern_execute(const ProblemPlan& plan,
                                    const PortalConfig& config, TreeCache* cache) {
  PatternDispatch dispatch;
  dispatch.name = recognize_pattern(plan, config);
  if (dispatch.name.empty()) return dispatch;
  dispatch.recognized = true;
  PORTAL_OBS_COUNT("pattern/dispatches", 1);
  if (obs::enabled()) obs::instant_event("pattern/" + dispatch.name);
  PORTAL_OBS_SCOPE(pattern_scope, "pattern/execute");
  // Light verified-IR precondition: recognition matched on the kernel IR, so
  // it must at least be structurally sound before a specialized kernel runs.
  if (plan.kernel.kernel_ir)
    verify_executable_expr(plan.kernel.kernel_ir, "pattern");

  const Storage& qstore = plan.layers[0].storage;
  const Storage& rstore = plan.layers[1].storage;
  const KernelInfo& kernel = plan.kernel;
  ExecutionResult& res = dispatch.result;
  Timer timer;

  if (dispatch.name == "knn" || dispatch.name == "hausdorff") {
    auto qtree = cache->get(qstore, config.leaf_size);
    auto rtree = qstore.identity() == rstore.identity()
                     ? qtree
                     : cache->get(rstore, config.leaf_size);
    res.tree_seconds = timer.elapsed_s();
    timer.reset();

    KnnOptions options;
    options.k = dispatch.name == "hausdorff" ? 1 : plan.layers[1].op.k;
    options.leaf_size = config.leaf_size;
    options.parallel = config.parallel;
    options.task_depth = config.task_depth;
    options.metric = kernel.metric;
    options.batch = config.batch_base_cases;
    const KnnResult knn = knn_dualtree_permuted(*qtree, *rtree, options);
    res.stats = knn.stats;
    res.traversal_seconds = timer.elapsed_s();

    if (dispatch.name == "hausdorff") {
      real_t best = 0;
      for (real_t d : knn.distances) best = std::max(best, d);
      res.output = from_scalar(best);
      return dispatch;
    }

    const index_t nq = qstore.size();
    const index_t k = options.k;
    auto out = std::make_shared<OutputData>();
    out->rows = nq;
    out->cols = k;
    out->values.assign(static_cast<std::size_t>(nq) * k, 0);
    const bool arg = op_is_arg(plan.layers[1].op.op);
    if (arg) out->indices.assign(static_cast<std::size_t>(nq) * k, -1);
    for (index_t i = 0; i < nq; ++i) {
      const index_t original = qtree->perm()[i];
      for (index_t j = 0; j < k; ++j) {
        out->values[original * k + j] = knn.distances[i * k + j];
        if (arg) {
          const index_t id = knn.indices[i * k + j];
          out->indices[original * k + j] = id >= 0 ? rtree->perm()[id] : -1;
        }
      }
    }
    res.output = std::move(out);
    return dispatch;
  }

  if (dispatch.name == "kde") {
    auto qtree = cache->get(qstore, config.leaf_size);
    auto rtree = qstore.identity() == rstore.identity()
                     ? qtree
                     : cache->get(rstore, config.leaf_size);
    res.tree_seconds = timer.elapsed_s();
    timer.reset();

    KdeOptions options;
    options.sigma = match_gaussian_sigma(kernel);
    options.tau = config.tau;
    options.leaf_size = config.leaf_size;
    options.normalize = false; // Portal semantics: the raw kernel sum
    options.parallel = config.parallel;
    options.task_depth = config.task_depth;
    options.batch = config.batch_base_cases;
    const KdeResult kde = kde_dualtree_permuted(*qtree, *rtree, options);
    res.stats = kde.stats;
    res.traversal_seconds = timer.elapsed_s();

    auto out = std::make_shared<OutputData>();
    out->rows = qstore.size();
    out->cols = 1;
    out->values.assign(qstore.size(), 0);
    for (index_t i = 0; i < qstore.size(); ++i)
      out->values[qtree->perm()[i]] = kde.densities[i];
    res.output = std::move(out);
    return dispatch;
  }

  if (dispatch.name == "range-search") {
    // The expert implementation owns tree construction (its result maps back
    // to original indexing internally).
    RangeSearchOptions options;
    const bool squared = kernel.metric == MetricKind::SqEuclidean;
    options.h_lo = squared ? std::sqrt(std::max(kernel.indicator_lo, real_t(0)))
                           : std::max(kernel.indicator_lo, real_t(0));
    options.h_hi = squared ? std::sqrt(kernel.indicator_hi) : kernel.indicator_hi;
    options.leaf_size = config.leaf_size;
    options.parallel = config.parallel;
    options.task_depth = config.task_depth;
    options.batch = config.batch_base_cases;
    const RangeSearchResult rs =
        range_search_expert(qstore.dataset(), rstore.dataset(), options);
    res.stats = rs.stats;
    res.traversal_seconds = timer.elapsed_s();

    auto out = std::make_shared<OutputData>();
    out->rows = qstore.size();
    out->offsets = rs.offsets;
    out->lists = rs.neighbors;
    res.output = std::move(out);
    return dispatch;
  }

  if (dispatch.name == "two-point") {
    TwoPointOptions options;
    const bool squared = kernel.metric == MetricKind::SqEuclidean;
    options.h = squared ? std::sqrt(kernel.indicator_hi) : kernel.indicator_hi;
    options.leaf_size = config.leaf_size;
    options.parallel = config.parallel;
    options.task_depth = config.task_depth;
    options.batch = config.batch_base_cases;
    const TwoPointResult tp = twopoint_expert(qstore.dataset(), options);
    res.stats = tp.stats;
    res.traversal_seconds = timer.elapsed_s();

    // Portal's sum-sum counts ordered pairs including i = j; the specialized
    // kernel counts unordered distinct pairs: convert.
    const real_t n = static_cast<real_t>(qstore.size());
    res.output = from_scalar(2 * static_cast<real_t>(tp.pairs) + n);
    return dispatch;
  }

  // barnes-hut
  {
    std::vector<real_t> masses =
        qstore.has_weights() ? qstore.weights()
                             : std::vector<real_t>(qstore.size(), 1);
    BarnesHutOptions options;
    options.theta = config.theta;
    options.G = kernel.gravity_g;
    options.softening = kernel.gravity_eps;
    options.leaf_size = static_cast<index_t>(std::min<index_t>(config.leaf_size, 16));
    options.parallel = config.parallel;
    options.task_depth = config.task_depth;
    // The specialized kernel is already host-compiler-optimized; the fast
    // reciprocal-sqrt accuracy knob is exercised by the ablation bench, not
    // silently through the pattern path.
    options.fast_rsqrt = false;

    const Octree tree(qstore.dataset(), masses, options.leaf_size);
    res.tree_seconds = timer.elapsed_s();
    timer.reset();
    const BarnesHutResult bh = bh_dualtree_permuted(tree, options);
    res.stats = bh.stats;
    res.traversal_seconds = timer.elapsed_s();

    auto out = std::make_shared<OutputData>();
    out->rows = qstore.size();
    out->cols = 3;
    out->values.assign(static_cast<std::size_t>(qstore.size()) * 3, 0);
    for (index_t i = 0; i < qstore.size(); ++i)
      for (int d = 0; d < 3; ++d)
        out->values[tree.perm()[i] * 3 + d] = bh.accel[3 * i + d];
    res.output = std::move(out);
    return dispatch;
  }
}

} // namespace portal
