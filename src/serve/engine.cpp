#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "kernels/batch.h"
#include "problems/common.h"
#include "traversal/singletree.h"

namespace portal::serve {
namespace {

/// Immutable per-query context threaded through the rule sets and the
/// brute-force oracle so both sides compute with the exact same helpers.
struct Ctx {
  const CompiledPlan* plan = nullptr;
  const KdTree* tree = nullptr;
  const real_t* qpt = nullptr;
  const MahalanobisContext* maha = nullptr;
  MetricKind metric = MetricKind::SqEuclidean;
  bool identity_env = false;
  bool normalized = false;
  bool batch = false;
  // Fused JIT leaf loops (plan_cache.h; null when the plan has no JIT
  // module or batching is off). Bitwise-equal per lane to the VM paths
  // below, so taking them never changes an answer.
  JitModule::BatchFn fused_values = nullptr;
  JitModule::BatchFn fused_batch = nullptr;
  Workspace* ws = nullptr;
  // Live-view fields (null/0/false on snapshot-only queries, which keeps
  // every new branch below off the legacy hot path).
  const DeltaTree* delta = nullptr;
  std::uint64_t watermark = 0;
  index_t delta_count = 0;  // visible delta slots are [0, delta_count)
  bool filter_main = false; // this generation holds main tombstones
};

/// Attach a pinned view's delta side to a query context. filter_main stays
/// false when the generation never tombstoned a main point, so the descent
/// pays zero per-point cost for the insert-only workload.
void attach_view(Ctx& ctx, const LiveView& view) {
  if (!view.delta) return;
  ctx.delta = view.delta.get();
  ctx.watermark = view.watermark;
  ctx.delta_count = view.delta_count;
  ctx.filter_main = view.filter_main;
}

/// Is permuted main index j visible in this query's view?
inline bool main_alive(const Ctx& ctx, index_t j) {
  return !ctx.filter_main || !ctx.delta->main_dead(j, ctx.watermark);
}

/// Visible (non-tombstoned) points under a node; equals node.count() on
/// tombstone-free views. Bulk accepts must add exactly this many points --
/// a removed point is absent from the visible set, not a zero contribution.
index_t alive_count(const Ctx& ctx, const KdNode& node) {
  if (!ctx.filter_main) return node.count();
  index_t alive = 0;
  for (index_t j = node.begin; j < node.end; ++j)
    alive += ctx.delta->main_dead(j, ctx.watermark) ? 0 : 1;
  return alive;
}

Ctx make_ctx(const CompiledPlan& plan, const KdTree& tree, const real_t* point,
             bool batch, Workspace& ws) {
  Ctx ctx;
  ctx.plan = &plan;
  ctx.tree = &tree;
  ctx.qpt = point;
  ctx.maha = plan.plan.kernel.maha.get();
  ctx.metric = plan.plan.kernel.metric;
  ctx.identity_env = plan.plan.facts.envelope_identity;
  ctx.normalized = plan.plan.kernel.normalized;
  ctx.batch = batch;
  if (batch) {
    ctx.fused_values = plan.fused_values;
    ctx.fused_batch = plan.fused_batch;
  }
  ctx.ws = &ws;
  return ctx;
}

void prepare_workspace(const CompiledPlan& plan, const KdTree& tree,
                       const real_t* point, index_t leaf_capacity,
                       Workspace& ws) {
  const index_t dim = tree.data().dim();
  ws.rpt.resize(static_cast<std::size_t>(dim));
  // Covers point_distance gathers (4*dim+4), the blocked Mahalanobis solve
  // (2*dim*kMahaBlock), and run_batch's External gather (3*dim).
  ws.scratch.resize(static_cast<std::size_t>(
      std::max<index_t>(4 * dim + 4, 2 * dim * batch::kMahaBlock)));
  ws.dists.resize(static_cast<std::size_t>(leaf_capacity));
  ws.vals.resize(static_cast<std::size_t>(leaf_capacity));
  if (plan.is_reduction) {
    ws.knn_dists.resize(static_cast<std::size_t>(plan.slots));
    ws.knn_ids.resize(static_cast<std::size_t>(plan.slots));
  }
  if (plan.plan.kernel.metric != MetricKind::SqEuclidean &&
      plan.plan.kernel.metric != MetricKind::Euclidean) {
    ws.qbox = BBox(dim);
    ws.qbox.include_point(point);
  }
}

real_t envelope(const Ctx& ctx, real_t d) {
  return ctx.plan->envelope_vm.run_envelope(d);
}

/// Point-to-node lower bound in the metric's natural space. L2 family goes
/// through the direct point-box routine; other metrics reuse the node-pair
/// bounds with a degenerate (zero-volume) query box.
real_t node_min(const Ctx& ctx, const KdNode& node) {
  if (ctx.metric == MetricKind::SqEuclidean)
    return node.box.min_sq_dist_point(ctx.qpt);
  if (ctx.metric == MetricKind::Euclidean)
    return std::sqrt(node.box.min_sq_dist_point(ctx.qpt));
  return node.box.min_dist(ctx.metric, ctx.ws->qbox, ctx.maha);
}

real_t node_max(const Ctx& ctx, const KdNode& node) {
  if (ctx.metric == MetricKind::SqEuclidean)
    return node.box.max_sq_dist_point(ctx.qpt);
  if (ctx.metric == MetricKind::Euclidean)
    return std::sqrt(node.box.max_sq_dist_point(ctx.qpt));
  return node.box.max_dist(ctx.metric, ctx.ws->qbox, ctx.maha);
}

/// Scalar natural-space distances to [begin, end) -- the same operation
/// sequence as the executor's scalar path, so it is bitwise-comparable with
/// batch::natural_dists over the same points.
void natural_range(const Ctx& ctx, index_t begin, index_t end, real_t* out) {
  const Dataset& rdata = ctx.tree->data();
  const index_t count = end - begin;
  switch (ctx.metric) {
    case MetricKind::SqEuclidean:
      sq_dists_to_range(rdata, begin, end, ctx.qpt, out);
      return;
    case MetricKind::Euclidean:
      sq_dists_to_range(rdata, begin, end, ctx.qpt, out);
      for (index_t j = 0; j < count; ++j) out[j] = std::sqrt(out[j]);
      return;
    case MetricKind::Manhattan:
      l1_dists_to_range(rdata, begin, end, ctx.qpt, out);
      return;
    case MetricKind::Chebyshev:
      linf_dists_to_range(rdata, begin, end, ctx.qpt, out);
      return;
    case MetricKind::Mahalanobis:
      for (index_t j = 0; j < count; ++j) {
        rdata.copy_point(begin + j, ctx.ws->rpt.data());
        out[j] = ctx.maha->sq_dist(ctx.qpt, ctx.ws->rpt.data(),
                                   ctx.ws->scratch.data());
      }
      return;
  }
  throw std::logic_error("serve: unhandled metric");
}

/// Kernel values of the query against a contiguous permuted range; returns a
/// pointer into workspace buffers (the distance buffer itself when the
/// envelope is the identity). Mirrors the executor's base case exactly.
const real_t* range_values(const Ctx& ctx, index_t begin, index_t count) {
  Workspace& ws = *ctx.ws;
  const index_t dim = ctx.tree->data().dim();
  if (ctx.normalized) {
    if (ctx.fused_values != nullptr && !ctx.identity_env) {
      // Fused JIT leaf loop: metric + envelope in one specialized pass
      // (bitwise-equal to natural_dists followed by envelope()).
      const SoaMirror& mirror = ctx.tree->mirror();
      ctx.fused_values(ctx.qpt, mirror.lanes(), mirror.stride(), begin, count,
                       dim, ws.scratch.data(), ws.vals.data());
      batch::count_batch_tile(count);
      return ws.vals.data();
    }
    if (ctx.batch) {
      batch::natural_dists(ctx.metric, ctx.tree->mirror().tile(begin, count),
                           ctx.qpt, ctx.maha, ws.scratch.data(),
                           ws.dists.data());
      batch::count_batch_tile(count);
    } else {
      natural_range(ctx, begin, begin + count, ws.dists.data());
      batch::count_scalar_tail(count);
    }
    if (ctx.identity_env) return ws.dists.data();
    for (index_t j = 0; j < count; ++j)
      ws.vals[static_cast<std::size_t>(j)] = envelope(ctx, ws.dists[static_cast<std::size_t>(j)]);
    return ws.vals.data();
  }
  if (ctx.batch) {
    const SoaMirror& mirror = ctx.tree->mirror();
    if (ctx.fused_batch != nullptr) {
      // Fused JIT tile loop over the opaque kernel (bitwise-equal per lane
      // to VmProgram::run_batch).
      ctx.fused_batch(ctx.qpt, mirror.lanes(), mirror.stride(), begin, count,
                      dim, ws.scratch.data(), ws.vals.data());
      batch::count_batch_tile(count);
      return ws.vals.data();
    }
    VmProgram::BatchContext bctx;
    bctx.q = ctx.qpt;
    bctx.rlanes = mirror.lanes();
    bctx.rstride = mirror.stride();
    bctx.rbegin = begin;
    bctx.count = count;
    bctx.dim = dim;
    bctx.scratch = ws.scratch.data();
    ctx.plan->kernel_vm.run_batch(bctx, ws.vals.data());
    batch::count_batch_tile(count);
  } else {
    for (index_t j = 0; j < count; ++j) {
      ctx.tree->data().copy_point(begin + j, ws.rpt.data());
      ws.vals[static_cast<std::size_t>(j)] = ctx.plan->kernel_vm.run_pair(
          ctx.qpt, ws.rpt.data(), dim, ws.scratch.data());
    }
    batch::count_scalar_tail(count);
  }
  return ws.vals.data();
}

/// Kernel value of the query against one delta slot, computed with the exact
/// per-point operation sequence of the main-tree base cases: the normalized
/// path runs the same *_dists_to_range primitives on a one-slot range (their
/// per-point FP sequence does not depend on the surrounding range), the
/// opaque path runs the same kernel VM run_pair as the scalar leaf loop. The
/// live brute-force oracle calls this too, which is what makes two-root
/// answers bitwise-comparable at tau == 0.
real_t delta_value(const Ctx& ctx, index_t slot) {
  Workspace& ws = *ctx.ws;
  const Dataset& dpts = ctx.delta->points();
  if (ctx.normalized) {
    real_t d = 0;
    switch (ctx.metric) {
      case MetricKind::SqEuclidean:
        sq_dists_to_range(dpts, slot, slot + 1, ctx.qpt, &d);
        break;
      case MetricKind::Euclidean:
        sq_dists_to_range(dpts, slot, slot + 1, ctx.qpt, &d);
        d = std::sqrt(d);
        break;
      case MetricKind::Manhattan:
        l1_dists_to_range(dpts, slot, slot + 1, ctx.qpt, &d);
        break;
      case MetricKind::Chebyshev:
        linf_dists_to_range(dpts, slot, slot + 1, ctx.qpt, &d);
        break;
      case MetricKind::Mahalanobis:
        dpts.copy_point(slot, ws.rpt.data());
        d = ctx.maha->sq_dist(ctx.qpt, ws.rpt.data(), ws.scratch.data());
        break;
    }
    return ctx.identity_env ? d : envelope(ctx, d);
  }
  dpts.copy_point(slot, ws.rpt.data());
  return ctx.plan->kernel_vm.run_pair(ctx.qpt, ws.rpt.data(), dpts.dim(),
                                      ws.scratch.data());
}

/// Natural-space distance from the query point to a node's box center (the
/// approximation representative, exactly as the executor's apply_approx).
real_t center_dist(const Ctx& ctx, const KdNode& node) {
  Workspace& ws = *ctx.ws;
  node.box.center_point(ws.rpt.data());
  if (ctx.metric == MetricKind::Mahalanobis)
    return ctx.maha->sq_dist(ctx.qpt, ws.rpt.data(), ws.scratch.data());
  const real_t d = point_distance(
      ctx.metric == MetricKind::Euclidean ? MetricKind::SqEuclidean : ctx.metric,
      ctx.qpt, 1, ws.rpt.data(), 1, ctx.tree->data().dim());
  return ctx.metric == MetricKind::Euclidean ? std::sqrt(d) : d;
}

/// Comparative reductions (k-NN family): scored nearest-first descent with
/// envelope-bound pruning against the current k-th best.
class ReductionRules {
 public:
  ReductionRules(const Ctx& ctx)
      : ctx_(ctx),
        sense_(ctx.plan->sense),
        list_(ctx.ws->knn_dists.data(), ctx.ws->knn_ids.data(),
              ctx.plan->slots) {
    list_.reset();
    // Indicator + comparative op is degenerate (zeros are candidates too, so
    // distance cuts are unsound) -- evaluate exhaustively, like the executor.
    prunable_ = ctx.plan->plan.facts.reduction_prune_legal;
  }

  bool prune_or_take(index_t n) {
    if (!prunable_) return false;
    const KdNode& node = ctx_.tree->node(n);
    const real_t dmin = node_min(ctx_, node);
    if (ctx_.identity_env && sense_ > 0) return dmin > list_.worst();
    real_t emin, emax;
    if (ctx_.identity_env) {
      emin = dmin;
      emax = node_max(ctx_, node);
    } else {
      const real_t a = envelope(ctx_, dmin);
      const real_t b = envelope(ctx_, node_max(ctx_, node));
      emin = std::min(a, b);
      emax = std::max(a, b);
    }
    return std::min(sense_ * emin, sense_ * emax) > list_.worst();
  }

  real_t score(index_t n) { return node_min(ctx_, ctx_.tree->node(n)); }

  void base_case(index_t n) {
    const KdNode& node = ctx_.tree->node(n);
    const real_t* vals = range_values(ctx_, node.begin, node.count());
    for (index_t j = 0; j < node.count(); ++j) {
      if (!main_alive(ctx_, node.begin + j)) continue;
      list_.insert(sense_ * vals[j], node.begin + j);
    }
  }

  /// Second-root sweep: fold the visible delta slots into the reduction
  /// after the main descent, insertion order, ids offset past the main tree
  /// (finalize maps permuted main ids through perm(); delta ids pass through
  /// untouched).
  void drain_delta() {
    const index_t nr = ctx_.tree->data().size();
    for (index_t s = 0; s < ctx_.delta_count; ++s) {
      if (ctx_.delta->slot_dead(s, ctx_.watermark)) continue;
      list_.insert(sense_ * delta_value(ctx_, s), nr + s);
    }
  }

 private:
  Ctx ctx_;
  real_t sense_;
  KnnList list_;
  bool prunable_ = false;
};

/// SUM plans (KDE family): unscored preorder descent -- leaves accumulate in
/// ascending permuted order, which is what makes tau == 0 bitwise-match the
/// ascending brute-force sweep. Indicator sums (counting) bulk-accept /
/// bulk-reject on interval containment; smooth envelopes approximate whole
/// nodes only within the tau budget.
class SumRules {
 public:
  SumRules(const Ctx& ctx, real_t tau) : ctx_(ctx), tau_(tau) {
    const KernelInfo& kernel = ctx.plan->plan.kernel;
    indicator_ = ctx.plan->plan.facts.indicator_prune_legal;
    lo_ = kernel.indicator_lo;
    hi_ = kernel.indicator_hi;
    approx_ = ctx.plan->plan.facts.approx_legal;
  }

  bool prune_or_take(index_t n) {
    const KdNode& node = ctx_.tree->node(n);
    if (indicator_) {
      const real_t dmin = node_min(ctx_, node);
      const real_t dmax = node_max(ctx_, node);
      if (dmin >= hi_ || dmax <= lo_) return true; // contributes exactly 0
      if (dmin > lo_ && dmax < hi_) {              // every pair is exactly 1
        total_ += static_cast<real_t>(alive_count(ctx_, node));
        return true;
      }
      return false;
    }
    if (!approx_ || tau_ <= 0) return false;
    const real_t dmin = node_min(ctx_, node);
    const real_t dmax = node_max(ctx_, node);
    real_t emin, emax;
    if (ctx_.identity_env) {
      emin = dmin;
      emax = dmax;
    } else {
      const real_t a = envelope(ctx_, dmin);
      const real_t b = envelope(ctx_, dmax);
      emin = std::min(a, b);
      emax = std::max(a, b);
    }
    if (emax - emin > tau_) return false;
    const real_t center = center_dist(ctx_, node);
    total_ += static_cast<real_t>(alive_count(ctx_, node)) *
              (ctx_.identity_env ? center : envelope(ctx_, center));
    return true;
  }

  void base_case(index_t n) {
    const KdNode& node = ctx_.tree->node(n);
    const real_t* vals = range_values(ctx_, node.begin, node.count());
    for (index_t j = 0; j < node.count(); ++j) {
      if (!main_alive(ctx_, node.begin + j)) continue;
      total_ += vals[j];
    }
  }

  /// Delta slots accumulate strictly after the main sum, insertion order --
  /// the same additions in the same order as the live oracle's canonical
  /// sweep, so tau == 0 stays bitwise across the two roots.
  void drain_delta() {
    for (index_t s = 0; s < ctx_.delta_count; ++s) {
      if (ctx_.delta->slot_dead(s, ctx_.watermark)) continue;
      total_ += delta_value(ctx_, s);
    }
  }

  real_t total() const { return total_; }

 private:
  Ctx ctx_;
  real_t tau_;
  real_t total_ = 0;
  bool indicator_ = false;
  bool approx_ = false;
  real_t lo_ = 0, hi_ = 0;
};

/// UNION/UNIONARG plans (range search): collect every reference with a
/// non-zero kernel value; indicator envelopes prune by interval containment.
class UnionRules {
 public:
  UnionRules(const Ctx& ctx, bool want_values, std::vector<index_t>* ids,
             std::vector<real_t>* values)
      : ctx_(ctx), want_values_(want_values), ids_(ids), values_(values) {
    const KernelInfo& kernel = ctx.plan->plan.kernel;
    indicator_ = ctx.plan->plan.facts.indicator_prune_legal;
    lo_ = kernel.indicator_lo;
    hi_ = kernel.indicator_hi;
  }

  bool prune_or_take(index_t n) {
    if (!indicator_) return false;
    const KdNode& node = ctx_.tree->node(n);
    const real_t dmin = node_min(ctx_, node);
    const real_t dmax = node_max(ctx_, node);
    if (dmin >= hi_ || dmax <= lo_) return true;
    if (dmin > lo_ && dmax < hi_) {
      for (index_t rj = node.begin; rj < node.end; ++rj) {
        if (!main_alive(ctx_, rj)) continue;
        ids_->push_back(rj);
        if (want_values_) values_->push_back(1); // indicator interior: exact
      }
      return true;
    }
    return false;
  }

  void base_case(index_t n) {
    const KdNode& node = ctx_.tree->node(n);
    const real_t* vals = range_values(ctx_, node.begin, node.count());
    for (index_t j = 0; j < node.count(); ++j) {
      if (vals[j] == 0) continue;
      if (!main_alive(ctx_, node.begin + j)) continue;
      ids_->push_back(node.begin + j);
      if (want_values_) values_->push_back(vals[j]);
    }
  }

 private:
  Ctx ctx_;
  bool want_values_;
  std::vector<index_t>* ids_;
  std::vector<real_t>* values_;
  bool indicator_ = false;
  real_t lo_ = 0, hi_ = 0;
};

/// Reduction slots -> original-order output (sense undone, NaN sentinels),
/// same convention as the executor's finalize.
void finalize_reduction(const CompiledPlan& plan, const KdTree& tree,
                        const Workspace& ws, QueryResult* out) {
  out->values.resize(static_cast<std::size_t>(plan.slots));
  out->ids.assign(static_cast<std::size_t>(plan.is_arg ? plan.slots : 0), -1);
  for (index_t j = 0; j < plan.slots; ++j) {
    const real_t v = ws.knn_dists[static_cast<std::size_t>(j)];
    out->values[static_cast<std::size_t>(j)] =
        v == std::numeric_limits<real_t>::max()
            ? std::numeric_limits<real_t>::quiet_NaN()
            : plan.sense * v;
    if (plan.is_arg) {
      const index_t id = ws.knn_ids[static_cast<std::size_t>(j)];
      // Permuted main indices map back through perm(); delta ids (>= main
      // size) are already client-space (`main_size + slot`).
      out->ids[static_cast<std::size_t>(j)] =
          id < 0 ? -1 : (id >= tree.data().size() ? id : tree.perm()[id]);
    }
  }
}

/// Union delta drain: collect visible delta slots with non-zero kernel value
/// in insertion order, already client-space and ascending (every delta id is
/// above every main id, so finalize can append them after the sorted main
/// block without re-sorting).
void drain_delta_union(const Ctx& ctx, bool want_values,
                       std::vector<index_t>* delta_ids,
                       std::vector<real_t>* delta_values) {
  const index_t nr = ctx.tree->data().size();
  for (index_t s = 0; s < ctx.delta_count; ++s) {
    if (ctx.delta->slot_dead(s, ctx.watermark)) continue;
    const real_t v = delta_value(ctx, s);
    if (v == 0) continue;
    delta_ids->push_back(nr + s);
    if (want_values) delta_values->push_back(v);
  }
}

/// Union results -> original reference ids, sorted ascending (values follow),
/// matching the executor's CSR ordering.
void finalize_union(const KdTree& tree, bool want_values,
                    std::vector<index_t>* ids, std::vector<real_t>* values,
                    QueryResult* out,
                    const std::vector<index_t>* delta_ids = nullptr,
                    const std::vector<real_t>* delta_values = nullptr) {
  for (index_t& id : *ids) id = tree.perm()[id];
  if (!want_values) {
    std::sort(ids->begin(), ids->end());
    out->ids = std::move(*ids);
    if (delta_ids)
      out->ids.insert(out->ids.end(), delta_ids->begin(), delta_ids->end());
    return;
  }
  std::vector<std::size_t> order(ids->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return (*ids)[a] < (*ids)[b];
  });
  out->ids.resize(ids->size());
  out->values.resize(values->size());
  for (std::size_t s = 0; s < order.size(); ++s) {
    out->ids[s] = (*ids)[order[s]];
    out->values[s] = (*values)[order[s]];
  }
  if (delta_ids) {
    out->ids.insert(out->ids.end(), delta_ids->begin(), delta_ids->end());
    out->values.insert(out->values.end(), delta_values->begin(),
                       delta_values->end());
  }
}

const KdTree& serving_tree(const CompiledPlan& plan,
                           const TreeSnapshot& snapshot) {
  if (!snapshot.kd())
    throw std::invalid_argument(
        "serve: snapshot was built without a kd-tree (SnapshotOptions.build_kd)");
  const KdTree& tree = *snapshot.kd();
  if (tree.data().dim() != plan.dim)
    throw std::invalid_argument("serve: plan dimensionality " +
                                std::to_string(plan.dim) +
                                " does not match snapshot dimensionality " +
                                std::to_string(tree.data().dim()));
  return tree;
}

/// Approximate reduction through the snapshot's k-NN graph (DESIGN.md
/// Sec. 18). Beam search returns up to `beam` candidates with squared
/// Euclidean distances bitwise-equal to the exact engine's accumulation;
/// this path filters tombstoned candidates against the pinned view, maps to
/// the plan's value space (sqrt for Euclidean -- the same edge op as the
/// exact path), folds the visible delta slots in exactly, and reuses
/// finalize_reduction unchanged. Only completeness is approximate: every
/// reported (value, id) pair is exact for that pair.
QueryResult run_query_graph(const CompiledPlan& plan,
                            const TreeSnapshot& snapshot, const LiveView* view,
                            const real_t* point, const EngineOptions& options,
                            Workspace& ws) {
  const auto t0 = std::chrono::steady_clock::now();
  const KdTree& tree = serving_tree(plan, snapshot);
  const KnnGraph& graph = *snapshot.graph();
  prepare_workspace(plan, tree, point, tree.stats().max_leaf_count, ws);
  Ctx ctx = make_ctx(plan, tree, point, /*batch=*/false, ws);
  if (view) attach_view(ctx, *view);

  // Search the full beam (not just k): tombstoned candidates are dropped
  // below, so the extra slots are the slack that keeps k survivors likely.
  const index_t beam = std::max<index_t>(options.beam_width, plan.slots);
  ws.graph_sq.resize(static_cast<std::size_t>(beam));
  ws.graph_ids.resize(static_cast<std::size_t>(beam));
  const index_t found = graph.search(point, beam, beam, ws.graph,
                                     ws.graph_sq.data(), ws.graph_ids.data());

  KnnList list(ws.knn_dists.data(), ws.knn_ids.data(), plan.slots);
  list.reset();
  // Graph ids are original-order; the reduction slots hold permuted main
  // indices (finalize maps them back through perm(), delta ids untouched).
  const std::vector<index_t>& inv = tree.inverse_perm();
  for (index_t j = 0; j < found; ++j) {
    const index_t id = ws.graph_ids[static_cast<std::size_t>(j)];
    const index_t permuted = inv[static_cast<std::size_t>(id)];
    if (!main_alive(ctx, permuted)) continue;
    const real_t sq = ws.graph_sq[static_cast<std::size_t>(j)];
    const real_t d = ctx.metric == MetricKind::Euclidean ? std::sqrt(sq) : sq;
    list.insert(plan.sense * d, permuted);
  }
  const index_t nr = tree.data().size();
  for (index_t s = 0; s < ctx.delta_count; ++s) {
    if (ctx.delta->slot_dead(s, ctx.watermark)) continue;
    list.insert(plan.sense * delta_value(ctx, s), nr + s);
  }

  QueryResult result;
  finalize_reduction(plan, tree, ws, &result);
  result.stats.pairs_visited = ws.graph.dist_evals;
  result.stats.base_cases = ws.graph.hops;
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

/// Shared single-query core: snapshot-only callers pass a null view (every
/// live branch compiles out to the legacy behavior bit for bit).
QueryResult run_query_impl(const CompiledPlan& plan,
                           const TreeSnapshot& snapshot, const LiveView* view,
                           const real_t* point, const EngineOptions& options,
                           Workspace& ws) {
  if (routes_to_graph(plan, snapshot, options))
    return run_query_graph(plan, snapshot, view, point, options, ws);
  const KdTree& tree = serving_tree(plan, snapshot);
  prepare_workspace(plan, tree, point, tree.stats().max_leaf_count, ws);
  const bool batch = options.batch_base_cases && !tree.mirror().empty();
  Ctx ctx = make_ctx(plan, tree, point, batch, ws);
  if (view) attach_view(ctx, *view);

  QueryResult result;
  if (plan.is_reduction) {
    ReductionRules rules(ctx);
    result.stats = single_traverse(tree, rules);
    if (ctx.delta) rules.drain_delta();
    finalize_reduction(plan, tree, ws, &result);
  } else if (plan.is_sum) {
    SumRules rules(ctx, options.tau);
    result.stats = single_traverse(tree, rules);
    if (ctx.delta) rules.drain_delta();
    result.values = {rules.total()};
  } else {
    std::vector<index_t> ids;
    std::vector<real_t> values;
    std::vector<index_t> delta_ids;
    std::vector<real_t> delta_values;
    UnionRules rules(ctx, plan.is_union, &ids, &values);
    result.stats = single_traverse(tree, rules);
    if (ctx.delta)
      drain_delta_union(ctx, plan.is_union, &delta_ids, &delta_values);
    finalize_union(tree, plan.is_union, &ids, &values, &result,
                   ctx.delta ? &delta_ids : nullptr,
                   ctx.delta ? &delta_values : nullptr);
  }
  return result;
}

QueryResult run_query_bruteforce_impl(const CompiledPlan& plan,
                                      const TreeSnapshot& snapshot,
                                      const LiveView* view,
                                      const real_t* point) {
  const KdTree& tree = serving_tree(plan, snapshot);
  const index_t nr = tree.data().size();
  Workspace ws;
  // Size the value buffers for the whole dataset: the oracle is one flat
  // scalar sweep in canonical visible order -- ascending permuted main
  // indices minus tombstones, then live delta slots in insertion order --
  // bitwise-comparable with the two-root engine's accumulation.
  prepare_workspace(plan, tree, point, nr, ws);
  Ctx ctx = make_ctx(plan, tree, point, /*batch=*/false, ws);
  if (view) attach_view(ctx, *view);

  const real_t* vals = range_values(ctx, 0, nr);
  QueryResult result;
  if (plan.is_reduction) {
    KnnList list(ws.knn_dists.data(), ws.knn_ids.data(), plan.slots);
    list.reset();
    for (index_t j = 0; j < nr; ++j) {
      if (!main_alive(ctx, j)) continue;
      list.insert(plan.sense * vals[j], j);
    }
    for (index_t s = 0; s < ctx.delta_count; ++s) {
      if (ctx.delta->slot_dead(s, ctx.watermark)) continue;
      list.insert(plan.sense * delta_value(ctx, s), nr + s);
    }
    finalize_reduction(plan, tree, ws, &result);
  } else if (plan.is_sum) {
    real_t total = 0;
    for (index_t j = 0; j < nr; ++j) {
      if (!main_alive(ctx, j)) continue;
      total += vals[j];
    }
    for (index_t s = 0; s < ctx.delta_count; ++s) {
      if (ctx.delta->slot_dead(s, ctx.watermark)) continue;
      total += delta_value(ctx, s);
    }
    result.values = {total};
  } else {
    std::vector<index_t> ids;
    std::vector<real_t> values;
    for (index_t j = 0; j < nr; ++j) {
      if (vals[j] == 0 || !main_alive(ctx, j)) continue;
      ids.push_back(j);
      if (plan.is_union) values.push_back(vals[j]);
    }
    std::vector<index_t> delta_ids;
    std::vector<real_t> delta_values;
    if (ctx.delta)
      drain_delta_union(ctx, plan.is_union, &delta_ids, &delta_values);
    finalize_union(tree, plan.is_union, &ids, &values, &result,
                   ctx.delta ? &delta_ids : nullptr,
                   ctx.delta ? &delta_values : nullptr);
  }
  return result;
}

const TreeSnapshot& view_snapshot(const LiveView& view) {
  if (!view.snapshot)
    throw std::invalid_argument("serve: LiveView carries no snapshot");
  return *view.snapshot;
}

} // namespace

bool routes_to_graph(const CompiledPlan& plan, const TreeSnapshot& snapshot,
                     const EngineOptions& options) {
  if (!options.approx || !snapshot.graph()) return false;
  // Min-sense comparative reductions only: graph candidates arrive in
  // ascending distance order, which is plan value order exactly when the
  // envelope is the identity and smaller distance means a better slot.
  if (!plan.is_reduction || plan.sense <= 0) return false;
  const KernelInfo& kernel = plan.plan.kernel;
  if (!kernel.normalized) return false;
  if (!plan.plan.facts.envelope_identity) return false;
  // The graph's internal metric is squared Euclidean; Euclidean shares its
  // ordering (sqrt at the edge, like the exact path).
  return kernel.metric == MetricKind::SqEuclidean ||
         kernel.metric == MetricKind::Euclidean;
}

QueryResult run_query(const CompiledPlan& plan, const TreeSnapshot& snapshot,
                      const real_t* point, const EngineOptions& options,
                      Workspace& ws) {
  return run_query_impl(plan, snapshot, nullptr, point, options, ws);
}

QueryResult run_query(const CompiledPlan& plan, const LiveView& view,
                      const real_t* point, const EngineOptions& options,
                      Workspace& ws) {
  return run_query_impl(plan, view_snapshot(view), &view, point, options, ws);
}

QueryResult run_query_bruteforce(const CompiledPlan& plan,
                                 const TreeSnapshot& snapshot,
                                 const real_t* point) {
  return run_query_bruteforce_impl(plan, snapshot, nullptr, point);
}

QueryResult run_query_bruteforce(const CompiledPlan& plan,
                                 const LiveView& view, const real_t* point) {
  return run_query_bruteforce_impl(plan, view_snapshot(view), &view, point);
}

} // namespace portal::serve
