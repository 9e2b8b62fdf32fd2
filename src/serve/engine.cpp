#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  Evaluator ev;                       // the rule core's view of the plan
  const SoaMirror* mirror = nullptr;  // null: scalar leaves
  real_t tau = 0;
  bool decides = false;               // decides_nodes: node bounds can matter
  Workspace* ws = nullptr;
  // Live-view fields (null/0/false on snapshot-only queries, which keeps
  // every live branch below off the snapshot path).
  const DeltaTree* delta = nullptr;
  std::uint64_t watermark = 0;
  index_t delta_count = 0;  // visible delta slots are [0, delta_count)
  bool filter_main = false; // this generation holds main tombstones
};

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

/// Size the workspace for one query and bind the context to it. `batch`
/// selects SoA leaf tiles (when the tree carries a mirror); a live `view`
/// adds its delta side. filter_main stays false when the generation never
/// tombstoned a main point, so the descent pays zero per-point cost for the
/// insert-only workload.
Ctx make_ctx(const CompiledPlan& plan, const KdTree& tree, const LiveView* view,
             const real_t* point, index_t leaf_capacity, bool batch, real_t tau,
             Workspace& ws) {
  Ctx ctx;
  if (view != nullptr && view->delta) {
    ctx.delta = view->delta.get();
    ctx.watermark = view->watermark;
    ctx.delta_count = view->delta_count;
    ctx.filter_main = view->filter_main;
  }
  const index_t dim = tree.data().dim();
  // The delta drains as one scalar range, so the buffers hold it too.
  ws.leaf.resize(dim, std::max(leaf_capacity, ctx.delta_count));
  if (plan.traits.is_reduction) {
    ws.knn_dists.resize(static_cast<std::size_t>(plan.traits.slots));
    ws.knn_ids.resize(static_cast<std::size_t>(plan.traits.slots));
  }
  ctx.plan = &plan;
  ctx.tree = &tree;
  ctx.qpt = point;
  ctx.ev = make_evaluator(plan.plan, plan.traits, plan.eval);
  if (ctx.ev.metric != MetricKind::SqEuclidean &&
      ctx.ev.metric != MetricKind::Euclidean) {
    ws.qbox = BBox(dim);
    ws.qbox.include_point(point);
  }
  if (batch && !tree.mirror().empty()) ctx.mirror = &tree.mirror();
  ctx.tau = tau;
  ctx.decides = decides_nodes(plan.plan.facts, plan.traits, tau);
  ctx.ws = &ws;
  return ctx;
}

/// Point-to-node bounds in the selection space. The L2 family goes through
/// the direct point-box routines; other metrics reuse the node-pair bounds
/// with a degenerate (zero-volume) query box.
real_t node_min(const Ctx& ctx, const KdNode& node) {
  if (ctx.ev.metric == MetricKind::SqEuclidean)
    return node.box.min_sq_dist_point(ctx.qpt);
  if (ctx.ev.metric == MetricKind::Euclidean)
    return std::sqrt(node.box.min_sq_dist_point(ctx.qpt));
  return node.box.min_dist(ctx.ev.metric, ctx.ws->qbox, ctx.ev.maha);
}

real_t node_max(const Ctx& ctx, const KdNode& node) {
  if (ctx.ev.metric == MetricKind::SqEuclidean)
    return node.box.max_sq_dist_point(ctx.qpt);
  if (ctx.ev.metric == MetricKind::Euclidean)
    return std::sqrt(node.box.max_sq_dist_point(ctx.qpt));
  return node.box.max_dist(ctx.ev.metric, ctx.ws->qbox, ctx.ev.maha);
}

/// The rule core's decision for the query point against one node.
NodeDecision decide(const Ctx& ctx, const KdNode& node, real_t bound) {
  return decide_node(ctx.plan->plan.facts, ctx.ev, ctx.plan->traits,
                     node_min(ctx, node), node_max(ctx, node), bound, ctx.tau);
}

/// Kernel values of the query against a permuted main range.
const real_t* range_values(const Ctx& ctx, index_t begin, index_t count) {
  return leaf_values(ctx.ev, ctx.tree->data(), ctx.mirror, begin, count,
                     ctx.qpt, ctx.ws->leaf);
}

/// Kernel values of the query against every delta slot in [0,
/// delta_count), dead ones included (callers skip them): the main leaves'
/// scalar per-point operation sequence over one range. The live brute-force
/// oracle drains through this too, which is what makes two-root answers
/// bitwise-comparable at tau == 0.
const real_t* delta_values(const Ctx& ctx) {
  return scalar_values(ctx.ev, ctx.delta->points(), 0, ctx.delta_count,
                       ctx.qpt, ctx.ws->leaf);
}

// The three rule sets below share one shape: prune_or_take applies the rule
// core's decision to the query point, fold(begin, count) folds a permuted
// main range (base_case folds a leaf; the oracle folds everything at once),
// drain_delta folds the visible delta slots after the main points, and
// finish writes the QueryResult.

/// Comparative reductions (k-NN family): scored nearest-first descent,
/// pruning nodes that cannot beat the current k-th best.
class ReductionRules {
 public:
  explicit ReductionRules(const Ctx& ctx)
      : ctx_(ctx),
        sense_(ctx.plan->traits.sense),
        list_(ctx.ws->knn_dists.data(), ctx.ws->knn_ids.data(),
              ctx.plan->traits.slots) {
    list_.reset();
  }

  bool prune_or_take(index_t n) {
    return ctx_.decides && decide(ctx_, ctx_.tree->node(n), list_.worst()) ==
                               NodeDecision::Prune;
  }

  real_t score(index_t n) { return node_min(ctx_, ctx_.tree->node(n)); }

  void base_case(index_t n) {
    fold(ctx_.tree->node(n).begin, ctx_.tree->node(n).count());
  }

  void fold(index_t begin, index_t count) {
    const real_t* vals = range_values(ctx_, begin, count);
    for (index_t j = 0; j < count; ++j)
      if (main_alive(ctx_, begin + j)) list_.insert(sense_ * vals[j], begin + j);
  }

  /// One candidate in the selection space (the graph path's entry).
  void insert(real_t value, index_t permuted) {
    list_.insert(sense_ * value, permuted);
  }

  /// Second-root sweep: insertion order, ids offset past the main tree
  /// (finish maps permuted main ids through perm(); delta ids pass through
  /// untouched).
  void drain_delta() {
    const index_t nr = ctx_.tree->data().size();
    const real_t* vals = delta_values(ctx_);
    for (index_t s = 0; s < ctx_.delta_count; ++s)
      if (!ctx_.delta->slot_dead(s, ctx_.watermark))
        list_.insert(sense_ * vals[s], nr + s);
  }

  /// Slots -> original-order output through the rule core's
  /// reduction_output, the same mapping as the executor's finalize.
  void finish(QueryResult* out) const {
    const OpTraits& t = ctx_.plan->traits;
    const KdTree& tree = *ctx_.tree;
    out->values.resize(static_cast<std::size_t>(t.slots));
    out->ids.assign(static_cast<std::size_t>(t.is_arg ? t.slots : 0), -1);
    for (index_t j = 0; j < t.slots; ++j) {
      out->values[static_cast<std::size_t>(j)] = reduction_output(
          ctx_.ws->knn_dists[static_cast<std::size_t>(j)], t, ctx_.ev);
      if (!t.is_arg) continue;
      const index_t id = ctx_.ws->knn_ids[static_cast<std::size_t>(j)];
      // Permuted main indices map back through perm(); delta ids (>= main
      // size) are already client-space (`main_size + slot`).
      out->ids[static_cast<std::size_t>(j)] =
          id < 0 ? -1 : (id >= tree.data().size() ? id : tree.perm()[id]);
    }
  }

 private:
  Ctx ctx_;
  real_t sense_;
  KnnList list_;
};

/// SUM plans (KDE family): unscored preorder descent -- leaves accumulate in
/// ascending permuted order, which is what makes tau == 0 bitwise-match the
/// ascending brute-force fold. Indicator sums (counting) bulk-accept /
/// bulk-reject on interval containment; smooth envelopes approximate whole
/// nodes only within the tau budget.
class SumRules {
 public:
  explicit SumRules(const Ctx& ctx) : ctx_(ctx) {}

  bool prune_or_take(index_t n) {
    if (!ctx_.decides) return false;
    const KdNode& node = ctx_.tree->node(n);
    switch (decide(ctx_, node, 0)) {
      case NodeDecision::Descend:
        return false;
      case NodeDecision::Prune:
        return true;
      case NodeDecision::AcceptAll: // every visible pair is exactly 1
        total_ += static_cast<real_t>(alive_count(ctx_, node));
        return true;
      case NodeDecision::Approximate:
        total_ += static_cast<real_t>(alive_count(ctx_, node)) *
                  center_value(ctx_.ev, ctx_.qpt, node.box, ctx_.ws->leaf);
        return true;
    }
    return false;
  }

  void base_case(index_t n) {
    fold(ctx_.tree->node(n).begin, ctx_.tree->node(n).count());
  }

  void fold(index_t begin, index_t count) {
    const real_t* vals = range_values(ctx_, begin, count);
    for (index_t j = 0; j < count; ++j)
      if (main_alive(ctx_, begin + j)) total_ += vals[j];
  }

  /// Delta slots accumulate strictly after the main sum, insertion order --
  /// the same additions in the same order as the live oracle's canonical
  /// fold, so tau == 0 stays bitwise across the two roots.
  void drain_delta() {
    const real_t* vals = delta_values(ctx_);
    for (index_t s = 0; s < ctx_.delta_count; ++s)
      if (!ctx_.delta->slot_dead(s, ctx_.watermark)) total_ += vals[s];
  }

  void finish(QueryResult* out) const { out->values = {total_}; }

 private:
  Ctx ctx_;
  real_t total_ = 0;
};

/// UNION/UNIONARG plans (range search): collect every reference with a
/// non-zero kernel value; indicator envelopes prune by interval containment.
class UnionRules {
 public:
  explicit UnionRules(const Ctx& ctx)
      : ctx_(ctx), want_values_(ctx.plan->traits.is_union) {}

  bool prune_or_take(index_t n) {
    if (!ctx_.decides) return false;
    const KdNode& node = ctx_.tree->node(n);
    switch (decide(ctx_, node, 0)) {
      case NodeDecision::Prune:
        return true;
      case NodeDecision::AcceptAll:
        for (index_t rj = node.begin; rj < node.end; ++rj)
          if (main_alive(ctx_, rj)) keep(&ids_, &values_, rj, 1);
        return true;
      default: // Descend (union plans are never approximation problems)
        return false;
    }
  }

  void base_case(index_t n) {
    fold(ctx_.tree->node(n).begin, ctx_.tree->node(n).count());
  }

  void fold(index_t begin, index_t count) {
    const real_t* vals = range_values(ctx_, begin, count);
    for (index_t j = 0; j < count; ++j)
      if (vals[j] != 0 && main_alive(ctx_, begin + j))
        keep(&ids_, &values_, begin + j, vals[j]);
  }

  /// Delta slots in insertion order, already client-space and ascending:
  /// every delta id is above every main id, so finish appends them after
  /// the sorted main block without re-sorting.
  void drain_delta() {
    const index_t nr = ctx_.tree->data().size();
    const real_t* vals = delta_values(ctx_);
    for (index_t s = 0; s < ctx_.delta_count; ++s)
      if (vals[s] != 0 && !ctx_.delta->slot_dead(s, ctx_.watermark))
        keep(&delta_ids_, &delta_values_, nr + s, vals[s]);
  }

  /// Original reference ids, sorted ascending (values follow) -- the
  /// executor's CSR ordering -- then the delta entries.
  void finish(QueryResult* out) {
    for (index_t& id : ids_) id = ctx_.tree->perm()[id];
    sort_by_id(&ids_, want_values_ ? &values_ : nullptr);
    ids_.insert(ids_.end(), delta_ids_.begin(), delta_ids_.end());
    values_.insert(values_.end(), delta_values_.begin(), delta_values_.end());
    out->ids = std::move(ids_);
    out->values = std::move(values_);
  }

 private:
  void keep(std::vector<index_t>* ids, std::vector<real_t>* values, index_t id,
            real_t value) const {
    ids->push_back(id);
    if (want_values_) values->push_back(value);
  }

  Ctx ctx_;
  bool want_values_;
  std::vector<index_t> ids_, delta_ids_;
  std::vector<real_t> values_, delta_values_;
};

/// One query through its family's rule set: the kd descent, or (the
/// oracle) one flat scalar fold over every main point in ascending permuted
/// order. The visible delta slots drain after the main points either way.
template <typename Rules>
QueryResult answer(const Ctx& ctx, bool oracle) {
  Rules rules(ctx);
  QueryResult result;
  if (oracle)
    rules.fold(0, ctx.tree->data().size());
  else
    result.stats = single_traverse(*ctx.tree, rules);
  if (ctx.delta) rules.drain_delta();
  rules.finish(&result);
  return result;
}

QueryResult answer(const Ctx& ctx, bool oracle) {
  const OpTraits& t = ctx.plan->traits;
  if (t.is_reduction) return answer<ReductionRules>(ctx, oracle);
  if (t.is_sum) return answer<SumRules>(ctx, oracle);
  return answer<UnionRules>(ctx, oracle);
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
/// this path filters tombstoned candidates against the pinned view, feeds
/// them to ReductionRules in the plan's selection space (already squared
/// under squared selection; sqrt otherwise, the same edge op as the exact
/// path), and drains and finishes exactly like the descent. Only
/// completeness is approximate: every reported (value, id) pair is exact
/// for that pair.
QueryResult run_query_graph(const Ctx& ctx, const KnnGraph& graph,
                            const EngineOptions& options) {
  Workspace& ws = *ctx.ws;
  // Search the full beam (not just k): tombstoned candidates are dropped
  // below, so the extra slots are the slack that keeps k survivors likely.
  const index_t beam =
      std::max<index_t>(options.beam_width, ctx.plan->traits.slots);
  ws.graph_sq.resize(static_cast<std::size_t>(beam));
  ws.graph_ids.resize(static_cast<std::size_t>(beam));
  const index_t found = graph.search(ctx.qpt, beam, beam, ws.graph,
                                     ws.graph_sq.data(), ws.graph_ids.data());

  ReductionRules rules(ctx);
  // Graph ids are original-order; the reduction slots hold permuted main
  // indices.
  const std::vector<index_t>& inv = ctx.tree->inverse_perm();
  for (index_t j = 0; j < found; ++j) {
    const index_t permuted =
        inv[static_cast<std::size_t>(ws.graph_ids[static_cast<std::size_t>(j)])];
    if (!main_alive(ctx, permuted)) continue;
    const real_t sq = ws.graph_sq[static_cast<std::size_t>(j)];
    rules.insert(ctx.ev.metric == MetricKind::Euclidean ? std::sqrt(sq) : sq,
                 permuted);
  }
  if (ctx.delta) rules.drain_delta();

  QueryResult result;
  rules.finish(&result);
  result.stats.pairs_visited = ws.graph.dist_evals;
  result.stats.base_cases = ws.graph.hops;
  return result;
}

/// Shared single-query core: snapshot-only callers pass a null view, which
/// leaves every live branch off (bitwise the snapshot-only answer).
QueryResult run_query_impl(const CompiledPlan& plan,
                           const TreeSnapshot& snapshot, const LiveView* view,
                           const real_t* point, const EngineOptions& options,
                           Workspace& ws) {
  const KdTree& tree = serving_tree(plan, snapshot);
  Ctx ctx = make_ctx(plan, tree, view, point, tree.stats().max_leaf_count,
                     options.batch_base_cases, options.tau, ws);
  if (routes_to_graph(plan, snapshot, options))
    return run_query_graph(ctx, *snapshot.graph(), options);
  return answer(ctx, /*oracle=*/false);
}

/// The oracle: scalar leaves, the whole main range as one fold, and a
/// workspace sized for it -- bitwise-comparable with the two-root engine's
/// accumulation (canonical visible order: ascending permuted main indices
/// minus tombstones, then live delta slots in insertion order).
QueryResult run_query_bruteforce_impl(const CompiledPlan& plan,
                                      const TreeSnapshot& snapshot,
                                      const LiveView* view,
                                      const real_t* point) {
  const KdTree& tree = serving_tree(plan, snapshot);
  Workspace ws;
  Ctx ctx = make_ctx(plan, tree, view, point, tree.data().size(),
                     /*batch=*/false, /*tau=*/0, ws);
  return answer(ctx, /*oracle=*/true);
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
  if (!plan.traits.is_reduction || plan.traits.sense <= 0) return false;
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
