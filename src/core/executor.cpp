#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <omp.h>

#include "kernels/batch.h"
#include "obs/trace.h"
#include "problems/common.h"
#include "traversal/multitree.h"
#include "util/threading.h"
#include "util/timer.h"

namespace portal {
namespace {

/// Per-query accumulation state. Reductions store sense-space values in the
/// selection space (reduction_output maps them back).
struct QueryState {
  OpTraits traits;
  index_t nq = 0;
  index_t forall_cols = 0;
  std::vector<real_t> values; // reductions: nq x slots; sum/prod: nq
  std::vector<index_t> ids;   // arg reductions
  std::vector<std::vector<real_t>> union_values;
  std::vector<std::vector<index_t>> union_ids;

  void init(const OpTraits& t, index_t n, index_t nr) {
    traits = t;
    nq = n;
    if (t.is_reduction) {
      values.assign(static_cast<std::size_t>(n) * t.slots,
                    std::numeric_limits<real_t>::max());
      // ids always allocated: KnnList maintains the id slots alongside the
      // sorted values even when the operator is not arg-flavored.
      ids.assign(static_cast<std::size_t>(n) * t.slots, -1);
    } else if (t.is_sum) {
      values.assign(n, 0);
    } else if (t.is_prod) {
      values.assign(n, 1);
    } else if (t.is_forall) {
      forall_cols = nr;
      if (static_cast<double>(n) * static_cast<double>(nr) > 2e8)
        throw std::invalid_argument(
            "Portal: forall x forall output would exceed 200M cells; "
            "restructure the program (this shape is meant for small inner "
            "sets, e.g. mixture components)");
      values.assign(static_cast<std::size_t>(n) * nr, 0);
    } else { // union / unionarg
      if (t.is_union) union_values.assign(n, {});
      union_ids.assign(n, {}); // unionarg ids; union also records ids for CSR
    }
  }

  /// Fold the kernel values of query qi against references
  /// [rbegin, rbegin + count) into its state, skipping references whose
  /// label (rlabels, indexed like the references) equals qlabel >= 0.
  void fold(index_t qi, index_t rbegin, index_t count, const real_t* vals,
            index_t qlabel, const index_t* rlabels) {
    const OpTraits& t = traits;
    const auto excluded = [&](index_t rj) {
      return qlabel >= 0 && rlabels[rj] == qlabel;
    };
    if (t.is_reduction) {
      KnnList list(values.data() + qi * t.slots, ids.data() + qi * t.slots,
                   t.slots);
      list.insert_bulk(
          count, rbegin, [&](index_t j) { return t.sense * vals[j]; },
          [&](index_t j) { return !excluded(rbegin + j); });
    } else if (t.is_sum) {
      real_t acc = 0;
      for (index_t j = 0; j < count; ++j)
        if (!excluded(rbegin + j)) acc += vals[j];
      values[qi] += acc;
    } else if (t.is_prod) {
      real_t acc = 1;
      for (index_t j = 0; j < count; ++j)
        if (!excluded(rbegin + j)) acc *= vals[j];
      values[qi] *= acc;
    } else if (t.is_forall) {
      for (index_t j = 0; j < count; ++j)
        values[qi * forall_cols + rbegin + j] = vals[j];
    } else { // union / unionarg: collect entries with non-zero kernel value
      for (index_t j = 0; j < count; ++j) {
        if (vals[j] == 0 || excluded(rbegin + j)) continue;
        union_ids[qi].push_back(rbegin + j);
        if (t.is_union) union_values[qi].push_back(vals[j]);
      }
    }
  }
};

/// The generic dual-tree rule set: Algorithm 1 with the rule core's node
/// decision and leaf evaluator. What stays here is the dual-tree shape:
/// box-to-box node bounds, applying a decision to a whole query node, the
/// per-node bound propagation and the label prune.
class GenericRules {
 public:
  GenericRules(const ProblemPlan& plan, const PortalConfig& config,
               const Evaluator& ev, const KdTree& qtree, const KdTree& rtree,
               QueryState& state)
      : plan_(plan),
        ev_(ev),
        qtree_(qtree),
        rtree_(rtree),
        state_(state),
        traits_(state.traits),
        tau_(config.tau),
        decides_(decides_nodes(plan.facts, traits_, tau_)),
        workspaces_(num_threads()) {
    const index_t dim = qtree.data().dim();
    for (Workspace& ws : workspaces_) {
      ws.lower.resize(batch::whole_blocks(qtree.stats().max_leaf_count));
      ws.qpt.resize(dim);
      ws.leaf.resize(dim, batch::whole_blocks(rtree.stats().max_leaf_count));
    }
    if (config.batch_base_cases && !rtree.mirror().empty())
      mirror_ = &rtree.mirror();
    if (plan.facts.reduction_prune_legal && traits_.is_reduction)
      bounds_ = std::vector<AtomicBound>(qtree.num_nodes());
    if (config.exclude_same_label != nullptr) {
      // Permute original-order labels into each tree's order.
      const std::vector<index_t>& original = *config.exclude_same_label;
      q_labels_.resize(original.size());
      for (index_t i = 0; i < static_cast<index_t>(original.size()); ++i)
        q_labels_[i] = original[qtree.perm()[i]];
      r_labels_.resize(original.size());
      for (index_t i = 0; i < static_cast<index_t>(original.size()); ++i)
        r_labels_[i] = original[rtree.perm()[i]];
      label_nodes(qtree, q_labels_, &q_node_label_);
      label_nodes(rtree, r_labels_, &r_node_label_);
    }
  }

  bool prune_or_approx(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    const bool labelled = !q_node_label_.empty();

    // Fully-same-label prune (MST's fully-connected condition).
    if (labelled && q_node_label_[q] >= 0 && q_node_label_[q] == r_node_label_[r])
      return true;
    if (!decides_) return false;

    const real_t dmin = qnode.box.min_dist(ev_.metric, rnode.box, ev_.maha);
    const real_t dmax = qnode.box.max_dist(ev_.metric, rnode.box, ev_.maha);
    const real_t bound = bounds_.empty() ? 0 : bounds_[q].load();
    switch (decide_node(plan_.facts, ev_, traits_, dmin, dmax, bound, tau_)) {
      case NodeDecision::Descend:
        return false;
      case NodeDecision::Prune:
        return true;
      case NodeDecision::AcceptAll:
        if (labelled) return false; // a same-label pair must not count
        bulk_accept(qnode, rnode);
        return true;
      case NodeDecision::Approximate:
        if (labelled) return false; // stay exact under labels
        apply_approx(qnode, rnode);
        return true;
    }
    return false;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_dist(ev_.metric, rtree_.node(r).box, ev_.maha);
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];

    real_t leaf_bound = bounds_.empty() ? 0 : std::numeric_limits<real_t>::lowest();

    // Point-level prune for identity-envelope reductions over the squared
    // L2 selection space (k-NN / MST / Hausdorff): the expert kernels all
    // carry it.
    const bool point_prunable = !bounds_.empty() && ev_.identity &&
                                traits_.sense > 0 &&
                                ev_.metric == MetricKind::SqEuclidean;

    // The whole query leaf's point-to-box bounds in one pass.
    if (point_prunable)
      batch::box_sq_lower(qtree_.mirror().tile(qnode.begin, qnode.count()),
                          rnode.box.lo_data(), rnode.box.hi_data(),
                          ws.lower.data());

    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      if (point_prunable) {
        const real_t worst = state_.values[qi * traits_.slots + (traits_.slots - 1)];
        if (ws.lower[qi - qnode.begin] > worst) {
          leaf_bound = std::max(leaf_bound, worst);
          continue;
        }
      }

      const real_t* vals;
      if (point_prunable && mirror_ != nullptr) {
        // Identity envelope over squared L2: the leaf values are the
        // squared distances, from the expert k-NN's row kernel.
        const index_t row = qi - qnode.begin;
        batch::sq_dists_rows(qtree_.mirror().tile(qnode.begin, qnode.count()),
                             &row, 1, mirror_->tile(rnode.begin, rnode.count()),
                             ws.leaf.dists.data());
        batch::count_batch_tile(rnode.count());
        vals = ws.leaf.dists.data();
      } else {
        qtree_.data().copy_point(qi, ws.qpt.data());
        vals = leaf_values(ev_, rtree_.data(), mirror_, rnode.begin,
                           rnode.count(), ws.qpt.data(), ws.leaf);
      }
      state_.fold(qi, rnode.begin, rnode.count(), vals,
                  q_labels_.empty() ? -1 : q_labels_[qi], r_labels_.data());

      if (!bounds_.empty()) {
        const real_t worst =
            state_.values[qi * traits_.slots + (traits_.slots - 1)];
        leaf_bound = std::max(leaf_bound, worst);
      }
    }

    if (!bounds_.empty()) {
      bounds_[q].store_min(leaf_bound);
      index_t parent = qnode.parent;
      while (parent >= 0) {
        const KdNode& pnode = qtree_.node(parent);
        const real_t combined = std::max(bounds_[pnode.left].load(),
                                         bounds_[pnode.right].load());
        if (combined >= bounds_[parent].load()) break;
        bounds_[parent].store_min(combined);
        parent = pnode.parent;
      }
    }
  }

 private:
  struct Workspace {
    std::vector<real_t> lower; // the query leaf's point-to-box bounds
    std::vector<real_t> qpt;
    LeafScratch leaf;
  };

  void bulk_accept(const KdNode& qnode, const KdNode& rnode) {
    PORTAL_OBS_COUNT("rules/bulk_accepts", 1);
    // Indicator kernel value is exactly 1 across the accepted pair.
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      if (traits_.is_sum) {
        state_.values[qi] += static_cast<real_t>(rnode.count());
      } else if (traits_.is_unionarg || traits_.is_union) {
        for (index_t rj = rnode.begin; rj < rnode.end; ++rj) {
          state_.union_ids[qi].push_back(rj);
          if (traits_.is_union) state_.union_values[qi].push_back(1);
        }
      } else if (traits_.is_forall) {
        for (index_t rj = rnode.begin; rj < rnode.end; ++rj)
          state_.values[qi * state_.forall_cols + rj] = 1;
      } // prod: a product of ones is a no-op
    }
  }

  void apply_approx(const KdNode& qnode, const KdNode& rnode) {
    PORTAL_OBS_COUNT("rules/approximations", 1);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    qnode.box.center_point(ws.qpt.data());
    const real_t value = center_value(ev_, ws.qpt.data(), rnode.box, ws.leaf);
    const real_t rcount = static_cast<real_t>(rnode.count());
    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      if (traits_.is_sum) {
        state_.values[qi] += rcount * value;
      } else if (traits_.is_prod) {
        state_.values[qi] *= std::pow(value, rcount);
      } else if (traits_.is_forall) {
        for (index_t rj = rnode.begin; rj < rnode.end; ++rj)
          state_.values[qi * state_.forall_cols + rj] = value;
      }
    }
  }

  /// Per-node single-label annotation (same scheme as dual-tree Boruvka).
  static void label_nodes(const KdTree& tree, const std::vector<index_t>& labels,
                          std::vector<index_t>* node_label) {
    node_label->assign(tree.num_nodes(), -1);
    for (index_t i = tree.num_nodes() - 1; i >= 0; --i) {
      const KdNode& node = tree.node(i);
      if (node.is_leaf()) {
        index_t l = labels[node.begin];
        for (index_t p = node.begin + 1; p < node.end; ++p)
          if (labels[p] != l) {
            l = -1;
            break;
          }
        (*node_label)[i] = l;
      } else {
        const index_t a = (*node_label)[node.left];
        const index_t b = (*node_label)[node.right];
        (*node_label)[i] = (a >= 0 && a == b) ? a : -1;
      }
    }
  }

  const ProblemPlan& plan_;
  const Evaluator& ev_;
  const KdTree& qtree_;
  const KdTree& rtree_;
  QueryState& state_;
  OpTraits traits_;
  real_t tau_;
  bool decides_;
  const SoaMirror* mirror_ = nullptr; // null: scalar leaves
  std::vector<AtomicBound> bounds_;
  std::vector<index_t> q_labels_, r_labels_;
  std::vector<index_t> q_node_label_, r_node_label_;
  std::vector<Workspace> workspaces_;
};

/// Assemble an OutputData from tree-order state (or original-order state when
/// `perm_q`/`perm_r` are null -- the brute-force path).
std::shared_ptr<OutputData> finalize(const ProblemPlan& plan, const Evaluator& ev,
                                     QueryState& state,
                                     const std::vector<index_t>* perm_q,
                                     const std::vector<index_t>* perm_r) {
  const LayerSpec& outer = plan.layers[0];
  const OpTraits t = state.traits;
  const index_t nq = state.nq;
  auto out = std::make_shared<OutputData>();

  const auto qmap = [&](index_t i) { return perm_q ? (*perm_q)[i] : i; };
  const auto rmap = [&](index_t j) { return perm_r ? (*perm_r)[j] : j; };

  if (outer.op.op == PortalOp::FORALL) {
    if (t.is_reduction) {
      out->rows = nq;
      out->cols = t.slots;
      out->values.assign(static_cast<std::size_t>(nq) * t.slots, 0);
      if (t.is_arg) out->indices.assign(static_cast<std::size_t>(nq) * t.slots, -1);
      for (index_t i = 0; i < nq; ++i)
        for (index_t j = 0; j < t.slots; ++j) {
          out->values[qmap(i) * t.slots + j] =
              reduction_output(state.values[i * t.slots + j], t, ev);
          if (t.is_arg) {
            const index_t id = state.ids[i * t.slots + j];
            out->indices[qmap(i) * t.slots + j] = id >= 0 ? rmap(id) : -1;
          }
        }
    } else if (t.is_sum || t.is_prod) {
      out->rows = nq;
      out->cols = 1;
      out->values.assign(nq, 0);
      for (index_t i = 0; i < nq; ++i) out->values[qmap(i)] = state.values[i];
    } else if (t.is_forall) {
      out->rows = nq;
      out->cols = state.forall_cols;
      out->values.assign(static_cast<std::size_t>(nq) * state.forall_cols, 0);
      for (index_t i = 0; i < nq; ++i)
        for (index_t j = 0; j < state.forall_cols; ++j)
          out->values[qmap(i) * state.forall_cols + rmap(j)] =
              state.values[i * state.forall_cols + j];
    } else { // union / unionarg -> CSR in original ordering
      out->rows = nq;
      out->cols = 0;
      std::vector<std::vector<index_t>> ids(nq);
      std::vector<std::vector<real_t>> vals(t.is_union ? nq : 0);
      for (index_t i = 0; i < nq; ++i) {
        const index_t oq = qmap(i);
        ids[oq].reserve(state.union_ids[i].size());
        for (std::size_t s = 0; s < state.union_ids[i].size(); ++s)
          ids[oq].push_back(rmap(state.union_ids[i][s]));
        if (t.is_union) vals[oq] = state.union_values[i];
        sort_by_id(&ids[oq], t.is_union ? &vals[oq] : nullptr);
      }
      out->offsets.resize(nq + 1);
      out->offsets[0] = 0;
      for (index_t i = 0; i < nq; ++i)
        out->offsets[i + 1] = out->offsets[i] + static_cast<index_t>(ids[i].size());
      for (index_t i = 0; i < nq; ++i) {
        out->lists.insert(out->lists.end(), ids[i].begin(), ids[i].end());
        if (t.is_union)
          out->values.insert(out->values.end(), vals[i].begin(), vals[i].end());
      }
    }
    return out;
  }

  // Scalar outer reductions (SUM / PROD / MIN / MAX over per-query results).
  if (!t.is_reduction && !t.is_sum && !t.is_prod)
    throw std::invalid_argument(
        "Portal: scalar outer reductions require a scalar inner reduction");
  if (t.is_reduction && t.slots != 1)
    throw std::invalid_argument(
        "Portal: scalar outer reductions require inner k = 1");

  real_t scalar = 0;
  bool first = true;
  for (index_t i = 0; i < nq; ++i) {
    real_t v = state.values[i * (t.is_reduction ? t.slots : 1)];
    if (t.is_reduction) {
      if (v == std::numeric_limits<real_t>::max()) continue; // no candidate
      v = reduction_output(v, t, ev);
    }
    switch (outer.op.op) {
      case PortalOp::SUM: scalar += v; break;
      case PortalOp::PROD: scalar = first ? v : scalar * v; break;
      case PortalOp::MIN: scalar = first ? v : std::min(scalar, v); break;
      case PortalOp::MAX: scalar = first ? v : std::max(scalar, v); break;
      default: break;
    }
    first = false;
  }
  out->rows = 1;
  out->cols = 1;
  out->values = {scalar};
  out->has_scalar = true;
  out->scalar = scalar;
  return out;
}

} // namespace

std::shared_ptr<const KdTree> TreeCache::get(const Storage& storage,
                                             index_t leaf_size) {
  const auto key = std::make_pair(storage.identity(), leaf_size);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second.tree;
  }
  // Build outside the lock: tree construction is the expensive part and must
  // not serialize concurrent executions hitting other keys.
  auto tree = std::make_shared<const KdTree>(storage.dataset(), leaf_size);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = cache_.emplace(key, Entry{storage.shared_dataset(), tree});
  return it->second.tree; // racing builders converge on the first insert
}

void TreeCache::adopt(const Storage& storage, std::shared_ptr<const KdTree> tree) {
  const auto key = std::make_pair(storage.identity(), tree->leaf_size());
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert_or_assign(key, Entry{storage.shared_dataset(), std::move(tree)});
}

ExecutionResult execute_generic(const ProblemPlan& plan, const PortalConfig& config,
                                const EvaluatorFns& eval, TreeCache* cache) {
  const LayerSpec& outer = plan.layers[0];
  const LayerSpec& inner = plan.layers[1];
  if (outer.storage.size() == 0 || inner.storage.size() == 0)
    throw std::invalid_argument("Portal: empty dataset");

  ExecutionResult result;
  Timer timer;
  PORTAL_OBS_SCOPE(tree_scope, "executor/tree_build");
  TreeCache local_cache;
  TreeCache* trees = cache != nullptr ? cache : &local_cache;
  const auto qtree = trees->get(outer.storage, config.leaf_size);
  const auto rtree = outer.storage.identity() == inner.storage.identity()
                         ? qtree
                         : trees->get(inner.storage, config.leaf_size);
  tree_scope.stop();
  result.tree_seconds = timer.elapsed_s();

  QueryState state;
  state.init(op_traits(inner.op), outer.storage.size(), inner.storage.size());
  const Evaluator ev = make_evaluator(plan, state.traits, eval);

  timer.reset();
  PORTAL_OBS_SCOPE(traverse_scope, "executor/traversal");
  GenericRules rules(plan, config, ev, *qtree, *rtree, state);
  TraversalOptions topt;
  topt.parallel = config.parallel;
  topt.task_depth = config.task_depth;
  result.stats = dual_traverse(*qtree, *rtree, rules, topt);
  traverse_scope.stop();
  result.traversal_seconds = timer.elapsed_s();

  result.output = finalize(plan, ev, state, &qtree->perm(), &rtree->perm());
  return result;
}

ExecutionResult execute_bruteforce(const ProblemPlan& plan,
                                   const PortalConfig& config,
                                   const EvaluatorFns& eval) {
  const LayerSpec& outer = plan.layers[0];
  const LayerSpec& inner = plan.layers[1];
  const Dataset& qdata = outer.storage.dataset();
  const Dataset& rdata = inner.storage.dataset();
  const index_t nq = qdata.size();
  const index_t nr = rdata.size();
  const index_t dim = qdata.dim();

  QueryState state;
  state.init(op_traits(inner.op), nq, nr);
  const Evaluator ev = make_evaluator(plan, state.traits, eval);
  const std::vector<index_t>* labels = config.exclude_same_label;

  PORTAL_OBS_SCOPE(brute_scope, "executor/bruteforce");
  Timer timer;
#pragma omp parallel if (config.parallel)
  {
    std::vector<real_t> qpt(dim);
    LeafScratch leaf;
    leaf.resize(dim, nr);
#pragma omp for schedule(static)
    for (index_t i = 0; i < nq; ++i) {
      qdata.copy_point(i, qpt.data());
      const real_t* vals =
          leaf_values(ev, rdata, /*mirror=*/nullptr, 0, nr, qpt.data(), leaf);
      state.fold(i, 0, nr, vals, labels ? (*labels)[i] : -1,
                 labels ? labels->data() : nullptr);
    }
  }

  ExecutionResult result;
  result.traversal_seconds = timer.elapsed_s();
  result.output = finalize(plan, ev, state, nullptr, nullptr);
  return result;
}

std::string compare_outputs(const OutputData& expected, const OutputData& actual,
                            real_t tolerance) {
  if (expected.rows != actual.rows || expected.cols != actual.cols)
    return "shape mismatch";
  if (expected.has_scalar != actual.has_scalar) return "scalar-ness mismatch";
  if (expected.has_scalar) {
    const real_t denom = std::max(std::abs(expected.scalar), real_t(1));
    if (std::abs(expected.scalar - actual.scalar) > tolerance * denom)
      return "scalar mismatch: expected " + std::to_string(expected.scalar) +
             ", got " + std::to_string(actual.scalar);
    return {};
  }
  if (expected.values.size() != actual.values.size()) return "value count mismatch";
  for (std::size_t i = 0; i < expected.values.size(); ++i) {
    const real_t e = expected.values[i];
    const real_t a = actual.values[i];
    if (std::isnan(e) && std::isnan(a)) continue;
    if (std::abs(e - a) > tolerance * std::max(std::abs(e), real_t(1)))
      return "value mismatch at " + std::to_string(i) + ": expected " +
             std::to_string(e) + ", got " + std::to_string(a);
  }
  if (expected.offsets != actual.offsets) return "CSR offsets mismatch";
  if (expected.lists != actual.lists) return "CSR lists mismatch";
  return {};
}

} // namespace portal
