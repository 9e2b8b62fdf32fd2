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
#include "util/log.h"
#include "util/threading.h"
#include "util/timer.h"

namespace portal {
namespace {

struct InnerTraits {
  index_t slots = 1;
  real_t sense = 1; // +1 min-like, -1 max-like (reductions run in sense space)
  bool is_reduction = false;
  bool is_arg = false;
  bool is_sum = false;
  bool is_prod = false;
  bool is_forall = false;
  bool is_union = false;
  bool is_unionarg = false;
};

InnerTraits inner_traits(const OpSpec& spec) {
  InnerTraits t;
  switch (spec.op) {
    case PortalOp::SUM: t.is_sum = true; return t;
    case PortalOp::PROD: t.is_prod = true; return t;
    case PortalOp::FORALL: t.is_forall = true; return t;
    case PortalOp::UNION: t.is_union = true; return t;
    case PortalOp::UNIONARG: t.is_unionarg = true; return t;
    default:
      t.is_reduction = true;
      t.is_arg = op_is_arg(spec.op);
      t.sense = op_is_min_like(spec.op) ? real_t(1) : real_t(-1);
      t.slots = op_category(spec.op) == OpCategory::Multi ? spec.k : 1;
      return t;
  }
}

/// Metric distances from one query point to a reference range, in the
/// metric's *natural* space (true distance for Euclidean -- the envelope's
/// input space).
void natural_dists(MetricKind metric, const MahalanobisContext* maha,
                   const Dataset& rdata, index_t rbegin, index_t rend,
                   const real_t* qpt, real_t* out, real_t* scratch,
                   real_t* rpt_buf) {
  const index_t count = rend - rbegin;
  switch (metric) {
    case MetricKind::SqEuclidean:
      sq_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Euclidean:
      sq_dists_to_range(rdata, rbegin, rend, qpt, out);
      for (index_t j = 0; j < count; ++j) out[j] = std::sqrt(out[j]);
      return;
    case MetricKind::Manhattan:
      l1_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Chebyshev:
      linf_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Mahalanobis:
      for (index_t j = 0; j < count; ++j) {
        rdata.copy_point(rbegin + j, rpt_buf);
        out[j] = maha->sq_dist(qpt, rpt_buf, scratch);
      }
      return;
  }
  throw std::logic_error("natural_dists: unhandled metric");
}

/// Per-query accumulation state. Reductions store sense-space values.
struct QueryState {
  InnerTraits traits;
  index_t nq = 0;
  index_t forall_cols = 0;
  std::vector<real_t> values; // reductions: nq x slots; sum/prod: nq
  std::vector<index_t> ids;   // arg reductions
  std::vector<std::vector<real_t>> union_values;
  std::vector<std::vector<index_t>> union_ids;

  void init(const InnerTraits& t, index_t n, index_t nr) {
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
};

/// The generic dual-tree rule set: Algorithm 1 driven by the plan's category
/// and the backend's evaluator.
class GenericRules {
 public:
  GenericRules(const ProblemPlan& plan, const PortalConfig& config,
               const EvaluatorFns& eval, const KdTree& qtree, const KdTree& rtree,
               QueryState& state)
      : plan_(plan),
        config_(config),
        eval_(eval),
        qtree_(qtree),
        rtree_(rtree),
        state_(state),
        traits_(state.traits),
        metric_(plan.kernel.metric),
        maha_(plan.kernel.maha.get()),
        // Envelope classification consulted by the prune rules, read from
        // the plan's KernelFacts (the one legality source).
        identity_env_(plan.facts.envelope_identity),
        indicator_env_(plan.facts.envelope_indicator),
        tau_(config.tau),
        // Exact comparative reductions over L2 select in squared space (one
        // sqrt per surviving slot at finish() instead of one per candidate)
        // -- the same transform the expert k-NN kernel applies. Monotone, so
        // prune decisions and the selected set are unchanged; VM and JIT
        // share this rule set, so their bitwise pairing is preserved.
        sq_select_(identity_env_ && traits_.is_reduction && traits_.sense > 0 &&
                   metric_ == MetricKind::Euclidean &&
                   plan.category == ProblemCategory::Pruning),
        workspaces_(num_threads()) {
    const index_t dim = qtree.data().dim();
    const index_t max_leaf = rtree.stats().max_leaf_count;
    for (Workspace& ws : workspaces_) {
      ws.qpt.resize(dim);
      ws.rpt.resize(dim);
      // 4*dim+4 covers point_distance gathers; the batched Mahalanobis solve
      // works kMahaBlock lanes at a time and needs 2*dim*kMahaBlock.
      ws.scratch.resize(std::max(4 * dim + 4, 2 * dim * batch::kMahaBlock));
      ws.dists.resize(max_leaf);
      ws.vals.resize(max_leaf);
    }
    batch_ = config.batch_base_cases && !rtree.mirror().empty();
    if (plan.category == ProblemCategory::Pruning && traits_.is_reduction)
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

    // Fully-same-label prune (MST's fully-connected condition).
    if (!q_node_label_.empty() && q_node_label_[q] >= 0 &&
        q_node_label_[q] == r_node_label_[r])
      return true;

    switch (plan_.category) {
      case ProblemCategory::Pruning: {
        const real_t dmin = qnode.box.min_dist(select_metric(), rnode.box, maha_);
        if (indicator_env_) {
          const real_t lo = plan_.kernel.indicator_lo;
          const real_t hi = plan_.kernel.indicator_hi;
          const real_t dmax = qnode.box.max_dist(metric_, rnode.box, maha_);
          if (traits_.is_reduction) {
            // Comparative op over a 0/1 kernel (argmin of an indicator):
            // zeros are candidates too, so distance-based cuts are unsound.
            // Degenerate shape; evaluate exhaustively.
            return false;
          }
          if (dmin >= hi || dmax <= lo) return true; // bulk reject
          if (dmin > lo && dmax < hi && q_node_label_.empty()) {
            bulk_accept(qnode, rnode);
            return true;
          }
          return false;
        }
        // Comparative reduction with monotone envelope: prune when the best
        // achievable sense-space value cannot beat the node bound. Under
        // sq-space selection dmin was already computed squared below.
        const real_t dmax = qnode.box.max_dist(select_metric(), rnode.box, maha_);
        real_t emin, emax;
        envelope_bounds(dmin, dmax, &emin, &emax);
        const real_t pair_best = std::min(traits_.sense * emin, traits_.sense * emax);
        return pair_best > bounds_[q].load();
      }
      case ProblemCategory::Approximation: {
        if (!q_node_label_.empty()) return false; // stay exact under labels
        const real_t dmin = qnode.box.min_dist(metric_, rnode.box, maha_);
        const real_t dmax = qnode.box.max_dist(metric_, rnode.box, maha_);
        real_t emin, emax;
        envelope_bounds(dmin, dmax, &emin, &emax);
        if (emax - emin > tau_) return false;
        apply_approx(qnode, rnode);
        return true;
      }
      case ProblemCategory::Exhaustive:
        return false;
    }
    return false;
  }

  real_t score(index_t q, index_t r) {
    return qtree_.node(q).box.min_dist(select_metric(), rtree_.node(r).box,
                                       maha_);
  }

  /// Map sq-space reduction state back to natural distances (one sqrt per
  /// surviving slot; the max() sentinel marks an unfilled slot and passes
  /// through untouched).
  void finish() {
    if (!sq_select_) return;
    for (real_t& v : state_.values)
      if (v != std::numeric_limits<real_t>::max()) v = std::sqrt(v);
  }

  void base_case(index_t q, index_t r) {
    const KdNode& qnode = qtree_.node(q);
    const KdNode& rnode = rtree_.node(r);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    const index_t rcount = rnode.count();
    const index_t dim = qtree_.data().dim();
    const bool normalized = plan_.kernel.normalized;

    real_t leaf_bound = bounds_.empty() ? 0 : std::numeric_limits<real_t>::lowest();

    // Point-level prune applies to identity-envelope reductions over the L2
    // family (k-NN / MST / Hausdorff): the expert kernels all carry it.
    const bool point_prunable =
        !bounds_.empty() && identity_env_ && traits_.sense > 0 &&
        (metric_ == MetricKind::SqEuclidean || metric_ == MetricKind::Euclidean);

    for (index_t qi = qnode.begin; qi < qnode.end; ++qi) {
      qtree_.data().copy_point(qi, ws.qpt.data());

      if (point_prunable) {
        const real_t worst = state_.values[qi * traits_.slots + (traits_.slots - 1)];
        real_t point_min = rnode.box.min_sq_dist_point(ws.qpt.data());
        if (metric_ == MetricKind::Euclidean && !sq_select_)
          point_min = std::sqrt(point_min);
        if (point_min > worst) {
          leaf_bound = std::max(leaf_bound, worst);
          continue;
        }
      }

      // Kernel values for this query against the whole reference leaf,
      // tile-batched over the SoA mirror when the backend supports it.
      const real_t* vals = ws.vals.data();
      if (normalized && batch_ && eval_.leaf_values && !identity_env_) {
        // Fused leaf loop (JIT backend): metric + envelope in one
        // specialized pass, bitwise-equal to the generic pair below.
        const SoaMirror& mirror = rtree_.mirror();
        eval_.leaf_values(ws.qpt.data(), mirror.lanes(), mirror.stride(),
                          rnode.begin, rcount, dim, ws.scratch.data(),
                          ws.vals.data());
        batch::count_batch_tile(rcount);
      } else if (normalized) {
        if (batch_) {
          batch::natural_dists(select_metric(),
                               rtree_.mirror().tile(rnode.begin, rcount),
                               ws.qpt.data(), maha_, ws.scratch.data(),
                               ws.dists.data());
          batch::count_batch_tile(rcount);
        } else {
          natural_dists(select_metric(), maha_, rtree_.data(), rnode.begin,
                        rnode.end, ws.qpt.data(), ws.dists.data(),
                        ws.scratch.data(), ws.rpt.data());
          batch::count_scalar_tail(rcount);
        }
        if (identity_env_) {
          vals = ws.dists.data(); // envelope is the identity: no copy
        } else {
          for (index_t j = 0; j < rcount; ++j)
            ws.vals[j] = eval_.envelope(ws.dists[j]);
        }
      } else if (batch_ && eval_.kernel_batch) {
        const SoaMirror& mirror = rtree_.mirror();
        eval_.kernel_batch(ws.qpt.data(), mirror.lanes(), mirror.stride(),
                           rnode.begin, rcount, dim, ws.scratch.data(),
                           ws.vals.data());
        batch::count_batch_tile(rcount);
      } else {
        for (index_t j = 0; j < rcount; ++j) {
          rtree_.data().copy_point(rnode.begin + j, ws.rpt.data());
          ws.vals[j] = eval_.kernel_pair(ws.qpt.data(), ws.rpt.data(), dim,
                                         ws.scratch.data());
        }
        batch::count_scalar_tail(rcount);
      }

      const index_t ql = q_labels_.empty() ? -1 : q_labels_[qi];
      update_query(qi, rnode.begin, rcount, vals, ql);

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
    std::vector<real_t> qpt;
    std::vector<real_t> rpt;
    std::vector<real_t> scratch;
    std::vector<real_t> dists;
    std::vector<real_t> vals;
  };

  /// The space every comparison lives in: squared L2 under sq-space
  /// selection, the plan metric otherwise. Mixing spaces would make the
  /// bound propagation unsound, so every min_dist/max_dist/leaf distance
  /// goes through this one switch.
  MetricKind select_metric() const {
    return sq_select_ ? MetricKind::SqEuclidean : metric_;
  }

  /// Bounds on the envelope over a distance interval. Monotone envelopes use
  /// the endpoints; indicators need interval logic (endpoints under-cover).
  void envelope_bounds(real_t dmin, real_t dmax, real_t* emin, real_t* emax) {
    if (indicator_env_) {
      const real_t lo = plan_.kernel.indicator_lo;
      const real_t hi = plan_.kernel.indicator_hi;
      *emax = (dmax <= lo || dmin >= hi) ? 0 : 1;
      *emin = (dmin > lo && dmax < hi) ? 1 : 0;
      return;
    }
    if (identity_env_) {
      *emin = dmin;
      *emax = dmax;
      return;
    }
    const real_t a = eval_.envelope(dmin);
    const real_t b = eval_.envelope(dmax);
    *emin = std::min(a, b);
    *emax = std::max(a, b);
  }

  /// Fold `count` kernel values for query `qi` into its state.
  void update_query(index_t qi, index_t rbegin, index_t count, const real_t* vals,
                    index_t qlabel) {
    const InnerTraits& t = traits_;
    if (t.is_reduction) {
      KnnList list(state_.values.data() + qi * t.slots,
                   state_.ids.data() + qi * t.slots, t.slots);
      for (index_t j = 0; j < count; ++j) {
        const index_t rj = rbegin + j;
        if (qlabel >= 0 && r_labels_[rj] == qlabel) continue;
        if (qi_is_self(qi, rj)) continue;
        list.insert(t.sense * vals[j], rj);
      }
    } else if (t.is_sum) {
      real_t acc = 0;
      for (index_t j = 0; j < count; ++j) {
        if (qlabel >= 0 && r_labels_[rbegin + j] == qlabel) continue;
        acc += vals[j];
      }
      state_.values[qi] += acc;
    } else if (t.is_prod) {
      real_t acc = 1;
      for (index_t j = 0; j < count; ++j) {
        if (qlabel >= 0 && r_labels_[rbegin + j] == qlabel) continue;
        acc *= vals[j];
      }
      state_.values[qi] *= acc;
    } else if (t.is_forall) {
      for (index_t j = 0; j < count; ++j)
        state_.values[qi * state_.forall_cols + rbegin + j] = vals[j];
    } else { // union / unionarg: collect entries with non-zero kernel value
      for (index_t j = 0; j < count; ++j) {
        if (vals[j] == 0) continue;
        const index_t rj = rbegin + j;
        if (qlabel >= 0 && r_labels_[rj] == qlabel) continue;
        state_.union_ids[qi].push_back(rj);
        if (t.is_union) state_.union_values[qi].push_back(vals[j]);
      }
    }
  }

  /// Self-pair exclusion is NOT applied generically: Portal's semantics match
  /// the math (sum over all r includes r = q when the datasets coincide).
  /// Hook kept for future modifiers.
  bool qi_is_self(index_t, index_t) const { return false; }

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
      } else if (traits_.is_prod) {
        // product of ones: no-op
      }
    }
  }

  void apply_approx(const KdNode& qnode, const KdNode& rnode) {
    PORTAL_OBS_COUNT("rules/approximations", 1);
    Workspace& ws = workspaces_[omp_get_thread_num()];
    // Center-to-center distance in the metric's natural space.
    const index_t dim = qtree_.data().dim();
    qnode.box.center_point(ws.qpt.data());
    rnode.box.center_point(ws.rpt.data());
    real_t center;
    if (metric_ == MetricKind::Mahalanobis) {
      center = maha_->sq_dist(ws.qpt.data(), ws.rpt.data(), ws.scratch.data());
    } else {
      real_t d = point_distance(
          metric_ == MetricKind::Euclidean ? MetricKind::SqEuclidean : metric_,
          ws.qpt.data(), 1, ws.rpt.data(), 1, dim);
      center = metric_ == MetricKind::Euclidean ? std::sqrt(d) : d;
    }
    const real_t value = identity_env_ ? center : eval_.envelope(center);
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
  const PortalConfig& config_;
  const EvaluatorFns& eval_;
  const KdTree& qtree_;
  const KdTree& rtree_;
  QueryState& state_;
  InnerTraits traits_;
  MetricKind metric_;
  const MahalanobisContext* maha_;
  bool identity_env_;
  bool indicator_env_;
  real_t tau_;
  bool sq_select_;
  bool batch_ = false;
  std::vector<AtomicBound> bounds_;
  std::vector<index_t> q_labels_, r_labels_;
  std::vector<index_t> q_node_label_, r_node_label_;
  std::vector<Workspace> workspaces_;
};

/// Assemble an OutputData from tree-order state (or original-order state when
/// `perm_q`/`perm_r` are null -- the brute-force path).
std::shared_ptr<OutputData> finalize(const ProblemPlan& plan, QueryState& state,
                                     const std::vector<index_t>* perm_q,
                                     const std::vector<index_t>* perm_r) {
  const LayerSpec& outer = plan.layers[0];
  const InnerTraits t = state.traits;
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
          const real_t v = state.values[i * t.slots + j];
          out->values[qmap(i) * t.slots + j] =
              v == std::numeric_limits<real_t>::max()
                  ? std::numeric_limits<real_t>::quiet_NaN()
                  : t.sense * v;
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
        // Deterministic output: sort by reference index (values follow).
        if (t.is_union) {
          std::vector<std::size_t> order(ids[oq].size());
          for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
          std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return ids[oq][a] < ids[oq][b];
          });
          std::vector<index_t> sorted_ids(order.size());
          std::vector<real_t> sorted_vals(order.size());
          for (std::size_t s = 0; s < order.size(); ++s) {
            sorted_ids[s] = ids[oq][order[s]];
            sorted_vals[s] = vals[oq][order[s]];
          }
          ids[oq] = std::move(sorted_ids);
          vals[oq] = std::move(sorted_vals);
        } else {
          std::sort(ids[oq].begin(), ids[oq].end());
        }
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
      v = t.sense * v;
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
  state.init(inner_traits(inner.op), outer.storage.size(), inner.storage.size());

  timer.reset();
  PORTAL_OBS_SCOPE(traverse_scope, "executor/traversal");
  GenericRules rules(plan, config, eval, *qtree, *rtree, state);
  TraversalOptions topt;
  topt.parallel = config.parallel;
  topt.task_depth = config.task_depth;
  result.stats = dual_traverse(*qtree, *rtree, rules, topt);
  rules.finish();
  traverse_scope.stop();
  result.traversal_seconds = timer.elapsed_s();

  result.output = finalize(plan, state, &qtree->perm(), &rtree->perm());
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
  state.init(inner_traits(inner.op), nq, nr);
  const InnerTraits t = state.traits;
  const bool normalized = plan.kernel.normalized;
  const MahalanobisContext* maha = plan.kernel.maha.get();
  const bool identity_env = plan.facts.envelope_identity;
  const std::vector<index_t>* labels = config.exclude_same_label;

  PORTAL_OBS_SCOPE(brute_scope, "executor/bruteforce");
  Timer timer;
#pragma omp parallel if (config.parallel)
  {
    std::vector<real_t> qpt(dim), rpt(dim), scratch(4 * dim + 4);
    std::vector<real_t> dists(nr), vals(nr);
#pragma omp for schedule(static)
    for (index_t i = 0; i < nq; ++i) {
      qdata.copy_point(i, qpt.data());
      if (normalized) {
        natural_dists(plan.kernel.metric, maha, rdata, 0, nr, qpt.data(),
                      dists.data(), scratch.data(), rpt.data());
        if (identity_env) {
          for (index_t j = 0; j < nr; ++j) vals[j] = dists[j];
        } else {
          for (index_t j = 0; j < nr; ++j) vals[j] = eval.envelope(dists[j]);
        }
      } else {
        for (index_t j = 0; j < nr; ++j) {
          rdata.copy_point(j, rpt.data());
          vals[j] = eval.kernel_pair(qpt.data(), rpt.data(), dim, scratch.data());
        }
      }
      const index_t qlabel = labels ? (*labels)[i] : -1;

      if (t.is_reduction) {
        KnnList list(state.values.data() + i * t.slots,
                     state.ids.data() + i * t.slots, t.slots);
        for (index_t j = 0; j < nr; ++j) {
          if (qlabel >= 0 && (*labels)[j] == qlabel) continue;
          list.insert(t.sense * vals[j], j);
        }
      } else if (t.is_sum) {
        real_t acc = 0;
        for (index_t j = 0; j < nr; ++j) {
          if (qlabel >= 0 && (*labels)[j] == qlabel) continue;
          acc += vals[j];
        }
        state.values[i] = acc;
      } else if (t.is_prod) {
        real_t acc = 1;
        for (index_t j = 0; j < nr; ++j) {
          if (qlabel >= 0 && (*labels)[j] == qlabel) continue;
          acc *= vals[j];
        }
        state.values[i] = acc;
      } else if (t.is_forall) {
        for (index_t j = 0; j < nr; ++j)
          state.values[i * state.forall_cols + j] = vals[j];
      } else {
        for (index_t j = 0; j < nr; ++j) {
          if (vals[j] == 0) continue;
          if (qlabel >= 0 && (*labels)[j] == qlabel) continue;
          state.union_ids[i].push_back(j);
          if (t.is_union) state.union_values[i].push_back(vals[j]);
        }
      }
    }
  }

  ExecutionResult result;
  result.traversal_seconds = timer.elapsed_s();
  result.output = finalize(plan, state, nullptr, nullptr);
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
