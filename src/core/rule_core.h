// Portal -- the rule core: the one statement of the prune, approximation and
// leaf-evaluation rules (paper Sec. II-B and IV, the "prune generator") that
// every generic engine runs.
//
// The batch executor (core/executor.cpp) bounds a query node against a
// reference node; the serve engine (serve/engine.cpp) bounds one query point
// against a reference node. Each hands its (dmin, dmax) to decide_node and
// applies the answer to what it owns -- a query node or one query point --
// and each evaluates leaves through leaf_values. Operator traits, the
// selection space, the scalar distance routine, the envelope bounds, the
// centre value and the tau rule live here once, and nothing in this file
// knows which engine called it.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "core/plan.h"
#include "tree/soa_mirror.h"

namespace portal {

/// Kernel evaluation callbacks a backend provides: vm_evaluators below for
/// the VM, JitModule::evaluators for the JIT.
struct EvaluatorFns {
  /// Envelope g(distance) in the metric's natural space over `count`
  /// distances: out[j] = g(dists[j]). One call per leaf keeps the callback
  /// off the per-point path. Required when the plan's kernel is normalized
  /// and the envelope is not the identity.
  std::function<void(const real_t* dists, index_t count, real_t* out)>
      envelope;

  /// Full kernel on two dim-contiguous points (scratch: 2*dim reals for
  /// Mahalanobis). Required when the kernel is NOT normalized.
  std::function<real_t(const real_t*, const real_t*, index_t, real_t*)>
      kernel_pair;

  /// Batched flavor of kernel_pair: evaluate one query point against
  /// `count` SoA reference lanes (lane j's d-th coordinate at
  /// rlanes[d * rstride + rbegin + j]; see tree/soa_mirror.h), writing
  /// out[0..count). Must agree with kernel_pair per lane bit for bit: the
  /// VM's is VmProgram::run_batch, the JIT's its fused portal_fused_batch
  /// loop. Scratch: 3*dim reals. Required for batched leaves of plans whose
  /// kernel is NOT normalized.
  std::function<void(const real_t* q, const real_t* rlanes, index_t rstride,
                     index_t rbegin, index_t count, index_t dim,
                     real_t* scratch, real_t* out)>
      kernel_batch;

  /// Optional fused leaf loop for NORMALIZED plans (same tile signature as
  /// kernel_batch): metric distances + envelope in one specialized pass,
  /// writing finished kernel values to out[0..count). Must be bitwise-equal
  /// per lane to batch::natural_dists followed by `envelope` (the JIT's
  /// fused emission is; see DESIGN.md Sec. 17). When null, leaf_values runs
  /// the generic natural_dists + envelope pair.
  std::function<void(const real_t* q, const real_t* rlanes, index_t rstride,
                     index_t rbegin, index_t count, index_t dim,
                     real_t* scratch, real_t* out)>
      leaf_values;
};

/// The VM backend's callbacks over the kernel's (post-pass) bytecode:
/// kernel_pair, kernel_batch, and the envelope when the kernel is
/// normalized. The executor's VM engine, both brute-force oracles and the
/// serve plan cache take their evaluator from here.
EvaluatorFns vm_evaluators(const KernelInfo& kernel);

/// The inner operator decomposed into what the rules branch on.
struct OpTraits {
  index_t slots = 1; // k for the Multi reductions, else 1
  real_t sense = 1;  // +1 min-like, -1 max-like (reductions run in sense space)
  bool is_reduction = false; // the comparative family MIN..KARGMAX
  bool is_arg = false;
  bool is_sum = false;
  bool is_prod = false;
  bool is_forall = false;
  bool is_union = false;
  bool is_unionarg = false;
};

OpTraits op_traits(const OpSpec& spec);

/// One plan's kernel as the rules see it, fixed for a run (executor) or a
/// request (serve): the backend callbacks, the envelope class, and the
/// selection space every distance of the run is measured in -- node
/// bounds, leaf distances and centre distances alike, since mixing spaces
/// would make bound propagation unsound.
struct Evaluator {
  const EvaluatorFns* fns = nullptr;
  const KernelInfo* kernel = nullptr;
  const MahalanobisContext* maha = nullptr;
  bool normalized = false;
  bool identity = false; // the envelope is g(d) = d
  /// Exact min-sense comparatives over Euclidean select in squared space:
  /// one sqrt per surviving slot (reduction_output) instead of one per
  /// candidate and per node bound. sqrt is monotone, so prune decisions and
  /// the selected set are unchanged.
  bool sq_select = false;
  MetricKind metric = MetricKind::SqEuclidean; // the selection space
};

Evaluator make_evaluator(const ProblemPlan& plan, const OpTraits& traits,
                         const EvaluatorFns& fns);

/// Per-thread leaf buffers for leaf_values / scalar_values / center_value.
struct LeafScratch {
  std::vector<real_t> rpt;     // one reference point, dim-contiguous
  std::vector<real_t> scratch; // kernel scratch (gathers, Mahalanobis solves)
  std::vector<real_t> dists;   // leaf distances
  std::vector<real_t> vals;    // leaf kernel values
  /// Size for `dim`-dimensional points and leaves of up to `capacity`.
  void resize(index_t dim, index_t capacity);
};

/// Metric distances from one query point to rdata[rbegin, rend) in `metric`'s
/// own space (true distance for Euclidean). The one scalar distance routine:
/// its per-point operation sequence does not depend on the range, so a
/// one-slot range is bitwise one entry of a longer one, and it is
/// bitwise-equal to batch::natural_dists over the same points.
void natural_dists(MetricKind metric, const MahalanobisContext* maha,
                   const Dataset& rdata, index_t rbegin, index_t rend,
                   const real_t* qpt, real_t* out, real_t* scratch,
                   real_t* rpt_buf);

/// Kernel values of `qpt` against data[begin, begin + count) in the
/// selection space; returns a pointer into `ws` (the distance buffer itself
/// when the envelope is the identity). `mirror` is the SoA mirror of `data`
/// for tile-batched evaluation, or null for scalar_values. Four branches,
/// each bitwise-equal per point to the others:
///   fused normalized tile (EvaluatorFns::leaf_values),
///   natural distances (batched or scalar) + envelope,
///   kernel_batch over the tile,
///   scalar kernel_pair.
/// Counts base/batch_* or base/scalar_pairs.
const real_t* leaf_values(const Evaluator& ev, const Dataset& data,
                          const SoaMirror* mirror, index_t begin,
                          index_t count, const real_t* qpt, LeafScratch& ws);

/// leaf_values' scalar branches alone, uncounted: natural_dists + envelope,
/// or kernel_pair per point. Per point bitwise one entry of any leaf (serve
/// drains its delta slots through this; `ws` must hold `count` values).
const real_t* scalar_values(const Evaluator& ev, const Dataset& data,
                            index_t begin, index_t count, const real_t* qpt,
                            LeafScratch& ws);

/// The approximation representative: the kernel value at the distance from
/// `qpoint` to the centre of `rbox` (the executor passes its query node's
/// centre, serve the query point itself).
real_t center_value(const Evaluator& ev, const real_t* qpoint,
                    const BBox& rbox, LeafScratch& ws);

/// Bounds on a monotone envelope over the distance interval [dmin, dmax]:
/// the endpoint values, ordered. Indicator envelopes never come here (their
/// rule is interval containment, in decide_node).
inline void envelope_bounds(const Evaluator& ev, real_t dmin, real_t dmax,
                            real_t* emin, real_t* emax) {
  if (ev.identity) {
    *emin = dmin;
    *emax = dmax;
    return;
  }
  const real_t d[2] = {dmin, dmax};
  real_t e[2];
  ev.fns->envelope(d, 2, e);
  *emin = std::min(e[0], e[1]);
  *emax = std::max(e[0], e[1]);
}

/// What a node bound allows. Prune: no pair under the node can change the
/// answer. AcceptAll: every pair's kernel value is exactly 1 (indicator
/// interior). Approximate: the node may be replaced by count x
/// center_value within the tau budget.
enum class NodeDecision { Descend, Prune, AcceptAll, Approximate };

/// True when decide_node can return anything but Descend for this plan;
/// engines skip computing node bounds otherwise.
inline bool decides_nodes(const KernelFacts& facts, const OpTraits& traits,
                          real_t tau) {
  if (traits.is_reduction) return facts.reduction_prune_legal;
  return facts.indicator_prune_legal || (facts.approx_legal && tau > 0);
}

/// The node rule. `dmin`/`dmax` bound the selection-space distance over
/// every pair under the node; `bound` is the sense-space value a reduction
/// must beat (unused otherwise). Legality comes from the plan's facts
/// alone, and approximation needs tau > 0: tau = 0 means exact. Inline:
/// both engines call it once per visited node.
inline NodeDecision decide_node(const KernelFacts& facts,
                                const Evaluator& kernel, const OpTraits& traits,
                                real_t dmin, real_t dmax, real_t bound,
                                real_t tau) {
  if (traits.is_reduction) {
    // Comparative prune: the best sense-space value any pair under the node
    // can reach does not beat the bound. An indicator under a comparative
    // op is not legal here (zeros are candidates too).
    if (!facts.reduction_prune_legal) return NodeDecision::Descend;
    real_t emin, emax;
    envelope_bounds(kernel, dmin, dmax, &emin, &emax);
    const real_t best = std::min(traits.sense * emin, traits.sense * emax);
    return best > bound ? NodeDecision::Prune : NodeDecision::Descend;
  }
  if (facts.indicator_prune_legal) {
    const real_t lo = kernel.kernel->indicator_lo;
    const real_t hi = kernel.kernel->indicator_hi;
    if (dmin >= hi || dmax <= lo) return NodeDecision::Prune; // all exactly 0
    if (dmin > lo && dmax < hi) return NodeDecision::AcceptAll; // all exactly 1
    return NodeDecision::Descend;
  }
  if (facts.approx_legal && tau > 0) {
    real_t emin, emax;
    envelope_bounds(kernel, dmin, dmax, &emin, &emax);
    return emax - emin > tau ? NodeDecision::Descend : NodeDecision::Approximate;
  }
  return NodeDecision::Descend;
}

/// Sort collected union entries by reference id, values following (null
/// for UNIONARG, which collects ids only): the one CSR row order every
/// engine reports.
void sort_by_id(std::vector<index_t>* ids, std::vector<real_t>* values);

/// A reduction slot back to its reported value: NaN for an unfilled slot
/// (the max() sentinel), otherwise out of the selection space (sqrt under
/// squared selection) and out of the sense space.
real_t reduction_output(real_t slot, const OpTraits& traits,
                        const Evaluator& ev);

} // namespace portal
