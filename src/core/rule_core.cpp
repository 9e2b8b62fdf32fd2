#include "core/rule_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/codegen/vm.h"
#include "kernels/batch.h"
#include "problems/common.h"

namespace portal {

EvaluatorFns vm_evaluators(const KernelInfo& kernel) {
  EvaluatorFns fns;
  const VmProgram kernel_vm = VmProgram::compile(kernel.kernel_ir);
  fns.kernel_pair = [kernel_vm](const real_t* q, const real_t* r, index_t dim,
                                real_t* scratch) {
    return kernel_vm.run_pair(q, r, dim, scratch);
  };
  // The same program interpreted across a whole SoA lane tile (bit-for-bit
  // run_pair per lane; see VmProgram::run_batch).
  fns.kernel_batch = [kernel_vm](const real_t* q, const real_t* rlanes,
                                 index_t rstride, index_t rbegin, index_t count,
                                 index_t dim, real_t* scratch, real_t* out) {
    VmProgram::BatchContext bctx;
    bctx.q = q;
    bctx.rlanes = rlanes;
    bctx.rstride = rstride;
    bctx.rbegin = rbegin;
    bctx.count = count;
    bctx.dim = dim;
    bctx.scratch = scratch;
    kernel_vm.run_batch(bctx, out);
  };
  if (kernel.normalized && kernel.envelope_ir) {
    const VmProgram env_vm = VmProgram::compile(kernel.envelope_ir);
    fns.envelope = [env_vm](const real_t* dists, index_t count, real_t* out) {
      for (index_t j = 0; j < count; ++j) out[j] = env_vm.run_envelope(dists[j]);
    };
  }
  return fns;
}

OpTraits op_traits(const OpSpec& spec) {
  OpTraits t;
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

Evaluator make_evaluator(const ProblemPlan& plan, const OpTraits& traits,
                         const EvaluatorFns& fns) {
  Evaluator ev;
  ev.fns = &fns;
  ev.kernel = &plan.kernel;
  ev.maha = plan.kernel.maha.get();
  ev.normalized = plan.kernel.normalized;
  ev.identity = plan.facts.envelope_identity;
  ev.sq_select = plan.facts.reduction_prune_legal && ev.identity &&
                 traits.is_reduction && traits.sense > 0 &&
                 plan.kernel.metric == MetricKind::Euclidean;
  ev.metric = ev.sq_select ? MetricKind::SqEuclidean : plan.kernel.metric;
  return ev;
}

void LeafScratch::resize(index_t dim, index_t capacity) {
  rpt.resize(static_cast<std::size_t>(dim));
  // Covers point_distance gathers (4*dim+4), the blocked Mahalanobis solve
  // (2*dim*kMahaBlock), and kernel_batch's per-lane gather (3*dim).
  scratch.resize(static_cast<std::size_t>(
      std::max<index_t>(4 * dim + 4, 2 * dim * batch::kMahaBlock)));
  dists.resize(static_cast<std::size_t>(capacity));
  vals.resize(static_cast<std::size_t>(capacity));
}

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

const real_t* scalar_values(const Evaluator& ev, const Dataset& data,
                            index_t begin, index_t count, const real_t* qpt,
                            LeafScratch& ws) {
  if (!ev.normalized) {
    for (index_t j = 0; j < count; ++j) {
      data.copy_point(begin + j, ws.rpt.data());
      ws.vals[static_cast<std::size_t>(j)] = ev.fns->kernel_pair(
          qpt, ws.rpt.data(), data.dim(), ws.scratch.data());
    }
    return ws.vals.data();
  }
  natural_dists(ev.metric, ev.maha, data, begin, begin + count, qpt,
                ws.dists.data(), ws.scratch.data(), ws.rpt.data());
  if (ev.identity) return ws.dists.data(); // no copy
  ev.fns->envelope(ws.dists.data(), count, ws.vals.data());
  return ws.vals.data();
}

const real_t* leaf_values(const Evaluator& ev, const Dataset& data,
                          const SoaMirror* mirror, index_t begin,
                          index_t count, const real_t* qpt, LeafScratch& ws) {
  if (mirror == nullptr) {
    batch::count_scalar_tail(count);
    return scalar_values(ev, data, begin, count, qpt, ws);
  }
  batch::count_batch_tile(count);
  const EvaluatorFns& fns = *ev.fns;
  const index_t dim = data.dim();
  if (!ev.normalized) {
    fns.kernel_batch(qpt, mirror->lanes(), mirror->stride(), begin, count, dim,
                     ws.scratch.data(), ws.vals.data());
    return ws.vals.data();
  }
  if (fns.leaf_values && !ev.identity) {
    // Fused leaf loop (JIT): metric + envelope in one specialized pass.
    fns.leaf_values(qpt, mirror->lanes(), mirror->stride(), begin, count, dim,
                    ws.scratch.data(), ws.vals.data());
    return ws.vals.data();
  }
  batch::natural_dists(ev.metric, mirror->tile(begin, count), qpt, ev.maha,
                       ws.scratch.data(), ws.dists.data());
  if (ev.identity) return ws.dists.data(); // no copy
  fns.envelope(ws.dists.data(), count, ws.vals.data());
  return ws.vals.data();
}

real_t center_value(const Evaluator& ev, const real_t* qpoint,
                    const BBox& rbox, LeafScratch& ws) {
  rbox.center_point(ws.rpt.data());
  real_t d;
  if (ev.metric == MetricKind::Mahalanobis) {
    d = ev.maha->sq_dist(qpoint, ws.rpt.data(), ws.scratch.data());
  } else {
    d = point_distance(ev.metric == MetricKind::Euclidean
                           ? MetricKind::SqEuclidean
                           : ev.metric,
                       qpoint, 1, ws.rpt.data(), 1, rbox.dim());
    if (ev.metric == MetricKind::Euclidean) d = std::sqrt(d);
  }
  if (ev.identity) return d;
  real_t value;
  ev.fns->envelope(&d, 1, &value);
  return value;
}

void sort_by_id(std::vector<index_t>* ids, std::vector<real_t>* values) {
  if (values == nullptr) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  std::vector<std::size_t> order(ids->size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return (*ids)[a] < (*ids)[b];
  });
  std::vector<index_t> sorted_ids(order.size());
  std::vector<real_t> sorted_values(order.size());
  for (std::size_t s = 0; s < order.size(); ++s) {
    sorted_ids[s] = (*ids)[order[s]];
    sorted_values[s] = (*values)[order[s]];
  }
  *ids = std::move(sorted_ids);
  *values = std::move(sorted_values);
}

real_t reduction_output(real_t slot, const OpTraits& traits,
                        const Evaluator& ev) {
  if (slot == std::numeric_limits<real_t>::max())
    return std::numeric_limits<real_t>::quiet_NaN();
  return traits.sense * (ev.sq_select ? std::sqrt(slot) : slot);
}

} // namespace portal
