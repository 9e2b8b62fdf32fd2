// Portal -- dataflow / abstract-interpretation framework over Portal IR.
//
// One post-order sweep per expression computes a small lattice of per-node
// facts: a value interval (given the datasets' bounding boxes), a NaN
// may-flag, and monotonicity in the Dist atom. compute_kernel_facts()
// aggregates the sweep into the KernelFacts struct cached on the compiled
// plan; the lint pass (analysis/lint.h) and the engines' prune and
// approximation legality consume those facts. PENCIL's thesis applied to
// Portal: the IR is restricted enough that these properties are provable
// once, statically, for every backend.
#pragma once

#include <limits>
#include <string>

#include "core/analysis/facts.h"
#include "core/ir/ir.h"
#include "core/plan.h"

namespace portal {

/// Closed real interval plus a NaN may-flag -- the value lattice element.
/// `top()` is the no-information element ((-inf, inf), may be NaN).
struct ValueInterval {
  real_t lo = -std::numeric_limits<real_t>::infinity();
  real_t hi = std::numeric_limits<real_t>::infinity();
  bool may_nan = false;

  static ValueInterval top() { return {}; }
  static ValueInterval point(real_t v) { return {v, v, false}; }
  static ValueInterval of(real_t lo, real_t hi) { return {lo, hi, false}; }

  bool contains(real_t v) const { return lo <= v && v <= hi; }
  bool is_point() const { return lo == hi && !may_nan; }
};

/// Per-node analysis result of the post-order sweep.
struct ExprFacts {
  ValueInterval range;
  /// Monotonicity of this subtree's value in the Dist atom. Constant when
  /// the subtree does not reference Dist at all.
  Monotonicity mono = Monotonicity::Constant;
  bool depends_on_dist = false;
  bool depends_on_coords = false;
};

/// Context the sweep interprets the IR leaves against: the achievable
/// distance interval between the two datasets' bounding boxes (in the
/// metric's natural space), the coordinate interval, the configured tau, and
/// the dataset shape.
struct AnalysisInputs {
  real_t dist_lo = 0;
  real_t dist_hi = std::numeric_limits<real_t>::infinity();
  real_t coord_lo = -std::numeric_limits<real_t>::infinity();
  real_t coord_hi = std::numeric_limits<real_t>::infinity();
  real_t tau = 0;
  real_t rcount_max = std::numeric_limits<real_t>::infinity();
  index_t dim = 0; // 0 = unknown (DimSum range widens conservatively)
};

/// Derive AnalysisInputs from the plan's input storages: bounding boxes of
/// the query-side and reference-side datasets give the achievable distance
/// interval under the plan's metric. Plans without input datasets (or with
/// empty ones) get the conservative defaults.
AnalysisInputs make_analysis_inputs(const ProblemPlan& plan,
                                    const PortalConfig& config);

/// The post-order abstract-interpretation sweep (interval arithmetic +
/// structural monotonicity rules). Null expressions analyze to top.
ExprFacts analyze_expr(const IrExprPtr& root, const AnalysisInputs& inputs);

/// Aggregate the sweep over the plan's kernel/envelope into the KernelFacts
/// cached on the plan. The prune-legality booleans derive from the plan's
/// category and envelope classification; the structural sweep only
/// upgrades *confidence* (Proven vs Empirical), never flips a legality bit.
KernelFacts compute_kernel_facts(const ProblemPlan& plan,
                                 const AnalysisInputs& inputs);

/// Human-readable per-function analysis lines appended to the verify report
/// by the PassManager analysis hook ("analysis: base_case/t range=[0,1]
/// mono=non-increasing").
std::string analyze_program_summary(const IrProgram& program,
                                    const AnalysisInputs& inputs);

/// Structural equality of two expression trees (op, children, payloads).
bool ir_structurally_equal(const IrExprPtr& a, const IrExprPtr& b);

/// True when swapping LoadQCoord <-> LoadRCoord leaves the kernel
/// structurally unchanged (symmetric kernels; Dist-only kernels trivially
/// qualify). External kernels are never provably symmetric.
bool ir_kernel_symmetric(const IrExprPtr& kernel_ir);

inline const char* monotonicity_name(Monotonicity m) {
  switch (m) {
    case Monotonicity::Constant: return "constant";
    case Monotonicity::NonIncreasing: return "non-increasing";
    case Monotonicity::NonDecreasing: return "non-decreasing";
    case Monotonicity::Unknown: return "unknown";
  }
  return "?";
}

inline const char* fact_confidence_name(FactConfidence c) {
  switch (c) {
    case FactConfidence::Proven: return "proven";
    case FactConfidence::Empirical: return "empirical";
    case FactConfidence::Unknown: return "unknown";
  }
  return "?";
}

} // namespace portal
