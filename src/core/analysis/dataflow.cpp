// Portal -- implementation of the IR dataflow analysis (analysis/dataflow.h).
//
// The sweep is a single post-order walk per expression. Interval arithmetic
// follows the usual conventions (endpoint products with 0 * inf treated as
// 0, which is sound for bounds of finite inputs); the `may_nan` flag is a
// may-analysis, so it only ever over-approximates. Monotonicity is tracked
// *in the Dist atom*: `Constant` means the subtree's value is fixed for the
// whole run (constants, tau), while anything that varies per point pair
// other than through Dist (coordinate loads, per-node atoms, external calls)
// is `Unknown` -- which is exactly what makes the kernel-level claim sound:
// a kernel is only monotone-in-distance if every pair dependence flows
// through Dist.
#include "core/analysis/dataflow.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "kernels/fastmath.h"
#include "tree/bbox.h"

namespace portal {

namespace {

constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

Monotonicity mono_flip(Monotonicity m) {
  switch (m) {
    case Monotonicity::NonIncreasing: return Monotonicity::NonDecreasing;
    case Monotonicity::NonDecreasing: return Monotonicity::NonIncreasing;
    default: return m;
  }
}

/// Direction-preserving combine (Add, Min, Max, LogicalAnd, DimSum, ...):
/// Constant is neutral, agreeing directions survive, disagreement or any
/// Unknown operand loses the fact.
Monotonicity mono_combine(Monotonicity a, Monotonicity b) {
  if (a == Monotonicity::Constant) return b;
  if (b == Monotonicity::Constant) return a;
  if (a == b && a != Monotonicity::Unknown) return a;
  return Monotonicity::Unknown;
}

bool nonneg(const ValueInterval& v) { return v.lo >= 0; }
bool nonpos(const ValueInterval& v) { return v.hi <= 0; }

/// Sign-aware monotonicity of a product.
Monotonicity mono_mul(const ExprFacts& a, const ExprFacts& b) {
  if (a.mono == Monotonicity::Constant) {
    if (nonneg(a.range)) return b.mono;
    if (nonpos(a.range)) return mono_flip(b.mono);
    return b.mono == Monotonicity::Constant ? Monotonicity::Constant
                                            : Monotonicity::Unknown;
  }
  if (b.mono == Monotonicity::Constant) {
    if (nonneg(b.range)) return a.mono;
    if (nonpos(b.range)) return mono_flip(a.mono);
    return Monotonicity::Unknown;
  }
  // Both vary: a shared direction survives only when both factors are
  // non-negative (e.g. the product of two non-increasing densities).
  if (a.mono == b.mono && a.mono != Monotonicity::Unknown && nonneg(a.range) &&
      nonneg(b.range)) {
    return a.mono;
  }
  return Monotonicity::Unknown;
}

real_t add_lo(real_t a, real_t b) {
  if (a == -kInf || b == -kInf) return -kInf;
  return a + b;
}
real_t add_hi(real_t a, real_t b) {
  if (a == kInf || b == kInf) return kInf;
  return a + b;
}

/// Endpoint product with the interval-arithmetic 0 * inf = 0 convention.
real_t mul_ep(real_t a, real_t b) {
  if (a == 0 || b == 0) return 0;
  return a * b;
}

ValueInterval interval_add(ValueInterval a, ValueInterval b) {
  return {add_lo(a.lo, b.lo), add_hi(a.hi, b.hi), a.may_nan || b.may_nan};
}

ValueInterval interval_neg(ValueInterval a) { return {-a.hi, -a.lo, a.may_nan}; }

ValueInterval interval_mul(ValueInterval a, ValueInterval b) {
  const real_t p1 = mul_ep(a.lo, b.lo);
  const real_t p2 = mul_ep(a.lo, b.hi);
  const real_t p3 = mul_ep(a.hi, b.lo);
  const real_t p4 = mul_ep(a.hi, b.hi);
  return {std::min(std::min(p1, p2), std::min(p3, p4)),
          std::max(std::max(p1, p2), std::max(p3, p4)),
          a.may_nan || b.may_nan};
}

ValueInterval interval_recip(ValueInterval b, bool* divides_zero) {
  *divides_zero = b.lo <= 0 && b.hi >= 0;
  if (*divides_zero) return ValueInterval::top();
  // Same-sign interval: 1/x is monotone decreasing, endpoints swap.
  const real_t lo = b.hi == kInf || b.hi == -kInf ? 0 : 1 / b.hi;
  const real_t hi = b.lo == kInf || b.lo == -kInf ? 0 : 1 / b.lo;
  return {std::min(lo, hi), std::max(lo, hi), b.may_nan};
}

bool is_integer(real_t v) { return std::isfinite(v) && std::floor(v) == v; }

ExprFacts analyze_node(const IrExprPtr& node, const AnalysisInputs& in);

ExprFacts analyze_pow(const ExprFacts& base, real_t e) {
  ExprFacts f;
  f.depends_on_dist = base.depends_on_dist;
  f.depends_on_coords = base.depends_on_coords;
  f.range = ValueInterval::top();
  f.range.may_nan = base.range.may_nan;
  f.mono = Monotonicity::Unknown;
  if (e == 0) {
    f.range = ValueInterval::point(1);
    f.mono = Monotonicity::Constant;
    return f;
  }
  const ValueInterval& b = base.range;
  if (b.lo >= 0) {
    // pow is monotone on [0, inf): increasing for e > 0, decreasing for
    // e < 0 (with pow(0, e<0) = inf).
    const real_t plo = std::pow(b.lo, e);
    const real_t phi = std::pow(b.hi, e);
    f.range = {std::min(plo, phi), std::max(plo, phi), b.may_nan};
    f.mono = e > 0 ? base.mono : mono_flip(base.mono);
    return f;
  }
  if (is_integer(e) && e > 0) {
    const real_t plo = std::pow(b.lo, e);
    const real_t phi = std::pow(b.hi, e);
    if (std::fmod(e, 2) == 0) {
      const real_t lo = b.contains(0) ? 0 : std::min(plo, phi);
      f.range = {lo, std::max(plo, phi), b.may_nan};
    } else {
      f.range = {plo, phi, b.may_nan}; // odd power is monotone everywhere
      f.mono = base.mono;
    }
    return f;
  }
  // Negative base with a non-integer (or negative) exponent: NaN territory.
  f.range.may_nan = true;
  return f;
}

ExprFacts analyze_node(const IrExprPtr& node, const AnalysisInputs& in) {
  ExprFacts f;
  if (node == nullptr) {
    f.range = ValueInterval::top();
    f.mono = Monotonicity::Unknown;
    return f;
  }
  auto child = [&](std::size_t i) -> ExprFacts {
    return i < node->children.size() ? analyze_node(node->children[i], in)
                                     : ExprFacts{ValueInterval::top(),
                                                 Monotonicity::Unknown, false,
                                                 false};
  };
  switch (node->op) {
    case IrOp::Const:
      f.range = ValueInterval::point(node->value);
      f.mono = Monotonicity::Constant;
      return f;
    case IrOp::LoadQCoord:
    case IrOp::LoadRCoord:
      f.range = ValueInterval::of(in.coord_lo, in.coord_hi);
      f.mono = Monotonicity::Unknown; // varies per pair, not through Dist
      f.depends_on_coords = true;
      return f;
    case IrOp::Dist:
      f.range = ValueInterval::of(in.dist_lo, in.dist_hi);
      f.mono = Monotonicity::NonDecreasing; // the identity in itself
      f.depends_on_dist = true;
      return f;
    case IrOp::Temp:
    case IrOp::QueryBound:
      f.range = ValueInterval::top();
      f.mono = Monotonicity::Unknown;
      return f;
    case IrOp::DMin:
    case IrOp::DMax:
    case IrOp::CenterDist:
      f.range = ValueInterval::of(in.dist_lo, in.dist_hi);
      f.mono = Monotonicity::Unknown; // varies per node pair
      return f;
    case IrOp::RCount:
      f.range = ValueInterval::of(0, in.rcount_max);
      f.mono = Monotonicity::Unknown;
      return f;
    case IrOp::Tau:
      f.range = ValueInterval::point(in.tau);
      f.mono = Monotonicity::Constant;
      return f;
    case IrOp::Add: {
      const ExprFacts a = child(0), b = child(1);
      f.range = interval_add(a.range, b.range);
      f.mono = mono_combine(a.mono, b.mono);
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::Sub: {
      const ExprFacts a = child(0), b = child(1);
      f.range = interval_add(a.range, interval_neg(b.range));
      f.mono = mono_combine(a.mono, mono_flip(b.mono));
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::Mul: {
      const ExprFacts a = child(0), b = child(1);
      f.range = interval_mul(a.range, b.range);
      f.mono = mono_mul(a, b);
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::Div: {
      const ExprFacts a = child(0), b = child(1);
      bool divides_zero = false;
      const ValueInterval recip = interval_recip(b.range, &divides_zero);
      if (divides_zero) {
        f.range = ValueInterval::top();
        // 0/0 is the NaN case; x/0 for x != 0 is +-inf (covered by top).
        f.range.may_nan =
            a.range.may_nan || b.range.may_nan || a.range.contains(0);
        f.mono = Monotonicity::Unknown;
      } else {
        f.range = interval_mul(a.range, recip);
        ExprFacts rb = b;
        rb.range = recip;
        rb.mono = mono_flip(b.mono);
        f.mono = mono_mul(a, rb);
      }
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::Neg: {
      const ExprFacts a = child(0);
      f = a;
      f.range = interval_neg(a.range);
      f.mono = mono_flip(a.mono);
      return f;
    }
    case IrOp::Abs: {
      const ExprFacts a = child(0);
      f = a;
      if (a.range.lo >= 0) {
        // already non-negative: identity
      } else if (a.range.hi <= 0) {
        f.range = interval_neg(a.range);
        f.mono = mono_flip(a.mono);
      } else {
        f.range = {0, std::max(-a.range.lo, a.range.hi), a.range.may_nan};
        f.mono = a.mono == Monotonicity::Constant ? Monotonicity::Constant
                                                  : Monotonicity::Unknown;
      }
      return f;
    }
    case IrOp::Min:
    case IrOp::Max: {
      const ExprFacts a = child(0), b = child(1);
      if (node->op == IrOp::Min) {
        f.range = {std::min(a.range.lo, b.range.lo),
                   std::min(a.range.hi, b.range.hi),
                   a.range.may_nan || b.range.may_nan};
      } else {
        f.range = {std::max(a.range.lo, b.range.lo),
                   std::max(a.range.hi, b.range.hi),
                   a.range.may_nan || b.range.may_nan};
      }
      f.mono = mono_combine(a.mono, b.mono);
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::Pow: {
      const ExprFacts a = child(0);
      return analyze_pow(a, node->value);
    }
    case IrOp::Sqrt:
    case IrOp::FastSqrt: {
      const ExprFacts a = child(0);
      f = a;
      const real_t lo = std::max<real_t>(a.range.lo, 0);
      const real_t hi = std::max<real_t>(a.range.hi, 0);
      f.range = {std::sqrt(lo), std::sqrt(hi),
                 a.range.may_nan || a.range.lo < 0};
      return f; // increasing: monotonicity preserved
    }
    case IrOp::InvSqrt:
    case IrOp::FastInvSqrt: {
      const ExprFacts a = child(0);
      f = a;
      const real_t lo = std::max<real_t>(a.range.lo, 0);
      const real_t hi = std::max<real_t>(a.range.hi, 0);
      const real_t rhi = lo == 0 ? kInf : 1 / std::sqrt(lo);
      const real_t rlo = hi == kInf ? 0 : (hi == 0 ? kInf : 1 / std::sqrt(hi));
      f.range = {rlo, rhi, a.range.may_nan || a.range.lo < 0};
      f.mono = mono_flip(a.mono); // decreasing on the domain
      return f;
    }
    case IrOp::Exp: {
      const ExprFacts a = child(0);
      f = a;
      // Bounded with the engines' exp (monotone, pinned by FastExp), so the
      // range holds the values they actually produce.
      f.range = {det_exp(a.range.lo), det_exp(a.range.hi), a.range.may_nan};
      return f; // increasing
    }
    case IrOp::Log: {
      const ExprFacts a = child(0);
      f = a;
      f.range = {a.range.lo <= 0 ? -kInf : std::log(a.range.lo),
                 a.range.hi <= 0 ? -kInf : std::log(a.range.hi),
                 a.range.may_nan || a.range.lo < 0};
      return f; // increasing on the domain
    }
    case IrOp::Less:
    case IrOp::Greater: {
      ExprFacts a = child(0), b = child(1);
      if (node->op == IrOp::Greater) std::swap(a, b); // a < b normal form
      if (a.range.hi < b.range.lo) {
        f.range = ValueInterval::point(1);
      } else if (a.range.lo >= b.range.hi) {
        f.range = ValueInterval::point(0);
      } else {
        f.range = ValueInterval::of(0, 1);
      }
      f.range.may_nan = a.range.may_nan || b.range.may_nan;
      // I(a < b) steps down where a crosses b: decreasing in a, increasing
      // in b.
      f.mono = mono_combine(mono_flip(a.mono), b.mono);
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::LogicalAnd: {
      const ExprFacts a = child(0), b = child(1);
      if (a.range.is_point() && a.range.lo == 0) {
        f.range = ValueInterval::point(0);
      } else if (b.range.is_point() && b.range.lo == 0) {
        f.range = ValueInterval::point(0);
      } else if (a.range.is_point() && a.range.lo == 1 && b.range.is_point() &&
                 b.range.lo == 1) {
        f.range = ValueInterval::point(1);
      } else {
        f.range = ValueInterval::of(0, 1);
      }
      f.range.may_nan = a.range.may_nan || b.range.may_nan;
      f.mono = mono_combine(a.mono, b.mono); // product of 0/1 indicators
      f.depends_on_dist = a.depends_on_dist || b.depends_on_dist;
      f.depends_on_coords = a.depends_on_coords || b.depends_on_coords;
      return f;
    }
    case IrOp::DimSum: {
      const ExprFacts a = child(0);
      f = a;
      if (in.dim > 0) {
        const real_t n = static_cast<real_t>(in.dim);
        f.range = {mul_ep(a.range.lo, n), mul_ep(a.range.hi, n),
                   a.range.may_nan};
      } else {
        // Unknown dimensionality: the sum of >= 1 body copies keeps only
        // one-sided bounds.
        f.range = {a.range.lo >= 0 ? a.range.lo : -kInf,
                   a.range.hi <= 0 ? a.range.hi : kInf, a.range.may_nan};
      }
      return f; // sum preserves a shared direction
    }
    case IrOp::DimMax: {
      f = child(0);
      return f; // max over body copies stays inside the body's range
    }
    case IrOp::MahalanobisNaive:
    case IrOp::MahalanobisChol:
      f.range = ValueInterval::of(0, kInf);
      f.mono = Monotonicity::Unknown;
      f.depends_on_coords = true;
      return f;
    case IrOp::ExternalCall:
      f.range = ValueInterval::top();
      f.range.may_nan = true;
      f.mono = Monotonicity::Unknown;
      f.depends_on_coords = true;
      return f;
  }
  f.range = ValueInterval::top();
  f.mono = Monotonicity::Unknown;
  return f;
}

std::string format_real(real_t v) {
  if (v == kInf) return "inf";
  if (v == -kInf) return "-inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
  return buf;
}

void summarize_stmt(const IrStmtPtr& stmt, const char* fn,
                    const AnalysisInputs& in, std::ostringstream* out) {
  if (stmt == nullptr) return;
  switch (stmt->kind) {
    case IrStmtKind::Block:
    case IrStmtKind::Loop:
      for (const IrStmtPtr& s : stmt->body) summarize_stmt(s, fn, in, out);
      return;
    case IrStmtKind::AssignExpr:
    case IrStmtKind::Accum:
    case IrStmtKind::ReduceCmp:
    case IrStmtKind::ReturnExpr: {
      if (stmt->expr == nullptr) return;
      const ExprFacts f = analyze_expr(stmt->expr, in);
      const char* target =
          stmt->kind == IrStmtKind::ReturnExpr ? "return" : stmt->target.c_str();
      *out << "analysis: " << fn << '/' << target << " range=["
           << format_real(f.range.lo) << ", " << format_real(f.range.hi)
           << "] mono=" << monotonicity_name(f.mono)
           << (f.range.may_nan ? " may-nan" : "") << '\n';
      return;
    }
    default:
      return;
  }
}

/// Union bounding box of one dataset.
bool include_storage(const Storage& storage, BBox* box) {
  if (!storage.is_input() || storage.size() == 0) return false;
  const Dataset& data = storage.dataset();
  if (box->dim() == 0) *box = BBox(data.dim());
  if (box->dim() != data.dim()) return false;
  std::vector<real_t> point(data.dim());
  for (index_t i = 0; i < data.size(); ++i) {
    data.copy_point(i, point.data());
    box->include_point(point.data());
  }
  return true;
}

} // namespace

ExprFacts analyze_expr(const IrExprPtr& root, const AnalysisInputs& inputs) {
  return analyze_node(root, inputs);
}

AnalysisInputs make_analysis_inputs(const ProblemPlan& plan,
                                    const PortalConfig& config) {
  AnalysisInputs in;
  in.tau = config.tau;
  if (plan.layers.empty()) return in;

  BBox query_box, ref_box;
  const bool have_q = include_storage(plan.layers.front().storage, &query_box);
  bool have_r = false;
  real_t ref_points = 0;
  for (std::size_t i = 1; i < plan.layers.size(); ++i) {
    if (include_storage(plan.layers[i].storage, &ref_box)) {
      have_r = true;
      ref_points += static_cast<real_t>(plan.layers[i].storage.size());
    }
  }
  if (have_q && !have_r) { // single-dataset chain: pairs within one set
    ref_box = query_box;
    have_r = true;
    ref_points = static_cast<real_t>(plan.layers.front().storage.size());
  }
  if (!have_q || !have_r || query_box.dim() != ref_box.dim()) return in;

  in.dim = query_box.dim();
  in.rcount_max = ref_points;
  in.coord_lo = kInf;
  in.coord_hi = -kInf;
  for (index_t d = 0; d < query_box.dim(); ++d) {
    in.coord_lo = std::min({in.coord_lo, query_box.lo(d), ref_box.lo(d)});
    in.coord_hi = std::max({in.coord_hi, query_box.hi(d), ref_box.hi(d)});
  }
  const MahalanobisContext* maha = plan.kernel.maha.get();
  in.dist_lo = query_box.min_dist(plan.kernel.metric, ref_box, maha);
  in.dist_hi = query_box.max_dist(plan.kernel.metric, ref_box, maha);
  return in;
}

KernelFacts compute_kernel_facts(const ProblemPlan& plan,
                                 const AnalysisInputs& inputs) {
  KernelFacts f;
  f.dist_lo = inputs.dist_lo;
  f.dist_hi = inputs.dist_hi;

  const KernelInfo& kernel = plan.kernel;
  f.envelope_identity =
      kernel.normalized && kernel.shape == EnvelopeShape::Identity;
  f.envelope_indicator =
      kernel.normalized && kernel.shape == EnvelopeShape::Indicator;

  if (!plan.layers.empty()) {
    const PortalOp op = plan.layers.back().op.op;
    // SUM/PROD/MIN/MAX/UNION-family reductions commute and associate; the
    // ARG* reductions break both at exact kernel-value ties (the surviving
    // index depends on visit order).
    f.accum_commutative = !op_is_arg(op);
    f.accum_associative = !op_is_arg(op);
  }

  const IrExprPtr& analyzed =
      kernel.normalized && kernel.envelope_ir ? kernel.envelope_ir
                                              : kernel.kernel_ir;
  if (analyzed != nullptr) {
    const ExprFacts ef = analyze_expr(analyzed, inputs);
    f.value_lo = ef.range.lo;
    f.value_hi = ef.range.hi;
    f.may_nan = ef.range.may_nan;
    if (kernel.normalized && kernel.envelope_ir &&
        ef.mono != Monotonicity::Unknown) {
      f.mono = ef.mono;
      f.mono_confidence = FactConfidence::Proven;
    }
  }
  if (f.mono_confidence != FactConfidence::Proven && kernel.normalized) {
    // Fall back to the sampling classifier's shape (the empirical tier).
    switch (kernel.shape) {
      case EnvelopeShape::Identity:
      case EnvelopeShape::Increasing:
        f.mono = Monotonicity::NonDecreasing;
        f.mono_confidence = FactConfidence::Empirical;
        break;
      case EnvelopeShape::Decreasing:
        f.mono = Monotonicity::NonIncreasing;
        f.mono_confidence = FactConfidence::Empirical;
        break;
      default:
        break; // Indicator / Opaque: not monotone / not established
    }
  }

  // A normalized kernel reaches the pair only through the (symmetric)
  // distance, so k(q, r) = k(r, q) holds by construction; otherwise fall
  // back to the structural q<->r swap check.
  f.symmetric = kernel.external == nullptr && !kernel.is_gravity &&
                (kernel.normalized || ir_kernel_symmetric(kernel.kernel_ir));

  // Prune/approximation legality, the one source every engine reads
  // (pattern.cpp, rule_core.cpp). The structural sweep above refines
  // confidence, never these booleans.
  f.reduction_prune_legal = plan.category == ProblemCategory::Pruning &&
                            kernel.normalized &&
                            kernel.shape != EnvelopeShape::Indicator &&
                            kernel.shape != EnvelopeShape::Opaque;
  f.indicator_prune_legal =
      kernel.normalized && kernel.shape == EnvelopeShape::Indicator;
  f.approx_legal =
      plan.category == ProblemCategory::Approximation && kernel.normalized;
  return f;
}

std::string analyze_program_summary(const IrProgram& program,
                                    const AnalysisInputs& inputs) {
  std::ostringstream out;
  summarize_stmt(program.base_case, "base_case", inputs, &out);
  summarize_stmt(program.prune_approx, "prune_approx", inputs, &out);
  summarize_stmt(program.compute_approx, "compute_approx", inputs, &out);
  return out.str();
}

bool ir_structurally_equal(const IrExprPtr& a, const IrExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->op != b->op || a->value != b->value || a->label != b->label ||
      a->flattened != b->flattened || a->stride != b->stride ||
      a->matrix != b->matrix || a->children.size() != b->children.size()) {
    return false;
  }
  // std::function has no equality; distinct ExternalCall nodes are never
  // structurally equal (the same-pointer case already returned true above).
  if (a->external || b->external) return false;
  for (std::size_t i = 0; i < a->children.size(); ++i) {
    if (!ir_structurally_equal(a->children[i], b->children[i])) return false;
  }
  return true;
}

namespace {

IrExprPtr swap_qr(const IrExprPtr& node) {
  return ir_rewrite(node, [](const IrExprPtr& e) -> IrExprPtr {
    if (e->op != IrOp::LoadQCoord && e->op != IrOp::LoadRCoord) return e;
    auto copy = std::make_shared<IrExpr>(*e);
    copy->op = e->op == IrOp::LoadQCoord ? IrOp::LoadRCoord : IrOp::LoadQCoord;
    return copy;
  });
}

} // namespace

bool ir_kernel_symmetric(const IrExprPtr& kernel_ir) {
  if (kernel_ir == nullptr) return false;
  if (ir_contains(kernel_ir, IrOp::ExternalCall)) return false;
  return ir_structurally_equal(kernel_ir, swap_qr(kernel_ir));
}

} // namespace portal
