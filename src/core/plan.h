// Portal -- compiler-internal plan structures shared by analysis, passes,
// and the three codegen backends.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis/facts.h"
#include "core/func.h"
#include "core/ir/ir.h"
#include "core/verify/diagnostics.h"
#include "core/ops.h"
#include "core/storage.h"
#include "core/var_expr.h"
#include "kernels/metrics.h"
#include "tree/kdtree.h"
#include "util/common.h"

namespace portal {

/// One addLayer() call: (operator, dataset, optional kernel/modifying fn).
struct LayerSpec {
  OpSpec op{PortalOp::FORALL};
  Storage storage;
  int var_id = -1;         // bound Var (code 3 style), -1 when auto-generated
  PortalFunc func = PortalFunc::NONE;
  Expr custom_kernel;      // kernel Expr attached directly (code 3 line 8)
  ExternalKernelFn external; // opaque user C++ kernel (Sec. III-C escape hatch)
  std::string external_label;
  bool has_kernel() const {
    return func.kind() != PortalFunc::Kind::None || custom_kernel.valid() ||
           external != nullptr;
  }
};

/// Sec. II-B: the algorithm class the prune/approximate generator assigns.
enum class ProblemCategory {
  Pruning,       // comparative operator or comparative kernel
  Approximation, // arithmetic operators + smooth monotone kernel
  Exhaustive,    // kernel opaque to the generator: traverse without pruning
};

inline const char* category_name(ProblemCategory c) {
  switch (c) {
    case ProblemCategory::Pruning: return "pruning";
    case ProblemCategory::Approximation: return "approximation";
    case ProblemCategory::Exhaustive: return "exhaustive";
  }
  return "?";
}

/// Shape of the scalar envelope g where kernel = g(metric_distance).
enum class EnvelopeShape {
  Identity,   // g(d) = d (k-NN, Hausdorff, EMST)
  Decreasing, // monotone decreasing (Gaussian family)
  Increasing, // monotone increasing but not identity
  Indicator,  // I(lo < d < hi) (range search, 2-point correlation)
  Opaque,     // not analyzable: no pruning or approximation
};

inline const char* envelope_shape_name(EnvelopeShape s) {
  switch (s) {
    case EnvelopeShape::Identity: return "identity";
    case EnvelopeShape::Decreasing: return "decreasing";
    case EnvelopeShape::Increasing: return "increasing";
    case EnvelopeShape::Indicator: return "indicator";
    case EnvelopeShape::Opaque: return "opaque";
  }
  return "?";
}

/// The normalized kernel: metric + envelope (see DESIGN.md Sec. 5). The
/// envelope IR references the metric value through the Dist atom.
struct KernelInfo {
  Expr ast;                 // the user-level kernel expression
  IrExprPtr kernel_ir;      // fully lowered kernel (per point pair)
  bool normalized = false;  // metric + envelope decomposition succeeded
  MetricKind metric = MetricKind::SqEuclidean;
  IrExprPtr envelope_ir;    // kernel with the metric subtree -> Dist
  EnvelopeShape shape = EnvelopeShape::Opaque;
  real_t indicator_lo = 0;  // metric-space bounds for Indicator shape;
  real_t indicator_hi = 0;  // lo = -inf encodes a one-sided I(d < hi)
  std::shared_ptr<MahalanobisContext> maha; // Mahalanobis metric context
  ExternalKernelFn external;                // opaque external kernel
  bool is_gravity = false;  // Barnes-Hut vector kernel (pattern backend)
  real_t gravity_g = 1;
  real_t gravity_eps = 1e-3;
};

/// Which backend runs the compiled program (DESIGN.md Sec. 4).
enum class Engine {
  Auto,    // Pattern when recognized, else JIT when available, else VM
  VM,      // bytecode interpreter
  Pattern, // pre-compiled specialized kernels
  JIT,     // emit C++, compile with the system compiler, dlopen
};

inline const char* engine_name(Engine e) {
  switch (e) {
    case Engine::Auto: return "auto";
    case Engine::VM: return "vm";
    case Engine::Pattern: return "pattern";
    case Engine::JIT: return "jit";
  }
  return "?";
}

/// User-facing execution configuration.
struct PortalConfig {
  Engine engine = Engine::Auto;
  index_t leaf_size = kDefaultLeafSize;
  bool parallel = true;
  int task_depth = -1;
  real_t tau = 1e-3;     // approximation threshold (approximation problems)
  real_t theta = 0.5;    // Barnes-Hut MAC
  bool strength_reduction = true; // Sec. IV-E pass on/off (accuracy knob)
  bool batch_base_cases = true;   // SIMD tile evaluation of leaf x leaf blocks
                                  // (Sec. IV-F data parallelism; off = the
                                  // scalar per-pair path, kept as the ablation
                                  // baseline and differential oracle)
  bool dump_ir = false;           // record per-stage IR snapshots
  bool verify_ir = true; // LLVM-style -verify-each: re-check IR well-formedness
                         // after lowering and after every pass (PTL-E codes)
  bool validate = false; // also run the generated brute-force program and
                         // compare (Sec. IV: "generates the code for the
                         // brute-force algorithm ... used for correctness")
  real_t validate_tolerance = 1e-6;
  /// True when the user supplied tau explicitly (CLI --tau, script
  /// `set tau=`, or test setup) rather than inheriting the default; lets
  /// lint warn when tau is handed to a problem family that ignores it
  /// (PTL-W106) without firing on every defaulted config.
  bool tau_explicit = false;

  /// Optional per-point group labels (query and reference sides; for a
  /// shared dataset point i has label labels[i] in original order). When
  /// set, reductions skip reference points sharing the query point's label
  /// and the generator adds the fully-connected prune -- the constraint
  /// dual-tree Boruvka needs for the MST rows of Tables III-IV.
  const std::vector<index_t>* exclude_same_label = nullptr;
};

/// Per-stage IR snapshots + pipeline trace (Figs. 1-3 benches).
struct CompileArtifacts {
  std::vector<std::pair<std::string, std::string>> stages; // (pass, dump)
  std::string pipeline_trace;
  std::string verify_report; // per-stage verifier summary (verify_ir mode)
  std::string chosen_engine;
  std::string problem_description; // Table III-style row
  /// PTL-Wxxx findings from the analysis/lint pass (insertion order; empty
  /// on a lint-clean program) and the same findings pre-rendered one per
  /// line. Consumed by `portal_cli lint` and the unit tests.
  std::vector<Diagnostic> lint_diagnostics;
  std::string lint_report;
  double compile_seconds = 0;
  double tree_build_seconds = 0;
  double traversal_seconds = 0;
};

/// Everything the backends need to run the problem.
struct ProblemPlan {
  std::vector<LayerSpec> layers; // outermost first
  KernelInfo kernel;
  ProblemCategory category = ProblemCategory::Exhaustive;
  IrProgram ir;                  // the three traversal functions, post-passes
  std::string description;
  /// Canonical structural hash of the verified post-pass IR + layer operator
  /// sequence (core/ir/ir_hash.h). Storage identity is excluded, so equal
  /// chains over same-shaped datasets share a fingerprint -- the plan-reuse
  /// key the serving runtime's compiled-plan cache (src/serve) is built on.
  /// Filled by PortalExpr::compile_if_needed(); 0 = not yet computed.
  std::uint64_t fingerprint = 0;
  /// Kernel properties proven by the analysis framework (core/analysis),
  /// cached next to the fingerprint so every consumer -- pattern engine,
  /// rule core (executor and serve engine), lint -- reads one oracle. Filled
  /// by PortalExpr::compile_if_needed() alongside the fingerprint.
  KernelFacts facts;
};

} // namespace portal
