// Portal -- kernel property facts produced by the IR dataflow analysis.
//
// One small, plain struct that rides on the compiled ProblemPlan (next to
// the PR-5 IR fingerprint) so every consumer -- the pattern engine, the
// generic executor, the serve rule sets, the lint pass, portal_cli -- reads
// the same proven facts instead of re-deriving legality from syntax. The
// struct deliberately depends only on util/common.h: plan.h includes it, so
// it must not pull core headers back in.
#pragma once

#include <limits>

#include "util/common.h"

namespace portal {

/// Monotonicity of the scalar kernel value in the underlying point distance.
/// Proven structurally on the post-pass IR (see dataflow.cpp); distinct from
/// the sampling-based EnvelopeShape classification, which stays the
/// empirical fallback.
enum class Monotonicity {
  Constant,      // no dependence on the distance at all
  NonIncreasing, // d1 <= d2  =>  k(d1) >= k(d2)
  NonDecreasing, // d1 <= d2  =>  k(d1) <= k(d2)
  Unknown,       // not monotone, or not provable structurally
};

/// How a fact was established. Proven = structural abstract interpretation
/// of the IR; Empirical = the pre-existing sampling classifier
/// (classify_envelope); Unknown = neither tier could establish it.
enum class FactConfidence {
  Proven,
  Empirical,
  Unknown,
};

/// Per-plan analysis results, computed once per compile
/// (compute_kernel_facts) and read by every engine.
struct KernelFacts {
  // Envelope classification mirrored as booleans so engines stop comparing
  // EnvelopeShape enumerators directly.
  bool envelope_identity = false;
  bool envelope_indicator = false;

  // Monotonicity of the kernel in the distance plus the tier that proved it.
  Monotonicity mono = Monotonicity::Unknown;
  FactConfidence mono_confidence = FactConfidence::Unknown;

  // Interval of kernel values achievable over the datasets' bounding boxes
  // (the post-order interval sweep's root range). Infinite bounds mean
  // "unbounded / not computed".
  real_t value_lo = -std::numeric_limits<real_t>::infinity();
  real_t value_hi = std::numeric_limits<real_t>::infinity();
  /// May-analysis: true when some input in the achievable range can produce
  /// a NaN (0/0, sqrt of a negative, log of a non-positive, ...).
  bool may_nan = false;

  // Achievable distance interval between the two datasets' bounding boxes,
  // in the metric's natural space (squared for SqEuclidean/Mahalanobis).
  real_t dist_lo = 0;
  real_t dist_hi = std::numeric_limits<real_t>::infinity();

  /// Kernel is symmetric under swapping the query and reference points
  /// (structural check: swapping LoadQCoord/LoadRCoord yields an identical
  /// expression). Distance-only kernels are trivially symmetric.
  bool symmetric = false;

  // Accumulation algebra (determinism relevance): SUM/MIN/MAX-family ops
  // commute and associate; ARG*-family results depend on visit order at
  // exact ties.
  bool accum_commutative = false;
  bool accum_associative = false;

  // Prune/approximation legality: the only source the engines consult
  // (pattern recognition, the generic executor, the serve rule sets).
  bool reduction_prune_legal = false; // comparative op + usable envelope
  bool indicator_prune_legal = false; // normalized indicator interval
  bool approx_legal = false;          // tau-approximation may fire
};

} // namespace portal
