// Portal -- bytecode VM backend (DESIGN.md Sec. 4, engine 1).
//
// Compiles a Portal IR expression into a compact postfix bytecode evaluated
// on a small value stack. One program serves three uses:
//   * full kernel per point pair (LoadQCoord/LoadRCoord inside dim loops),
//   * envelope on a metric distance (the Dist atom),
//   * prune/approx conditions on node-pair atoms (DMin/DMax/CenterDist/...).
// The VM is the always-available engine and the correctness oracle for the
// pattern and JIT backends; it is also what the analysis step uses to sample
// envelope monotonicity.
#pragma once

#include <memory>
#include <vector>

#include "core/ir/ir.h"
#include "kernels/metrics.h"
#include "util/common.h"

namespace portal {

/// Inputs a program may read. Unused fields can stay default.
struct VmContext {
  const real_t* q = nullptr; // dim-contiguous query point
  const real_t* r = nullptr; // dim-contiguous reference point
  index_t dim = 0;
  real_t dist = 0;    // Dist atom
  real_t dmin = 0;    // node-pair atoms
  real_t dmax = 0;
  real_t center = 0;
  real_t rcount = 0;
  real_t tau = 0;
  real_t bound = 0;
  real_t* scratch = nullptr; // 2*dim reals; required for Mahalanobis opcodes
};

class VmProgram {
 public:
  VmProgram() = default;

  /// Compile an IR expression. Throws std::invalid_argument on constructs the
  /// VM cannot express (none currently) or malformed trees.
  static VmProgram compile(const IrExprPtr& expr);

  bool empty() const { return code_.empty(); }
  std::size_t size() const { return code_.size(); }

  /// Evaluate; thread-safe (all mutable state lives on the caller's stack).
  real_t run(const VmContext& ctx) const;

  /// Convenience wrappers.
  real_t run_pair(const real_t* q, const real_t* r, index_t dim,
                  real_t* scratch = nullptr) const {
    VmContext ctx;
    ctx.q = q;
    ctx.r = r;
    ctx.dim = dim;
    ctx.scratch = scratch;
    return run(ctx);
  }

  real_t run_envelope(real_t dist) const {
    VmContext ctx;
    ctx.dist = dist;
    return run(ctx);
  }

  /// Inputs for the batched flavor: one query point against `count`
  /// reference lanes from a SoA mirror (tree/soa_mirror.h); lane j's d-th
  /// coordinate is rlanes[d * rstride + rbegin + j]. With `dists` set, lane
  /// j's Dist atom reads dists[j], so an envelope program runs across a
  /// range of distances bit-for-bit like run_envelope per value. The other
  /// node-pair atoms (DMin, ...), and Dist without `dists`, read as 0,
  /// exactly like run_pair's defaulted VmContext.
  struct BatchContext {
    const real_t* q = nullptr;
    const real_t* rlanes = nullptr;
    index_t rstride = 0;
    index_t rbegin = 0;
    index_t count = 0;
    index_t dim = 0;
    real_t* scratch = nullptr; // 3*dim reals (Mahalanobis/External gather)
    const real_t* dists = nullptr;
  };

  /// Evaluate one opcode stream across a whole lane array: the value stack
  /// is structure-of-arrays (each slot a lane vector), so every opcode is a
  /// `#pragma omp simd` sweep over the tile. Per lane this executes the same
  /// operations in the same order as run_pair, so out[j] is bit-for-bit
  /// run_pair(q, r_j). Thread-safe like run().
  void run_batch(const BatchContext& ctx, real_t* out) const;

 private:
  enum class Op : std::uint8_t {
    PushConst,
    LoadQCoord, // q[d] of the active dim loop
    LoadRCoord,
    Dist,
    DMin,
    DMax,
    CenterDist,
    RCount,
    Tau,
    Bound,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Abs,
    Min,
    Max,
    PowConst,
    Sqrt,
    FastSqrt,
    InvSqrt,
    FastInvSqrt,
    Exp,
    Log,
    Less,
    Greater,
    And,
    BeginDimSum, // arg = ip of the matching EndDim
    BeginDimMax,
    EndDim,      // arg = ip of the loop body start
    Maha,        // arg = index into maha_ctxs_
    External,    // arg = index into externals_
  };

  struct Instr {
    Op op;
    real_t value = 0;
    int arg = 0;
  };

  void emit(const IrExprPtr& expr);

  /// Mahalanobis payloads: the Chol flavor (post numerical-optimization pass)
  /// carries the L factor; the naive flavor carries Sigma^{-1} (inverted at
  /// compile time from the node's covariance).
  struct MahaEntry {
    std::vector<real_t> matrix; // L (chol) or Sigma^{-1} (naive)
    index_t m = 0;
    bool use_chol = true;
  };

  std::vector<Instr> code_;
  std::vector<MahaEntry> mahas_;
  std::vector<ExternalKernelFn> externals_;
};

} // namespace portal
