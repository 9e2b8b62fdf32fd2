#include "core/codegen/vm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/verify/verify.h"
#include "kernels/fastmath.h"
#include "kernels/linalg.h"
#include "obs/trace.h"
#include "util/aligned.h"

namespace portal {

VmProgram VmProgram::compile(const IrExprPtr& expr) {
  // Verified-IR precondition: bytecode emission assumes structurally sound
  // trees (arity, payloads, no Temp plumbing) and reports violations with
  // the PTL-E codes instead of crashing mid-emit.
  verify_executable_expr(expr, "vm");
  PORTAL_OBS_COUNT("vm/programs_compiled", 1);
  VmProgram program;
  program.emit(expr);
  return program;
}

void VmProgram::emit(const IrExprPtr& e) {
  auto binary = [&](Op op) {
    emit(e->children[0]);
    emit(e->children[1]);
    code_.push_back({op, 0, 0});
  };
  auto unary = [&](Op op) {
    emit(e->children[0]);
    code_.push_back({op, 0, 0});
  };

  switch (e->op) {
    case IrOp::Const:
      code_.push_back({Op::PushConst, e->value, 0});
      return;
    case IrOp::LoadQCoord:
      code_.push_back({Op::LoadQCoord, 0, 0});
      return;
    case IrOp::LoadRCoord:
      code_.push_back({Op::LoadRCoord, 0, 0});
      return;
    case IrOp::Dist:
      code_.push_back({Op::Dist, 0, 0});
      return;
    case IrOp::DMin:
      code_.push_back({Op::DMin, 0, 0});
      return;
    case IrOp::DMax:
      code_.push_back({Op::DMax, 0, 0});
      return;
    case IrOp::CenterDist:
      code_.push_back({Op::CenterDist, 0, 0});
      return;
    case IrOp::RCount:
      code_.push_back({Op::RCount, 0, 0});
      return;
    case IrOp::Tau:
      code_.push_back({Op::Tau, 0, 0});
      return;
    case IrOp::QueryBound:
      code_.push_back({Op::Bound, 0, 0});
      return;
    case IrOp::Temp:
      throw std::invalid_argument(
          "VmProgram: Temp nodes are statement-IR plumbing, not executable");
    case IrOp::Add: binary(Op::Add); return;
    case IrOp::Sub: binary(Op::Sub); return;
    case IrOp::Mul: binary(Op::Mul); return;
    case IrOp::Div: binary(Op::Div); return;
    case IrOp::Min: binary(Op::Min); return;
    case IrOp::Max: binary(Op::Max); return;
    case IrOp::Less: binary(Op::Less); return;
    case IrOp::Greater: binary(Op::Greater); return;
    case IrOp::LogicalAnd: binary(Op::And); return;
    case IrOp::Neg: unary(Op::Neg); return;
    case IrOp::Abs: unary(Op::Abs); return;
    case IrOp::Sqrt: unary(Op::Sqrt); return;
    case IrOp::FastSqrt: unary(Op::FastSqrt); return;
    case IrOp::InvSqrt: unary(Op::InvSqrt); return;
    case IrOp::FastInvSqrt: unary(Op::FastInvSqrt); return;
    case IrOp::Exp: unary(Op::Exp); return;
    case IrOp::Log: unary(Op::Log); return;
    case IrOp::Pow:
      emit(e->children[0]);
      code_.push_back({Op::PowConst, e->value, 0});
      return;
    case IrOp::DimSum:
    case IrOp::DimMax: {
      const Op begin = e->op == IrOp::DimSum ? Op::BeginDimSum : Op::BeginDimMax;
      const int begin_ip = static_cast<int>(code_.size());
      code_.push_back({begin, 0, 0}); // arg patched below
      const int body_ip = static_cast<int>(code_.size());
      emit(e->children[0]);
      const int end_ip = static_cast<int>(code_.size());
      code_.push_back({Op::EndDim, 0, body_ip});
      code_[begin_ip].arg = end_ip;
      return;
    }
    case IrOp::MahalanobisNaive:
    case IrOp::MahalanobisChol: {
      const index_t m = static_cast<index_t>(
          std::llround(std::sqrt(static_cast<double>(e->matrix.size()))));
      if (m * m != static_cast<index_t>(e->matrix.size()))
        throw std::invalid_argument("VmProgram: malformed Mahalanobis matrix");
      MahaEntry entry;
      entry.m = m;
      if (e->op == IrOp::MahalanobisChol) {
        entry.use_chol = true;
        entry.matrix = e->matrix; // the L factor installed by the pass
      } else {
        entry.use_chol = false;
        entry.matrix = spd_inverse(e->matrix, m); // node carries the covariance
      }
      mahas_.push_back(std::move(entry));
      code_.push_back({Op::Maha, 0, static_cast<int>(mahas_.size() - 1)});
      return;
    }
    case IrOp::ExternalCall:
      externals_.push_back(e->external);
      code_.push_back({Op::External, 0, static_cast<int>(externals_.size() - 1)});
      return;
  }
  throw std::logic_error("VmProgram: unhandled IR op");
}

real_t VmProgram::run(const VmContext& ctx) const {
  PORTAL_OBS_COUNT("vm/kernel_evals", 1);
  real_t stack[64];
  int sp = 0;
  struct DimFrame {
    real_t acc;
    bool is_sum;
    index_t d;
  };
  DimFrame frames[4];
  int fp = 0; // active dim-loop frames
  index_t current_d = 0;

  const auto push = [&](real_t v) { stack[sp++] = v; };

  for (std::size_t ip = 0; ip < code_.size(); ++ip) {
    const Instr& ins = code_[ip];
    switch (ins.op) {
      case Op::PushConst: push(ins.value); break;
      case Op::LoadQCoord: push(ctx.q[current_d]); break;
      case Op::LoadRCoord: push(ctx.r[current_d]); break;
      case Op::Dist: push(ctx.dist); break;
      case Op::DMin: push(ctx.dmin); break;
      case Op::DMax: push(ctx.dmax); break;
      case Op::CenterDist: push(ctx.center); break;
      case Op::RCount: push(ctx.rcount); break;
      case Op::Tau: push(ctx.tau); break;
      case Op::Bound: push(ctx.bound); break;
      case Op::Add: stack[sp - 2] += stack[sp - 1]; --sp; break;
      case Op::Sub: stack[sp - 2] -= stack[sp - 1]; --sp; break;
      case Op::Mul: stack[sp - 2] *= stack[sp - 1]; --sp; break;
      case Op::Div: stack[sp - 2] /= stack[sp - 1]; --sp; break;
      case Op::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::Abs: stack[sp - 1] = std::abs(stack[sp - 1]); break;
      case Op::Min:
        stack[sp - 2] = std::min(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Max:
        stack[sp - 2] = std::max(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::PowConst: {
        const real_t exponent = ins.value;
        const real_t intpart = std::nearbyint(exponent);
        if (exponent == intpart && intpart >= 0 && intpart <= 32) {
          stack[sp - 1] = pow_int(stack[sp - 1], static_cast<int>(intpart));
        } else {
          stack[sp - 1] = std::pow(stack[sp - 1], exponent);
        }
        break;
      }
      case Op::Sqrt: stack[sp - 1] = std::sqrt(stack[sp - 1]); break;
      case Op::FastSqrt: stack[sp - 1] = fast_sqrt(stack[sp - 1]); break;
      case Op::InvSqrt:
        stack[sp - 1] = real_t(1) / std::sqrt(stack[sp - 1]);
        break;
      case Op::FastInvSqrt:
        stack[sp - 1] = fast_inv_sqrt(stack[sp - 1]);
        break;
      case Op::Exp: stack[sp - 1] = det_exp(stack[sp - 1]); break;
      case Op::Log: stack[sp - 1] = std::log(stack[sp - 1]); break;
      case Op::Less:
        stack[sp - 2] = stack[sp - 2] < stack[sp - 1] ? 1 : 0;
        --sp;
        break;
      case Op::Greater:
        stack[sp - 2] = stack[sp - 2] > stack[sp - 1] ? 1 : 0;
        --sp;
        break;
      case Op::And:
        stack[sp - 2] = (stack[sp - 2] != 0 && stack[sp - 1] != 0) ? 1 : 0;
        --sp;
        break;
      case Op::BeginDimSum:
      case Op::BeginDimMax:
        if (ctx.dim == 0) { // no dimensions: identity element, skip the body
          push(ins.op == Op::BeginDimSum
                   ? real_t(0)
                   : std::numeric_limits<real_t>::lowest());
          ip = static_cast<std::size_t>(ins.arg);
          break;
        }
        frames[fp++] = {ins.op == Op::BeginDimSum
                            ? real_t(0)
                            : std::numeric_limits<real_t>::lowest(),
                        ins.op == Op::BeginDimSum, 0};
        current_d = 0;
        break;
      case Op::EndDim: {
        DimFrame& frame = frames[fp - 1];
        const real_t body = stack[--sp];
        if (frame.is_sum)
          frame.acc += body;
        else
          frame.acc = std::max(frame.acc, body);
        ++frame.d;
        if (frame.d < ctx.dim) {
          current_d = frame.d;
          ip = static_cast<std::size_t>(ins.arg) - 1; // loop back
        } else {
          push(frame.acc);
          --fp;
          current_d = fp > 0 ? frames[fp - 1].d : 0;
        }
        break;
      }
      case Op::Maha: {
        const MahaEntry& entry = mahas_[ins.arg];
        push(entry.use_chol
                 ? mahalanobis_sq_cholesky(ctx.q, ctx.r, entry.matrix, entry.m,
                                           ctx.scratch)
                 : mahalanobis_sq_naive(ctx.q, ctx.r, entry.matrix, entry.m));
        break;
      }
      case Op::External:
        push(externals_[ins.arg](ctx.q, ctx.r, ctx.dim));
        break;
    }
  }
  return sp > 0 ? stack[sp - 1] : 0;
}

void VmProgram::run_batch(const BatchContext& ctx, real_t* out) const {
  PORTAL_OBS_COUNT("vm/batch_evals", 1);
  // Lane width: one SoA stack slot is a kLanes-wide vector. 16 doubles spans
  // two AVX-512 / four AVX2 registers; the whole stack stays under 8 KiB.
  constexpr index_t kLanes = 16;

  for (index_t block = 0; block < ctx.count; block += kLanes) {
    const index_t w = std::min(kLanes, ctx.count - block);
    alignas(kCacheLineBytes) real_t stack[64][kLanes];
    int sp = 0;
    struct DimFrame {
      real_t acc[kLanes];
      bool is_sum;
      index_t d;
    };
    DimFrame frames[4];
    int fp = 0;
    index_t current_d = 0;

    const auto broadcast = [&](real_t v) {
      real_t* slot = stack[sp++];
#pragma omp simd
      for (index_t l = 0; l < w; ++l) slot[l] = v;
    };

    for (std::size_t ip = 0; ip < code_.size(); ++ip) {
      const Instr& ins = code_[ip];
      real_t* top = sp > 0 ? stack[sp - 1] : nullptr;
      real_t* under = sp > 1 ? stack[sp - 2] : nullptr;
      switch (ins.op) {
        case Op::PushConst: broadcast(ins.value); break;
        case Op::LoadQCoord: broadcast(ctx.q[current_d]); break;
        case Op::LoadRCoord: {
          const real_t* slice =
              ctx.rlanes + current_d * ctx.rstride + ctx.rbegin + block;
          real_t* slot = stack[sp++];
#pragma omp simd
          for (index_t l = 0; l < w; ++l) slot[l] = slice[l];
          break;
        }
        case Op::Dist:
          if (ctx.dists != nullptr) {
            const real_t* slice = ctx.dists + block;
            real_t* slot = stack[sp++];
#pragma omp simd
            for (index_t l = 0; l < w; ++l) slot[l] = slice[l];
          } else {
            broadcast(0);
          }
          break;
        // Node-pair atoms are absent from pair kernels; they read as the
        // defaulted-VmContext zeros so run_batch degrades exactly like
        // run_pair would on such a program.
        case Op::DMin:
        case Op::DMax:
        case Op::CenterDist:
        case Op::RCount:
        case Op::Tau:
        case Op::Bound: broadcast(0); break;
        case Op::Add:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] += top[l];
          --sp;
          break;
        case Op::Sub:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] -= top[l];
          --sp;
          break;
        case Op::Mul:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] *= top[l];
          --sp;
          break;
        case Op::Div:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] /= top[l];
          --sp;
          break;
        case Op::Neg:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) top[l] = -top[l];
          break;
        case Op::Abs:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) top[l] = std::abs(top[l]);
          break;
        case Op::Min:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] = std::min(under[l], top[l]);
          --sp;
          break;
        case Op::Max:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) under[l] = std::max(under[l], top[l]);
          --sp;
          break;
        case Op::PowConst: {
          const real_t exponent = ins.value;
          const real_t intpart = std::nearbyint(exponent);
          if (exponent == intpart && intpart >= 0 && intpart <= 32) {
            const int e = static_cast<int>(intpart);
            for (index_t l = 0; l < w; ++l) top[l] = pow_int(top[l], e);
          } else {
            for (index_t l = 0; l < w; ++l) top[l] = std::pow(top[l], exponent);
          }
          break;
        }
        case Op::Sqrt:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) top[l] = std::sqrt(top[l]);
          break;
        case Op::FastSqrt:
          for (index_t l = 0; l < w; ++l) top[l] = fast_sqrt(top[l]);
          break;
        case Op::InvSqrt:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) top[l] = real_t(1) / std::sqrt(top[l]);
          break;
        case Op::FastInvSqrt:
          for (index_t l = 0; l < w; ++l) top[l] = fast_inv_sqrt(top[l]);
          break;
        case Op::Exp:
#pragma omp simd
          for (index_t l = 0; l < w; ++l) top[l] = det_exp(top[l]);
          break;
        case Op::Log:
          for (index_t l = 0; l < w; ++l) top[l] = std::log(top[l]);
          break;
        case Op::Less:
#pragma omp simd
          for (index_t l = 0; l < w; ++l)
            under[l] = under[l] < top[l] ? 1 : 0;
          --sp;
          break;
        case Op::Greater:
#pragma omp simd
          for (index_t l = 0; l < w; ++l)
            under[l] = under[l] > top[l] ? 1 : 0;
          --sp;
          break;
        case Op::And:
#pragma omp simd
          for (index_t l = 0; l < w; ++l)
            under[l] = (under[l] != 0 && top[l] != 0) ? 1 : 0;
          --sp;
          break;
        case Op::BeginDimSum:
        case Op::BeginDimMax: {
          const real_t init = ins.op == Op::BeginDimSum
                                  ? real_t(0)
                                  : std::numeric_limits<real_t>::lowest();
          if (ctx.dim == 0) { // no dimensions: identity element, skip the body
            broadcast(init);
            ip = static_cast<std::size_t>(ins.arg);
            break;
          }
          DimFrame& frame = frames[fp++];
          for (index_t l = 0; l < kLanes; ++l) frame.acc[l] = init;
          frame.is_sum = ins.op == Op::BeginDimSum;
          frame.d = 0;
          current_d = 0;
          break;
        }
        case Op::EndDim: {
          DimFrame& frame = frames[fp - 1];
          const real_t* body = stack[--sp];
          if (frame.is_sum) {
#pragma omp simd
            for (index_t l = 0; l < w; ++l) frame.acc[l] += body[l];
          } else {
#pragma omp simd
            for (index_t l = 0; l < w; ++l)
              frame.acc[l] = std::max(frame.acc[l], body[l]);
          }
          ++frame.d;
          if (frame.d < ctx.dim) {
            current_d = frame.d;
            ip = static_cast<std::size_t>(ins.arg) - 1; // loop back
          } else {
            real_t* slot = stack[sp++];
#pragma omp simd
            for (index_t l = 0; l < w; ++l) slot[l] = frame.acc[l];
            --fp;
            current_d = fp > 0 ? frames[fp - 1].d : 0;
          }
          break;
        }
        case Op::Maha: {
          // Per-lane scalar solve over a gathered contiguous point; the
          // blocked batch::maha_sq_dists flavor serves the specialized
          // paths, while the VM keeps the generic (exact-parity) fallback.
          const MahaEntry& entry = mahas_[ins.arg];
          real_t* rpt = ctx.scratch + 2 * ctx.dim;
          real_t* slot = stack[sp++];
          for (index_t l = 0; l < w; ++l) {
            const index_t j = ctx.rbegin + block + l;
            for (index_t d = 0; d < ctx.dim; ++d)
              rpt[d] = ctx.rlanes[d * ctx.rstride + j];
            slot[l] = entry.use_chol
                          ? mahalanobis_sq_cholesky(ctx.q, rpt, entry.matrix,
                                                    entry.m, ctx.scratch)
                          : mahalanobis_sq_naive(ctx.q, rpt, entry.matrix,
                                                 entry.m);
          }
          break;
        }
        case Op::External: {
          real_t* rpt = ctx.scratch + 2 * ctx.dim;
          real_t* slot = stack[sp++];
          for (index_t l = 0; l < w; ++l) {
            const index_t j = ctx.rbegin + block + l;
            for (index_t d = 0; d < ctx.dim; ++d)
              rpt[d] = ctx.rlanes[d * ctx.rstride + j];
            slot[l] = externals_[ins.arg](ctx.q, rpt, ctx.dim);
          }
          break;
        }
      }
    }
    real_t* tile_out = out + block;
    if (sp > 0) {
      const real_t* result = stack[sp - 1];
#pragma omp simd
      for (index_t l = 0; l < w; ++l) tile_out[l] = result[l];
    } else {
      for (index_t l = 0; l < w; ++l) tile_out[l] = 0;
    }
  }
}

} // namespace portal
