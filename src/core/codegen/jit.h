// Portal -- the source JIT backend (DESIGN.md Sec. 4, engine 3; Sec. 17 for
// the artifact cache and the fused leaf loops).
//
// The paper's backend hands optimized IR to LLVM for native code emission;
// LLVM is not available offline here, so this backend performs the honest
// equivalent: it pretty-prints the optimized IR as a C++ translation unit,
// invokes the system compiler (-O3 -march=native -ffp-contract=off -shared
// -fPIC), dlopens the resulting shared object, and hands raw function
// pointers to the generic executor. Kernels containing opaque external C++
// callbacks cannot be serialized and report unavailable (callers fall back
// to the VM).
//
// Two properties the test walls pin:
//   * Bitwise parity with the VM: the emitted operations mirror the
//     interpreter op for op (portal_pow_int == pow_int, portal_exp ==
//     det_exp, the prelude fast-inverse-sqrt replicates kernels/fastmath.h
//     including its edge cases, -ffp-contract=off forbids FMA contraction --
//     the same flag the root CMakeLists.txt applies to the host build,
//     DESIGN.md Sec. 10), so JIT results are bit-identical to the VM at
//     tolerance 0, not merely close.
//   * Zero-compile warm starts: compile() consults an ArtifactCache (the
//     on-disk third level of the plan-cache identity) before invoking the
//     compiler, and publishes what it builds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/codegen/artifact_cache.h"
#include "core/rule_core.h"
#include "core/plan.h"

namespace portal {

/// Bumped whenever emit_cpp_source changes the shape of the emitted code;
/// part of the artifact-cache key, so stale on-disk artifacts from an older
/// emitter can never satisfy a lookup.
inline constexpr std::uint64_t kJitEmitterVersion = 3;

/// A compiled kernel module (RAII over the dlopen handle; scratch files it
/// owns are removed on destruction, cache-published artifacts are not).
class JitModule {
 public:
  using EnvelopeFn = double (*)(double);
  using KernelFn = double (*)(const double*, const double*, long, double*);
  /// Fused leaf-loop entry over one SoA tile: lane j's d-th coordinate is
  /// rlanes[d * rstride + rbegin + j]; writes out[0..count). Scratch must
  /// hold 3*dim reals (per-lane gather + Mahalanobis solve).
  using BatchFn = void (*)(const double* q, const double* rlanes, long rstride,
                           long rbegin, long count, long dim, double* scratch,
                           double* out);

  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  /// Compile the plan's kernel + envelope + fused leaf loops, warm-starting
  /// from the process artifact cache (PORTAL_JIT_CACHE_DIR) when one is
  /// configured. Throws std::runtime_error with the compiler log on failure;
  /// returns nullptr when the kernel is not JIT-able (external callbacks,
  /// vector-valued gravity).
  static std::unique_ptr<JitModule> compile(const ProblemPlan& plan);

  /// Same, against an explicit cache (nullptr = no cache). Misses compile
  /// and publish; corrupted or stale entries are rejected by the cache and
  /// recompiled, never dlopen'd.
  static std::unique_ptr<JitModule> compile(const ProblemPlan& plan,
                                            ArtifactCache* cache);

  /// Evaluator callbacks bound to the dlopen'd symbols (kernel_pair,
  /// envelope, and the fused kernel_batch / leaf_values tile loops when the
  /// plan admitted them).
  EvaluatorFns evaluators() const;

  /// The generated translation unit (artifact dumps / tests).
  const std::string& source() const { return source_; }

  /// True when this module was dlopen'd from a cache artifact instead of a
  /// fresh compile (warm-start assertions).
  bool from_cache() const { return from_cache_; }

  // Raw symbol access (direct callers and tests; no std::function
  // indirection). Null when the plan did not admit the entry.
  KernelFn kernel_fn() const { return kernel_; }
  EnvelopeFn envelope_fn() const { return envelope_; }
  /// Fused tile loop mirroring VmProgram::run_batch (opaque kernel per
  /// lane); bitwise-identical per lane.
  BatchFn fused_batch_fn() const { return fused_batch_; }
  /// Fused tile loop for normalized plans: metric distance + envelope in one
  /// specialized, dimension-unrolled pass (batch::natural_dists followed by
  /// the envelope, bitwise).
  BatchFn fused_values_fn() const { return fused_values_; }

 private:
  JitModule() = default;
  bool open(const std::string& so_path, bool owned);

  void* handle_ = nullptr;
  std::string so_path_;
  bool owned_so_ = false;
  bool from_cache_ = false;
  std::string source_;
  EnvelopeFn envelope_ = nullptr;
  KernelFn kernel_ = nullptr;
  BatchFn fused_batch_ = nullptr;
  BatchFn fused_values_ = nullptr;
};

/// Emit the C++ translation unit for a plan (exposed for tests and the
/// pipeline bench; JitModule::compile uses it internally).
std::string emit_cpp_source(const ProblemPlan& plan);

/// True when a working system compiler was found (cached probe).
bool jit_available();

/// Identity of the toolchain the JIT invokes: command + flags + the first
/// line of `$CXX --version`. Folded into the artifact-cache key so a
/// compiler upgrade (or a CXX= switch) invalidates every cached artifact.
const std::string& jit_compiler_identity();

/// The per-process scratch directory all JIT compiles write into (created
/// lazily via mkdtemp; intermediate files are removed after each compile and
/// module destruction, so the directory is empty whenever no module is
/// alive).
const std::string& jit_scratch_dir();

} // namespace portal
