// Portal -- the compiled-plan cache of the query-serving runtime.
//
// A serving deployment sees the same handful of programs millions of times
// (the same k-NN chain from every client, the same KDE kernel per request).
// Running the full compiler pipeline per request would dwarf the traversal
// itself, so PlanCache compiles each distinct chain exactly once -- through
// the existing analysis + verified pass pipeline (PortalExpr::compile) --
// and answers every structurally identical prepare() from the cached
// artifact. Identity is two-level:
//   * a cheap pre-compile descriptor key (operator, k, pre-defined kernel
//     parameters, data shape, compile knobs) resolves repeat chains without
//     touching the compiler at all -- the serving fast path;
//   * the canonical post-pass IR fingerprint (core/ir/ir_hash.h) is the
//     authoritative key: chains that miss the descriptor level (custom Expr
//     kernels, data-derived covariances) still deduplicate when their
//     verified IR is node-for-node equal, and storage identity never enters
//     either key, so equal chains over different same-shaped datasets share
//     one compiled plan.
//
// Cache outcomes surface as serve/plan_cache_{hit,miss} obs counters and as
// the stats() the service's serve-bench mode reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/codegen/jit.h"
#include "core/plan.h"
#include "core/rule_core.h"
#include "util/thread_annotations.h"

namespace portal::serve {

/// One immutable compiled program: the post-pass plan plus the evaluator
/// the serving engine runs it through. Everything here is set once at
/// compile time; evaluation is thread-safe, so any number of workers can run
/// the same CompiledPlan concurrently.
struct CompiledPlan {
  std::uint64_t fingerprint = 0;
  ProblemPlan plan; // layer storages are compile-time shape templates only

  /// The VM evaluator (vm_evaluators), with the JIT module's fused tile
  /// loops (kernel_batch, leaf_values) in place of the VM's when the cache
  /// was configured for JIT serving (configure_jit) and the compile
  /// succeeded. The per-pair kernel and the envelope stay the VM's: they
  /// serve the scalar paths and the brute-force oracle the differential
  /// walls compare against, and the fused loops are bitwise-equal to them.
  EvaluatorFns eval;
  /// Keeps the dlopen mapping behind `eval`'s JIT entries alive for every
  /// in-flight request; nullptr when serving through the VM alone.
  std::shared_ptr<const JitModule> jit;

  /// Inner-operator traits (the rule core's decomposition), resolved once
  /// so the engine never re-derives them per request.
  OpTraits traits;

  index_t dim = 0; // request points must have exactly this many coordinates
  double compile_seconds = 0;
};

/// Shared immutable handle requests carry; the scheduler coalesces requests
/// whose handles share a fingerprint.
using PlanHandle = std::shared_ptr<const CompiledPlan>;

class PlanCache {
 public:
  /// JIT serving configuration (ServiceOptions::jit / jit_cache_dir). With
  /// `enabled`, every compiled plan also gets a JitModule with the fused
  /// leaf-loop entry points; artifacts persist in `cache_dir` (or in the
  /// PORTAL_JIT_CACHE_DIR process cache when empty) so a restarted service
  /// warm-starts with zero compiler invocations. A failed JIT compile logs
  /// and falls back to the VM -- it never fails the prepare().
  struct JitOptions {
    bool enabled = false;
    std::string cache_dir;
    std::size_t max_entries = 256;
  };

  void configure_jit(const JitOptions& options);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// Resolve (or compile) the plan for `FORALL over query points -> inner`
  /// against a reference dataset of `reference`'s shape. `inner.storage` is
  /// ignored -- the cache substitutes `reference` itself, so kernels whose
  /// analysis reads data values (covariance-from-data Mahalanobis) compile
  /// against the real points. Supported inner operators: the comparative
  /// reductions (MIN/MAX/ARGMIN/ARGMAX and their K forms), SUM, and
  /// UNION/UNIONARG; anything else throws std::invalid_argument, as do
  /// vector-valued (gravity) kernels.
  ///
  /// Thread-safe; a miss compiles outside the lock, so a slow compile never
  /// blocks hits. Two threads racing on the same cold chain may both
  /// compile -- the first insert wins and both get the surviving plan.
  PlanHandle get_or_compile(const LayerSpec& inner, const Dataset& reference,
                            const PortalConfig& config);

  Stats stats() const;

  /// Number of distinct compiled plans (fingerprint-level entries).
  std::size_t size() const;

 private:
  mutable Mutex mutex_;
  std::map<std::uint64_t, PlanHandle> by_descriptor_ PORTAL_GUARDED_BY(mutex_);
  std::map<std::uint64_t, PlanHandle> by_fingerprint_ PORTAL_GUARDED_BY(mutex_);
  Stats stats_ PORTAL_GUARDED_BY(mutex_);
  JitOptions jit_options_ PORTAL_GUARDED_BY(mutex_);
  std::shared_ptr<ArtifactCache> artifacts_ PORTAL_GUARDED_BY(mutex_);
};

} // namespace portal::serve
