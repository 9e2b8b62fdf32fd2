#include "serve/plan_cache.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/ir/ir_hash.h"
#include "core/portal_expr.h"
#include "obs/trace.h"
#include "util/log.h"

namespace portal::serve {
namespace {

std::uint64_t mix_real(std::uint64_t h, real_t value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(real_t) <= sizeof(bits));
  std::memcpy(&bits, &value, sizeof(real_t));
  return ir_hash_mix(h, bits);
}

/// True when the chain's compiled form is fully determined by the descriptor
/// fields hashed below. Custom Expr kernels would need a structural AST hash
/// (the post-pass fingerprint provides exactly that, so they just take the
/// compile-then-dedupe path), and covariance-from-data kernels read the
/// reference points themselves.
bool fast_keyable(const LayerSpec& inner) {
  if (inner.custom_kernel.valid() || inner.external != nullptr) return false;
  const PortalFunc::Kind kind = inner.func.kind();
  if (kind == PortalFunc::Kind::Custom) return false;
  if ((kind == PortalFunc::Kind::Mahalanobis ||
       kind == PortalFunc::Kind::GaussianMaha) &&
      inner.func.covariance().empty())
    return false;
  return true;
}

/// Pre-compile key: everything that feeds the compiler except storage
/// identity. Data shape (dim, layout) is included because the flattened IR
/// bakes it in; tau and strength_reduction because they change the emitted
/// IR (approximation conditions, rewritten subtrees).
std::uint64_t descriptor_key(const LayerSpec& inner, const Dataset& reference,
                             const PortalConfig& config) {
  std::uint64_t h = kIrHashSeed;
  h = ir_hash_mix(h, 0x53455256ull); // 'SERV' domain tag
  h = ir_hash_mix(h, static_cast<std::uint64_t>(inner.op.op));
  h = ir_hash_mix(h, static_cast<std::uint64_t>(inner.op.k));
  h = ir_hash_mix(h, static_cast<std::uint64_t>(inner.func.kind()));
  h = mix_real(h, inner.func.sigma());
  h = mix_real(h, inner.func.gravity_g());
  h = mix_real(h, inner.func.softening());
  h = mix_real(h, inner.func.lo());
  h = mix_real(h, inner.func.hi());
  h = ir_hash_mix(h, inner.func.covariance().size());
  for (real_t v : inner.func.covariance()) h = mix_real(h, v);
  h = ir_hash_mix(h, static_cast<std::uint64_t>(reference.dim()));
  h = ir_hash_mix(h, static_cast<std::uint64_t>(reference.layout()));
  h = mix_real(h, config.tau);
  h = ir_hash_mix(h, config.strength_reduction ? 1 : 0);
  return h;
}

/// Attach a JIT module (fused leaf loops + persistent artifact) to a freshly
/// compiled plan. Failure is soft: the VM programs stay authoritative, so a
/// broken toolchain degrades throughput, never availability.
void attach_jit(CompiledPlan& compiled, ArtifactCache* artifacts) {
  if (!jit_available()) return;
  try {
    std::shared_ptr<const JitModule> module =
        JitModule::compile(compiled.plan, artifacts);
    if (module != nullptr) {
      const EvaluatorFns fused = module->evaluators();
      if (fused.kernel_batch) compiled.eval.kernel_batch = fused.kernel_batch;
      compiled.eval.leaf_values = fused.leaf_values;
      compiled.jit = std::move(module);
    }
  } catch (const std::exception& e) {
    PORTAL_LOG_WARN("serve: jit compile failed, serving via VM: %s", e.what());
  }
}

std::shared_ptr<CompiledPlan> compile_plan(const LayerSpec& inner,
                                           const Dataset& reference,
                                           const PortalConfig& config) {
  auto compiled = std::make_shared<CompiledPlan>();

  // Resolve the operator traits up front so unsupported shapes fail before
  // the (much more expensive) compile.
  compiled->traits = op_traits(inner.op);
  const OpTraits& t = compiled->traits;
  if (t.is_prod || t.is_forall)
    throw std::invalid_argument(
        "serve: unsupported inner operator (supported: MIN/MAX/ARGMIN/ARGMAX, "
        "KMIN/KMAX/KARGMIN/KARGMAX, SUM, UNION/UNIONARG)");
  if (t.slots < 1) throw std::invalid_argument("serve: k must be >= 1");
  compiled->dim = reference.dim();

  // Compile through the standard pipeline: FORALL over a query-shape
  // template, the client's inner layer over the real reference points (so
  // data-reading analyses like covariance-from-data see actual values). The
  // query template never gets executed -- serving evaluates the compiled
  // kernel on contiguous request points -- so a 2-point placeholder of the
  // right dim/layout is all the front end needs.
  PortalExpr expr;
  LayerSpec outer;
  outer.op = OpSpec(PortalOp::FORALL);
  outer.storage = Storage(Dataset(2, reference.dim()));
  expr.addLayerSpec(outer);
  LayerSpec in = inner;
  in.storage = Storage(reference);
  expr.addLayerSpec(std::move(in));
  expr.setConfig(config);
  expr.compile();

  compiled->plan = expr.plan();
  compiled->fingerprint = compiled->plan.fingerprint;
  compiled->compile_seconds = expr.artifacts().compile_seconds;

  if (compiled->plan.kernel.is_gravity)
    throw std::invalid_argument(
        "serve: the gravity kernel is vector-valued and not servable");
  if (!compiled->plan.kernel.kernel_ir)
    throw std::invalid_argument("serve: kernel did not lower to IR");

  compiled->eval = vm_evaluators(compiled->plan.kernel);
  return compiled;
}

} // namespace

void PlanCache::configure_jit(const JitOptions& options) {
  std::shared_ptr<ArtifactCache> artifacts;
  if (options.enabled && !options.cache_dir.empty()) {
    ArtifactCache::Options cache_options;
    cache_options.dir = options.cache_dir;
    cache_options.max_entries = options.max_entries;
    // An unusable directory downgrades to uncached JIT (every process
    // compiles); serving still works.
    try {
      artifacts = std::make_shared<ArtifactCache>(std::move(cache_options));
    } catch (const std::exception& e) {
      PORTAL_LOG_WARN("serve: jit cache dir unusable, compiling uncached: %s",
                      e.what());
    }
  }
  MutexLock lock(mutex_);
  jit_options_ = options;
  artifacts_ = std::move(artifacts);
}

PlanHandle PlanCache::get_or_compile(const LayerSpec& inner,
                                     const Dataset& reference,
                                     const PortalConfig& config) {
  const bool keyable = fast_keyable(inner);
  const std::uint64_t descriptor =
      keyable ? descriptor_key(inner, reference, config) : 0;

  if (keyable) {
    MutexLock lock(mutex_);
    auto it = by_descriptor_.find(descriptor);
    if (it != by_descriptor_.end()) {
      ++stats_.hits;
      PORTAL_OBS_COUNT("serve/plan_cache_hit", 1);
      return it->second;
    }
  }

  bool jit_enabled = false;
  std::shared_ptr<ArtifactCache> artifacts;
  {
    MutexLock lock(mutex_);
    jit_enabled = jit_options_.enabled;
    artifacts = artifacts_;
  }

  // Compile outside the lock: the pipeline can take milliseconds (plus a
  // compiler invocation under JIT serving) and must never stall concurrent
  // hits on other chains.
  std::shared_ptr<CompiledPlan> fresh = compile_plan(inner, reference, config);
  if (jit_enabled)
    attach_jit(*fresh, artifacts != nullptr ? artifacts.get()
                                            : ArtifactCache::process_cache());

  MutexLock lock(mutex_);
  auto [fit, inserted] = by_fingerprint_.emplace(fresh->fingerprint, fresh);
  if (keyable) by_descriptor_.emplace(descriptor, fit->second);
  if (inserted) {
    ++stats_.misses;
    PORTAL_OBS_COUNT("serve/plan_cache_miss", 1);
  } else {
    // A chain that missed the descriptor level but whose verified IR matches
    // an existing plan (custom kernel spelled differently, or a raced
    // compile): the cache still serves one shared artifact.
    ++stats_.hits;
    PORTAL_OBS_COUNT("serve/plan_cache_hit", 1);
  }
  return fit->second;
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return by_fingerprint_.size();
}

} // namespace portal::serve
