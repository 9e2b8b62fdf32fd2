// Randomized codegen fuzz: random kernel ASTs are lowered and executed
// through every backend path -- plain VM, optimized (strength-reduced +
// constant-folded) VM, and the C++-source JIT -- which must agree within the
// documented fast-math envelope. This is the differential test that keeps
// the three "LLVM substitutes" honest against each other.
//
// The DifferentialConformance suite below extends the kernel-level fuzz to
// whole random layer chains: every chain is executed through the VM, the JIT,
// and (when a specialized kernel matches) the pattern engine, each run with
// config.validate = true so the engine self-checks against the generated
// brute-force program; engine outputs are then compared elementwise against
// each other. The RNG seed comes from PORTAL_FUZZ_SEED (logged at the start
// of each test) so a sanitizer-CI failure is reproducible locally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "core/analysis.h"
#include "core/codegen/artifact_cache.h"
#include "core/codegen/jit.h"
#include "core/codegen/pattern.h"
#include "core/codegen/vm.h"
#include "core/executor.h"
#include "core/ir/ir.h"
#include "core/passes/lowering.h"
#include "core/passes/passes.h"
#include "core/portal.h"
#include "core/verify/verify.h"
#include "data/generators.h"
#include "kernels/batch.h"
#include "problems/common.h"
#include "serve/engine.h"
#include "serve/live.h"
#include "serve/plan_cache.h"
#include "traversal/singletree.h"
#include "tree/balltree.h"
#include "tree/octree.h"
#include "tree/snapshot.h"
#include "util/rng.h"

namespace portal {
namespace {

/// Fuzz seed: PORTAL_FUZZ_SEED env override, fixed default. CI pins the env
/// so sanitizer runs are reproducible; the value is printed on entry either
/// way so a red run can be replayed.
std::uint64_t fuzz_seed() {
  const char* env = std::getenv("PORTAL_FUZZ_SEED");
  if (env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 10);
  return 20260806ull;
}

/// Random kernel AST generator. Depth-bounded; always scalar-rooted.
/// Generated functions stay in "safe" numeric ranges: exp arguments are
/// damped, log/sqrt arguments are forced non-negative via squaring.
class AstFuzzer {
 public:
  AstFuzzer(std::uint64_t seed, const Var& q, const Var& r)
      : rng_(seed), q_(q), r_(r) {}

  Expr scalar_kernel() { return dimsum(vector_expr(3)) * small_const() + scalar_tail(); }

 private:
  Expr vector_expr(int depth) {
    if (depth <= 0) return leaf_vector();
    switch (rng_.uniform_index(5)) {
      case 0: return vector_expr(depth - 1) + vector_expr(depth - 1);
      case 1: return vector_expr(depth - 1) - leaf_vector();
      case 2: return vector_expr(depth - 1) * small_const();
      case 3: return abs(vector_expr(depth - 1));
      default: return pow(leaf_vector(), static_cast<real_t>(rng_.uniform_index(3)));
    }
  }

  Expr leaf_vector() {
    switch (rng_.uniform_index(3)) {
      case 0: return Expr(q_) - Expr(r_);
      case 1: return Expr(q_);
      default: return Expr(r_);
    }
  }

  Expr scalar_tail() {
    switch (rng_.uniform_index(4)) {
      case 0: return exp(Expr(-0.1) * dimsum(pow(Expr(q_) - Expr(r_), 2)));
      case 1: return sqrt(pow(Expr(q_) - Expr(r_), 2));
      case 2: return vmin(dimsum(abs(Expr(q_) - Expr(r_))), Expr(3.0));
      default: return dimmax(abs(Expr(q_) - Expr(r_))) + small_const();
    }
  }

  Expr small_const() { return Expr(rng_.uniform(0.25, 2.0)); }

  Rng rng_;
  const Var& q_;
  const Var& r_;
};

TEST(CodegenFuzz, VmPlainVsVmOptimizedVsJit) {
  Rng point_rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    Var q("q"), r("r");
    AstFuzzer fuzzer(5000 + trial, q, r);
    const Expr kernel = fuzzer.scalar_kernel();
    SCOPED_TRACE("kernel: " + kernel.to_string());

    const IrExprPtr plain_ir = lower_kernel_expr(kernel, q.id(), r.id(), {});
    IrExprPtr optimized_ir = strength_reduction_pass(plain_ir);
    optimized_ir = constant_fold_pass(optimized_ir);

    // Fuzz invariant: every random kernel, before and after optimization,
    // is verifier-clean -- passes must never manufacture malformed IR.
    DiagnosticEngine verify_diags;
    verify_expr(plain_ir, IrContext::Executable, IrVerifyContext{},
                &verify_diags, "plain");
    verify_expr(optimized_ir, IrContext::Executable, IrVerifyContext{},
                &verify_diags, "optimized");
    ASSERT_TRUE(verify_diags.ok()) << verify_diags.report();

    const VmProgram plain = VmProgram::compile(plain_ir);
    const VmProgram optimized = VmProgram::compile(optimized_ir);

    // JIT the same optimized IR through a synthetic plan.
    Storage data(make_uniform(8, 4, 42));
    std::vector<LayerSpec> layers(2);
    layers[0].op = OpSpec(PortalOp::FORALL);
    layers[0].storage = data;
    layers[0].var_id = q.id();
    layers[1].op = OpSpec(PortalOp::SUM);
    layers[1].storage = data;
    layers[1].var_id = r.id();
    layers[1].custom_kernel = kernel;
    ProblemPlan plan = analyze_layers(layers, PortalConfig{});
    plan.kernel.kernel_ir = optimized_ir;
    const auto jit = JitModule::compile(plan);
    ASSERT_NE(jit, nullptr);
    const EvaluatorFns jit_fns = jit->evaluators();

    std::vector<real_t> scratch(32);
    for (int sample = 0; sample < 50; ++sample) {
      real_t a[4], b[4];
      for (int d = 0; d < 4; ++d) {
        a[d] = point_rng.uniform(-3, 3);
        b[d] = point_rng.uniform(-3, 3);
      }
      const real_t v_plain = plain.run_pair(a, b, 4, scratch.data());
      const real_t v_opt = optimized.run_pair(a, b, 4, scratch.data());
      const real_t v_jit = jit_fns.kernel_pair(a, b, 4, scratch.data());

      // Optimized VM and JIT execute the SAME IR: bit-comparable modulo
      // compiler reassociation; the plain VM differs only by the fast-math
      // rewrites. The fast-sqrt error is relative to the *sqrt term* (up to
      // ~12 for these point ranges), not to the possibly-cancelled total, so
      // the tolerance carries that intermediate magnitude.
      const real_t scale = std::max({std::abs(v_plain), std::abs(v_opt), real_t(1)});
      EXPECT_NEAR(v_opt, v_jit, 1e-9 * scale);
      EXPECT_NEAR(v_plain, v_opt, 4e-3 * (scale + 16));
    }
  }
}

TEST(CodegenFuzz, EndToEndProgramsAcrossEngines) {
  // Random custom kernels through full PortalExpr runs: VM vs JIT engines.
  for (int trial = 0; trial < 3; ++trial) {
    Var q, r;
    AstFuzzer fuzzer(7000 + trial, q, r);
    const Expr kernel = fuzzer.scalar_kernel();
    SCOPED_TRACE("kernel: " + kernel.to_string());

    Storage query(make_gaussian_mixture(80, 3, 2, 61 + trial));
    Storage reference(make_gaussian_mixture(120, 3, 2, 71 + trial));

    std::vector<real_t> vm_values, jit_values;
    for (Engine engine : {Engine::VM, Engine::JIT}) {
      PortalExpr expr;
      expr.addLayer(PortalOp::FORALL, q, query);
      expr.addLayer(PortalOp::MIN, r, reference, kernel);
      PortalConfig config;
      config.parallel = false;
      config.engine = engine;
      expr.execute(config);

      // Fuzz invariant: the post-pass program IR verifies clean under the
      // full dataset context (layout-consistent strides included).
      IrVerifyContext vc;
      vc.dim = query.dim();
      vc.query_layout = query.layout();
      vc.query_size = query.size();
      vc.ref_layout = reference.layout();
      vc.ref_size = reference.size();
      vc.after_flattening = true;
      vc.check_strides = true;
      DiagnosticEngine verify_diags = verify_program(expr.plan().ir, vc);
      ASSERT_TRUE(verify_diags.ok()) << verify_diags.report();

      Storage out = expr.getOutput();
      std::vector<real_t>& values = engine == Engine::VM ? vm_values : jit_values;
      for (index_t i = 0; i < out.rows(); ++i) values.push_back(out.value(i));
    }
    ASSERT_EQ(vm_values.size(), jit_values.size());
    for (std::size_t i = 0; i < vm_values.size(); ++i)
      EXPECT_NEAR(vm_values[i], jit_values[i],
                  1e-9 * std::max(std::abs(vm_values[i]), real_t(1)))
          << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential conformance: random layer chains across all three engines.
// ---------------------------------------------------------------------------

/// One randomly generated two-layer Portal program.
struct ChainSpec {
  std::string description;
  OpSpec outer{PortalOp::FORALL};
  OpSpec inner{PortalOp::SUM};
  bool self_join = false;     // reference aliases the query storage
  bool use_custom = false;    // kernel is a random Expr over (q, r)
  PortalFunc func = PortalFunc::EUCLIDEAN;
  Expr custom_kernel;
};

/// Random 3x3 SPD covariance: A A^T + eps I with A ~ U(-1,1)^{3x3}.
std::vector<real_t> random_spd3(Rng& rng) {
  real_t a[9];
  for (real_t& x : a) x = rng.uniform(-1, 1);
  std::vector<real_t> cov(9, 0);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 3; ++k) cov[i * 3 + j] += a[i * 3 + k] * a[j * 3 + k];
      if (i == j) cov[i * 3 + j] += real_t(0.5);
    }
  return cov;
}

/// Draw one chain. Families deliberately overweight the pattern-eligible
/// shapes so the pattern engine participates in a healthy fraction of chains.
ChainSpec draw_chain(Rng& rng, const Var& q, const Var& r, int chain_index,
                     std::uint64_t seed) {
  ChainSpec spec;
  switch (rng.uniform_index(9)) {
    case 0: // KDE shape: pattern-eligible Gaussian density sum
      spec.description = "kde";
      spec.inner = OpSpec(PortalOp::SUM);
      spec.func = PortalFunc::gaussian(rng.uniform(0.4, 1.5));
      return spec;
    case 1: { // k-NN shape: pattern-eligible
      spec.description = "knn";
      spec.inner = OpSpec(PortalOp::KARGMIN,
                          static_cast<index_t>(1 + rng.uniform_index(5)));
      spec.func = PortalFunc::EUCLIDEAN;
      return spec;
    }
    case 2: // range search shape: pattern-eligible
      spec.description = "range-search";
      spec.inner = OpSpec(PortalOp::UNIONARG);
      spec.func = PortalFunc::indicator(rng.uniform(0.0, 0.3) + 1e-9,
                                        rng.uniform(0.9, 2.0));
      return spec;
    case 3: // directed Hausdorff shape: pattern-eligible, scalar output
      spec.description = "hausdorff";
      spec.outer = OpSpec(PortalOp::MAX);
      spec.inner = OpSpec(PortalOp::MIN);
      spec.func = PortalFunc::EUCLIDEAN;
      return spec;
    case 4: // two-point shape: pattern-eligible, self-join scalar count.
            // Written as d < h (lo implicitly -inf) because the pattern
            // matcher requires an unbounded-below indicator for two-point.
      spec.description = "two-point";
      spec.outer = OpSpec(PortalOp::SUM);
      spec.inner = OpSpec(PortalOp::SUM);
      spec.self_join = true;
      spec.use_custom = true;
      spec.custom_kernel =
          sqrt(pow(Expr(q) - Expr(r), 2)) < Expr(rng.uniform(0.8, 1.6));
      return spec;
    case 5: { // Mahalanobis reduction: exercises the Cholesky rewrite
      spec.description = "mahalanobis-argmin";
      spec.inner = rng.uniform_index(2) == 0
                       ? OpSpec(PortalOp::ARGMIN)
                       : OpSpec(PortalOp::KARGMIN,
                                static_cast<index_t>(2 + rng.uniform_index(3)));
      spec.func = PortalFunc::mahalanobis_with(random_spd3(rng));
      return spec;
    }
    case 6: { // Mahalanobis kernel inside a custom sum (Fig. 3 style)
      spec.description = "mahalanobis-exp-sum";
      spec.inner = OpSpec(PortalOp::SUM);
      spec.use_custom = true;
      spec.custom_kernel =
          exp(Expr(-rng.uniform(0.1, 0.5)) * mahalanobis(q, r, random_spd3(rng)));
      return spec;
    }
    case 7: { // random custom kernel under a min-reduction
      spec.description = "custom-min";
      spec.inner = OpSpec(PortalOp::MIN);
      spec.use_custom = true;
      AstFuzzer fuzzer(seed * 1000 + chain_index, q, r);
      spec.custom_kernel = fuzzer.scalar_kernel();
      return spec;
    }
    default: { // random custom kernel summed
      spec.description = "custom-sum";
      spec.inner = OpSpec(PortalOp::SUM);
      spec.use_custom = true;
      AstFuzzer fuzzer(seed * 2000 + chain_index, q, r);
      spec.custom_kernel = fuzzer.scalar_kernel();
      return spec;
    }
  }
}

/// Execute one chain on one engine. validate = true makes the run self-check
/// against the generated brute-force program (tau-scaled tolerance for
/// approximation problems). Returns the output storage.
Storage run_chain(const ChainSpec& spec, const Var& q, const Var& r,
                  const Storage& query, const Storage& reference, Engine engine,
                  ProblemCategory* category, bool batch = true,
                  index_t leaf_size = 16) {
  PortalExpr expr;
  if (spec.use_custom) {
    expr.addLayer(spec.outer, q, query);
    expr.addLayer(spec.inner, r, reference, spec.custom_kernel);
  } else {
    expr.addLayer(spec.outer, query);
    expr.addLayer(spec.inner, reference, spec.func);
  }
  PortalConfig config;
  config.engine = engine;
  config.parallel = false; // deterministic accumulation order per engine
  config.validate = true;  // every engine run is checked against brute force
  config.tau = 1e-3;
  config.leaf_size = leaf_size;
  config.batch_base_cases = batch;
  expr.execute(config);
  if (category != nullptr) *category = expr.plan().category;
  return expr.getOutput();
}

TEST(DifferentialConformance, RandomChainsAgreeAcrossEngines) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  const bool jit = jit_available();
  constexpr int kChains = 200;
  int pattern_hits = 0;
  int maha_chains = 0;

  for (int chain = 0; chain < kChains; ++chain) {
    Var q, r;
    const ChainSpec spec = draw_chain(rng, q, r, chain, seed);
    const index_t nq = 24 + static_cast<index_t>(rng.uniform_index(32));
    const index_t nr = 32 + static_cast<index_t>(rng.uniform_index(48));
    Storage query(make_gaussian_mixture(nq, 3, 3, seed + 31 * chain));
    Storage reference = spec.self_join
                            ? query
                            : Storage(make_gaussian_mixture(
                                  nr, 3, 3, seed + 31 * chain + 17));
    SCOPED_TRACE("chain " + std::to_string(chain) + " [" + spec.description +
                 "] seed=" + std::to_string(seed) +
                 (spec.use_custom
                      ? " kernel: " + spec.custom_kernel.to_string()
                      : ""));

    // Baseline: the VM engine (always available, interprets the post-pass
    // IR directly).
    ProblemCategory category = ProblemCategory::Exhaustive;
    Storage baseline;
    ASSERT_NO_THROW(baseline = run_chain(spec, q, r, query, reference,
                                         Engine::VM, &category));

    // Approximation problems: each engine is within tau * |R| of the exact
    // answer (enforced by validate above), so two engines can differ by at
    // most twice that; exact problems must agree to float-noise.
    const real_t tolerance =
        category == ProblemCategory::Approximation
            ? 2 * real_t(1e-3) * static_cast<real_t>(reference.size())
            : real_t(1e-6);

    // Batched-vs-scalar differential: the baseline ran with the SIMD tile
    // base cases on (the default); the scalar per-pair path is the oracle.
    // Tolerance is ZERO -- per-lane operation order is identical and the
    // build carries no -ffast-math, so agreement must be bitwise.
    {
      Storage scalar_out;
      ASSERT_NO_THROW(scalar_out = run_chain(spec, q, r, query, reference,
                                             Engine::VM, nullptr,
                                             /*batch=*/false));
      const std::string mismatch =
          compare_outputs(scalar_out.output(), baseline.output(), 0);
      EXPECT_TRUE(mismatch.empty()) << "batched vm vs scalar vm: " << mismatch;
    }

    if (jit) {
      Storage jit_out;
      ASSERT_NO_THROW(jit_out = run_chain(spec, q, r, query, reference,
                                          Engine::JIT, nullptr));
      const std::string mismatch =
          compare_outputs(baseline.output(), jit_out.output(), tolerance);
      EXPECT_TRUE(mismatch.empty()) << "vm vs jit: " << mismatch;
    }

    try {
      Storage pattern_out =
          run_chain(spec, q, r, query, reference, Engine::Pattern, nullptr);
      ++pattern_hits;
      const std::string mismatch =
          compare_outputs(baseline.output(), pattern_out.output(), tolerance);
      EXPECT_TRUE(mismatch.empty()) << "vm vs pattern: " << mismatch;

      // The pattern engine's own batched/scalar pair must also be bitwise.
      Storage pattern_scalar =
          run_chain(spec, q, r, query, reference, Engine::Pattern, nullptr,
                    /*batch=*/false);
      const std::string bmis =
          compare_outputs(pattern_scalar.output(), pattern_out.output(), 0);
      EXPECT_TRUE(bmis.empty()) << "batched pattern vs scalar pattern: " << bmis;
    } catch (const std::invalid_argument&) {
      // No specialized kernel matches this chain; VM/JIT coverage stands.
    }

    if (spec.description.rfind("mahalanobis", 0) == 0) ++maha_chains;
  }

  // The family mix must actually exercise what this suite claims to cover.
  EXPECT_GE(pattern_hits, kChains / 8)
      << "pattern engine participated in too few chains";
  EXPECT_GE(maha_chains, kChains / 16)
      << "Mahalanobis chains under-represented";
}

// Approximate-serving wall: a graph-routed answer is always a SUBSET of the
// dataset with *exact* values -- only completeness is approximate. Across
// random sizes, dimensions, k, beam widths, and both L2 metrics the
// approximate ids must be unique, in range, ascending by (value, id), and
// every value must be bitwise-equal to a scalar recompute of the distance to
// that id (sqrt taken at the edge for EUCLIDEAN, exactly like the exact
// engine). Exactness itself is statistical: recall against the exact engine
// is asserted only in aggregate, at the default beam width.
TEST(DifferentialConformance, ApproximateGraphSubsetWithExactDistances) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", (unsigned long long)seed);
  Rng rng(seed ^ 0xa11ce5ULL);

  std::uint64_t recall_hits = 0;
  std::uint64_t recall_slots = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const index_t n = 300 + static_cast<index_t>(rng.uniform_index(1200));
    const index_t dim = 8 + static_cast<index_t>(rng.uniform_index(40));
    const index_t k = 1 + static_cast<index_t>(rng.uniform_index(10));
    const bool sq_metric = (trial % 2) == 0;
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                 " dim=" + std::to_string(dim) + " k=" + std::to_string(k));
    const Dataset reference =
        make_gaussian_mixture(n, dim, 4, seed + 100 * trial);
    SnapshotOptions sopts;
    sopts.build_graph = true;
    const auto snapshot = TreeSnapshot::build(
        std::make_shared<const Dataset>(reference), 1, sopts);

    LayerSpec knn;
    knn.op = OpSpec(PortalOp::KARGMIN, k);
    knn.func = sq_metric ? PortalFunc::SQREUCDIST : PortalFunc::EUCLIDEAN;
    serve::PlanCache cache;
    serve::PlanHandle plan =
        cache.get_or_compile(knn, reference, PortalConfig{});
    ASSERT_TRUE(plan);

    serve::Workspace ws;
    for (int q = 0; q < 8; ++q) {
      std::vector<real_t> pt(dim);
      for (index_t d = 0; d < dim; ++d) pt[d] = rng.uniform(-1.5, 1.5);

      serve::EngineOptions aopt;
      aopt.approx = true;
      aopt.beam_width = 64; // default serving width -- the recall floor's
      ASSERT_TRUE(serve::routes_to_graph(*plan, *snapshot, aopt));
      const serve::QueryResult approx =
          serve::run_query(*plan, *snapshot, pt.data(), aopt, ws);
      const serve::QueryResult exact =
          serve::run_query(*plan, *snapshot, pt.data(), {}, ws);

      ASSERT_EQ(approx.values.size(), static_cast<std::size_t>(k));
      ASSERT_EQ(approx.ids.size(), static_cast<std::size_t>(k));
      std::vector<char> seen(static_cast<std::size_t>(n), 0);
      for (index_t s = 0; s < k; ++s) {
        const index_t id = approx.ids[s];
        ASSERT_GE(id, 0);
        ASSERT_LT(id, n);
        EXPECT_FALSE(seen[static_cast<std::size_t>(id)]) << "dup id " << id;
        seen[static_cast<std::size_t>(id)] = 1;
        if (s > 0) {
          EXPECT_GE(approx.values[s], approx.values[s - 1]) << "slot " << s;
        }
        // Bitwise distance recompute through the scalar helper the exact
        // engine uses (ascending-dimension accumulation).
        real_t d = 0;
        sq_dists_to_range(reference, id, id + 1, pt.data(), &d);
        const real_t want = sq_metric ? d : std::sqrt(d);
        EXPECT_EQ(approx.values[s], want) << "slot " << s << " id " << id;
        // Exact per-slot values lower-bound the approximate ones.
        EXPECT_GE(approx.values[s], exact.values[s]) << "slot " << s;
        recall_slots++;
        for (index_t e = 0; e < k; ++e)
          if (exact.ids[e] == id) {
            recall_hits++;
            break;
          }
      }
    }
  }
  const double recall =
      static_cast<double>(recall_hits) / static_cast<double>(recall_slots);
  std::printf("aggregate recall@k at beam 64: %.4f (%llu/%llu)\n", recall,
              (unsigned long long)recall_hits, (unsigned long long)recall_slots);
  EXPECT_GE(recall, 0.9);
}

/// Serve answers at tau = 0: values bitwise (NaN matches NaN), ids exactly.
void expect_serve_bitwise(const serve::QueryResult& got,
                          const serve::QueryResult& want) {
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t v = 0; v < want.values.size(); ++v) {
    if (std::isnan(want.values[v])) {
      EXPECT_TRUE(std::isnan(got.values[v])) << "slot " << v;
    } else {
      EXPECT_EQ(got.values[v], want.values[v]) << "slot " << v;
    }
  }
  ASSERT_EQ(got.ids.size(), want.ids.size());
  for (std::size_t v = 0; v < want.ids.size(); ++v)
    EXPECT_EQ(got.ids[v], want.ids[v]) << "slot " << v;
}

// The serving engine's prune decisions come from the plan's KernelFacts
// alone. For the four rule families a serve plan can take (k-NN, KDE sum,
// range union, nearest distance) the facts must grant the expected
// legality, and every pruned descent must still answer bitwise like the
// brute-force scan of the same snapshot.
TEST(DifferentialConformance, ServeEnginePruningMatchesBruteForce) {
  const Dataset reference = make_gaussian_mixture(400, 3, 3, 20260807);
  const Dataset queries = make_gaussian_mixture(16, 3, 3, 11);
  const auto snapshot =
      TreeSnapshot::build(std::make_shared<const Dataset>(reference), 1, {});

  struct Case {
    LayerSpec inner;
    bool reduction_prune;
    bool indicator_prune;
  };
  std::vector<Case> cases;
  {
    Case knn{};
    knn.inner.op = OpSpec(PortalOp::KARGMIN, 4);
    knn.inner.func = PortalFunc::EUCLIDEAN;
    knn.reduction_prune = true;
    cases.push_back(knn);
    Case kde{};
    kde.inner.op = OpSpec(PortalOp::SUM);
    kde.inner.func = PortalFunc::gaussian(0.8);
    cases.push_back(kde);
    Case range{};
    range.inner.op = OpSpec(PortalOp::UNIONARG);
    range.inner.func = PortalFunc::indicator(1e-9, 1.2);
    range.indicator_prune = true;
    cases.push_back(range);
    Case nn{};
    nn.inner.op = OpSpec(PortalOp::MIN);
    nn.inner.func = PortalFunc::EUCLIDEAN;
    nn.reduction_prune = true;
    cases.push_back(nn);
  }

  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("serve chain " + std::to_string(c));
    PortalConfig config;
    config.tau = 0;
    serve::PlanCache cache;
    serve::PlanHandle plan =
        cache.get_or_compile(cases[c].inner, reference, config);
    ASSERT_TRUE(plan);
    EXPECT_EQ(plan->plan.facts.reduction_prune_legal, cases[c].reduction_prune);
    EXPECT_EQ(plan->plan.facts.indicator_prune_legal, cases[c].indicator_prune);

    serve::Workspace ws;
    serve::EngineOptions options;
    options.tau = 0;
    std::uint64_t prunes = 0;
    for (index_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      std::vector<real_t> pt(queries.dim());
      for (index_t d = 0; d < queries.dim(); ++d) pt[d] = queries.coord(i, d);
      const serve::QueryResult got =
          serve::run_query(*plan, *snapshot, pt.data(), options, ws);
      prunes += got.stats.prunes;
      expect_serve_bitwise(
          got, serve::run_query_bruteforce(*plan, *snapshot, pt.data()));
    }
    if (cases[c].reduction_prune || cases[c].indicator_prune)
      EXPECT_GT(prunes, 0u) << "legal pruning never fired";
  }
}

// The cross-engine wall: the serve engine's per-point descent and the batch
// executor's dual-tree traversal run the same rule core, so at tau = 0 each
// serve answer equals the matching row of the executor's (VM) output --
// values bitwise, ids equal up to exact ties -- for every family whose
// answer does not depend on visit order.
TEST(DifferentialConformance, ServeMatchesExecutorRowByRow) {
  const Dataset reference = make_gaussian_mixture(500, 3, 4, 20261019);
  const Dataset queries = make_gaussian_mixture(40, 3, 4, 77);
  Storage ref_storage(reference), query_storage(queries);
  const auto snapshot =
      TreeSnapshot::build(std::make_shared<const Dataset>(reference), 6, {});

  std::vector<LayerSpec> families(8);
  families[0].op = OpSpec(PortalOp::KARGMIN, 4);
  families[0].func = PortalFunc::EUCLIDEAN;
  families[1].op = OpSpec(PortalOp::KMIN, 3);
  families[1].func = PortalFunc::SQREUCDIST;
  families[2].op = OpSpec(PortalOp::MIN);
  families[2].func = PortalFunc::MANHATTAN;
  families[3].op = OpSpec(PortalOp::KARGMAX, 3);
  families[3].func = PortalFunc::CHEBYSHEV;
  families[4].op = OpSpec(PortalOp::KARGMIN, 3);
  families[4].func = PortalFunc::MAHALANOBIS;
  families[5].op = OpSpec(PortalOp::UNION);
  families[5].func = PortalFunc::indicator(0, 0.9);
  families[6].op = OpSpec(PortalOp::UNIONARG);
  families[6].func = PortalFunc::indicator(1e-9, 0.9);
  families[7].op = OpSpec(PortalOp::SUM);
  families[7].func = PortalFunc::indicator(0, 1.1);

  for (std::size_t f = 0; f < families.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    PortalConfig config;
    config.engine = Engine::VM;
    config.tau = 0;
    config.leaf_size = 8;
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query_storage);
    LayerSpec inner = families[f];
    inner.storage = ref_storage;
    expr.addLayerSpec(inner);
    expr.execute(config);
    const OutputData& batch = expr.getOutput().output();

    serve::PlanCache cache;
    const serve::PlanHandle plan =
        cache.get_or_compile(families[f], reference, config);
    ASSERT_TRUE(plan);
    serve::Workspace ws;
    serve::EngineOptions options;
    options.tau = 0;
    const bool is_list = plan->traits.is_union || plan->traits.is_unionarg;
    for (index_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      std::vector<real_t> pt(queries.dim());
      for (index_t d = 0; d < queries.dim(); ++d) pt[d] = queries.coord(i, d);
      const serve::QueryResult got =
          serve::run_query(*plan, *snapshot, pt.data(), options, ws);

      if (is_list) {
        const index_t begin = batch.offsets[i];
        const std::vector<index_t> want_ids(batch.lists.begin() + begin,
                                            batch.lists.begin() + batch.offsets[i + 1]);
        EXPECT_EQ(got.ids, want_ids);
        if (plan->traits.is_union) {
          ASSERT_EQ(got.values.size(), want_ids.size());
          for (std::size_t s = 0; s < want_ids.size(); ++s)
            EXPECT_EQ(got.values[s], batch.values[begin + s]) << "entry " << s;
        }
        continue;
      }
      ASSERT_EQ(static_cast<index_t>(got.values.size()), batch.cols);
      for (index_t j = 0; j < batch.cols; ++j)
        EXPECT_EQ(got.values[j], batch.values[i * batch.cols + j]) << "slot " << j;
      if (!plan->traits.is_arg) continue;
      ASSERT_EQ(static_cast<index_t>(got.ids.size()), batch.cols);
      for (index_t j = 0; j < batch.cols; ++j) {
        // An id may differ only where its value ties a neighbouring slot or
        // sits on the k-th boundary (a tie with a candidate left out).
        const bool tied =
            j + 1 == batch.cols || got.values[j] == got.values[j + 1] ||
            (j > 0 && got.values[j] == got.values[j - 1]);
        if (!tied)
          EXPECT_EQ(got.ids[j], batch.indices[i * batch.cols + j]) << "slot " << j;
      }
    }
  }
}

// Random serve chains x random leaf sizes x batch base cases on/off: the
// per-request descent (run_query) against the brute-force scan of the same
// snapshot, bitwise at tau = 0.
TEST(DifferentialConformance, ServeChainsMatchBruteForceAcrossLeafSizes) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0xcafef00dd15ea5e5ull);

  constexpr int kChains = 24;
  for (int c = 0; c < kChains; ++c) {
    LayerSpec inner;
    switch (rng.uniform_index(8)) {
      case 0:
        inner.op = OpSpec(PortalOp::KARGMIN,
                          1 + static_cast<index_t>(rng.uniform_index(6)));
        inner.func = PortalFunc::EUCLIDEAN;
        break;
      case 1:
        inner.op = OpSpec(PortalOp::KMIN,
                          1 + static_cast<index_t>(rng.uniform_index(4)));
        inner.func = PortalFunc::SQREUCDIST;
        break;
      case 2:
        inner.op = OpSpec(PortalOp::MIN);
        inner.func = PortalFunc::MANHATTAN;
        break;
      case 3:
        inner.op = OpSpec(PortalOp::KARGMAX,
                          1 + static_cast<index_t>(rng.uniform_index(4)));
        inner.func = PortalFunc::CHEBYSHEV;
        break;
      case 4:
        inner.op = OpSpec(PortalOp::SUM);
        inner.func = PortalFunc::gaussian(rng.uniform(0.3, 1.2));
        break;
      case 5:
        inner.op = OpSpec(PortalOp::SUM);
        inner.func = PortalFunc::indicator(0, rng.uniform(0.4, 1.5));
        break;
      case 6:
        inner.op = OpSpec(PortalOp::UNION);
        inner.func = PortalFunc::indicator(0, rng.uniform(0.4, 1.5));
        break;
      default:
        inner.op = OpSpec(PortalOp::UNIONARG);
        inner.func = PortalFunc::indicator(1e-9, rng.uniform(0.4, 1.5));
        break;
    }
    const index_t nr = 200 + static_cast<index_t>(rng.uniform_index(200));
    const index_t nq = 6 + static_cast<index_t>(rng.uniform_index(14));
    const index_t leaf = 1 + static_cast<index_t>(rng.uniform_index(16));
    SCOPED_TRACE("serve chain " + std::to_string(c) + " leaf " +
                 std::to_string(leaf) + " seed=" + std::to_string(seed));

    const Dataset reference = make_gaussian_mixture(nr, 3, 3, seed + 31 * c);
    const Dataset queries = make_gaussian_mixture(nq, 3, 3, seed + 31 * c + 7);
    const auto snapshot = TreeSnapshot::build(
        std::make_shared<const Dataset>(reference), leaf, {});
    serve::PlanCache cache;
    serve::PlanHandle plan =
        cache.get_or_compile(inner, reference, PortalConfig{});
    ASSERT_TRUE(plan);

    serve::Workspace ws;
    for (index_t i = 0; i < nq; ++i) {
      std::vector<real_t> pt(3);
      for (index_t d = 0; d < 3; ++d) pt[d] = queries.coord(i, d);
      const serve::QueryResult oracle =
          serve::run_query_bruteforce(*plan, *snapshot, pt.data());
      for (const bool batch : {true, false}) {
        SCOPED_TRACE("query " + std::to_string(i) +
                     (batch ? " batched" : " scalar"));
        serve::EngineOptions options;
        options.tau = 0;
        options.batch_base_cases = batch;
        expect_serve_bitwise(
            serve::run_query(*plan, *snapshot, pt.data(), options, ws), oracle);
      }
    }
  }
}

// The one descent (single_traverse) on random kd, ball and octree shapes at
// random leaf sizes: no leaf is evaluated twice, and the evaluated leaves
// hold every point of the dataset.
TEST(DifferentialConformance, SingleTraverseCoversRandomTreeShapes) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0x5eed5eed0dd5eed5ull);

  for (int trial = 0; trial < 12; ++trial) {
    const index_t n = 100 + static_cast<index_t>(rng.uniform_index(400));
    const index_t leaf = 1 + static_cast<index_t>(rng.uniform_index(16));
    const int shape = static_cast<int>(rng.uniform_index(3));
    SCOPED_TRACE("tree trial " + std::to_string(trial) + " shape " +
                 std::to_string(shape) + " n " + std::to_string(n) + " leaf " +
                 std::to_string(leaf));

    const auto check = [&](const auto& tree, std::size_t points) {
      using Tree = std::decay_t<decltype(tree)>;
      struct CountRules {
        const Tree* tree = nullptr;
        std::uint64_t points = 0;
        std::set<index_t> leaves;
        bool repeated = false;
        bool prune_or_take(index_t) { return false; }
        void base_case(index_t node) {
          repeated |= !leaves.insert(node).second;
          points += static_cast<std::uint64_t>(tree->node(node).count());
        }
      };
      CountRules rules{&tree};
      const TraversalStats stats = single_traverse(tree, rules);
      EXPECT_FALSE(rules.repeated);
      EXPECT_EQ(rules.points, static_cast<std::uint64_t>(points));
      EXPECT_EQ(stats.base_cases, rules.leaves.size());
      EXPECT_EQ(stats.prunes, 0u);
      EXPECT_GE(stats.pairs_visited, stats.base_cases);
    };

    if (shape == 0) {
      check(KdTree(make_gaussian_mixture(n, 3, 3, seed + 131 * trial), leaf),
            static_cast<std::size_t>(n));
    } else if (shape == 1) {
      check(BallTree(make_gaussian_mixture(n, 3, 3, seed + 131 * trial), leaf),
            static_cast<std::size_t>(n));
    } else {
      const ParticleSet set = make_elliptical(n, seed + 131 * trial);
      check(Octree(set.positions, set.masses, leaf), set.positions.size());
    }
  }
}

/// ULP distance between two doubles (monotone integer mapping). Identical
/// bit patterns (and +0/-0) are 0; NaNs are "infinitely" far unless both NaN.
std::int64_t ulp_distance(real_t a, real_t b) {
  if (std::isnan(a) || std::isnan(b))
    return (std::isnan(a) && std::isnan(b)) ? 0
                                            : std::numeric_limits<std::int64_t>::max();
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  const std::int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

// VmProgram::run_batch vs run_pair, lane by lane: the SoA interpreter claims
// bit-for-bit parity with the scalar pair interpreter. Sweeps dim 1/2/3/10
// and ragged lane counts around the 16-lane block width (1, q-1, q, q+1),
// with a nonzero tile offset and padded stride, on both the plain and the
// strength-reduced (fast-math) programs. Plain programs must agree exactly;
// fast-math ops are allowed <= 2 ULP per the documented envelope (in
// practice the per-lane code is identical and the distance observed is 0).
TEST(CodegenFuzz, RunBatchMatchesRunPairPerLane) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0xb10cba7cull);

  const index_t dims[] = {1, 2, 3, 10};
  const index_t counts[] = {1, 15, 16, 17};

  for (int trial = 0; trial < 6; ++trial) {
    Var q, r;
    IrExprPtr plain_ir;
    std::string label;
    if (trial < 4) {
      AstFuzzer fuzzer(seed + 40 * trial, q, r);
      const Expr kernel = fuzzer.scalar_kernel();
      label = kernel.to_string();
      plain_ir = lower_kernel_expr(kernel, q.id(), r.id(), {});
    } else if (trial == 4) {
      // Mahalanobis atom: exercises the per-lane gather + scalar solve path.
      const Expr kernel = exp(Expr(-0.25) * mahalanobis(q, r, random_spd3(rng)));
      label = "mahalanobis";
      plain_ir = lower_kernel_expr(kernel, q.id(), r.id(), {});
      plain_ir = numerical_optimization_pass(plain_ir);
    } else {
      // Gaussian tail only: Exp-heavy program.
      const Expr kernel = exp(Expr(-0.3) * dimsum(pow(Expr(q) - Expr(r), 2)));
      label = "gaussian";
      plain_ir = lower_kernel_expr(kernel, q.id(), r.id(), {});
    }
    IrExprPtr fast_ir = strength_reduction_pass(plain_ir);
    fast_ir = constant_fold_pass(fast_ir);

    const VmProgram programs[] = {VmProgram::compile(plain_ir),
                                  VmProgram::compile(fast_ir)};
    const std::int64_t max_ulp[] = {0, 2};

    for (index_t dim : dims) {
      // trial 4 lowered a dim-3 covariance: only valid at dim 3.
      if (trial == 4 && dim != 3) continue;
      for (index_t count : counts) {
        SCOPED_TRACE("kernel [" + label + "] dim=" + std::to_string(dim) +
                     " count=" + std::to_string(count));
        // Hand-built SoA mirror slice: padded stride, nonzero begin offset.
        const index_t rbegin = 3;
        const index_t stride = rbegin + count + 5;
        std::vector<real_t> lanes(static_cast<std::size_t>(dim) * stride, -7);
        std::vector<real_t> qpt(dim);
        for (index_t d = 0; d < dim; ++d) {
          qpt[d] = rng.uniform(-3, 3);
          for (index_t j = 0; j < count; ++j)
            lanes[d * stride + rbegin + j] = rng.uniform(-3, 3);
        }

        std::vector<real_t> scratch(3 * dim + 8), out(count),
            rpt(dim), pair_scratch(3 * dim + 8);
        for (int p = 0; p < 2; ++p) {
          VmProgram::BatchContext bctx;
          bctx.q = qpt.data();
          bctx.rlanes = lanes.data();
          bctx.rstride = stride;
          bctx.rbegin = rbegin;
          bctx.count = count;
          bctx.dim = dim;
          bctx.scratch = scratch.data();
          programs[p].run_batch(bctx, out.data());

          for (index_t j = 0; j < count; ++j) {
            for (index_t d = 0; d < dim; ++d)
              rpt[d] = lanes[d * stride + rbegin + j];
            const real_t expect =
                programs[p].run_pair(qpt.data(), rpt.data(), dim,
                                     pair_scratch.data());
            EXPECT_LE(ulp_distance(expect, out[j]), max_ulp[p])
                << (p == 0 ? "plain" : "optimized") << " lane " << j
                << ": run_pair=" << expect << " run_batch=" << out[j];
          }
        }
      }
    }
  }
}

// The VM envelope over a range of distances (run_batch with Dist lanes, the
// rule core's envelope callback) vs run_envelope per value, at ZERO ULP, on
// every normalized plan's envelope -- ragged counts around the 16-lane
// block, distances from 0 through the exp saturation range.
TEST(CodegenFuzz, RunBatchEnvelopeMatchesRunEnvelopePerLane) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0xe7e1ull);
  Storage data(make_gaussian_mixture(40, 3, 2, seed ^ 0x5a));
  for (const PortalFunc& func :
       {PortalFunc::gaussian(0.9), PortalFunc::gaussian(0.05),
        PortalFunc::EUCLIDEAN, PortalFunc::MANHATTAN,
        PortalFunc::gaussian_maha(random_spd3(rng)),
        PortalFunc::indicator(1e-9, 1.1)}) {
    std::vector<LayerSpec> layers(2);
    layers[0].op = OpSpec(PortalOp::FORALL);
    layers[0].storage = data;
    layers[1].op = OpSpec(PortalOp::SUM);
    layers[1].storage = data;
    layers[1].func = func;
    const ProblemPlan plan = analyze_layers(layers, PortalConfig{});
    ASSERT_TRUE(plan.kernel.normalized && plan.kernel.envelope_ir) << func.name();
    const VmProgram env_vm = VmProgram::compile(plan.kernel.envelope_ir);
    for (const index_t count : {index_t(1), index_t(2), index_t(15),
                                index_t(16), index_t(17), index_t(40)}) {
      std::vector<real_t> dists(count), got(count);
      for (real_t& d : dists) d = rng.uniform(0, 1) < 0.5 ? rng.uniform(0, 4)
                                                          : rng.uniform(0, 2000);
      dists[0] = 0;
      VmProgram::BatchContext bctx;
      bctx.count = count;
      bctx.dists = dists.data();
      env_vm.run_batch(bctx, got.data());
      for (index_t j = 0; j < count; ++j)
        EXPECT_EQ(ulp_distance(env_vm.run_envelope(dists[j]), got[j]), 0)
            << func.name() << " count " << count << " lane " << j
            << ": dist=" << dists[j];
    }
  }
}

// End-to-end batched/scalar exactness across dimensionalities and ragged
// leaf shapes: leaf sizes 1 (degenerate tiles), 15/16 (around the VM's
// 16-lane block) over point counts that leave ragged tails. Every engine
// pair must agree with tolerance ZERO.
TEST(DifferentialConformance, BatchedScalarExactAcrossDimsAndLeafSizes) {
  const std::uint64_t seed = fuzz_seed() ^ 0x5ca1ab1eull;
  Rng rng(seed);
  const index_t dims[] = {1, 2, 3, 10};
  const index_t leaf_sizes[] = {1, 15, 16};

  for (index_t dim : dims) {
    Var q, r;
    ChainSpec specs[3];
    specs[0].description = "knn";
    specs[0].inner = OpSpec(PortalOp::KARGMIN, 3);
    specs[0].func = PortalFunc::EUCLIDEAN;
    specs[1].description = "kde";
    specs[1].inner = OpSpec(PortalOp::SUM);
    specs[1].func = PortalFunc::gaussian(real_t(0.8));
    specs[2].description = "custom-sum";
    specs[2].inner = OpSpec(PortalOp::SUM);
    specs[2].use_custom = true;
    AstFuzzer fuzzer(seed + dim, q, r);
    specs[2].custom_kernel = fuzzer.scalar_kernel();

    // 77 and 53 points: not multiples of any tested leaf size, so every
    // traversal ends in ragged tiles.
    Storage query(make_gaussian_mixture(53, dim, 2, seed + dim));
    Storage reference(make_gaussian_mixture(77, dim, 2, seed + dim + 9));

    for (const ChainSpec& spec : specs) {
      for (index_t leaf : leaf_sizes) {
        SCOPED_TRACE("[" + spec.description + "] dim=" + std::to_string(dim) +
                     " leaf=" + std::to_string(leaf));
        for (Engine engine : {Engine::VM, Engine::Pattern}) {
          if (engine == Engine::Pattern && spec.use_custom) continue;
          Storage batched, scalar;
          ASSERT_NO_THROW(batched = run_chain(spec, q, r, query, reference,
                                              engine, nullptr, true, leaf));
          ASSERT_NO_THROW(scalar = run_chain(spec, q, r, query, reference,
                                             engine, nullptr, false, leaf));
          const std::string mismatch =
              compare_outputs(scalar.output(), batched.output(), 0);
          EXPECT_TRUE(mismatch.empty())
              << engine_name(engine) << ": " << mismatch;
        }
      }
    }
  }
}

TEST(DifferentialConformance, MahalanobisLowersToCholeskyAndEnginesAgree) {
  const std::uint64_t seed = fuzz_seed() ^ 0x9e3779b97f4a7c15ull;
  std::printf("PORTAL_FUZZ_SEED=%llu (derived)\n",
              static_cast<unsigned long long>(fuzz_seed()));
  Rng rng(seed);
  const bool jit = jit_available();

  for (int trial = 0; trial < 10; ++trial) {
    Var q, r;
    const std::vector<real_t> cov = random_spd3(rng);
    const Expr kernel =
        exp(Expr(-rng.uniform(0.1, 0.4)) * mahalanobis(q, r, cov));
    SCOPED_TRACE("trial " + std::to_string(trial));

    Storage query(make_gaussian_mixture(40, 3, 2, seed + trial));
    Storage reference(make_gaussian_mixture(60, 3, 2, seed + trial + 5));

    std::vector<real_t> outputs[2];
    for (int which = 0; which < (jit ? 2 : 1); ++which) {
      PortalExpr expr;
      expr.addLayer(PortalOp::FORALL, q, query);
      expr.addLayer(PortalOp::SUM, r, reference, kernel);
      PortalConfig config;
      config.engine = which == 0 ? Engine::VM : Engine::JIT;
      config.parallel = false;
      config.validate = true;
      expr.execute(config);

      // The numerical-optimization pass must have rewritten the naive
      // quadratic form into the Cholesky solve (Sec. IV-E): that is the
      // whole point of the Mahalanobis chain family.
      ASSERT_TRUE(expr.plan().kernel.kernel_ir != nullptr);
      EXPECT_TRUE(
          ir_contains(expr.plan().kernel.kernel_ir, IrOp::MahalanobisChol))
          << "expected MahalanobisChol in post-pass kernel IR";
      EXPECT_FALSE(
          ir_contains(expr.plan().kernel.kernel_ir, IrOp::MahalanobisNaive))
          << "naive Mahalanobis survived the pass pipeline";

      Storage out = expr.getOutput();
      for (index_t i = 0; i < out.rows(); ++i)
        outputs[which].push_back(out.value(i));
    }
    if (!jit) continue;
    ASSERT_EQ(outputs[0].size(), outputs[1].size());
    for (std::size_t i = 0; i < outputs[0].size(); ++i)
      EXPECT_NEAR(outputs[0][i], outputs[1][i],
                  1e-7 * std::max(std::abs(outputs[0][i]), real_t(1)))
          << "query " << i;
  }
}

// The live-ingestion wall (tree/delta.h, serve/live.h): random op chains x
// random insert/remove/merge interleavings against a LiveStore. At every
// checkpoint the two-root sweep (main kd descent + delta drain) is compared
//   1. bitwise against the live brute-force oracle over the exact pinned
//      point-set, with batch base cases on/off;
//   2. against a single kd-tree rebuilt from scratch over the live union in
//      canonical visible order: per-element bitwise for reductions (ids
//      translated through the union construction order) and set-equal
//      bitwise for range queries; indicator SUMs (integer-valued partials)
//      bitwise, smooth SUMs within reassociation tolerance -- the rebuilt
//      tree sums the same values in a different bracketing.
TEST(DifferentialConformance, LiveTwoRootVsRebuiltUnionTree) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0x0de17a2007a15e11ull);

  const Dataset reference = make_gaussian_mixture(200, 3, 3, seed ^ 0x51);
  enum class Kind { Reduction, SmoothSum, CountSum, Union };
  struct LiveChain {
    LayerSpec spec;
    Kind kind;
  };
  std::vector<LiveChain> chains;
  {
    LayerSpec knn;
    knn.op = OpSpec(PortalOp::KARGMIN, 4);
    knn.func = PortalFunc::EUCLIDEAN;
    chains.push_back({knn, Kind::Reduction});
    LayerSpec kmin;
    kmin.op = OpSpec(PortalOp::KMIN, 3);
    kmin.func = PortalFunc::gaussian(0.9);
    chains.push_back({kmin, Kind::Reduction});
    LayerSpec kde;
    kde.op = OpSpec(PortalOp::SUM);
    kde.func = PortalFunc::gaussian(0.8);
    chains.push_back({kde, Kind::SmoothSum});
    LayerSpec count;
    count.op = OpSpec(PortalOp::SUM);
    count.func = PortalFunc::indicator(1e-9, 1.1);
    chains.push_back({count, Kind::CountSum});
    LayerSpec range;
    range.op = OpSpec(PortalOp::UNIONARG);
    range.func = PortalFunc::indicator(1e-9, 1.2);
    chains.push_back({range, Kind::Union});
  }
  PortalConfig config;
  config.tau = 0;
  serve::PlanCache cache;
  std::vector<serve::PlanHandle> plans;
  for (const LiveChain& c : chains)
    plans.push_back(cache.get_or_compile(c.spec, reference, config));

  const auto bitwise_values = [](const serve::QueryResult& got,
                                 const serve::QueryResult& want,
                                 const char* what) {
    ASSERT_EQ(got.values.size(), want.values.size()) << what;
    for (std::size_t v = 0; v < want.values.size(); ++v) {
      if (std::isnan(want.values[v])) {
        EXPECT_TRUE(std::isnan(got.values[v])) << what << " slot " << v;
      } else {
        EXPECT_EQ(got.values[v], want.values[v]) << what << " slot " << v;
      }
    }
  };

  constexpr int kRounds = 3;
  constexpr int kSteps = 120;
  constexpr int kCheckEvery = 40;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    serve::LiveStoreOptions sopt;
    sopt.delta_capacity = 64;
    sopt.merge_threshold = 64;
    sopt.background_merge = false; // merges only where the fuzz chose them
    serve::LiveStore store(sopt);
    store.publish(std::make_shared<const Dataset>(reference));

    // Mirror of the coordinates currently visible (the fuzz removes real
    // points -- main-tree and delta alike -- never guesses).
    std::vector<std::vector<real_t>> mirror;
    for (index_t i = 0; i < reference.size(); ++i) {
      std::vector<real_t> pt(3);
      for (index_t d = 0; d < 3; ++d) pt[d] = reference.coord(i, d);
      mirror.push_back(std::move(pt));
    }

    for (int step = 1; step <= kSteps; ++step) {
      const real_t dice = rng.uniform();
      if (dice < 0.55) {
        std::vector<real_t> pt = {rng.uniform(-2, 2), rng.uniform(-2, 2),
                                  rng.uniform(-2, 2)};
        ASSERT_EQ(store.insert(pt.data(), 3).status,
                  serve::IngestStatus::Ok);
        mirror.push_back(std::move(pt));
      } else if (dice < 0.85 && !mirror.empty()) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_index(mirror.size()));
        ASSERT_EQ(store.remove(mirror[pick].data(), 3).status,
                  serve::IngestStatus::Ok);
        mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (dice < 0.95) {
        const real_t ghost[] = {rng.uniform(5, 6), rng.uniform(5, 6),
                                rng.uniform(5, 6)};
        ASSERT_EQ(store.remove(ghost, 3).status,
                  serve::IngestStatus::NotFound);
      } else {
        store.merge_now();
      }
      if (step % kCheckEvery != 0) continue;
      SCOPED_TRACE("step " + std::to_string(step));

      const auto view = store.pin();
      ASSERT_EQ(view->live_size(), static_cast<index_t>(mirror.size()));

      // Rebuild a single tree over the live union, recording each canonical
      // position's live client id so union-tree ids translate back.
      const KdTree& kd = *view->snapshot->kd();
      const index_t main_size = view->snapshot->size();
      auto union_data =
          std::make_shared<Dataset>(view->live_size(), index_t{3});
      std::vector<index_t> live_id; // canonical position -> live client id
      index_t pos = 0;
      for (index_t j = 0; j < main_size; ++j) {
        if (!view->main_visible(j)) continue;
        for (index_t d = 0; d < 3; ++d)
          union_data->coord(pos, d) = kd.data().coord(j, d);
        live_id.push_back(kd.perm()[static_cast<std::size_t>(j)]);
        ++pos;
      }
      for (index_t s = 0; s < view->delta_count; ++s) {
        if (!view->slot_visible(s)) continue;
        for (index_t d = 0; d < 3; ++d)
          union_data->coord(pos, d) = view->delta->points().coord(s, d);
        live_id.push_back(main_size + s);
        ++pos;
      }
      ASSERT_EQ(pos, view->live_size());
      const auto union_snap = TreeSnapshot::build(union_data, 1, {});

      const Dataset probes = make_gaussian_mixture(6, 3, 3, rng.next_u64());
      std::vector<const real_t*> probe_ptrs;
      std::vector<std::vector<real_t>> probe_store;
      for (index_t q = 0; q < probes.size(); ++q) {
        std::vector<real_t> pt(3);
        for (index_t d = 0; d < 3; ++d) pt[d] = probes.coord(q, d);
        probe_store.push_back(std::move(pt));
      }
      for (const auto& pt : probe_store) probe_ptrs.push_back(pt.data());

      for (std::size_t c = 0; c < chains.size(); ++c) {
        SCOPED_TRACE("chain " + std::to_string(c));
        const serve::PlanHandle& plan = plans[c];
        serve::Workspace ws;
        serve::EngineOptions eopt;

        for (std::size_t q = 0; q < probe_store.size(); ++q) {
          SCOPED_TRACE("probe " + std::to_string(q));
          const real_t* pt = probe_ptrs[q];
          const serve::QueryResult oracle =
              serve::run_query_bruteforce(*plan, *view, pt);

          // Axis 1: engine vs live oracle, bitwise, across batch on/off.
          for (const bool batch : {true, false}) {
            eopt.batch_base_cases = batch;
            const serve::QueryResult got =
                serve::run_query(*plan, *view, pt, eopt, ws);
            bitwise_values(got, oracle, batch ? "live batched" : "live scalar");
            ASSERT_EQ(got.ids.size(), oracle.ids.size());
            for (std::size_t v = 0; v < oracle.ids.size(); ++v)
              EXPECT_EQ(got.ids[v], oracle.ids[v]) << "slot " << v;
          }

          // Axis 2: the rebuilt union tree names the same point-set.
          const serve::QueryResult other =
              serve::run_query_bruteforce(*plan, *union_snap, pt);
          switch (chains[c].kind) {
            case Kind::Reduction: {
              bitwise_values(other, oracle, "union reduction");
              ASSERT_EQ(other.ids.size(), oracle.ids.size());
              for (std::size_t v = 0; v < oracle.ids.size(); ++v) {
                if (oracle.ids[v] < 0) {
                  EXPECT_EQ(other.ids[v], oracle.ids[v]);
                } else {
                  EXPECT_EQ(live_id[static_cast<std::size_t>(other.ids[v])],
                            oracle.ids[v])
                      << "slot " << v;
                }
              }
              break;
            }
            case Kind::CountSum: {
              // Integer-valued partials: any summation order is exact.
              bitwise_values(other, oracle, "union count");
              break;
            }
            case Kind::SmoothSum: {
              ASSERT_EQ(other.values.size(), 1u);
              ASSERT_EQ(oracle.values.size(), 1u);
              EXPECT_NEAR(other.values[0], oracle.values[0], 1e-9);
              break;
            }
            case Kind::Union: {
              // Same member set; the two sides order ids differently
              // (original-reference vs canonical-construction), so compare
              // as translated sorted sets.
              std::vector<index_t> got_ids;
              for (const index_t id : other.ids)
                got_ids.push_back(live_id[static_cast<std::size_t>(id)]);
              std::sort(got_ids.begin(), got_ids.end());
              std::vector<index_t> want_ids = oracle.ids;
              std::sort(want_ids.begin(), want_ids.end());
              EXPECT_EQ(got_ids, want_ids);
              break;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fused-leaf-loop wall (DESIGN.md Sec. 17): the JIT's whole-tile entry
// points claim *bitwise* parity with the interpreted paths they replace.
// ---------------------------------------------------------------------------

/// mkdtemp-backed artifact-cache directory, removed on scope exit.
struct TempCacheDir {
  std::string path;
  TempCacheDir() {
    std::string tpl = "/tmp/portal_fuzz_cache_XXXXXX";
    std::vector<char> buf(tpl.begin(), tpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr)
      throw std::runtime_error("cannot create temp cache dir");
    path.assign(buf.data());
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// portal_fused_batch vs VmProgram::run_batch and portal_fused_values vs
// batch::natural_dists + envelope, lane by lane at ZERO ULP: the specialized
// dimension-unrolled tile loops must reproduce the interpreted tile bit for
// bit (ragged counts around the 16-lane block, nonzero tile offset, padded
// stride) -- that is what lets the executor and the serve engine swap them in
// without changing a single answer.
TEST(CodegenFuzz, FusedTileEntriesMatchVmPerLane) {
  if (!jit_available()) GTEST_SKIP() << "no system compiler";
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0xf05edull);

  Storage data(make_gaussian_mixture(40, 3, 2, seed ^ 0x77));
  const index_t dim = 3;
  const index_t counts[] = {1, 15, 16, 17};

  // Normalized plans (metric + envelope: fused_values applies) and custom
  // kernels (opaque IR: fused_batch only).
  std::vector<std::pair<std::string, ProblemPlan>> plans;
  const auto add_func = [&](const char* label, const PortalFunc& func) {
    std::vector<LayerSpec> layers(2);
    layers[0].op = OpSpec(PortalOp::FORALL);
    layers[0].storage = data;
    layers[1].op = OpSpec(PortalOp::SUM);
    layers[1].storage = data;
    layers[1].func = func;
    plans.emplace_back(label, analyze_layers(layers, PortalConfig{}));
  };
  add_func("gaussian", PortalFunc::gaussian(0.9));
  add_func("euclidean", PortalFunc::EUCLIDEAN);
  add_func("manhattan", PortalFunc::MANHATTAN);
  add_func("chebyshev", PortalFunc::CHEBYSHEV);
  add_func("gaussian-maha", PortalFunc::gaussian_maha(random_spd3(rng)));
  add_func("indicator", PortalFunc::indicator(1e-9, 1.1));
  for (int t = 0; t < 3; ++t) {
    Var q, r;
    AstFuzzer fuzzer(seed + 90 * t, q, r);
    const Expr kernel = fuzzer.scalar_kernel();
    std::vector<LayerSpec> layers(2);
    layers[0].op = OpSpec(PortalOp::FORALL);
    layers[0].storage = data;
    layers[0].var_id = q.id();
    layers[1].op = OpSpec(PortalOp::SUM);
    layers[1].storage = data;
    layers[1].var_id = r.id();
    layers[1].custom_kernel = kernel;
    plans.emplace_back("custom: " + kernel.to_string(),
                       analyze_layers(layers, PortalConfig{}));
  }

  for (const auto& [label, plan] : plans) {
    SCOPED_TRACE(label);
    const auto module = JitModule::compile(plan);
    ASSERT_NE(module, nullptr);
    ASSERT_NE(module->fused_batch_fn(), nullptr);
    const VmProgram kernel_vm = VmProgram::compile(plan.kernel.kernel_ir);
    const bool have_values =
        plan.kernel.normalized && plan.kernel.envelope_ir != nullptr;
    if (have_values)
      ASSERT_NE(module->fused_values_fn(), nullptr)
          << "normalized plan must emit portal_fused_values";
    const VmProgram env_vm = have_values
                                 ? VmProgram::compile(plan.kernel.envelope_ir)
                                 : VmProgram();

    for (const index_t count : counts) {
      SCOPED_TRACE("count=" + std::to_string(count));
      const index_t rbegin = 3;
      const index_t stride = rbegin + count + 5;
      std::vector<real_t> lanes(static_cast<std::size_t>(dim) * stride, -7);
      std::vector<real_t> qpt(dim);
      for (index_t d = 0; d < dim; ++d) {
        qpt[d] = rng.uniform(-3, 3);
        for (index_t j = 0; j < count; ++j)
          lanes[d * stride + rbegin + j] = rng.uniform(-3, 3);
      }
      const std::size_t scratch_size = static_cast<std::size_t>(
          std::max<index_t>(4 * dim + 4, 2 * dim * batch::kMahaBlock));
      std::vector<real_t> scratch(scratch_size), want_scratch(scratch_size);
      std::vector<real_t> got(count), want(count);

      // Axis 1: the opaque-kernel tile vs the VM's SoA interpreter.
      VmProgram::BatchContext bctx;
      bctx.q = qpt.data();
      bctx.rlanes = lanes.data();
      bctx.rstride = stride;
      bctx.rbegin = rbegin;
      bctx.count = count;
      bctx.dim = dim;
      bctx.scratch = want_scratch.data();
      kernel_vm.run_batch(bctx, want.data());
      module->fused_batch_fn()(qpt.data(), lanes.data(), stride, rbegin, count,
                               dim, scratch.data(), got.data());
      for (index_t j = 0; j < count; ++j)
        EXPECT_EQ(ulp_distance(want[j], got[j]), 0)
            << "fused_batch lane " << j << ": run_batch=" << want[j]
            << " fused=" << got[j];

      // Axis 2: the specialized metric+envelope tile vs the interpreted
      // leaf pipeline it replaces (batch::natural_dists, then the envelope
      // program per lane).
      if (!have_values) continue;
      batch::Tile tile{lanes.data(), stride, rbegin, count, dim};
      batch::natural_dists(plan.kernel.metric, tile, qpt.data(),
                           plan.kernel.maha.get(), want_scratch.data(),
                           want.data());
      for (index_t j = 0; j < count; ++j)
        want[j] = env_vm.run_envelope(want[j]);
      module->fused_values_fn()(qpt.data(), lanes.data(), stride, rbegin,
                                count, dim, scratch.data(), got.data());
      for (index_t j = 0; j < count; ++j)
        EXPECT_EQ(ulp_distance(want[j], got[j]), 0)
            << "fused_values lane " << j << ": interpreted=" << want[j]
            << " fused=" << got[j];
    }
  }
}

// Random chains end to end at tolerance ZERO: the JIT engine -- now running
// its fused tile loops on every batched leaf -- must agree with the VM engine
// bit for bit, batched and scalar, warm cache and cold. The pattern engine
// and the brute-force oracle ride along at their documented tolerances
// (validate=true self-checks every run against brute force); VM-vs-JIT is the
// pair the fused-loop refactor could have broken, so that pair is pinned at
// zero.
TEST(DifferentialConformance, FusedLeafLoopBitwiseIdentical) {
  if (!jit_available()) GTEST_SKIP() << "no system compiler";
  const std::uint64_t seed = fuzz_seed();
  std::printf("PORTAL_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  Rng rng(seed ^ 0xf00d5ca1eull);

  constexpr int kChains = 30;
  TempCacheDir cache_dir;

  for (int chain = 0; chain < kChains; ++chain) {
    Var q, r;
    const ChainSpec spec = draw_chain(rng, q, r, chain, seed);
    const index_t nq = 16 + static_cast<index_t>(rng.uniform_index(24));
    const index_t nr = 24 + static_cast<index_t>(rng.uniform_index(40));
    const index_t leaf = 1 + static_cast<index_t>(rng.uniform_index(16));
    Storage query(make_gaussian_mixture(nq, 3, 3, seed + 37 * chain));
    Storage reference = spec.self_join
                            ? query
                            : Storage(make_gaussian_mixture(
                                  nr, 3, 3, seed + 37 * chain + 19));
    SCOPED_TRACE("chain " + std::to_string(chain) + " [" + spec.description +
                 "] leaf " + std::to_string(leaf) +
                 " seed=" + std::to_string(seed) +
                 (spec.use_custom ? " kernel: " + spec.custom_kernel.to_string()
                                  : ""));

    // tau = 0: every engine answers exactly, so bitwise-identical kernels
    // imply bitwise-identical outputs (no approximation slack to hide in).
    const auto run = [&](Engine engine, bool batch, ProblemPlan* plan_out) {
      PortalExpr expr;
      if (spec.use_custom) {
        expr.addLayer(spec.outer, q, query);
        expr.addLayer(spec.inner, r, reference, spec.custom_kernel);
      } else {
        expr.addLayer(spec.outer, query);
        expr.addLayer(spec.inner, reference, spec.func);
      }
      PortalConfig config;
      config.engine = engine;
      config.parallel = false;
      config.validate = true; // brute-force oracle rides along on every run
      config.tau = 0;
      config.leaf_size = leaf;
      config.batch_base_cases = batch;
      expr.execute(config);
      if (plan_out != nullptr) *plan_out = expr.plan();
      return expr.getOutput();
    };

    Storage vm_batched, vm_scalar, jit_batched, jit_scalar;
    ProblemPlan plan;
    ASSERT_NO_THROW(vm_batched = run(Engine::VM, true, nullptr));
    ASSERT_NO_THROW(vm_scalar = run(Engine::VM, false, nullptr));
    ASSERT_NO_THROW(jit_batched = run(Engine::JIT, true, &plan));
    ASSERT_NO_THROW(jit_scalar = run(Engine::JIT, false, nullptr));

    std::string mismatch =
        compare_outputs(vm_batched.output(), jit_batched.output(), 0);
    EXPECT_TRUE(mismatch.empty()) << "vm batched vs jit batched: " << mismatch;
    mismatch = compare_outputs(vm_scalar.output(), jit_scalar.output(), 0);
    EXPECT_TRUE(mismatch.empty()) << "vm scalar vs jit scalar: " << mismatch;
    mismatch = compare_outputs(vm_batched.output(), vm_scalar.output(), 0);
    EXPECT_TRUE(mismatch.empty()) << "vm batched vs vm scalar: " << mismatch;

    // Warm/cold cache axis (every few chains: each compile shells out to the
    // system compiler, so sampling keeps the wall fast). The artifact
    // round-trips through the on-disk cache; the warm module's fused entries
    // must produce the same bits as the cold one's.
    if (chain % 5 != 0 || !plan.kernel.kernel_ir) continue;
    ArtifactCache::Options copt;
    copt.dir = cache_dir.path;
    ArtifactCache cache(std::move(copt));
    const auto cold = JitModule::compile(plan, &cache);
    ASSERT_NE(cold, nullptr);
    const auto warm = JitModule::compile(plan, &cache);
    ASSERT_NE(warm, nullptr);
    EXPECT_TRUE(warm->from_cache());

    const index_t dim = 3, count = 13, rbegin = 2, stride = 21;
    std::vector<real_t> lanes(static_cast<std::size_t>(dim) * stride, -5);
    std::vector<real_t> qpt(dim);
    for (index_t d = 0; d < dim; ++d) {
      qpt[d] = rng.uniform(-3, 3);
      for (index_t j = 0; j < count; ++j)
        lanes[d * stride + rbegin + j] = rng.uniform(-3, 3);
    }
    const std::size_t scratch_size = static_cast<std::size_t>(
        std::max<index_t>(4 * dim + 4, 2 * dim * batch::kMahaBlock));
    std::vector<real_t> scratch(scratch_size);
    std::vector<real_t> cold_out(count), warm_out(count);
    ASSERT_NE(cold->fused_batch_fn(), nullptr);
    ASSERT_NE(warm->fused_batch_fn(), nullptr);
    cold->fused_batch_fn()(qpt.data(), lanes.data(), stride, rbegin, count,
                           dim, scratch.data(), cold_out.data());
    warm->fused_batch_fn()(qpt.data(), lanes.data(), stride, rbegin, count,
                           dim, scratch.data(), warm_out.data());
    for (index_t j = 0; j < count; ++j)
      EXPECT_EQ(ulp_distance(cold_out[j], warm_out[j]), 0)
          << "cold vs warm lane " << j;
  }
}

} // namespace
} // namespace portal
