// Tests for the source JIT backend: C++ emission, compilation through the
// system compiler, agreement with the VM on the same optimized IR, and the
// on-disk artifact cache (warm starts, corruption rejection, eviction).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/codegen/artifact_cache.h"
#include "core/codegen/jit.h"
#include "core/codegen/vm.h"
#include "core/portal.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace portal {
namespace {

namespace fs = std::filesystem;

/// mkdtemp-backed cache directory, recursively removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tpl = fs::temp_directory_path().string() + "/portal_test_XXXXXX";
    std::vector<char> buf(tpl.begin(), tpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr)
      throw std::runtime_error("cannot create temp dir");
    path.assign(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

ArtifactCache make_cache(const std::string& dir, std::size_t max_entries = 256) {
  ArtifactCache::Options options;
  options.dir = dir;
  options.max_entries = max_entries;
  return ArtifactCache(std::move(options));
}

/// The single `.so` entry in a cache dir ("" when there is not exactly one).
std::string sole_artifact(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 3 && name.substr(name.size() - 3) == ".so") {
      if (!found.empty()) return "";
      found = entry.path().string();
    }
  }
  return found;
}

std::size_t files_in(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

ProblemPlan make_plan(const PortalFunc& func, const Storage& data,
                      PortalOp inner_op = PortalOp::ARGMIN) {
  std::vector<LayerSpec> layers(2);
  layers[0].op = OpSpec(PortalOp::FORALL);
  layers[0].storage = data;
  layers[1].op = OpSpec(inner_op);
  layers[1].storage = data;
  layers[1].func = func;
  return analyze_layers(layers, PortalConfig{});
}

TEST(Jit, CompilerIsAvailable) {
  // This environment ships g++; the JIT must detect it.
  EXPECT_TRUE(jit_available());
}

TEST(Jit, EmitsCompilableSource) {
  Storage data(make_gaussian_mixture(50, 3, 2, 41));
  const ProblemPlan plan = make_plan(PortalFunc::EUCLIDEAN, data);
  const std::string source = emit_cpp_source(plan);
  EXPECT_NE(source.find("extern \"C\" double portal_kernel"), std::string::npos);
  EXPECT_NE(source.find("extern \"C\" double portal_envelope"), std::string::npos);
  EXPECT_NE(source.find("for (long d = 0; d < dim; ++d)"), std::string::npos);
}

TEST(Jit, KernelMatchesVm) {
  Storage data(make_gaussian_mixture(50, 4, 2, 42));
  for (const PortalFunc& func :
       {PortalFunc::EUCLIDEAN, PortalFunc::SQREUCDIST, PortalFunc::MANHATTAN,
        PortalFunc::CHEBYSHEV, PortalFunc::gaussian(1.5)}) {
    const ProblemPlan plan = make_plan(func, data, PortalOp::SUM);
    auto module = JitModule::compile(plan);
    ASSERT_NE(module, nullptr) << func.name();
    const EvaluatorFns jit = module->evaluators();
    const VmProgram vm = VmProgram::compile(plan.kernel.kernel_ir);

    Rng rng(43);
    std::vector<real_t> scratch(16);
    for (int trial = 0; trial < 50; ++trial) {
      real_t a[4], b[4];
      for (int d = 0; d < 4; ++d) {
        a[d] = rng.uniform(-5, 5);
        b[d] = rng.uniform(-5, 5);
      }
      EXPECT_NEAR(jit.kernel_pair(a, b, 4, scratch.data()),
                  vm.run_pair(a, b, 4, scratch.data()), 1e-12)
          << func.name();
    }
    if (plan.kernel.normalized) {
      const VmProgram env_vm = VmProgram::compile(plan.kernel.envelope_ir);
      for (real_t d : {0.0, 0.5, 1.0, 4.0, 25.0}) {
        real_t value;
        jit.envelope(&d, 1, &value);
        EXPECT_NEAR(value, env_vm.run_envelope(d), 1e-12);
      }
    }
  }
}

TEST(Jit, MahalanobisKernelMatchesVm) {
  Storage data(make_gaussian_mixture(60, 3, 2, 44));
  const ProblemPlan plan = make_plan(PortalFunc::MAHALANOBIS, data, PortalOp::SUM);
  auto module = JitModule::compile(plan);
  ASSERT_NE(module, nullptr);
  const EvaluatorFns jit = module->evaluators();
  const VmProgram vm = VmProgram::compile(plan.kernel.kernel_ir);

  Rng rng(45);
  std::vector<real_t> scratch(16);
  for (int trial = 0; trial < 50; ++trial) {
    real_t a[3], b[3];
    for (int d = 0; d < 3; ++d) {
      a[d] = rng.uniform(-3, 3);
      b[d] = rng.uniform(-3, 3);
    }
    EXPECT_NEAR(jit.kernel_pair(a, b, 3, scratch.data()),
                vm.run_pair(a, b, 3, scratch.data()), 1e-9);
  }
}

TEST(Jit, ExternalKernelsReportUnserializable) {
  Storage data(make_gaussian_mixture(30, 2, 2, 46));
  std::vector<LayerSpec> layers(2);
  layers[0].op = OpSpec(PortalOp::FORALL);
  layers[0].storage = data;
  layers[1].op = OpSpec(PortalOp::ARGMIN);
  layers[1].storage = data;
  layers[1].external = [](const real_t*, const real_t*, index_t) {
    return real_t(0);
  };
  const ProblemPlan plan = analyze_layers(layers, PortalConfig{});
  EXPECT_EQ(JitModule::compile(plan), nullptr);
  EXPECT_THROW(emit_cpp_source(plan), std::runtime_error);
}

TEST(Jit, EndToEndKnnThroughJitEngine) {
  Storage query(make_gaussian_mixture(60, 3, 2, 47));
  Storage reference(make_gaussian_mixture(120, 3, 2, 48));

  PortalConfig config;
  config.parallel = false;

  Storage pattern_out, jit_out;
  {
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query);
    expr.addLayer({PortalOp::KARGMIN, 3}, reference, PortalFunc::EUCLIDEAN);
    config.engine = Engine::Pattern;
    expr.execute(config);
    pattern_out = expr.getOutput();
  }
  {
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query);
    expr.addLayer({PortalOp::KARGMIN, 3}, reference, PortalFunc::EUCLIDEAN);
    config.engine = Engine::JIT;
    expr.execute(config);
    EXPECT_EQ(expr.artifacts().chosen_engine, "jit");
    jit_out = expr.getOutput();
  }
  for (index_t i = 0; i < pattern_out.rows(); ++i)
    for (index_t j = 0; j < 3; ++j)
      EXPECT_NEAR(pattern_out.value(i, j), jit_out.value(i, j), 1e-9);
}

TEST(Jit, EmitsFusedLeafEntries) {
  Storage data(make_gaussian_mixture(50, 3, 2, 49));
  const ProblemPlan plan = make_plan(PortalFunc::gaussian(1.2), data, PortalOp::SUM);
  const std::string source = emit_cpp_source(plan);
  EXPECT_NE(source.find("extern \"C\" void portal_fused_batch"), std::string::npos);
  EXPECT_NE(source.find("extern \"C\" void portal_fused_values"), std::string::npos);
  // Dimension-unrolled over the tile: the leaf dim is a compile-time constant.
  EXPECT_NE(source.find("constexpr long kDim = 3;"), std::string::npos);

  auto module = JitModule::compile(plan);
  ASSERT_NE(module, nullptr);
  EXPECT_NE(module->fused_batch_fn(), nullptr);
  EXPECT_NE(module->fused_values_fn(), nullptr);
}

// --- the ArtifactCache wall -------------------------------------------------

TEST(ArtifactCache, KeyVariesWithEveryInput) {
  const std::uint64_t base = artifact_cache_key(1, 2, "g++ -O3", 3);
  EXPECT_NE(base, artifact_cache_key(9, 2, "g++ -O3", 3)) << "fingerprint";
  EXPECT_NE(base, artifact_cache_key(1, 9, "g++ -O3", 3)) << "source hash";
  EXPECT_NE(base, artifact_cache_key(1, 2, "clang++ -O3", 3)) << "compiler";
  EXPECT_NE(base, artifact_cache_key(1, 2, "g++ -O3", 4)) << "emitter version";
  EXPECT_EQ(base, artifact_cache_key(1, 2, "g++ -O3", 3)) << "determinism";
}

TEST(ArtifactCache, HitAcrossHandlesWarmStartsWithZeroCompiles) {
  TempDir dir;
  Storage data(make_gaussian_mixture(50, 3, 2, 50));
  const ProblemPlan plan = make_plan(PortalFunc::gaussian(1.5), data, PortalOp::SUM);

  obs::set_enabled(true);
  obs::reset();

  real_t a[3] = {0.25, -1.5, 2.0}, b[3] = {1.0, 0.5, -0.75};
  std::vector<real_t> scratch(16);
  real_t cold_value = 0;
  {
    ArtifactCache cache = make_cache(dir.path);
    auto module = JitModule::compile(plan, &cache);
    ASSERT_NE(module, nullptr);
    EXPECT_FALSE(module->from_cache());
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().publishes, 1u);
    EXPECT_EQ(cache.size(), 1u);
    cold_value = module->kernel_fn()(a, b, 3, scratch.data());
  }
  EXPECT_EQ(obs::collect().counter("jit/artifact/compiles"), 1u);

  // A second handle over the same directory models a restarted process: the
  // module comes off disk, the compiler is never invoked, and the machine
  // code is the same bytes -- so the kernel value is bitwise identical.
  obs::reset();
  {
    ArtifactCache cache = make_cache(dir.path);
    auto module = JitModule::compile(plan, &cache);
    ASSERT_NE(module, nullptr);
    EXPECT_TRUE(module->from_cache());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    const real_t warm_value = module->kernel_fn()(a, b, 3, scratch.data());
    EXPECT_EQ(cold_value, warm_value);
  }
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("jit/artifact/compiles"), 0u);
  EXPECT_EQ(report.counter("jit/artifact/hits"), 1u);
  obs::set_enabled(false);
}

TEST(ArtifactCache, TruncatedArtifactIsRejectedAndRecompiled) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 51));
  const ProblemPlan plan = make_plan(PortalFunc::EUCLIDEAN, data, PortalOp::SUM);
  {
    ArtifactCache cache = make_cache(dir.path);
    ASSERT_NE(JitModule::compile(plan, &cache), nullptr);
  }
  const std::string so = sole_artifact(dir.path);
  ASSERT_FALSE(so.empty());
  const auto full_size = fs::file_size(so);
  fs::resize_file(so, full_size / 2); // torn download / partial copy

  ArtifactCache cache = make_cache(dir.path);
  auto module = JitModule::compile(plan, &cache);
  ASSERT_NE(module, nullptr);
  EXPECT_FALSE(module->from_cache()) << "a truncated .so must never be dlopen'd";
  EXPECT_EQ(cache.stats().rejects, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().publishes, 1u) << "recompile republishes a clean entry";

  // The republished entry is whole again: a third handle warm-starts.
  ArtifactCache verify = make_cache(dir.path);
  auto warm = JitModule::compile(plan, &verify);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->from_cache());
}

TEST(ArtifactCache, ManifestMismatchIsRejectedAndRecompiled) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 52));
  const ProblemPlan plan = make_plan(PortalFunc::MANHATTAN, data, PortalOp::SUM);
  {
    ArtifactCache cache = make_cache(dir.path);
    ASSERT_NE(JitModule::compile(plan, &cache), nullptr);
  }
  std::string manifest;
  for (const auto& entry : fs::directory_iterator(dir.path))
    if (entry.path().extension() == ".manifest") manifest = entry.path().string();
  ASSERT_FALSE(manifest.empty());
  {
    // A stale manifest (say, from an interrupted emitter upgrade): claimed
    // .so hash no longer matches the bytes on disk.
    std::ofstream out(manifest, std::ios::app);
    out << "tampered\n";
  }

  ArtifactCache cache = make_cache(dir.path);
  auto module = JitModule::compile(plan, &cache);
  ASSERT_NE(module, nullptr);
  EXPECT_FALSE(module->from_cache());
  EXPECT_EQ(cache.stats().rejects, 1u);
  EXPECT_EQ(cache.size(), 1u) << "rejected entry replaced by the recompile";
}

TEST(ArtifactCache, PurgeEmptiesTheDirectory) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 53));
  ArtifactCache cache = make_cache(dir.path);
  for (double sigma : {0.5, 1.0, 2.0}) {
    const ProblemPlan plan =
        make_plan(PortalFunc::gaussian(sigma), data, PortalOp::SUM);
    ASSERT_NE(JitModule::compile(plan, &cache), nullptr);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.purge(), 3u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(files_in(dir.path), 0u);
}

TEST(ArtifactCache, EvictionKeepsTheCacheWithinBound) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 54));
  ArtifactCache cache = make_cache(dir.path, /*max_entries=*/2);
  for (double sigma : {0.25, 0.5, 1.0, 2.0}) {
    const ProblemPlan plan =
        make_plan(PortalFunc::gaussian(sigma), data, PortalOp::SUM);
    ASSERT_NE(JitModule::compile(plan, &cache), nullptr);
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.stats().evictions, 2u);
  for (const ArtifactCache::EntryInfo& entry : cache.list())
    EXPECT_TRUE(entry.valid) << entry.key_hex;
}

TEST(ArtifactCache, ListReportsValidatedEntries) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 55));
  ArtifactCache cache = make_cache(dir.path);
  const ProblemPlan plan = make_plan(PortalFunc::CHEBYSHEV, data, PortalOp::SUM);
  ASSERT_NE(JitModule::compile(plan, &cache), nullptr);
  const std::vector<ArtifactCache::EntryInfo> entries = cache.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_EQ(entries[0].key_hex.size(), 16u);
  EXPECT_GT(entries[0].so_bytes, 0u);
  EXPECT_EQ(entries[0].compiler, jit_compiler_identity());
}

TEST(ArtifactCache, ConcurrentFirstCompileConvergesOnOneArtifact) {
  TempDir dir;
  Storage data(make_gaussian_mixture(40, 3, 2, 56));
  const ProblemPlan plan = make_plan(PortalFunc::gaussian(0.8), data, PortalOp::SUM);

  ArtifactCache cache = make_cache(dir.path);
  constexpr int kThreads = 6;
  std::vector<std::unique_ptr<JitModule>> modules(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { modules[t] = JitModule::compile(plan, &cache); });
  for (std::thread& thread : threads) thread.join();

  real_t a[3] = {0.5, -0.25, 1.5}, b[3] = {-1.0, 2.0, 0.125};
  std::vector<real_t> scratch(16);
  real_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(modules[t], nullptr) << t;
    const real_t value = modules[t]->kernel_fn()(a, b, 3, scratch.data());
    if (t == 0)
      expected = value;
    else
      EXPECT_EQ(value, expected) << t;
  }
  // Racing publishers all rename into the same key: one artifact survives.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(sole_artifact(dir.path).empty());
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.misses, 1u);
}

// --- scratch-file hygiene ---------------------------------------------------

TEST(Jit, ScratchDirLeavesNoStrayFiles) {
  Storage data(make_gaussian_mixture(40, 3, 2, 57));
  const ProblemPlan plan = make_plan(PortalFunc::EUCLIDEAN, data, PortalOp::SUM);
  {
    auto module = JitModule::compile(plan, /*cache=*/nullptr);
    ASSERT_NE(module, nullptr);
    // While the module is alive only its .so remains (sources and compiler
    // logs are removed as soon as the compile succeeds).
    EXPECT_EQ(files_in(jit_scratch_dir()), 1u);
  }
  EXPECT_EQ(files_in(jit_scratch_dir()), 0u)
      << "destroyed modules must unlink their scratch .so";
}

TEST(Jit, FailedCompileLeavesNoStrayFiles) {
  Storage data(make_gaussian_mixture(40, 3, 2, 58));
  const ProblemPlan plan = make_plan(PortalFunc::EUCLIDEAN, data, PortalOp::SUM);

  // Touch the lazily created statics (scratch dir, compiler identity) while
  // the real compiler is still configured, then break $CXX for one compile.
  ASSERT_NE(JitModule::compile(plan, nullptr), nullptr);
  const char* old_cxx = std::getenv("CXX");
  const std::string saved = old_cxx != nullptr ? old_cxx : "";
  setenv("CXX", "/nonexistent/portal-no-such-compiler", 1);
  EXPECT_THROW(JitModule::compile(plan, nullptr), std::runtime_error);
  if (old_cxx != nullptr)
    setenv("CXX", saved.c_str(), 1);
  else
    unsetenv("CXX");

  EXPECT_EQ(files_in(jit_scratch_dir()), 0u)
      << "a failed compile must remove its source, log, and partial .so";
}

} // namespace
} // namespace portal
