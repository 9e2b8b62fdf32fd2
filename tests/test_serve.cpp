// Tests for the concurrent query-serving runtime (src/serve): the plan
// cache (distinct chains never collide, equal chains hit), snapshot
// copy-rebuild-swap under concurrent readers, the single-query engine
// cross-checked bitwise against its serial brute-force oracle, the
// micro-batching scheduler's admission control (reject / backpressure /
// deadlines), and a mixed-workload stress run at tolerance zero. The whole
// file runs in the TSan CI job (ctest -R Serve|Snapshot|PlanCache|Histogram).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/codegen/jit.h"
#include "data/generators.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "core/executor.h"
#include "serve/engine.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "tree/snapshot.h"

namespace portal {
namespace {

using serve::CompiledPlan;
using serve::EngineOptions;
using serve::PlanCache;
using serve::PlanHandle;
using serve::PortalService;
using serve::QueryResult;
using serve::Response;
using serve::run_query;
using serve::run_query_bruteforce;
using serve::ServiceOptions;
using serve::Status;
using serve::Workspace;

PortalConfig serve_config(real_t tau = 0) {
  PortalConfig config;
  config.tau = tau;
  return config;
}

LayerSpec chain(OpSpec op, PortalFunc func) {
  LayerSpec inner;
  inner.op = op;
  inner.func = func;
  return inner;
}

std::vector<real_t> query_point(const Dataset& data, index_t i) {
  std::vector<real_t> pt(data.dim());
  for (index_t d = 0; d < data.dim(); ++d) pt[d] = data.coord(i, d) + 0.25;
  return pt;
}

/// Values bitwise, ids exactly. The engine's determinism contract only
/// guarantees value equality on ties, but the random datasets here are
/// continuous -- exact ties have measure zero -- so ids must agree too.
void expect_bitwise(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    if (std::isnan(want.values[i])) {
      EXPECT_TRUE(std::isnan(got.values[i])) << "slot " << i;
    } else {
      EXPECT_EQ(got.values[i], want.values[i]) << "slot " << i;
    }
  }
  ASSERT_EQ(got.ids.size(), want.ids.size());
  for (std::size_t i = 0; i < want.ids.size(); ++i)
    EXPECT_EQ(got.ids[i], want.ids[i]) << "slot " << i;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptySnapshotIsZero) {
  obs::LatencyHistogram hist;
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.mean_seconds(), 0.0);
}

TEST(LatencyHistogram, TracksCountSumMinMax) {
  obs::LatencyHistogram hist;
  hist.record(1e-3);
  hist.record(2e-3);
  hist.record(4e-3);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum_seconds, 7e-3, 1e-8);
  EXPECT_NEAR(snap.min_seconds, 1e-3, 1e-8);
  EXPECT_NEAR(snap.max_seconds, 4e-3, 1e-8);
  EXPECT_NEAR(snap.mean_seconds(), 7e-3 / 3, 1e-8);
}

TEST(LatencyHistogram, QuantilesWithinBucketError) {
  // Log-linear buckets with 4 sub-buckets per octave bound the relative
  // quantile error by 1/8 = 12.5%.
  obs::LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(i * 1e-6); // 1us..1ms uniform
  const auto snap = hist.snapshot();
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double expected = q * 1e-3;
    EXPECT_NEAR(snap.quantile(q), expected, expected * 0.125 + 1e-9)
        << "q=" << q;
  }
  EXPECT_NEAR(snap.quantile(0.0), 1e-6, 1e-6 * 0.125);
  EXPECT_NEAR(snap.quantile(1.0), 1e-3, 1e-3 * 0.125);
}

TEST(LatencyHistogram, ResetClears) {
  obs::LatencyHistogram hist;
  hist.record(1.0);
  hist.reset();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max_seconds, 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  obs::LatencyHistogram hist;
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist] {
      for (int i = 1; i <= kPer; ++i) hist.record_ns(i);
    });
  for (auto& thread : threads) thread.join();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPer);
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCache, DistinctChainsNeverCollide) {
  const Dataset reference = make_gaussian_mixture(200, 3, 2, 7);
  PlanCache cache;
  const std::vector<LayerSpec> chains = {
      chain({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN),
      chain({PortalOp::KARGMIN, 6}, PortalFunc::EUCLIDEAN), // k differs
      chain({PortalOp::KMIN, 5}, PortalFunc::EUCLIDEAN),    // op differs
      chain({PortalOp::KARGMIN, 5}, PortalFunc::MANHATTAN), // metric differs
      chain(PortalOp::SUM, PortalFunc::gaussian(0.5)),
      chain(PortalOp::SUM, PortalFunc::gaussian(0.7)),      // sigma differs
      chain(PortalOp::SUM, PortalFunc::indicator(0, 0.5)),
      chain(PortalOp::UNION, PortalFunc::indicator(0, 0.5)),
      chain(PortalOp::MIN, PortalFunc::EUCLIDEAN),
      chain({PortalOp::KARGMAX, 4}, PortalFunc::SQREUCDIST),
  };
  std::vector<std::uint64_t> fingerprints;
  for (const LayerSpec& inner : chains) {
    PlanHandle plan = cache.get_or_compile(inner, reference, serve_config());
    ASSERT_TRUE(plan);
    EXPECT_NE(plan->fingerprint, 0u);
    fingerprints.push_back(plan->fingerprint);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_EQ(std::adjacent_find(fingerprints.begin(), fingerprints.end()),
            fingerprints.end())
      << "two distinct chains hashed to the same fingerprint";
  EXPECT_EQ(cache.stats().misses, chains.size());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCache, EqualChainsHitRegardlessOfStorage) {
  const Dataset reference = make_gaussian_mixture(200, 3, 2, 7);
  PlanCache cache;
  LayerSpec inner = chain({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN);
  PlanHandle first = cache.get_or_compile(inner, reference, serve_config());

  // Same chain again: hit, same compiled object.
  PlanHandle second = cache.get_or_compile(inner, reference, serve_config());
  EXPECT_EQ(first.get(), second.get());

  // Equal chain modulo storage identity/name: the inner storage field is
  // ignored (serving binds the published snapshot instead), so this hits.
  LayerSpec renamed = chain({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN);
  renamed.storage = Storage(make_uniform(10, 3, 99));
  PlanHandle third = cache.get_or_compile(renamed, reference, serve_config());
  EXPECT_EQ(first.get(), third.get());

  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, TauIsARuntimeKnobNotAPlanProperty) {
  // tau only steers the engine's approximation gate at query time; the
  // lowered IR is identical, so the two descriptor keys converge on ONE
  // canonical plan through the fingerprint level (descriptor miss, then
  // fingerprint-dedupe accounted as a hit).
  const Dataset reference = make_gaussian_mixture(150, 2, 2, 3);
  PlanCache cache;
  LayerSpec inner = chain(PortalOp::SUM, PortalFunc::gaussian(0.4));
  PlanHandle exact = cache.get_or_compile(inner, reference, serve_config(0));
  PlanHandle approx =
      cache.get_or_compile(inner, reference, serve_config(0.01));
  EXPECT_EQ(exact.get(), approx.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses + cache.stats().hits, 2u);
}

TEST(PlanCache, ApproxBeamWidthIsARuntimeKnobNotAPlanProperty) {
  // Approximate mode and the beam width live beside tau in EngineOptions --
  // runtime serving parameters, never descriptor or fingerprint inputs --
  // so exact and approximate callers at every beam width share ONE
  // compiled plan.
  const Dataset reference = make_gaussian_mixture(400, 16, 4, 7);
  PlanCache cache;
  LayerSpec inner = chain({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN);
  PlanHandle first = cache.get_or_compile(inner, reference, serve_config());
  PlanHandle second = cache.get_or_compile(inner, reference, serve_config());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);

  SnapshotOptions sopts;
  sopts.build_graph = true;
  const auto snap = TreeSnapshot::build(
      std::make_shared<const Dataset>(reference), 1, sopts);
  Workspace ws;
  const std::vector<real_t> pt = query_point(reference, 3);
  const QueryResult exact = run_query(*first, *snap, pt.data(), {}, ws);
  for (const index_t beam : {index_t{8}, index_t{32}, index_t{64}}) {
    EngineOptions aopt;
    aopt.approx = true;
    aopt.beam_width = beam;
    ASSERT_TRUE(serve::routes_to_graph(*first, *snap, aopt));
    const QueryResult approx = run_query(*first, *snap, pt.data(), aopt, ws);
    ASSERT_EQ(approx.values.size(), exact.values.size());
    for (std::size_t s = 0; s < approx.values.size(); ++s) {
      // Exact per-slot values are a lower bound on the approximate ones
      // (the graph can only miss candidates, never invent closer ones).
      EXPECT_GE(approx.values[s], exact.values[s]) << "slot " << s;
      ASSERT_GE(approx.ids[s], 0);
      ASSERT_LT(approx.ids[s], reference.size());
    }
  }
  // Same options without approx: bitwise the exact path (routing compiled
  // in changes nothing for exact callers).
  EngineOptions off;
  off.beam_width = 8; // ignored without approx
  EXPECT_FALSE(serve::routes_to_graph(*first, *snap, off));
  expect_bitwise(run_query(*first, *snap, pt.data(), off, ws), exact);
}

TEST(ServeService, ApproximateFlagIsHonest) {
  const index_t dim = 16;
  const Dataset reference = make_gaussian_mixture(400, dim, 3, 42);
  {
    // Exact service: flag stays false.
    PortalService service;
    service.publish(reference);
    PlanHandle plan =
        service.prepare({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN);
    Response r = service.submit(plan, query_point(reference, 1)).get();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_FALSE(r.approximate);
  }
  {
    // Approx service: the reduction routes to the graph and says so; a SUM
    // plan the graph cannot honor falls through to the exact descent and
    // the flag honestly stays false.
    ServiceOptions options;
    options.approx = true;
    options.beam_width = 32;
    PortalService service(options);
    service.publish(reference);
    ASSERT_TRUE(service.snapshot()->graph());
    PlanHandle knn =
        service.prepare({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN);
    Response r = service.submit(knn, query_point(reference, 1)).get();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_TRUE(r.approximate);

    PlanHandle kde =
        service.prepare(OpSpec(PortalOp::SUM), PortalFunc::gaussian(0.8));
    Response rs = service.submit(kde, query_point(reference, 2)).get();
    ASSERT_EQ(rs.status, Status::Ok) << rs.error;
    EXPECT_FALSE(rs.approximate);
  }
  {
    // approx_auto_dim: fires because dim >= threshold.
    ServiceOptions options;
    options.approx_auto_dim = 8;
    PortalService service(options);
    service.publish(reference);
    PlanHandle knn =
        service.prepare({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN);
    Response r = service.submit(knn, query_point(reference, 0)).get();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_TRUE(r.approximate);
  }
}

TEST(PlanCache, HitMissCountersReachTraceReport) {
  obs::set_enabled(true);
  obs::reset();
  const Dataset reference = make_gaussian_mixture(150, 2, 2, 3);
  PlanCache cache;
  LayerSpec inner = chain(PortalOp::MIN, PortalFunc::EUCLIDEAN);
  cache.get_or_compile(inner, reference, serve_config());
  cache.get_or_compile(inner, reference, serve_config());
  cache.get_or_compile(inner, reference, serve_config());
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("serve/plan_cache_miss"), 1u);
  EXPECT_EQ(report.counter("serve/plan_cache_hit"), 2u);
  obs::set_enabled(false);
  obs::reset();
}

TEST(PlanCache, ConcurrentSameChainConvergesToOnePlan) {
  const Dataset reference = make_gaussian_mixture(200, 3, 2, 11);
  PlanCache cache;
  constexpr int kThreads = 8;
  std::vector<PlanHandle> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      handles[static_cast<std::size_t>(t)] = cache.get_or_compile(
          chain({PortalOp::KARGMIN, 4}, PortalFunc::EUCLIDEAN), reference,
          serve_config());
    });
  for (auto& thread : threads) thread.join();
  for (const PlanHandle& handle : handles) {
    ASSERT_TRUE(handle);
    EXPECT_EQ(handle->fingerprint, handles[0]->fingerprint);
  }
  // Racing compiles may duplicate work, but the cache converges to one
  // canonical plan and every call is accounted as a hit or a miss.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(cache.stats().misses, 1u);
}

TEST(PlanCache, RejectsUnsupportedChains) {
  const Dataset reference = make_gaussian_mixture(100, 3, 2, 5);
  PlanCache cache;
  EXPECT_THROW(cache.get_or_compile(chain(PortalOp::FORALL, PortalFunc::NONE),
                                    reference, serve_config()),
               std::invalid_argument);
  EXPECT_THROW(
      cache.get_or_compile(chain(PortalOp::SUM, PortalFunc::gravity(1.0)),
                           reference, serve_config()),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TreeSnapshot / SnapshotSlot
// ---------------------------------------------------------------------------

TEST(Snapshot, BuildValidatesInput) {
  SnapshotOptions options;
  EXPECT_THROW(TreeSnapshot::build(nullptr, 1, options), std::invalid_argument);
  EXPECT_THROW(TreeSnapshot::build(
                   std::make_shared<const Dataset>(Dataset(0, 3)), 1, options),
               std::invalid_argument);
  options.build_octree = true;
  EXPECT_THROW(
      TreeSnapshot::build(
          std::make_shared<const Dataset>(make_uniform(50, 2, 1)), 1, options),
      std::invalid_argument);
}

TEST(Snapshot, PublishBuildsRequestedTrees) {
  SnapshotSlot slot;
  EXPECT_EQ(slot.current_epoch(), 0u);
  EXPECT_EQ(slot.load(), nullptr);

  SnapshotOptions options;
  options.build_octree = true;
  auto snap = slot.publish(
      std::make_shared<const Dataset>(make_uniform(300, 3, 42)), options);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->size(), 300);
  EXPECT_EQ(snap->dim(), 3);
  ASSERT_NE(snap->kd(), nullptr);
  EXPECT_EQ(snap->kd()->data().size(), 300);
  ASSERT_NE(snap->octree(), nullptr);
  EXPECT_EQ(slot.load().get(), snap.get());
  EXPECT_EQ(slot.current_epoch(), 1u);
}

TEST(Snapshot, SwapKeepsReadersConsistent) {
  // Writers publish datasets whose every coordinate equals the epoch number;
  // readers must only ever observe a snapshot whose tree, source data, and
  // epoch agree (all coordinates == epoch), with epochs monotone per reader.
  constexpr index_t kSize = 256, kDim = 3;
  constexpr std::uint64_t kEpochs = 12;
  const auto epoch_dataset = [](real_t value) {
    Dataset data(kSize, kDim);
    for (index_t i = 0; i < kSize; ++i)
      for (index_t d = 0; d < kDim; ++d) data.coord(i, d) = value;
    return data;
  };

  SnapshotSlot slot;
  slot.publish(std::make_shared<const Dataset>(epoch_dataset(1)), {});

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const TreeSnapshot> snap = slot.load();
        if (!snap) continue;
        const auto expected = static_cast<real_t>(snap->epoch());
        bool ok = snap->epoch() >= last_epoch && snap->size() == kSize &&
                  snap->kd() != nullptr && snap->kd()->data().size() == kSize;
        for (index_t i = 0; ok && i < kSize; i += 37)
          for (index_t d = 0; d < kDim; ++d)
            ok = ok && snap->source()->coord(i, d) == expected;
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        last_epoch = snap->epoch();
      }
    });

  for (std::uint64_t e = 2; e <= kEpochs; ++e)
    slot.publish(
        std::make_shared<const Dataset>(epoch_dataset(static_cast<real_t>(e))),
        {});
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(slot.current_epoch(), kEpochs);
  EXPECT_EQ(slot.load()->epoch(), kEpochs);
}

// ---------------------------------------------------------------------------
// Serve engine vs brute-force oracle (tolerance zero)
// ---------------------------------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_ = make_gaussian_mixture(400, 3, 3, 20260806);
    queries_ = make_gaussian_mixture(24, 3, 3, 7);
    snapshot_ = TreeSnapshot::build(
        std::make_shared<const Dataset>(reference_), 1, {});
  }

  /// Tree-accelerated vs brute force for one chain, every query point,
  /// batched leaves both on and off.
  void check_chain(const LayerSpec& inner, real_t tau = 0) {
    PlanCache cache;
    PlanHandle plan =
        cache.get_or_compile(inner, reference_, serve_config(tau));
    ASSERT_TRUE(plan);
    Workspace ws;
    for (index_t i = 0; i < queries_.size(); ++i) {
      std::vector<real_t> pt(queries_.dim());
      for (index_t d = 0; d < queries_.dim(); ++d) pt[d] = queries_.coord(i, d);
      const QueryResult oracle =
          run_query_bruteforce(*plan, *snapshot_, pt.data());
      for (bool batch : {true, false}) {
        EngineOptions options;
        options.batch_base_cases = batch;
        options.tau = tau;
        const QueryResult got =
            run_query(*plan, *snapshot_, pt.data(), options, ws);
        if (tau == 0) {
          expect_bitwise(got, oracle);
        } else {
          ASSERT_EQ(got.values.size(), oracle.values.size());
          for (std::size_t v = 0; v < oracle.values.size(); ++v)
            EXPECT_NEAR(got.values[v], oracle.values[v],
                        tau * static_cast<real_t>(reference_.size()));
        }
      }
    }
  }

  Dataset reference_{0, 3};
  Dataset queries_{0, 3};
  std::shared_ptr<const TreeSnapshot> snapshot_;
};

TEST_F(ServeEngineTest, KnnEuclidean) {
  check_chain(chain({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN));
}

TEST_F(ServeEngineTest, KminSqEuclidean) {
  check_chain(chain({PortalOp::KMIN, 3}, PortalFunc::SQREUCDIST));
}

TEST_F(ServeEngineTest, MinManhattan) {
  check_chain(chain(PortalOp::MIN, PortalFunc::MANHATTAN));
}

TEST_F(ServeEngineTest, ArgminChebyshev) {
  check_chain(chain(PortalOp::ARGMIN, PortalFunc::CHEBYSHEV));
}

TEST_F(ServeEngineTest, MaxAndKargmax) {
  check_chain(chain(PortalOp::MAX, PortalFunc::EUCLIDEAN));
  check_chain(chain({PortalOp::KARGMAX, 4}, PortalFunc::SQREUCDIST));
}

TEST_F(ServeEngineTest, KnnMahalanobis) {
  const std::vector<real_t> cov = {2.0, 0.3, 0.1, 0.3, 1.5, 0.2,
                                   0.1, 0.2, 0.9};
  check_chain(chain({PortalOp::KARGMIN, 4}, PortalFunc::mahalanobis_with(cov)));
}

TEST_F(ServeEngineTest, KdeGaussianExact) {
  check_chain(chain(PortalOp::SUM, PortalFunc::gaussian(0.6)));
}

TEST_F(ServeEngineTest, KdeGaussianTauBounded) {
  check_chain(chain(PortalOp::SUM, PortalFunc::gaussian(0.6)), 1e-4);
}

TEST_F(ServeEngineTest, RangeCountIndicator) {
  check_chain(chain(PortalOp::SUM, PortalFunc::indicator(0, 1.0)));
}

TEST_F(ServeEngineTest, RangeSearchUnion) {
  check_chain(chain(PortalOp::UNION, PortalFunc::indicator(0, 1.2)));
  check_chain(chain(PortalOp::UNIONARG, PortalFunc::indicator(0, 1.2)));
}

TEST_F(ServeEngineTest, KminGaussianValues) {
  // Comparative reduction over kernel *values* (not distances): exercises
  // the envelope-endpoint prune bounds for a decreasing envelope.
  check_chain(chain({PortalOp::KMIN, 3}, PortalFunc::gaussian(0.8)));
  check_chain(chain({PortalOp::KMAX, 3}, PortalFunc::gaussian(0.8)));
}

TEST_F(ServeEngineTest, SharedWorkspaceMatchesFreshWorkspacePerQuery) {
  // A worker reuses one Workspace for every request it runs, whatever the
  // plan. Nothing may leak from one request into the next: alternating
  // chains through a shared workspace must answer exactly -- values, ids and
  // traversal counters -- like a fresh workspace per query.
  const std::vector<LayerSpec> chains = {
      chain({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN),
      chain(PortalOp::SUM, PortalFunc::gaussian(0.6)),
      chain(PortalOp::UNION, PortalFunc::indicator(0, 1.0)),
      chain(PortalOp::MIN, PortalFunc::MANHATTAN),
  };
  PlanCache cache;
  std::vector<PlanHandle> plans;
  for (const LayerSpec& inner : chains) {
    plans.push_back(cache.get_or_compile(inner, reference_, serve_config()));
    ASSERT_TRUE(plans.back());
  }
  for (const bool batch : {true, false}) {
    EngineOptions options;
    options.batch_base_cases = batch;
    Workspace shared;
    for (index_t i = 0; i < queries_.size(); ++i) {
      std::vector<real_t> pt(queries_.dim());
      for (index_t d = 0; d < queries_.dim(); ++d) pt[d] = queries_.coord(i, d);
      for (std::size_t c = 0; c < plans.size(); ++c) {
        SCOPED_TRACE("query " + std::to_string(i) + " chain " +
                     std::to_string(c) + (batch ? " batched" : " scalar"));
        const QueryResult got =
            run_query(*plans[c], *snapshot_, pt.data(), options, shared);
        Workspace fresh;
        const QueryResult want =
            run_query(*plans[c], *snapshot_, pt.data(), options, fresh);
        expect_bitwise(got, want);
        EXPECT_EQ(got.stats.pairs_visited, want.stats.pairs_visited);
        EXPECT_EQ(got.stats.prunes, want.stats.prunes);
        EXPECT_EQ(got.stats.base_cases, want.stats.base_cases);
      }
    }
  }
}

TEST_F(ServeEngineTest, RejectsDimensionMismatch) {
  PlanCache cache;
  PlanHandle plan = cache.get_or_compile(
      chain({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN), reference_,
      serve_config());
  const Dataset wrong = make_uniform(64, 2, 5);
  auto snap2 =
      TreeSnapshot::build(std::make_shared<const Dataset>(wrong), 2, {});
  Workspace ws;
  const real_t pt[3] = {0, 0, 0};
  EXPECT_THROW(run_query(*plan, *snap2, pt, {}, ws), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PortalService: scheduler, admission control, deadlines
// ---------------------------------------------------------------------------

TEST(ServeService, EndToEndKnnMatchesOracle) {
  ServiceOptions options;
  options.workers = 3;
  PortalService service(options);
  const Dataset reference = make_gaussian_mixture(500, 3, 3, 99);
  service.publish(reference);
  PlanHandle plan = service.prepare({PortalOp::KARGMIN, 5},
                                    PortalFunc::EUCLIDEAN);
  ASSERT_TRUE(plan);

  const auto snap = service.snapshot();
  std::vector<std::future<Response>> futures;
  for (index_t i = 0; i < 32; ++i)
    futures.push_back(service.submit(plan, query_point(reference, i)));
  for (index_t i = 0; i < 32; ++i) {
    Response resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(resp.status, Status::Ok) << resp.error;
    EXPECT_EQ(resp.epoch, 1u);
    EXPECT_GE(resp.latency_ms, 0.0);
    const std::vector<real_t> pt = query_point(reference, i);
    const QueryResult oracle = run_query_bruteforce(*plan, *snap, pt.data());
    expect_bitwise(resp.result, oracle);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 32u);
  EXPECT_EQ(service.latency().count, 32u);
}

TEST(ServeService, PrepareHitsCacheAfterWarmup) {
  PortalService service;
  service.publish(make_gaussian_mixture(200, 3, 2, 4));
  PlanHandle first = service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.5));
  for (int i = 0; i < 99; ++i) {
    PlanHandle again =
        service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.5));
    EXPECT_EQ(again.get(), first.get());
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 99u);
  EXPECT_GT(stats.plan_cache.hit_rate(), 0.98);
}

TEST(ServeService, PrepareBeforePublishThrows) {
  PortalService service;
  EXPECT_THROW(service.prepare(PortalOp::MIN, PortalFunc::EUCLIDEAN),
               std::logic_error);
}

TEST(ServeService, PublishSwapsEpochUnderLoad) {
  PortalService service;
  const Dataset first = make_gaussian_mixture(300, 3, 2, 1);
  const Dataset second = make_gaussian_mixture(350, 3, 2, 2);
  auto snap1 = service.publish(first);
  PlanHandle plan = service.prepare({PortalOp::KARGMIN, 3},
                                    PortalFunc::EUCLIDEAN);
  auto snap2 = service.publish(second);
  EXPECT_EQ(snap1->epoch(), 1u);
  EXPECT_EQ(snap2->epoch(), 2u);

  // Requests submitted after the swap are answered at epoch 2 against the
  // new data; the pinned epoch-1 snapshot stays valid for the oracle.
  Response resp =
      service.submit(plan, query_point(second, 0)).get();
  ASSERT_EQ(resp.status, Status::Ok) << resp.error;
  EXPECT_EQ(resp.epoch, 2u);
  const std::vector<real_t> pt = query_point(second, 0);
  expect_bitwise(resp.result, run_query_bruteforce(*plan, *snap2, pt.data()));
  EXPECT_EQ(snap1->kd()->data().size(), 300);
}

TEST(ServeService, BadRequestsFailFast) {
  PortalService service;
  service.publish(make_uniform(100, 3, 8));
  PlanHandle plan = service.prepare(PortalOp::MIN, PortalFunc::EUCLIDEAN);

  Response null_plan = service.submit(nullptr, {0, 0, 0}).get();
  EXPECT_EQ(null_plan.status, Status::Error);

  Response wrong_dim = service.submit(plan, {0, 0}).get();
  EXPECT_EQ(wrong_dim.status, Status::Error);
  EXPECT_NE(wrong_dim.error.find("plan expects"), std::string::npos);

  EXPECT_EQ(service.stats().errors, 2u);
}

TEST(ServeService, SubmitAfterStopIsRejected) {
  PortalService service;
  service.publish(make_uniform(100, 3, 8));
  PlanHandle plan = service.prepare(PortalOp::MIN, PortalFunc::EUCLIDEAN);
  service.stop();
  Response resp = service.submit(plan, {0, 0, 0}).get();
  EXPECT_EQ(resp.status, Status::Rejected);
  EXPECT_EQ(resp.error, "service stopped");
  EXPECT_EQ(service.stats().rejected, 1u);
}

/// A deliberately slow opaque kernel: ~3ms per query on the 16-point
/// dataset below. Slow enough that a burst of submits outruns the single
/// worker by orders of magnitude, making the admission-control outcomes
/// below deterministic in practice.
PlanHandle slow_plan(PortalService& service) {
  LayerSpec inner;
  inner.op = PortalOp::SUM;
  inner.external = [](const real_t* q, const real_t* r, index_t dim) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    real_t sum = 0;
    for (index_t d = 0; d < dim; ++d) sum += (q[d] - r[d]) * (q[d] - r[d]);
    return sum;
  };
  inner.external_label = "slow_kernel";
  return service.prepare(std::move(inner));
}

TEST(ServeService, QueueFullRejects) {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.queue_capacity = 2;
  PortalService service(options);
  service.publish(make_uniform(16, 2, 3));
  PlanHandle plan = slow_plan(service);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(service.submit(plan, {0.5, 0.5}));
  std::uint64_t ok = 0, rejected = 0;
  for (auto& future : futures) {
    const Response resp = future.get();
    ASSERT_TRUE(resp.status == Status::Ok || resp.status == Status::Rejected)
        << resp.error;
    (resp.status == Status::Ok ? ok : rejected)++;
  }
  // The worker needs ~3ms per request; submitting 12 takes microseconds, so
  // at most worker-in-flight + capacity can be accepted before rejects start.
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(ok, 1u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed + stats.rejected, 12u);
}

TEST(ServeService, BlockOnFullBackpressuresInsteadOfRejecting) {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.queue_capacity = 2;
  options.block_on_full = true;
  PortalService service(options);
  service.publish(make_uniform(16, 2, 3));
  PlanHandle plan = slow_plan(service);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(plan, {0.5, 0.5})); // blocks when full
  for (auto& future : futures) {
    const Response resp = future.get();
    EXPECT_EQ(resp.status, Status::Ok) << resp.error;
  }
  EXPECT_EQ(service.stats().completed, 8u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServeService, DeadlineExpiresInQueue) {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.queue_capacity = 64;
  PortalService service(options);
  service.publish(make_uniform(16, 2, 3));
  PlanHandle plan = slow_plan(service);

  // Stuff four ~3ms requests ahead, then one with a 1ms deadline: by the
  // time a worker reaches it, it has waited >=9ms in the queue.
  std::vector<std::future<Response>> ahead;
  for (int i = 0; i < 4; ++i)
    ahead.push_back(service.submit(plan, {0.5, 0.5}));
  Response resp = service.submit(plan, {0.5, 0.5}, 1.0).get();
  EXPECT_EQ(resp.status, Status::Expired);
  EXPECT_GE(service.stats().expired, 1u);
  for (auto& future : ahead) future.get();
}

TEST(ServeService, DeadlineExpiresDuringExecution) {
  // Regression: deadlines used to be checked only *before* a request ran, so
  // a request whose budget was consumed by its own execution was still
  // fulfilled Ok -- a late answer the deadline-carrying client had already
  // abandoned, and an expiry the serve/expired counter never saw. The fix
  // re-checks immediately before fulfillment.
  //
  // Determinism: the worker is idle, so the queue wait is far below the 6ms
  // deadline and the pre-run check passes; the slow kernel then sleeps 200us
  // for each of the 64 reference points (>=12.8ms per query), so by
  // fulfillment the deadline has deterministically passed.
  ServiceOptions options;
  options.workers = 1;
  PortalService service(options);
  service.publish(make_uniform(64, 2, 3));
  PlanHandle plan = slow_plan(service);

  // Warm the worker (plan state, snapshot load) with no deadline.
  ASSERT_EQ(service.submit(plan, {0.5, 0.5}).get().status, Status::Ok);

  Response resp = service.submit(plan, {0.5, 0.5}, 6.0).get();
  EXPECT_EQ(resp.status, Status::Expired);
  EXPECT_NE(resp.error.find("during execution"), std::string::npos)
      << resp.error;
  EXPECT_GE(resp.latency_ms, 6.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u); // only the warm-up completed
}

TEST(ServeService, CoalescesSamePlanRequests) {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 64;
  PortalService service(options);
  service.publish(make_uniform(16, 2, 3));
  PlanHandle slow = slow_plan(service);
  PlanHandle fast = service.prepare(PortalOp::MIN, PortalFunc::EUCLIDEAN);

  // One slow request occupies the worker while 16 fast requests queue up
  // behind it; the next dequeue coalesces all of them into one batch.
  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(slow, {0.5, 0.5}));
  for (int i = 0; i < 16; ++i)
    futures.push_back(service.submit(fast, {0.25, 0.75}));
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, Status::Ok);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 17u);
  // 17 requests in fewer dequeues than requests proves coalescing happened;
  // exact batch shapes depend on timing.
  EXPECT_LE(stats.batches, 17u);
  EXPECT_GT(stats.mean_batch(), 0.99);
}

TEST(ServeService, CoalescedBatchAnswersEachRequestBitwise) {
  // Requests for distinct points queue behind a slow one and are coalesced
  // into one batch; each must still answer bitwise like the brute-force scan
  // of the view it was served at, for a pruned (k-NN) and an unpruned (KDE)
  // plan alike.
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 64;
  options.capture_view = true;
  PortalService service(options);
  const Dataset data = make_gaussian_mixture(200, 3, 3, 41);
  service.publish(data);
  PlanHandle slow = slow_plan(service);
  const PlanHandle knn =
      service.prepare({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN);
  const PlanHandle kde = service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.7));

  const Dataset queries = make_gaussian_mixture(12, 3, 3, 42);
  std::future<Response> held = service.submit(slow, {0.5, 0.5, 0.5});
  std::vector<std::pair<PlanHandle, std::vector<real_t>>> requests;
  std::vector<std::future<Response>> futures;
  for (const PlanHandle& plan : {knn, kde}) {
    for (index_t i = 0; i < queries.size(); ++i) {
      requests.emplace_back(plan, query_point(queries, i));
      futures.push_back(service.submit(plan, requests.back().second));
    }
  }
  EXPECT_EQ(held.get().status, Status::Ok);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const Response resp = futures[i].get();
    ASSERT_EQ(resp.status, Status::Ok) << resp.error;
    ASSERT_TRUE(resp.view);
    expect_bitwise(resp.result,
                   run_query_bruteforce(*requests[i].first, *resp.view,
                                        requests[i].second.data()));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, futures.size() + 1);
  EXPECT_LT(stats.batches, stats.completed);
}

TEST(ServeService, EngineErrorFailsOnlyItsOwnRequest) {
  // Every request of a coalesced batch runs its own descent, so a kernel
  // that throws for one query point fails that request alone; its
  // batch-mates (same plan, same pinned view) still answer Ok.
  ServiceOptions options;
  options.workers = 1;
  PortalService service(options);
  service.publish(make_uniform(16, 2, 3));
  PlanHandle slow = slow_plan(service);
  LayerSpec inner;
  inner.op = PortalOp::SUM;
  inner.external = [](const real_t* q, const real_t* r, index_t dim) {
    if (q[0] < 0) throw std::runtime_error("kernel rejects negative queries");
    real_t sum = 0;
    for (index_t d = 0; d < dim; ++d) sum += (q[d] - r[d]) * (q[d] - r[d]);
    return sum;
  };
  inner.external_label = "picky_kernel";
  PlanHandle picky = service.prepare(std::move(inner));

  // The slow request holds the worker while the others queue behind it.
  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(slow, {0.5, 0.5}));
  for (int i = 0; i < 8; ++i)
    futures.push_back(
        service.submit(picky, {i == 3 ? real_t(-0.5) : real_t(0.5), 0.5}));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response resp = futures[i].get();
    if (i == 4) {
      EXPECT_EQ(resp.status, Status::Error);
      EXPECT_NE(resp.error.find("negative"), std::string::npos) << resp.error;
    } else {
      EXPECT_EQ(resp.status, Status::Ok) << "request " << i << ": " << resp.error;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.completed, 8u);
}

// ---------------------------------------------------------------------------
// Concurrent stress: mixed workload, tolerance zero
// ---------------------------------------------------------------------------

TEST(ServeStress, MixedWorkloadMatchesBruteForce) {
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 4096;
  PortalService service(options);
  const Dataset reference = make_gaussian_mixture(400, 3, 3, 31);
  service.publish(reference);
  const auto snap = service.snapshot();

  const std::vector<PlanHandle> plans = {
      service.prepare({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN), // k-NN
      service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.6)),      // KDE
      service.prepare(PortalOp::UNION, PortalFunc::indicator(0, 1.0)), // range
      service.prepare(PortalOp::MIN, PortalFunc::MANHATTAN),
  };

  constexpr int kClients = 6, kPerClient = 30;
  std::atomic<int> mismatches{0}, not_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const PlanHandle& plan =
            plans[static_cast<std::size_t>((c + i) % plans.size())];
        const std::vector<real_t> pt =
            query_point(reference, (c * kPerClient + i) % reference.size());
        Response resp = service.submit(plan, pt).get();
        if (resp.status != Status::Ok) {
          not_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const QueryResult oracle =
            run_query_bruteforce(*plan, *snap, pt.data());
        bool same = resp.result.values.size() == oracle.values.size() &&
                    resp.result.ids.size() == oracle.ids.size();
        for (std::size_t v = 0; same && v < oracle.values.size(); ++v)
          same = resp.result.values[v] == oracle.values[v] ||
                 (std::isnan(resp.result.values[v]) &&
                  std::isnan(oracle.values[v]));
        for (std::size_t v = 0; same && v < oracle.ids.size(); ++v)
          same = resp.result.ids[v] == oracle.ids[v];
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& client : clients) client.join();

  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(stats.plan_cache.misses, plans.size());
}

TEST(ServeStress, PublishRacingQueriesServesExactlyOneEpoch) {
  ServiceOptions options;
  options.workers = 3;
  options.queue_capacity = 4096;
  PortalService service(options);
  // Epoch -> snapshot ledger, shared between the publisher and the clients.
  // A worker can answer on epoch e before the publisher's publish() call
  // returns and records e here, so readers lock and retry rather than
  // assuming the ledger is already caught up.
  std::mutex epochs_mutex;
  std::map<std::uint64_t, std::shared_ptr<const TreeSnapshot>> epochs;
  {
    std::lock_guard<std::mutex> lock(epochs_mutex);
    epochs[1] = service.publish(make_gaussian_mixture(300, 3, 2, 1));
  }
  const auto pinned_epoch = [&](std::uint64_t e) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(epochs_mutex);
        const auto it = epochs.find(e);
        if (it != epochs.end()) return it->second;
      }
      std::this_thread::yield();
    }
  };
  PlanHandle plan = service.prepare({PortalOp::KARGMIN, 4},
                                    PortalFunc::EUCLIDEAN);

  std::atomic<bool> stop_publishing{false};
  std::thread publisher([&] {
    for (std::uint64_t e = 2; e <= 6; ++e) {
      auto snap = service.publish(
          make_gaussian_mixture(300 + 10 * static_cast<index_t>(e), 3, 2,
                                static_cast<std::uint64_t>(e)));
      {
        std::lock_guard<std::mutex> lock(epochs_mutex);
        epochs[e] = std::move(snap);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop_publishing.store(true, std::memory_order_release);
  });

  // Clients submit while the publisher swaps snapshots underneath them;
  // every response must be internally consistent with the single epoch it
  // reports (verified against that epoch's pinned oracle).
  std::atomic<int> mismatches{0}, not_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c)
    clients.emplace_back([&, c] {
      std::uint64_t i = 0;
      while (!stop_publishing.load(std::memory_order_acquire) || i < 20) {
        std::vector<real_t> pt = {static_cast<real_t>(c) * 0.1 +
                                      static_cast<real_t>(i % 7) * 0.3,
                                  0.4, -0.2};
        Response resp = service.submit(plan, pt).get();
        ++i;
        if (resp.status != Status::Ok) {
          not_ok.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (resp.epoch == 0 || resp.epoch > 6) {
          // Clients can only be answered on an epoch the slot published.
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const QueryResult oracle =
            run_query_bruteforce(*plan, *pinned_epoch(resp.epoch), pt.data());
        bool same = resp.result.values == oracle.values &&
                    resp.result.ids == oracle.ids;
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  publisher.join();
  for (auto& client : clients) client.join();

  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.stats().epoch, 6u);
}

// ---------------------------------------------------------------------------
// Executor reentrancy (the PR's small-fix satellite)
// ---------------------------------------------------------------------------

TEST(ExecutorReentrancy, SharedTreeCacheConcurrentGet) {
  // Regression: TreeCache::get used to mutate its map unlocked, so two
  // threads executing the same cached plan raced on the tree cache. The
  // serving workers share one cache, making this path hot.
  const Dataset a = make_uniform(2000, 3, 1);
  const Dataset b = make_uniform(1500, 3, 2);
  Storage sa(a), sb(b);
  TreeCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const KdTree>> trees(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const Storage& storage = (t % 2 == 0) ? sa : sb;
      for (int i = 0; i < 16; ++i)
        trees[static_cast<std::size_t>(t)] = cache.get(storage, 32);
    });
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(trees[static_cast<std::size_t>(t)], nullptr);
    EXPECT_EQ(trees[static_cast<std::size_t>(t)]->data().size(),
              (t % 2 == 0) ? 2000 : 1500);
  }
  // Steady state: both storages resolve to one cached tree each.
  EXPECT_EQ(cache.get(sa, 32).get(), trees[0].get());
  EXPECT_EQ(cache.get(sb, 32).get(), trees[1].get());
}

// ---------------------------------------------------------------------------
// Live ingestion through the service (serve/live.h): the insert/remove
// endpoints, merge behavior under the scheduler, and the concurrent
// write/read wall -- N writers and M readers against one PortalService, with
// every Ok read replayed bitwise against the brute-force oracle over the
// exact point-set its pinned (epoch, watermark) view names.
// ---------------------------------------------------------------------------

TEST(ServeIngest, EndpointsMutateAndReport) {
  ServiceOptions options;
  options.workers = 1;
  options.delta_capacity = 32;
  options.merge_threshold = 32;
  options.background_merge = false;
  PortalService service(options);

  const Dataset data = make_uniform(50, 3, 21);
  // Ingest before publish is admission-rejected, mirroring submit().
  EXPECT_EQ(service.insert({1.0, 2.0, 3.0}).status,
            serve::IngestStatus::Rejected);
  service.publish(data);

  const auto ins = service.insert({0.5, 0.5, 0.5});
  ASSERT_EQ(ins.status, serve::IngestStatus::Ok);
  EXPECT_EQ(ins.seq, 1u);
  EXPECT_EQ(ins.id, 50);
  EXPECT_EQ(service.remove({0.5, 0.5, 0.5}).status, serve::IngestStatus::Ok);
  EXPECT_EQ(service.remove({0.5, 0.5, 0.5}).status,
            serve::IngestStatus::NotFound);

  const auto stats = service.stats();
  EXPECT_EQ(stats.ingest.inserts, 1u);
  EXPECT_EQ(stats.ingest.removes, 1u);
  EXPECT_EQ(stats.ingest.remove_misses, 1u);
  EXPECT_EQ(stats.ingest.watermark, 2u);

  // Served answers carry the (epoch, watermark) they are attributable to.
  const PlanHandle plan =
      service.prepare({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN);
  const Response resp =
      service.submit(plan, query_point(data, 0)).get();
  ASSERT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.watermark, 2u);
  EXPECT_EQ(resp.view, nullptr); // capture_view off by default
}

TEST(ServeIngest, InsertedPointsAnswerQueriesThroughTheScheduler) {
  ServiceOptions options;
  options.workers = 2;
  options.delta_capacity = 64;
  options.merge_threshold = 64;
  options.background_merge = false;
  options.capture_view = true;
  PortalService service(options);
  const Dataset data = make_uniform(80, 3, 22);
  service.publish(data);
  const PlanHandle plan =
      service.prepare({PortalOp::KARGMIN, 2}, PortalFunc::EUCLIDEAN);

  const Dataset extra = make_uniform(10, 3, 23);
  for (index_t i = 0; i < extra.size(); ++i) {
    std::vector<real_t> pt(3);
    for (index_t d = 0; d < 3; ++d) pt[d] = extra.coord(i, d);
    const auto ins = service.insert(pt);
    ASSERT_EQ(ins.status, serve::IngestStatus::Ok);
    // A query at the inserted point finds it at distance exactly zero,
    // reported under its client id, and replays bitwise against the
    // oracle on the response's own pinned view.
    const Response resp = service.submit(plan, pt).get();
    ASSERT_EQ(resp.status, Status::Ok);
    ASSERT_TRUE(resp.view);
    EXPECT_GE(resp.watermark, ins.seq);
    expect_bitwise(resp.result,
                   run_query_bruteforce(*plan, *resp.view, pt.data()));
    EXPECT_EQ(resp.result.values[0], 0.0);
    EXPECT_EQ(resp.result.ids[0], ins.id);
  }
  service.stop();
  EXPECT_EQ(service.stats().errors, 0u);
}

/// The concurrent write/read wall. kWriters threads stream inserts and
/// removals of their own points while kReaders threads submit queries across
/// several plans; the delta is small enough that the background merger
/// publishes several epochs mid-flight. Every Ok response must replay
/// *bitwise* against run_query_bruteforce over the exact point-set its
/// pinned view names -- a torn read (main tree from epoch N, delta from
/// N+1), a lost insert, or a resurrected tombstone all break equality.
TEST(ServeIngest, ConcurrentWritersAndReadersBitwiseAtPinnedViews) {
  constexpr int kWriters = 2, kReaders = 2;
  constexpr index_t kPerWriter = 120;
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4096;
  options.block_on_full = true;
  options.delta_capacity = 96;
  options.merge_threshold = 24; // several merge publishes over the run
  options.background_merge = true;
  options.capture_view = true;
  PortalService service(options);
  const Dataset data = make_uniform(300, 3, 24);
  service.publish(data);

  std::vector<PlanHandle> plans;
  plans.push_back(
      service.prepare({PortalOp::KARGMIN, 4}, PortalFunc::EUCLIDEAN));
  plans.push_back(service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.8)));
  plans.push_back(
      service.prepare(PortalOp::UNIONARG, PortalFunc::indicator(1e-9, 0.9)));

  std::atomic<int> write_failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Each writer streams its own point set (distinct seeds make cross-
      // writer coordinate collisions measure-zero) and removes every third
      // point it inserted, so merges see both slot kills and re-homed
      // tombstones.
      const Dataset mine = make_uniform(kPerWriter, 3, 1000 + w);
      for (index_t i = 0; i < mine.size(); ++i) {
        std::vector<real_t> pt(3);
        for (index_t d = 0; d < 3; ++d) pt[d] = mine.coord(i, d);
        if (service.insert(pt).status != serve::IngestStatus::Ok)
          write_failures.fetch_add(1);
        if (i % 3 == 2 &&
            service.remove(pt).status != serve::IngestStatus::Ok)
          write_failures.fetch_add(1);
      }
    });
  }

  std::atomic<int> reader_mismatches{0};
  std::atomic<int> not_ok{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // A fixed read budget (not "until the writers finish"): under a
      // sanitizer the writers may be slow or fast, but every reader always
      // overlaps real ingest traffic and always exercises the oracle.
      constexpr std::size_t kReads = 90;
      const Dataset probes = make_uniform(24, 3, 2000 + r);
      std::size_t p = 0;
      std::uint64_t last_mark = 0;
      while (p < kReads) {
        const PlanHandle& plan = plans[p % plans.size()];
        std::vector<real_t> pt(3);
        for (index_t d = 0; d < 3; ++d)
          pt[d] = probes.coord(static_cast<index_t>(p % 24), d);
        ++p;
        const Response resp = service.submit(plan, pt).get();
        if (resp.status != Status::Ok) {
          not_ok.fetch_add(1);
          continue;
        }
        reads.fetch_add(1);
        if (!resp.view || resp.view->epoch() != resp.epoch ||
            resp.view->watermark != resp.watermark ||
            resp.watermark < last_mark) {
          reader_mismatches.fetch_add(1);
          continue;
        }
        last_mark = resp.watermark;
        const QueryResult oracle =
            run_query_bruteforce(*plan, *resp.view, pt.data());
        if (resp.result.values.size() != oracle.values.size() ||
            resp.result.ids.size() != oracle.ids.size()) {
          reader_mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t v = 0; v < oracle.values.size(); ++v) {
          const bool same =
              std::isnan(oracle.values[v])
                  ? std::isnan(resp.result.values[v])
                  : resp.result.values[v] == oracle.values[v];
          if (!same) reader_mismatches.fetch_add(1);
        }
        for (std::size_t v = 0; v < oracle.ids.size(); ++v)
          if (resp.result.ids[v] != oracle.ids[v])
            reader_mismatches.fetch_add(1);
      }
    });
  }

  for (std::thread& w : writers) w.join();
  for (std::thread& r : readers) r.join();
  service.stop();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(reader_mismatches.load(), 0);
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.ingest.inserts,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(stats.ingest.removes,
            static_cast<std::uint64_t>(kWriters) * (kPerWriter / 3));
  EXPECT_EQ(stats.ingest.rejected, 0u);
  EXPECT_GE(stats.ingest.merges, 1u); // the merger actually ran mid-flight
  EXPECT_EQ(stats.errors, 0u);

  // Ground truth: after a final drain-merge the store holds exactly the
  // union every writer left behind.
  service.merge_now();
  const auto view = service.view();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->live_size(),
            300 + kWriters * (kPerWriter - kPerWriter / 3));
}

// The warm-start wall (DESIGN.md Sec. 17): two PortalService lifecycles over
// the same jit_cache_dir. The first pays one compiler invocation per distinct
// plan and publishes the artifacts; the second -- a restarted server -- must
// answer bitwise-identically with ZERO compiler invocations, asserted through
// the jit/artifact/* counters.
TEST(ServeService, JitWarmStartsWithZeroCompiles) {
  if (!jit_available()) GTEST_SKIP() << "no system compiler";
  std::string cache_dir;
  {
    char tpl[] = "/tmp/portal_serve_cache_XXXXXX";
    ASSERT_NE(mkdtemp(tpl), nullptr);
    cache_dir = tpl;
  }
  const Dataset reference = make_gaussian_mixture(400, 3, 3, 20260807);

  obs::set_enabled(true);
  struct Run {
    std::vector<QueryResult> kde, knn;
    std::uint64_t compiles = 0, hits = 0;
  };
  const auto lifecycle = [&](Run* run) {
    obs::reset();
    ServiceOptions options;
    options.workers = 2;
    options.jit = true;
    options.jit_cache_dir = cache_dir;
    PortalService service(options);
    service.publish(reference);
    PlanHandle kde = service.prepare(PortalOp::SUM, PortalFunc::gaussian(0.7));
    PlanHandle knn =
        service.prepare({PortalOp::KARGMIN, 4}, PortalFunc::EUCLIDEAN);
    ASSERT_TRUE(kde);
    ASSERT_TRUE(knn);
    // JIT serving attached fused entry points: the non-identity Gaussian
    // envelope gets the specialized metric+envelope tile loop.
    EXPECT_NE(kde->jit, nullptr);
    EXPECT_TRUE(kde->eval.leaf_values);
    EXPECT_NE(knn->jit, nullptr);

    std::vector<std::future<Response>> futures;
    for (index_t i = 0; i < 16; ++i)
      futures.push_back(service.submit(kde, query_point(reference, i)));
    for (index_t i = 0; i < 16; ++i)
      futures.push_back(service.submit(knn, query_point(reference, i)));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      Response resp = futures[i].get();
      ASSERT_EQ(resp.status, Status::Ok) << resp.error;
      (i < 16 ? run->kde : run->knn).push_back(std::move(resp.result));
    }
    service.stop();
    const obs::TraceReport report = obs::collect();
    run->compiles = report.counter("jit/artifact/compiles");
    run->hits = report.counter("jit/artifact/hits");
  };

  Run cold, warm;
  lifecycle(&cold);
  EXPECT_EQ(cold.compiles, 2u) << "one compiler invocation per distinct plan";
  EXPECT_EQ(cold.hits, 0u);

  lifecycle(&warm); // the restarted server
  EXPECT_EQ(warm.compiles, 0u)
      << "warm start must not invoke the compiler at all";
  EXPECT_EQ(warm.hits, 2u);
  obs::set_enabled(false);

  // Bitwise-equal answers at the pinned view: the cached machine code is the
  // same bytes, so every value and id matches exactly.
  ASSERT_EQ(cold.kde.size(), warm.kde.size());
  for (std::size_t i = 0; i < cold.kde.size(); ++i)
    expect_bitwise(warm.kde[i], cold.kde[i]);
  ASSERT_EQ(cold.knn.size(), warm.knn.size());
  for (std::size_t i = 0; i < cold.knn.size(); ++i)
    expect_bitwise(warm.knn[i], cold.knn[i]);

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

} // namespace
} // namespace portal
