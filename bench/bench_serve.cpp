// Serving-runtime benchmark: a closed-loop client fleet drives PortalService
// with a repeat-query workload (the plan cache's sweet spot) and reports
// sustained QPS, latency quantiles, and the cache hit rate. The run is split
// into a warmup phase (compiles the mix's plans, fills caches, settles the
// workers) and a measured phase; only the measured phase feeds the report.
//
// Acceptance gate (ISSUE PR-5): after warmup the plan-cache hit rate over the
// measured phase must exceed 99% -- every request re-resolves its chain
// through the cache the way a serving frontend would, so a sub-99% rate
// means the descriptor fast path broke. The process exits non-zero on that
// regression so CI catches it.
//
// JSON rows (portal-bench-v1, --json=FILE): per-mix QPS, p50/p95/p99/mean
// latency, hit rate, and mean batch size.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "data/generators.h"
#include "serve/engine.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "tree/snapshot.h"

using namespace portal;
using namespace portal::bench;

namespace {

struct MixEntry {
  const char* name;
  LayerSpec inner;
};

struct RunResult {
  double qps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, mean_ms = 0;
  double hit_rate = 0;
  double mean_batch = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
};

RunResult drive(serve::PortalService& service, const std::vector<MixEntry>& mix,
                const Dataset& reference, int clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> fleet;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c)
    fleet.emplace_back([&, c] {
      std::uint64_t state = 0x2545f4914f6cdd1dull * (c + 1) + 11;
      const auto next = [&state] {
        state ^= state << 13; state ^= state >> 7; state ^= state << 17;
        return state;
      };
      std::vector<real_t> point(static_cast<std::size_t>(reference.dim()));
      while (!stop.load(std::memory_order_acquire)) {
        const serve::PlanHandle plan =
            service.prepare(mix[next() % mix.size()].inner);
        const index_t base = static_cast<index_t>(
            next() % static_cast<std::uint64_t>(reference.size()));
        for (index_t d = 0; d < reference.dim(); ++d)
          point[static_cast<std::size_t>(d)] =
              reference.coord(base, d) +
              static_cast<real_t>(next() % 1000) * 1e-4;
        const serve::Response resp = service.submit(plan, point).get();
        (resp.status == serve::Status::Ok ? ok : failed)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long long>(seconds * 1e3)));
  stop.store(true, std::memory_order_release);
  for (auto& client : fleet) client.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServiceStats stats = service.stats();
  const obs::LatencyHistogram::Snapshot lat = service.latency();
  RunResult result;
  result.requests = ok.load();
  result.failed = failed.load();
  result.qps = static_cast<double>(ok.load()) / elapsed;
  result.p50_ms = lat.quantile(0.50) * 1e3;
  result.p95_ms = lat.quantile(0.95) * 1e3;
  result.p99_ms = lat.quantile(0.99) * 1e3;
  result.mean_ms = lat.mean_seconds() * 1e3;
  result.hit_rate = stats.plan_cache.hit_rate();
  result.mean_batch = stats.mean_batch();
  return result;
}

} // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonReport::extract_json_path(&argc, argv);
  JsonReport json;
  print_header("Serving runtime -- sustained repeat-query workload");

  const double scale = bench_scale_from_env();
  const index_t n = std::max<index_t>(2000, static_cast<index_t>(100000 * scale));
  const int clients = 8;
  const double warmup_s = std::min(1.0, 0.2 + scale);
  const double measure_s = std::min(4.0, 0.5 + 3 * scale);
  const Dataset reference = make_gaussian_mixture(n, 3, 5, 20260806);

  std::vector<MixEntry> mixes;
  {
    MixEntry knn{"knn", {}};
    knn.inner.op = {PortalOp::KARGMIN, 5};
    knn.inner.func = PortalFunc::EUCLIDEAN;
    MixEntry kde{"kde", {}};
    kde.inner.op = PortalOp::SUM;
    kde.inner.func = PortalFunc::gaussian(0.5);
    MixEntry rs{"rs", {}};
    rs.inner.op = PortalOp::UNION;
    rs.inner.func = PortalFunc::indicator(0, 0.5);
    mixes.push_back(knn);
    mixes.push_back(kde);
    mixes.push_back(rs);
  }

  bool gate_ok = true;
  print_row({"mix", "QPS", "p50 ms", "p95 ms", "p99 ms", "hit rate", "batch"});
  for (std::size_t subset : {std::size_t{1}, mixes.size()}) {
    const std::vector<MixEntry> mix(mixes.begin(),
                                    mixes.begin() +
                                        static_cast<std::ptrdiff_t>(subset));
    const std::string label = subset == 1 ? "knn-only" : "knn+kde+rs";
    serve::ServiceOptions options;
    options.workers = 4;
    options.queue_capacity = 4096;
    options.block_on_full = true;
    serve::PortalService service(options);
    service.publish(reference);

    // Warmup: compile every plan in the mix and let the workers settle.
    // Not measured, not part of the hit-rate gate.
    drive(service, mix, reference, clients, warmup_s);
    // stats() carries over; measure the deltas of the sustained phase.
    const serve::ServiceStats before = service.stats();
    const RunResult run = drive(service, mix, reference, clients, measure_s);
    const serve::ServiceStats after = service.stats();
    const double measured_hits = static_cast<double>(after.plan_cache.hits -
                                                     before.plan_cache.hits);
    const double measured_misses = static_cast<double>(
        after.plan_cache.misses - before.plan_cache.misses);
    const double hit_rate =
        measured_hits / std::max(1.0, measured_hits + measured_misses);

    print_row({label, fmt(run.qps, "%.0f"), fmt(run.p50_ms), fmt(run.p95_ms),
               fmt(run.p99_ms), fmt(hit_rate * 100, "%.2f%%"),
               fmt(run.mean_batch, "%.2f")});
    if (run.failed != 0) {
      std::printf("  !! %llu requests failed\n",
                  static_cast<unsigned long long>(run.failed));
      gate_ok = false;
    }
    if (hit_rate <= 0.99) {
      std::printf("  !! plan-cache hit rate %.4f <= 0.99 after warmup\n",
                  hit_rate);
      gate_ok = false;
    }

    json.add("serve/" + label, "qps", run.qps, "1/s");
    json.add("serve/" + label, "latency_p50", run.p50_ms * 1e-3);
    json.add("serve/" + label, "latency_p95", run.p95_ms * 1e-3);
    json.add("serve/" + label, "latency_p99", run.p99_ms * 1e-3);
    json.add("serve/" + label, "latency_mean", run.mean_ms * 1e-3);
    json.add("serve/" + label, "plan_cache_hit_rate", hit_rate, "ratio");
    json.add("serve/" + label, "mean_batch", run.mean_batch, "requests");
    service.stop();
  }

  // --- live ingestion: sustained writes against the delta tree while a
  // --- reader fleet keeps querying (ISSUE PR-8). Writers self-pace through
  // --- ingest admission control (a full delta blocks the insert until the
  // --- background merger frees it), so writes/s is the *sustainable* rate,
  // --- merges included -- not a burst into an unbounded buffer. The gate:
  // --- no read failures and no rejected writes; read p99 under write load
  // --- lands in the JSON next to the read-only p99 above.
  {
    print_header("Serving runtime -- live ingestion under concurrent reads");
    serve::ServiceOptions options;
    options.workers = 4;
    options.queue_capacity = 4096;
    options.block_on_full = true;
    options.delta_capacity = std::max<index_t>(4096, n / 8);
    options.merge_threshold = options.delta_capacity / 4;
    options.ingest_wait_ms = 2000;
    serve::PortalService service(options);
    service.publish(reference);

    std::atomic<bool> wstop{false};
    std::atomic<std::uint64_t> writes{0}, removes{0}, write_rejects{0};
    std::vector<std::thread> writers;
    const auto wt0 = std::chrono::steady_clock::now();
    for (int w = 0; w < 2; ++w)
      writers.emplace_back([&, w] {
        std::uint64_t state = 0x9e3779b97f4a7c15ull * (w + 1) + 7;
        const auto next = [&state] {
          state ^= state << 13; state ^= state >> 7; state ^= state << 17;
          return state;
        };
        std::vector<real_t> point(static_cast<std::size_t>(reference.dim()));
        while (!wstop.load(std::memory_order_acquire)) {
          const index_t base = static_cast<index_t>(
              next() % static_cast<std::uint64_t>(reference.size()));
          for (index_t d = 0; d < reference.dim(); ++d)
            point[static_cast<std::size_t>(d)] =
                reference.coord(base, d) +
                static_cast<real_t>(next() % 100000) * 1e-7;
          if (service.insert(point).status == serve::IngestStatus::Ok) {
            writes.fetch_add(1, std::memory_order_relaxed);
            // Every fourth point is taken back out: merges see slot kills
            // and re-homed tombstones, and the live set grows slowly enough
            // that merge cost stays representative across the run.
            if (next() % 4 == 0 &&
                service.remove(point).status == serve::IngestStatus::Ok)
              removes.fetch_add(1, std::memory_order_relaxed);
          } else {
            write_rejects.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });

    const std::vector<MixEntry> mix(mixes.begin(), mixes.begin() + 1);
    drive(service, mix, reference, clients, warmup_s);
    const RunResult run = drive(service, mix, reference, clients, measure_s);
    wstop.store(true, std::memory_order_release);
    for (auto& writer : writers) writer.join();
    const double welapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wt0)
            .count();
    const serve::ServiceStats stats = service.stats();
    service.stop();

    const double writes_per_s =
        static_cast<double>(writes.load() + removes.load()) / welapsed;
    print_row({"metric", "writes/s", "read QPS", "read p99 ms", "merges",
               "live pts"});
    print_row({"ingest", fmt(writes_per_s, "%.0f"), fmt(run.qps, "%.0f"),
               fmt(run.p99_ms),
               fmt(static_cast<double>(stats.ingest.merges), "%.0f"),
               fmt(static_cast<double>(stats.ingest.delta_count +
                                       stats.ingest.merged_points),
                   "%.0f")});
    if (run.failed != 0 || write_rejects.load() != 0) {
      std::printf("  !! %llu reads failed, %llu writes rejected under load\n",
                  static_cast<unsigned long long>(run.failed),
                  static_cast<unsigned long long>(write_rejects.load()));
      gate_ok = false;
    }
    json.add("serve/ingest", "writes_per_s", writes_per_s, "1/s");
    json.add("serve/ingest", "read_qps", run.qps, "1/s");
    json.add("serve/ingest", "read_latency_p50", run.p50_ms * 1e-3);
    json.add("serve/ingest", "read_latency_p99", run.p99_ms * 1e-3);
    json.add("serve/ingest", "merges",
             static_cast<double>(stats.ingest.merges), "count");
    json.add("serve/ingest", "merged_points",
             static_cast<double>(stats.ingest.merged_points), "count");
  }

  // --- approximate high-dimensional serving (ISSUE PR-10): the nn-descent
  // --- graph index (src/index, DESIGN.md Sec. 18) vs the exact tree descent
  // --- at d = 32, measured at the engine level so recall and per-query
  // --- latency are clean of scheduler noise. Both paths answer through the
  // --- SAME compiled plan -- approx/beam-width are runtime knobs. Gates:
  // --- recall@10 at the default beam width (64) must hold 0.9 at any scale;
  // --- the latency win over the exact path is gated only at full scale
  // --- (a smoke-sized dataset fits in a handful of leaves, where the exact
  // --- descent is already near-free and the graph has nothing to skip).
  {
    print_header("Serving runtime -- approximate high-dimensional k-NN");
    const index_t ann_n =
        std::max<index_t>(4000, static_cast<index_t>(60000 * scale));
    const index_t ann_dim = 32;
    const index_t ann_k = 10;
    const Dataset highd = make_gaussian_mixture(ann_n, ann_dim, 8, 20260807);

    SnapshotOptions sopts;
    sopts.build_graph = true;
    const auto snapshot = TreeSnapshot::build(
        std::make_shared<const Dataset>(highd), 1, sopts);
    const double graph_build_s = snapshot->graph()->stats().build_seconds;

    LayerSpec knn;
    knn.op = OpSpec(PortalOp::KARGMIN, ann_k);
    knn.func = PortalFunc::EUCLIDEAN;
    serve::PlanCache ann_cache;
    const serve::PlanHandle plan =
        ann_cache.get_or_compile(knn, highd, PortalConfig{});

    const int nq = 200;
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    const auto next = [&state] {
      state ^= state << 13; state ^= state >> 7; state ^= state << 17;
      return state;
    };
    std::vector<std::vector<real_t>> queries;
    for (int q = 0; q < nq; ++q) {
      std::vector<real_t> pt(static_cast<std::size_t>(ann_dim));
      const index_t base = static_cast<index_t>(
          next() % static_cast<std::uint64_t>(ann_n));
      for (index_t d = 0; d < ann_dim; ++d)
        pt[static_cast<std::size_t>(d)] =
            highd.coord(base, d) + static_cast<real_t>(next() % 1000) * 1e-4;
      queries.push_back(std::move(pt));
    }

    serve::Workspace ws;
    std::vector<std::vector<index_t>> exact_ids;
    auto t0 = std::chrono::steady_clock::now();
    for (const std::vector<real_t>& pt : queries) {
      const serve::QueryResult r =
          serve::run_query(*plan, *snapshot, pt.data(), {}, ws);
      exact_ids.push_back(r.ids);
    }
    const double exact_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double exact_qps = nq / exact_s;

    print_row({"path", "QPS", "mean ms", "recall@10"});
    print_row({"exact-tree", fmt(exact_qps, "%.0f"),
               fmt(exact_s * 1e3 / nq, "%.4f"), "1.000"});
    json.add("serve/ann", "points", static_cast<double>(ann_n), "count");
    json.add("serve/ann", "dim", static_cast<double>(ann_dim), "count");
    json.add("serve/ann", "graph_build_seconds", graph_build_s);
    json.add("serve/ann", "exact_qps", exact_qps, "1/s");
    json.add("serve/ann", "exact_latency_mean", exact_s / nq);

    double default_recall = 0;
    double best_approx_qps = 0;
    for (const index_t beam : {index_t{16}, index_t{32}, index_t{64}}) {
      serve::EngineOptions aopt;
      aopt.approx = true;
      aopt.beam_width = beam;
      std::uint64_t hits = 0;
      t0 = std::chrono::steady_clock::now();
      for (int q = 0; q < nq; ++q) {
        const serve::QueryResult r = serve::run_query(
            *plan, *snapshot, queries[static_cast<std::size_t>(q)].data(),
            aopt, ws);
        for (const index_t id : r.ids)
          if (std::find(exact_ids[static_cast<std::size_t>(q)].begin(),
                        exact_ids[static_cast<std::size_t>(q)].end(),
                        id) != exact_ids[static_cast<std::size_t>(q)].end())
            ++hits;
      }
      const double approx_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double qps = nq / approx_s;
      const double recall = static_cast<double>(hits) /
                            static_cast<double>(nq * ann_k);
      best_approx_qps = std::max(best_approx_qps, qps);
      if (beam == 64) default_recall = recall;
      const std::string suffix = "_beam" + std::to_string(beam);
      print_row({"graph-beam" + std::to_string(beam), fmt(qps, "%.0f"),
                 fmt(approx_s * 1e3 / nq, "%.4f"), fmt(recall, "%.3f")});
      json.add("serve/ann", "qps" + suffix, qps, "1/s");
      json.add("serve/ann", "latency_mean" + suffix, approx_s / nq);
      json.add("serve/ann", "recall_at_10" + suffix, recall, "ratio");
    }
    json.add("serve/ann", "recall_at_10", default_recall, "ratio");
    json.add("serve/ann", "graph_speedup_vs_exact",
             best_approx_qps / exact_qps, "ratio");
    std::printf("graph build %.3fs | best graph path %.2fx exact QPS\n",
                graph_build_s, best_approx_qps / exact_qps);

    if (default_recall < 0.9) {
      std::printf("  !! recall@10 %.4f < 0.9 at default beam width 64\n",
                  default_recall);
      gate_ok = false;
    }
    // Latency-win gate, full scale only (see the comment block above).
    if (ann_n >= 20000 && best_approx_qps <= exact_qps) {
      std::printf("  !! graph path (%.0f QPS) not beating exact tree descent "
                  "(%.0f QPS) at n=%lld d=%lld\n",
                  best_approx_qps, exact_qps, static_cast<long long>(ann_n),
                  static_cast<long long>(ann_dim));
      gate_ok = false;
    }
  }

  if (!json_path.empty()) json.write(json_path);
  if (!gate_ok) {
    std::printf("\nFAIL: serving acceptance gate\n");
    return 1;
  }
  std::printf("\nOK: hit rate > 99%% after warmup on every mix\n");
  return 0;
}
