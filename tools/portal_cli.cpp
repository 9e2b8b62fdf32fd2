// portal_cli -- run Portal N-body programs from the command line.
//
//   portal_cli <problem> [options]
//
// Problems:
//   run FILE.portal                                    run a Portal script
//                                                      (paper Appendix VIII)
//   verify FILE.portal                                 compile + IR-verify a
//                                                      script and dump the
//                                                      diagnostic report
//   lint FILE.portal [--json] [--werror]               compile a script and
//                                                      report PTL-Wxxx lint
//                                                      findings (human text,
//                                                      or stable JSON for CI)
//   knn        --query F --reference F --k K           k-nearest neighbors
//   kde        --query F --reference F --sigma S       Gaussian density sums
//   rs         --query F --reference F --lo A --hi B   range search
//   twopoint   --data F --h H                          2-point correlation
//   threepoint --data F --h H                          3-point correlation
//   hausdorff  --a F --b F                             directed + symmetric
//   emst       --data F                                Euclidean MST
//   bh         --data F --theta T [--masses F]         Barnes-Hut forces
//
// Shared options:
//   --out FILE       write the result as CSV (problem-shaped rows)
//   --leaf N         kd-tree leaf size (0 = auto-tune)
//   --tau T          approximation threshold (KDE)
//   --engine E       auto | pattern | jit | vm
//   --validate       cross-check against the brute-force program
//   --demo N[,DIM]   generate N clustered points instead of reading CSVs
//   --serial         disable OpenMP
//   --verify         print the per-stage IR verification report (the
//                    -verify-each sandwich runs by default; --no-verify-ir
//                    disables it)
//   --trace[=FILE]   enable pipeline tracing: print the timer/counter table
//                    after the run; with =FILE also write a Chrome
//                    chrome://tracing / Perfetto JSON trace there
//                    (PORTAL_TRACE=FILE does the same without the flag)
//
// Exit-code contract (documented in docs/DIAGNOSTICS.md, relied on by CI):
//   0  success (lint/verify: clean, or warnings without --werror)
//   1  usage errors
//   2  hard errors (execution failures, IR verification PTL-E errors)
//   3  warnings promoted by --werror (lint and verify modes): lets CI gate
//      on warnings without conflating them with verifier failures.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/codegen/artifact_cache.h"
#include "core/parser.h"
#include "core/portal.h"
#include "core/verify/diagnostics.h"
#include "data/generators.h"
#include "index/knn_graph.h"
#include "obs/trace.h"
#include "problems/common.h"
#include "problems/emst.h"
#include "problems/golden.h"
#include "problems/threepoint.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/threading.h"
#include "util/timer.h"

using namespace portal;

namespace {

struct Args {
  std::string problem;
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
};

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: portal_cli <knn|kde|rs|twopoint|threepoint|hausdorff|"
               "emst|bh> [--query F] [--reference F] [--data F] [--a F] "
               "[--b F]\n"
               "       [--k K] [--sigma S] [--lo A] [--hi B] [--h H] "
               "[--theta T] [--masses F]\n"
               "       [--out FILE] [--leaf N] [--tau T] [--engine E] "
               "[--validate] [--demo N[,DIM]] [--serial] [--verify]\n"
               "       [--trace[=FILE]]\n"
               "       portal_cli serve-bench [--reference F | --demo N[,DIM]]"
               " [--workers W] [--clients C]\n"
               "           [--seconds S] [--mix knn,kde,rs] [--queue N] "
               "[--batch N] [--deadline MS]\n"
               "           [--ingest-writers W] [--delta-capacity N] "
               "[--merge-threshold N]\n"
               "           [--dim D] [--approx] [--beam-width N]   "
               "high-d data + approximate serving\n"
               "       portal_cli index [--reference F | --demo N[,DIM]] "
               "[--dim D] [--degree K]\n"
               "           [--seed S] [--k K] [--beam-width N] [--serial]\n"
               "           build the exact k-NN graph, print build "
               "stats + recall/latency probe\n"
               "       portal_cli run FILE.portal | verify FILE.portal "
               "[--werror]\n"
               "       portal_cli lint FILE.portal [--json] [--werror]\n"
               "       portal_cli cache inspect|purge [--dir D]   JIT artifact"
               " cache (default dir: $PORTAL_JIT_CACHE_DIR)\n"
               "       portal_cli --dump-golden=DIR   regenerate "
               "tests/golden/*.csv\n"
               "       (each subcommand rejects options it does not read)\n");
  std::exit(1);
}

/// The option keys each subcommand reads (--trace, handled in main, is
/// accepted everywhere). Any other key is a usage error, so a misspelt or
/// removed flag fails loudly instead of being silently ignored. Returns
/// nullptr for an unknown subcommand.
const std::set<std::string>* subcommand_keys(const std::string& problem) {
  // config_from() plus the output/dataset/report flags every problem
  // subcommand shares.
  const auto problem_keys = [](std::initializer_list<const char*> own) {
    std::set<std::string> keys = {"out", "leaf", "tau", "theta", "engine",
                                  "demo", "serial", "validate", "verify",
                                  "no-verify-ir"};
    keys.insert(own.begin(), own.end());
    return keys;
  };
  static const std::map<std::string, std::set<std::string>> table = {
      {"knn", problem_keys({"query", "reference", "k"})},
      {"kde", problem_keys({"query", "reference", "sigma"})},
      {"rs", problem_keys({"query", "reference", "lo", "hi"})},
      {"twopoint", problem_keys({"data", "h"})},
      {"threepoint", problem_keys({"data", "h"})},
      {"hausdorff", problem_keys({"a", "b"})},
      {"emst", problem_keys({"data"})},
      {"bh", problem_keys({"data", "masses", "eps"})},
      {"run", {"script", "no-verify-ir", "verify", "out"}},
      {"verify", {"script", "no-verify-ir", "werror"}},
      {"lint", {"script", "no-verify-ir", "json", "werror"}},
      {"serve-bench",
       {"reference", "demo", "dim", "workers", "clients", "seconds", "mix",
        "queue", "batch", "deadline", "tau", "leaf", "ingest-writers",
        "delta-capacity", "merge-threshold", "approx", "beam-width", "k",
        "sigma", "lo", "hi"}},
      {"index",
       {"reference", "demo", "dim", "degree", "seed", "k", "beam-width",
        "serial"}},
      {"cache", {"script", "dir"}},
  };
  const auto it = table.find(problem);
  return it == table.end() ? nullptr : &it->second;
}

Storage load(const Args& args, const std::string& key, std::uint64_t seed);

/// serve-bench / index dataset: --reference F, or a generated Gaussian
/// mixture. --dim D exists so the high-dimensional regime the graph index
/// targets is one flag away (`--demo 60000 --dim 48`); it overrides the
/// DIM half of --demo N[,DIM] when both are present.
Storage load_highd(const Args& args, std::uint64_t seed) {
  if (!args.has("reference") && (args.has("dim") || args.has("demo"))) {
    index_t n = 20000;
    index_t dim = static_cast<index_t>(args.num("dim", 0));
    if (args.has("demo")) {
      const std::string spec = args.get("demo");
      const auto comma = spec.find(',');
      n = std::atoll(spec.c_str());
      if (comma != std::string::npos && dim <= 0)
        dim = std::atoll(spec.c_str() + comma + 1);
    }
    if (dim <= 0) dim = 3;
    if (n <= 0) usage("--demo needs N[,DIM] with positive values");
    return Storage(make_gaussian_mixture(n, dim, 5, seed));
  }
  return load(args, "reference", seed);
}

Storage load(const Args& args, const std::string& key, std::uint64_t seed) {
  if (args.has("demo")) {
    const std::string spec = args.get("demo");
    const auto comma = spec.find(',');
    const index_t n = std::atoll(spec.c_str());
    const index_t dim =
        comma == std::string::npos ? 3 : std::atoll(spec.c_str() + comma + 1);
    if (n <= 0 || dim <= 0) usage("--demo needs N[,DIM] with positive values");
    return Storage(make_gaussian_mixture(n, dim, 5, seed));
  }
  const std::string path = args.get(key);
  if (path.empty())
    usage(("missing --" + key + " (or use --demo)").c_str());
  return Storage(path);
}

PortalConfig config_from(const Args& args) {
  PortalConfig config;
  config.leaf_size = static_cast<index_t>(args.num("leaf", kDefaultLeafSize));
  config.tau = args.num("tau", 1e-3);
  config.tau_explicit = args.has("tau"); // PTL-W106 keys on explicit tau
  config.theta = args.num("theta", 0.5);
  config.parallel = !args.has("serial");
  config.validate = args.has("validate");
  config.verify_ir = !args.has("no-verify-ir");
  const std::string engine = args.get("engine", "auto");
  if (engine == "auto") config.engine = Engine::Auto;
  else if (engine == "pattern") config.engine = Engine::Pattern;
  else if (engine == "jit") config.engine = Engine::JIT;
  else if (engine == "vm") config.engine = Engine::VM;
  else usage("--engine must be auto | pattern | jit | vm");
  return config;
}

void print_verify_report(const PortalExpr& expr) {
  const std::string& report = expr.artifacts().verify_report;
  std::printf("-- IR verification report --\n%s",
              report.empty() ? "(verifier disabled: --no-verify-ir)\n"
                             : report.c_str());
}

void report(const PortalExpr& expr, double seconds) {
  std::printf("engine: %s | %s\n", expr.artifacts().chosen_engine.c_str(),
              expr.artifacts().problem_description.c_str());
  std::printf("pairs visited %llu, pruned/approximated %llu, base cases %llu\n",
              static_cast<unsigned long long>(expr.stats().pairs_visited),
              static_cast<unsigned long long>(expr.stats().prunes),
              static_cast<unsigned long long>(expr.stats().base_cases));
  std::printf("total %.3fs (compile %.3fs, trees %.3fs, traversal %.3fs)\n",
              seconds, expr.artifacts().compile_seconds,
              expr.artifacts().tree_build_seconds,
              expr.artifacts().traversal_seconds);
}

void write_matrix(const std::string& path, const Storage& out, bool indices) {
  const index_t rows = out.rows();
  const index_t cols = out.cols();
  const index_t width = indices ? 2 * cols : cols;
  std::vector<real_t> flat(static_cast<std::size_t>(rows) * width);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) {
      if (indices) {
        flat[i * width + j] = static_cast<real_t>(out.index_at(i, j));
        flat[i * width + cols + j] = out.value(i, j);
      } else {
        flat[i * width + j] = out.value(i, j);
      }
    }
  write_csv(path, flat.data(), rows, width);
  std::printf("wrote %s (%lld rows)\n", path.c_str(),
              static_cast<long long>(rows));
}

/// Count verifier warnings in the textual report ("warning [PTL-Wxxx] ..."
/// lines emitted by the pass sandwich).
std::size_t count_report_warnings(const std::string& report) {
  std::size_t count = 0;
  for (std::size_t pos = report.find("warning ["); pos != std::string::npos;
       pos = report.find("warning [", pos + 1))
    ++count;
  return count;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// `portal_cli lint`: compile the script and report the PTL-Wxxx findings the
// analysis framework attached to the compile artifacts. The JSON layout is
// deliberately stable -- fixed key order, insertion-ordered diagnostics, one
// diagnostic per line -- so CI can diff it against a checked-in expectation.
int run_lint(const std::string& path, const Args& args) {
  PortalConfig base;
  base.verify_ir = !args.has("no-verify-ir");
  const ParsedProgram program = run_portal_script_file(path, base);
  if (!program.expr) {
    std::fprintf(stderr, "script defined no expression; nothing to lint\n");
    return 0;
  }
  program.expr->setConfig(program.config);
  program.expr->compile();
  const CompileArtifacts& arts = program.expr->artifacts();
  const std::vector<Diagnostic>& findings = arts.lint_diagnostics;
  if (args.has("json")) {
    std::printf("{\n  \"file\": \"%s\",\n  \"diagnostics\": [",
                json_escape(path).c_str());
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Diagnostic& d = findings[i];
      std::printf("%s\n    {\"severity\": \"%s\", \"code\": \"%s\", "
                  "\"path\": \"%s\", \"message\": \"%s\"}",
                  i == 0 ? "" : ",", severity_name(d.severity),
                  json_escape(d.code).c_str(), json_escape(d.path).c_str(),
                  json_escape(d.message).c_str());
    }
    std::printf("%s],\n  \"summary\": {\"warnings\": %zu}\n}\n",
                findings.empty() ? "" : "\n  ", findings.size());
  } else if (findings.empty()) {
    std::printf("lint: clean -- %s\n", arts.problem_description.c_str());
  } else {
    std::printf("%s", arts.lint_report.c_str());
    std::printf("lint: %zu warning(s) -- %s\n", findings.size(),
                arts.problem_description.c_str());
  }
  return !findings.empty() && args.has("werror") ? 3 : 0;
}

int run_script(const std::string& path, const Args& args, bool verify_mode) {
  Timer timer;
  PortalConfig base;
  base.verify_ir = !args.has("no-verify-ir");
  const ParsedProgram program = run_portal_script_file(path, base);
  if (verify_mode && program.expr) {
    // Recompile with the sandwich forced on: the whole point of `verify` is
    // the report, even when the script itself sets `verify_ir = 0`.
    PortalConfig vconfig = program.config;
    vconfig.verify_ir = true;
    program.expr->setConfig(vconfig);
    program.expr->compile();
    print_verify_report(*program.expr);
    const CompileArtifacts& arts = program.expr->artifacts();
    if (!arts.lint_diagnostics.empty())
      std::printf("-- lint findings --\n%s", arts.lint_report.c_str());
    std::printf("verify: OK -- %s\n", arts.problem_description.c_str());
    const std::size_t warnings = arts.lint_diagnostics.size() +
                                 count_report_warnings(arts.verify_report);
    return warnings > 0 && args.has("werror") ? 3 : 0;
  }
  if (!program.executed) {
    std::fprintf(stderr, "script parsed but contained no execute(); nothing ran\n");
    return 0;
  }
  Storage out = program.expr->getOutput();
  report(*program.expr, timer.elapsed_s());
  if (args.has("verify")) print_verify_report(*program.expr);
  if (out.has_scalar()) {
    std::printf("scalar result: %.10g\n", out.scalar());
  } else if (out.has_lists()) {
    std::uint64_t total = 0;
    for (index_t i = 0; i < out.rows(); ++i) total += out.list_size(i);
    std::printf("%lld CSR rows, %llu entries\n",
                static_cast<long long>(out.rows()),
                static_cast<unsigned long long>(total));
  } else {
    std::printf("%lld x %lld result matrix\n", static_cast<long long>(out.rows()),
                static_cast<long long>(out.cols()));
  }
  if (args.has("out")) write_matrix(args.get("out"), out, out.has_indices());
  return 0;
}

// serve-bench: drive the concurrent serving runtime (src/serve) with a
// closed-loop client fleet and print QPS, latency quantiles, plan-cache hit
// rate, and scheduler stats. See docs/SERVING.md for examples.
int run_serve_bench(const Args& args) {
  serve::ServiceOptions options;
  options.workers = static_cast<int>(args.num("workers", 4));
  options.queue_capacity =
      static_cast<std::size_t>(args.num("queue", 4096));
  options.max_batch = static_cast<std::size_t>(args.num("batch", 64));
  options.default_deadline_ms = args.num("deadline", 0);
  options.block_on_full = true; // closed-loop clients: backpressure, not drops
  options.tau = args.num("tau", 0);
  options.snapshot.leaf_size =
      static_cast<index_t>(args.num("leaf", kDefaultLeafSize));
  // Live-ingestion knobs (serve/live.h): --ingest-writers starts a writer
  // fleet streaming inserts/removes beside the readers; the delta sizing
  // knobs trade merge frequency against per-query delta-drain cost.
  options.delta_capacity =
      static_cast<index_t>(args.num("delta-capacity", 4096));
  options.merge_threshold =
      static_cast<index_t>(args.num("merge-threshold", 1024));
  const int ingest_writers = static_cast<int>(args.num("ingest-writers", 0));
  // Approximate serving knobs (docs/SERVING.md): --approx routes eligible
  // reductions through the k-NN graph index; --beam-width trades recall
  // for latency per request at serve time.
  options.approx = args.has("approx") && args.get("approx") != "0";
  options.beam_width = static_cast<index_t>(args.num("beam-width", 64));

  Storage reference = load_highd(args, 31);
  const index_t dim = reference.dim();
  serve::PortalService service(options);
  service.publish(reference.dataset());

  // The request mix: comma-separated problem names, each resolved through
  // the plan cache once here (warmup) and then repeatedly by the clients.
  std::vector<std::pair<std::string, LayerSpec>> mix;
  std::string mix_spec = args.get("mix", "knn,kde,rs");
  for (std::size_t pos = 0; pos < mix_spec.size();) {
    const std::size_t comma = mix_spec.find(',', pos);
    const std::string name = mix_spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    LayerSpec inner;
    if (name == "knn") {
      inner.op = {PortalOp::KARGMIN, static_cast<index_t>(args.num("k", 5))};
      inner.func = PortalFunc::EUCLIDEAN;
    } else if (name == "kde") {
      inner.op = PortalOp::SUM;
      inner.func = PortalFunc::gaussian(args.num("sigma", 1.0));
    } else if (name == "rs") {
      inner.op = PortalOp::UNION;
      inner.func = PortalFunc::indicator(args.num("lo", 0.0) + 1e-12,
                                         args.num("hi", 1.0));
    } else {
      usage("--mix entries must be knn | kde | rs");
    }
    mix.emplace_back(name, std::move(inner));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::vector<serve::PlanHandle> plans;
  for (auto& [name, inner] : mix) plans.push_back(service.prepare(inner));

  const int clients = static_cast<int>(args.num("clients", 8));
  const double seconds = args.num("seconds", 3.0);
  std::printf("serve-bench: %lld points dim %lld | %d workers, %d clients, "
              "%.1fs, mix=%s\n",
              static_cast<long long>(reference.size()),
              static_cast<long long>(dim), options.workers, clients, seconds,
              mix_spec.c_str());
  if (options.approx)
    std::printf("approximate mode: on, beam width %lld\n",
                static_cast<long long>(options.beam_width));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0}, ok{0}, failed{0};
  std::atomic<std::uint64_t> writes{0}, write_rejects{0};
  std::vector<std::thread> fleet;
  Timer timer;
  for (int w = 0; w < ingest_writers; ++w)
    fleet.emplace_back([&, w] {
      std::uint64_t state = 0x2545f4914f6cdd1dull * (w + 13) + 5;
      const auto next = [&state] {
        state ^= state << 13; state ^= state >> 7; state ^= state << 17;
        return state;
      };
      std::vector<real_t> point(static_cast<std::size_t>(dim));
      while (!stop.load(std::memory_order_acquire)) {
        const index_t base = static_cast<index_t>(
            next() % static_cast<std::uint64_t>(reference.size()));
        for (index_t d = 0; d < dim; ++d)
          point[static_cast<std::size_t>(d)] =
              reference.dataset().coord(base, d) +
              static_cast<real_t>(next() % 100000) * 1e-7;
        if (service.insert(point).status == serve::IngestStatus::Ok) {
          writes.fetch_add(1, std::memory_order_relaxed);
          // Every fourth insert is taken back out so the live set grows
          // slowly and merges exercise tombstones, not just appends.
          if (next() % 4 == 0 &&
              service.remove(point).status == serve::IngestStatus::Ok)
            writes.fetch_add(1, std::memory_order_relaxed);
        } else {
          write_rejects.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (int c = 0; c < clients; ++c)
    fleet.emplace_back([&, c] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (c + 1) + 1;
      const auto next = [&state] {
        state ^= state << 13; state ^= state >> 7; state ^= state << 17;
        return state;
      };
      std::vector<real_t> point(static_cast<std::size_t>(dim));
      while (!stop.load(std::memory_order_acquire)) {
        // Resolve the chain through the plan cache every request, the way a
        // real frontend would -- after the warmup prepares above, these are
        // all cache hits (the bench reports the hit rate).
        const serve::PlanHandle plan =
            service.prepare(mix[next() % mix.size()].second);
        const index_t base = static_cast<index_t>(
            next() % static_cast<std::uint64_t>(reference.size()));
        for (index_t d = 0; d < dim; ++d)
          point[static_cast<std::size_t>(d)] =
              reference.dataset().coord(base, d) +
              static_cast<real_t>(next() % 1000) * 1e-4;
        sent.fetch_add(1, std::memory_order_relaxed);
        const serve::Response resp = service.submit(plan, point).get();
        (resp.status == serve::Status::Ok ? ok : failed)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long long>(seconds * 1e3)));
  stop.store(true, std::memory_order_release);
  for (auto& client : fleet) client.join();
  const double elapsed = timer.elapsed_s();

  const serve::ServiceStats stats = service.stats();
  const obs::LatencyHistogram::Snapshot lat = service.latency();
  const obs::LatencyHistogram::Snapshot depth = service.queue_depth();
  std::printf("requests: %llu ok, %llu failed | QPS %.0f\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<double>(ok.load()) / elapsed);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  mean %.3f\n",
              lat.quantile(0.50) * 1e3, lat.quantile(0.95) * 1e3,
              lat.quantile(0.99) * 1e3, lat.max_seconds * 1e3,
              lat.mean_seconds() * 1e3);
  std::printf("plan cache: %llu hits, %llu misses (%.2f%% hit rate)\n",
              static_cast<unsigned long long>(stats.plan_cache.hits),
              static_cast<unsigned long long>(stats.plan_cache.misses),
              stats.plan_cache.hit_rate() * 100);
  std::printf("scheduler: %llu batches, %.2f requests/batch | queue depth "
              "p50 %.0f p99 %.0f | epoch %llu\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch(), depth.quantile(0.5) * 1e9,
              depth.quantile(0.99) * 1e9,
              static_cast<unsigned long long>(stats.epoch));
  if (ingest_writers > 0)
    std::printf("ingest: %.0f writes/s (%llu rejected) | %llu merges, "
                "%llu compactions, %llu points merged | watermark %llu\n",
                static_cast<double>(writes.load()) / elapsed,
                static_cast<unsigned long long>(write_rejects.load()),
                static_cast<unsigned long long>(stats.ingest.merges),
                static_cast<unsigned long long>(stats.ingest.compactions),
                static_cast<unsigned long long>(stats.ingest.merged_points),
                static_cast<unsigned long long>(stats.ingest.watermark));
  service.stop();
  return 0;
}

/// `portal_cli index`: build the exact k-NN graph (src/index, DESIGN.md
/// Sec. 18) over a dataset, print build stats, then probe recall@k and query
/// latency against a linear-scan oracle at a few beam widths. This is the
/// operator's view of the recall/latency tradeoff before flipping --approx
/// on a serving fleet.
int run_index(const Args& args) {
  Storage reference = load_highd(args, 31);
  const Dataset& data = reference.dataset();

  KnnGraphOptions gopt;
  gopt.degree = static_cast<index_t>(args.num("degree", 20));
  if (args.has("seed"))
    gopt.seed = static_cast<std::uint64_t>(args.num("seed", 0));
  if (args.has("serial")) gopt.parallel_build = false;
  const KnnGraph graph(data, gopt);
  const KnnGraphStats& gs = graph.stats();
  std::printf("index: %lld points dim %lld, degree %lld | %llu dist evals "
              "| built in %.3fs\n",
              static_cast<long long>(graph.size()),
              static_cast<long long>(graph.dim()),
              static_cast<long long>(graph.degree()),
              static_cast<unsigned long long>(gs.dist_evals),
              gs.build_seconds);

  // Recall/latency probe: queries jittered off dataset points, the oracle a
  // linear scan through the same scalar kernel the serve engine uses.
  const index_t k =
      std::min<index_t>(static_cast<index_t>(args.num("k", 10)), graph.size());
  const index_t nq = std::min<index_t>(200, graph.size());
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13; state ^= state >> 7; state ^= state << 17;
    return state;
  };
  std::vector<std::vector<real_t>> queries;
  std::vector<std::vector<index_t>> oracle;
  std::vector<real_t> dists(static_cast<std::size_t>(graph.size()));
  std::vector<index_t> order(static_cast<std::size_t>(graph.size()));
  for (index_t q = 0; q < nq; ++q) {
    std::vector<real_t> pt(static_cast<std::size_t>(graph.dim()));
    const index_t base = static_cast<index_t>(
        next() % static_cast<std::uint64_t>(graph.size()));
    for (index_t d = 0; d < graph.dim(); ++d)
      pt[static_cast<std::size_t>(d)] =
          data.coord(base, d) + static_cast<real_t>(next() % 1000) * 1e-4;
    sq_dists_to_range(data, 0, graph.size(), pt.data(), dists.data());
    for (index_t i = 0; i < graph.size(); ++i)
      order[static_cast<std::size_t>(i)] = i;
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&dists](index_t a, index_t b) {
                        const real_t da = dists[static_cast<std::size_t>(a)];
                        const real_t db = dists[static_cast<std::size_t>(b)];
                        return da != db ? da < db : a < b;
                      });
    oracle.emplace_back(order.begin(), order.begin() + k);
    queries.push_back(std::move(pt));
  }

  std::vector<index_t> beams;
  if (args.has("beam-width"))
    beams.push_back(static_cast<index_t>(args.num("beam-width", 64)));
  else
    beams = {16, 32, 64};
  KnnGraph::SearchScratch scratch;
  std::vector<real_t> out_sq(static_cast<std::size_t>(k));
  std::vector<index_t> out_ids(static_cast<std::size_t>(k));
  for (const index_t beam : beams) {
    std::uint64_t hits = 0, hops = 0, evals = 0;
    Timer probe;
    for (index_t q = 0; q < nq; ++q) {
      const index_t got = graph.search(queries[static_cast<std::size_t>(q)].data(),
                                       k, beam, scratch, out_sq.data(),
                                       out_ids.data());
      hops += scratch.hops;
      evals += scratch.dist_evals;
      const std::vector<index_t>& want = oracle[static_cast<std::size_t>(q)];
      for (index_t s = 0; s < got; ++s)
        if (std::find(want.begin(), want.end(), out_ids[static_cast<std::size_t>(s)]) !=
            want.end())
          ++hits;
    }
    // Search effort per query, and the whole search's time per distance
    // evaluation (seeding, visits and inserts included).
    const double elapsed = probe.elapsed_s();
    std::printf("beam %4lld: recall@%lld %.4f | %.4f ms/query (%.0f QPS) | "
                "%.1f hops/query, %.1f dist evals/query, %.1f ns/eval\n",
                static_cast<long long>(beam), static_cast<long long>(k),
                static_cast<double>(hits) /
                    static_cast<double>(nq * k),
                elapsed * 1e3 / static_cast<double>(nq),
                static_cast<double>(nq) / elapsed,
                static_cast<double>(hops) / static_cast<double>(nq),
                static_cast<double>(evals) / static_cast<double>(nq),
                evals > 0 ? elapsed * 1e9 / static_cast<double>(evals) : 0.0);
  }
  return 0;
}

/// `portal_cli cache inspect|purge [--dir D]`: operator's view of the
/// persistent JIT artifact cache (DESIGN.md Sec. 17). inspect prints one
/// validated row per entry plus a greppable summary line; purge empties the
/// directory. Invalid entries (truncated .so, tampered manifest) show as
/// valid=no -- the serving path rejects and recompiles them, never loads them.
int run_cache(const Args& args) {
  const std::string action = args.get("script", "inspect");
  std::string dir = args.get("dir");
  if (dir.empty()) {
    const char* env = std::getenv("PORTAL_JIT_CACHE_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty())
    usage("cache: pass --dir or set PORTAL_JIT_CACHE_DIR");

  ArtifactCache::Options options;
  options.dir = dir;
  options.max_entries = 0; // the CLI never evicts behind the operator's back
  ArtifactCache cache(std::move(options));

  if (action == "purge") {
    std::printf("purged %zu entries from %s\n", cache.purge(), dir.c_str());
    return 0;
  }
  if (action != "inspect") usage("cache: action must be inspect or purge");

  const std::vector<ArtifactCache::EntryInfo> entries = cache.list();
  std::size_t valid = 0;
  for (const ArtifactCache::EntryInfo& e : entries) {
    std::printf("k%s  %10llu bytes  valid=%s  %s\n", e.key_hex.c_str(),
                static_cast<unsigned long long>(e.so_bytes),
                e.valid ? "yes" : "no", e.compiler.c_str());
    if (e.valid) ++valid;
  }
  std::printf("cache %s: %zu entries, %zu valid\n", dir.c_str(),
              entries.size(), valid);
  return 0;
}

int run(const Args& args) {
  if (args.problem == "run" || args.problem == "verify" ||
      args.problem == "lint") {
    const std::string script = args.get("script");
    if (script.empty())
      usage(("'" + args.problem + "' needs a script path: portal_cli " +
             args.problem + " FILE").c_str());
    if (args.problem == "lint") return run_lint(script, args);
    return run_script(script, args, args.problem == "verify");
  }
  if (args.problem == "serve-bench") return run_serve_bench(args);
  if (args.problem == "index") return run_index(args);
  if (args.problem == "cache") return run_cache(args);
  const PortalConfig config = config_from(args);
  Timer timer;

  if (args.problem == "knn" || args.problem == "kde" || args.problem == "rs") {
    Storage query = load(args, "query", 11);
    Storage reference =
        args.has("reference") || !args.has("demo")
            ? load(args, "reference", 12)
            : query; // demo mode without --reference: self-join

    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, query);
    if (args.problem == "knn") {
      const index_t k = static_cast<index_t>(args.num("k", 5));
      expr.addLayer({PortalOp::KARGMIN, k}, reference, PortalFunc::EUCLIDEAN);
    } else if (args.problem == "kde") {
      expr.addLayer(PortalOp::SUM, reference,
                    PortalFunc::gaussian(args.num("sigma", 1.0)));
    } else {
      expr.addLayer(PortalOp::UNIONARG, reference,
                    PortalFunc::indicator(args.num("lo", 0.0) + 1e-12,
                                          args.num("hi", 1.0)));
    }
    expr.execute(config);
    Storage out = expr.getOutput();
    report(expr, timer.elapsed_s());
    if (args.has("verify")) print_verify_report(expr);

    if (args.problem == "rs") {
      std::uint64_t total = 0;
      for (index_t i = 0; i < query.size(); ++i) total += out.list_size(i);
      std::printf("total neighbors: %llu (%.1f per query)\n",
                  static_cast<unsigned long long>(total),
                  static_cast<double>(total) / query.size());
    } else if (args.has("out")) {
      write_matrix(args.get("out"), out, args.problem == "knn");
    }
    return 0;
  }

  if (args.problem == "twopoint") {
    Storage data = load(args, "data", 13);
    const real_t h = args.num("h", 1.0);
    Var q, r;
    const Expr d = sqrt(pow(Expr(q) - Expr(r), 2));
    PortalExpr expr;
    expr.addLayer(PortalOp::SUM, q, data);
    expr.addLayer(PortalOp::SUM, r, data, d < Expr(h));
    expr.execute(config);
    report(expr, timer.elapsed_s());
    if (args.has("verify")) print_verify_report(expr);
    const double ordered = expr.getOutput().scalar();
    std::printf("ordered pairs (incl. self): %.0f | distinct pairs within h: "
                "%.0f\n",
                ordered, (ordered - data.size()) / 2);
    return 0;
  }

  if (args.problem == "threepoint") {
    Storage data = load(args, "data", 14);
    ThreePointOptions options;
    options.h = args.num("h", 1.0);
    options.leaf_size = config.leaf_size > 0 ? config.leaf_size : kDefaultLeafSize;
    const ThreePointResult result = threepoint_expert(data.dataset(), options);
    std::printf("triples within h: %llu (%.3fs)\n",
                static_cast<unsigned long long>(result.triples),
                timer.elapsed_s());
    return 0;
  }

  if (args.problem == "hausdorff") {
    Storage a = args.has("demo") ? load(args, "a", 15) : load(args, "a", 15);
    Storage b = args.has("demo") ? Storage(make_gaussian_mixture(
                                       a.size(), a.dim(), 5, 16))
                                 : load(args, "b", 16);
    real_t directed[2];
    int slot = 0;
    for (const auto& [q, r] : {std::pair(&a, &b), std::pair(&b, &a)}) {
      PortalExpr expr;
      expr.addLayer(PortalOp::MAX, *q);
      expr.addLayer(PortalOp::MIN, *r, PortalFunc::EUCLIDEAN);
      expr.execute(config);
      directed[slot++] = expr.getOutput().scalar();
      if (args.has("verify") && slot == 1) print_verify_report(expr);
    }
    std::printf("h(A,B) = %.6f, h(B,A) = %.6f, H = %.6f (%.3fs)\n", directed[0],
                directed[1], std::max(directed[0], directed[1]),
                timer.elapsed_s());
    return 0;
  }

  if (args.problem == "emst") {
    Storage data = load(args, "data", 17);
    EmstOptions options;
    options.leaf_size = config.leaf_size > 0 ? config.leaf_size : kDefaultLeafSize;
    options.parallel = config.parallel;
    const EmstResult result = emst_expert(data.dataset(), options);
    std::printf("MST weight %.6f over %zu edges, %lld Boruvka rounds (%.3fs)\n",
                result.total_weight, result.edges.size(),
                static_cast<long long>(result.boruvka_rounds),
                timer.elapsed_s());
    if (args.has("out")) {
      std::vector<real_t> rows(result.edges.size() * 3);
      for (std::size_t i = 0; i < result.edges.size(); ++i) {
        rows[i * 3 + 0] = static_cast<real_t>(result.edges[i].a);
        rows[i * 3 + 1] = static_cast<real_t>(result.edges[i].b);
        rows[i * 3 + 2] = result.edges[i].weight;
      }
      write_csv(args.get("out"), rows.data(),
                static_cast<index_t>(result.edges.size()), 3);
      std::printf("wrote %s\n", args.get("out").c_str());
    }
    return 0;
  }

  if (args.problem == "bh") {
    Storage data = args.has("demo")
                       ? [&] {
                           const index_t n =
                               std::atoll(args.get("demo").c_str());
                           ParticleSet set = make_elliptical(n, 18);
                           Storage s(set.positions);
                           s.set_weights(set.masses);
                           return s;
                         }()
                       : load(args, "data", 18);
    if (!data.has_weights() && args.has("masses")) {
      const CsvTable masses = read_csv(args.get("masses"));
      data.set_weights(masses.values);
    }
    PortalExpr expr;
    expr.addLayer(PortalOp::FORALL, data);
    expr.addLayer(PortalOp::SUM, data,
                  PortalFunc::gravity(1.0, args.num("eps", 1e-3)));
    expr.execute(config);
    Storage out = expr.getOutput();
    report(expr, timer.elapsed_s());
    if (args.has("verify")) print_verify_report(expr);
    if (args.has("out")) write_matrix(args.get("out"), out, false);
    return 0;
  }

  usage(("unknown problem '" + args.problem + "'").c_str());
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  // Golden-table regeneration (tests/test_golden.cpp guards the output):
  // handled before problem dispatch because it takes no problem name.
  if (std::strncmp(argv[1], "--dump-golden", 13) == 0) {
    const char* eq = std::strchr(argv[1], '=');
    const std::string dir =
        eq != nullptr ? eq + 1 : (argc >= 3 ? argv[2] : ".");
    try {
      dump_golden_tables(dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "portal_cli: %s\n", e.what());
      return 2;
    }
    std::printf("wrote golden tables to %s/\n", dir.c_str());
    return 0;
  }
  Args args;
  args.problem = argv[1];
  const std::set<std::string>* keys = subcommand_keys(args.problem);
  if (keys == nullptr) usage(("unknown problem '" + args.problem + "'").c_str());
  const auto accept = [&](const std::string& key) {
    if (key != "trace" && keys->count(key) == 0)
      usage(("unknown option --" + key + " for '" + args.problem + "'").c_str());
    return key;
  };
  int first_option = 2;
  if ((args.problem == "run" || args.problem == "verify" ||
       args.problem == "lint" || args.problem == "cache") &&
      argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
    args.options["script"] = argv[2];
    first_option = 3;
  }
  for (int i = first_option; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) usage("options start with --");
    // --key=value form (required for optional-value flags like --trace).
    if (const char* eq = std::strchr(arg + 2, '=')) {
      args.options[accept(std::string(arg + 2, eq))] = eq + 1;
      continue;
    }
    const std::string key = accept(arg + 2);
    if (key == "validate" || key == "serial" || key == "verify" ||
        key == "no-verify-ir" || key == "trace" || key == "json" ||
        key == "werror" || key == "approx") {
      args.options[key] = "1";
    } else {
      if (i + 1 >= argc) usage(("--" + key + " needs a value").c_str());
      args.options[key] = argv[++i];
    }
  }

  const bool tracing = args.has("trace");
  if (tracing) obs::set_enabled(true);

  try {
    const int rc = run(args);
    if (tracing) {
      const obs::TraceReport trace = obs::collect();
      std::printf("-- trace --\n%s", trace.human_table().c_str());
      const std::string trace_path = args.get("trace");
      if (trace_path != "1" && !trace_path.empty()) {
        if (obs::write_chrome_trace(trace_path))
          std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
        else
          std::fprintf(stderr, "portal_cli: cannot write trace to %s\n",
                       trace_path.c_str());
      }
    }
    return rc;
  } catch (const PortalDiagnosticError& e) {
    std::fprintf(stderr, "portal_cli: IR verification / analysis failed:\n");
    for (const Diagnostic& d : e.diagnostics())
      std::fprintf(stderr, "  %s\n", diagnostic_to_string(d).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portal_cli: %s\n", e.what());
    return 2;
  }
}
