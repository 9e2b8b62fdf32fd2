// perfbench -- serving workloads: PortalService driven by one generator
// thread (the process's main thread).
//
//   serve-live  exact knn/kde/rs mix over a d = 3 mixture, reads on a fixed
//               open-loop schedule, inserts and removes on a fixed schedule
//               from the same thread, background merges on.
//   serve-ann   approximate kNN (k = 10, beam 64) through the k-NN graph on a
//               d = 32 mixture; read-only.
//
// Phases: set-up (publish + prepare, on fresh services), the open loop
// (fixed rates: latency from each request's due time), a quiesced quality
// check against the benchmark's own mirror of the data, then rounds that
// answer one fixed block of reads through the service under a fixed window
// of in-flight submits and again through serve::run_query on one thread.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/ir/ir.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/service.h"
#include "tree/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using portal::index_t;
using portal::serve::PortalService;
using portal::serve::Response;
using portal::serve::Status;

constexpr int kWorkers = 2;
constexpr int kWindow = 32;        // in-flight submits in the capacity phase
constexpr int kBlock = 2000;       // reads per solve block
constexpr std::size_t kMinRounds = 12;
constexpr int kQualityPerPlan = 100;
constexpr int kQuiescedWrites = 200;  // writes before the quality check
constexpr double kLateLimitMs = 1.0;  // generator lateness p50 bound
constexpr std::size_t kMinWindowReads = 1000;  // reads per 1 s window for a p99
constexpr double kRecallFloor = 0.90;

struct ServeSpec {
  bool live;
  int dim;
  int clusters;
  std::int64_t n;
  double read_qps;   // open-loop read rate (a constant, never measured)
  double write_qps;  // open-loop insert + remove rate (live only)
  int k;
  double kde_sigma;  // live: kde plan bandwidth
  double tau;        // live: SUM approximation budget (per pair); tau * n must
                     // stay far below the exact sums so the kde check has teeth
  double rs_radius;  // live: range-search radius
  int beam;          // ann: beam width
  int setup_reps;    // fresh services set up; the median is setup_s
};

ServeSpec spec_for(const std::string& workload) {
  if (workload == "serve-live") return {true, 3, 8, 50000, 2000, 400, 10, 0.05, 1e-6, 0.25, 0, 9};
  return {false, 32, 2, 4000, 1500, 0, 10, 0, 0, 0, 64, 3};
}

struct PlanSpec {
  const char* name;
  int weight;  // share of the workload's reads, out of the plans' total
  // Reads at live points (a copy of a row of the mirror) instead of fresh
  // mixture samples. kde does this: a density at the data, whose exact sum is
  // at least 1 (the point itself), far above the tau * n error budget.
  bool at_data;
  portal::LayerSpec inner;
};

std::vector<PlanSpec> plans_for(const ServeSpec& spec) {
  std::vector<PlanSpec> plans;
  // serve-live weights 6:1:3 give each plan about a third of the engine time
  // (a kde query costs about seven knn queries; each run prints the costs).
  PlanSpec knn{"knn", 6, false, {}};
  knn.inner.op = {portal::PortalOp::KARGMIN, spec.k};
  knn.inner.func = portal::PortalFunc::EUCLIDEAN;
  plans.push_back(knn);
  if (!spec.live) return plans;
  PlanSpec kde{"kde", 1, true, {}};
  kde.inner.op = portal::PortalOp::SUM;
  kde.inner.func = portal::PortalFunc::gaussian(spec.kde_sigma);
  plans.push_back(kde);
  PlanSpec rs{"rs", 3, false, {}};
  rs.inner.op = portal::PortalOp::UNIONARG;
  rs.inner.func = portal::PortalFunc::indicator(0, spec.rs_radius);
  plans.push_back(rs);
  return plans;
}

portal::serve::ServiceOptions options_for(const ServeSpec& spec) {
  portal::serve::ServiceOptions o;
  o.workers = kWorkers;
  o.queue_capacity = 4096;
  o.tau = spec.tau;
  o.approx = !spec.live;
  o.beam_width = spec.beam > 0 ? spec.beam : o.beam_width;
  o.background_merge = spec.live;
  o.delta_capacity = 4096;
  o.merge_threshold = 512;
  return o;
}

portal::serve::EngineOptions engine_options(const portal::serve::ServiceOptions& o) {
  portal::serve::EngineOptions e;
  e.batch_base_cases = o.batch_base_cases;
  e.tau = o.tau;
  e.approx = o.approx;
  e.beam_width = o.beam_width;
  return e;
}

struct Read {
  int plan;
  std::vector<double> point;
};

/// The benchmark's own copy of the live point set (row-major, swap-remove).
struct Mirror {
  int dim;
  std::vector<double> rows;
  std::int64_t size() const { return static_cast<std::int64_t>(rows.size()) / dim; }
  const double* row(std::int64_t i) const { return rows.data() + i * dim; }
  void add(const std::vector<double>& p) { rows.insert(rows.end(), p.begin(), p.end()); }
  void remove_at(std::int64_t i) {
    const std::int64_t last = size() - 1;
    std::copy(row(last), row(last) + dim, rows.begin() + i * dim);
    rows.resize(static_cast<std::size_t>(last) * dim);
  }
};

struct Event {
  double t;  // seconds after the schedule starts
  int kind;  // 0 read, 1 insert, 2 remove
  int index;
};

struct Completion {
  double due;         // seconds (steady clock)
  double latency_ms;  // from due time
  bool ok;
  bool approximate;
};

struct OpenLoopResult {
  std::vector<double> read_ms, write_ms, insert_us, prepare_us, late_ms;
  std::vector<std::vector<double>> window_ms;  // read latencies per 1 s window
  std::uint64_t attempted = 0, failed = 0, approximate = 0;
};

struct InFlight {
  std::future<Response> future;
  double due;
};

/// Moves every finished future out of `inflight`, timing it from its due
/// time. Returns how many finished.
int poll(std::vector<InFlight>& inflight, std::vector<Completion>& done) {
  int finished = 0;
  for (std::size_t i = 0; i < inflight.size();) {
    if (inflight[i].future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++i;
      continue;
    }
    const double t = now_s();
    const Response r = inflight[i].future.get();
    done.push_back({inflight[i].due, (t - inflight[i].due) * 1e3, r.status == Status::Ok,
                    r.approximate});
    inflight[i] = std::move(inflight.back());
    inflight.pop_back();
    ++finished;
  }
  return finished;
}

/// Threads the workload runs at once; fails the run when they exceed the
/// CPUs this process may use.
int thread_budget(const portal::serve::ServiceOptions& o) {
  const int budget = o.workers + 1 /* generator */ + (o.background_merge ? 1 : 0) +
                     (omp_get_max_threads() - 1);
  if (budget > available_cpus())
    fail("thread budget " + std::to_string(budget) + " exceeds the " +
         std::to_string(available_cpus()) +
         " CPUs available (workers + generator + merger + extra OpenMP threads)");
  return budget;
}

std::shared_ptr<const portal::Dataset> make_dataset(const Mirror& m) {
  return std::make_shared<const portal::Dataset>(
      portal::Dataset::from_row_major(m.rows.data(), m.size(), m.dim));
}

/// Coordinates of a client-visible id at a pinned view: main ids index the
/// snapshot's source dataset, delta ids are main_size + slot.
std::vector<double> coords_of(const portal::LiveView& view, index_t id, int dim) {
  std::vector<double> p(static_cast<std::size_t>(dim));
  const index_t main_size = view.snapshot->size();
  if (id < 0 || id >= main_size + view.delta_count)
    fail("answer names id " + std::to_string(id) + ", outside the pinned view");
  if (id < main_size) {
    for (int d = 0; d < dim; ++d) p[static_cast<std::size_t>(d)] = view.snapshot->source()->coord(id, d);
  } else {
    view.delta->copy_point(id - main_size, p.data());
  }
  return p;
}

bool distinct(std::vector<index_t> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

/// Checks one answer against the mirror; returns true when it matches.
/// knn: distances within 1e-9 relative and each id's coordinates at its
/// slot's distance; kde: within the approximation contract, tau per live
/// point (each approximated pair errs by at most tau), and the run fails if
/// that budget is not below a tenth of the exact sum; rs: the same point set
/// (points within 1e-9 of the radius may go either way). Ids must be distinct
/// and visible at the view.
bool check_exact(const PlanSpec& plan, const ServeSpec& spec, const Mirror& mirror,
                 const portal::LiveView& view, const double* q,
                 const portal::serve::QueryResult& got) {
  const int dim = spec.dim;
  const std::string name = plan.name;
  if (name == "knn") {
    const std::vector<Neighbor> want = knn_reference(mirror.rows, dim, q, spec.k);
    if (got.values.size() != want.size() || got.ids.size() != want.size()) return false;
    if (!distinct(got.ids)) return false;
    for (std::size_t j = 0; j < want.size(); ++j) {
      const double wd = std::sqrt(want[j].first);
      if (!distances_match({got.values[j]}, {wd}, 1e-9)) return false;
      const std::vector<double> p = coords_of(view, got.ids[j], dim);
      if (!distances_match({std::sqrt(sq_dist(q, p.data(), dim))}, {wd}, 1e-9)) return false;
    }
    return true;
  }
  if (name == "kde") {
    const double inv = 1.0 / (2.0 * spec.kde_sigma * spec.kde_sigma);
    double exact = 0;
    for (std::int64_t i = 0; i < mirror.size(); ++i)
      exact += std::exp(-sq_dist(q, mirror.row(i), dim) * inv);
    const double bound = spec.tau * static_cast<double>(mirror.size()) + 1e-9 * std::max(1.0, exact);
    if (bound >= exact / 10)
      fail("vacuous kde check: error budget " + std::to_string(bound) +
           " is not below a tenth of the exact sum " + std::to_string(exact));
    return got.values.size() == 1 && std::abs(got.values[0] - exact) <= bound;
  }
  // rs: every returned point is inside, and the count matches the mirror's.
  const double r = spec.rs_radius;
  std::int64_t inside = 0, border = 0;
  for (std::int64_t i = 0; i < mirror.size(); ++i) {
    const double d = std::sqrt(sq_dist(q, mirror.row(i), dim));
    if (std::abs(d - r) <= 1e-9 * r) ++border;
    else if (d > 0 && d < r) ++inside;
  }
  if (!distinct(got.ids)) return false;
  for (const index_t id : got.ids) {
    const std::vector<double> p = coords_of(view, id, dim);
    const double d = std::sqrt(sq_dist(q, p.data(), dim));
    if (!(d > 0 && d < r + 1e-9 * r)) return false;
  }
  const std::int64_t n = static_cast<std::int64_t>(got.ids.size());
  return n >= inside && n <= inside + border;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const ServeSpec spec = spec_for(args.workload);
  const std::vector<PlanSpec> plans = plans_for(spec);
  const portal::serve::ServiceOptions opts = options_for(spec);
  const portal::serve::EngineOptions eopt = engine_options(opts);
  report.note(machine_record(args, opts.workers, thread_budget(opts)));

  // --- inputs, all from the seed ---------------------------------------
  // The mixture's shape is fixed per workload; the seed draws the points,
  // the queries and the writes, so runs on different seeds do comparable work.
  Rng shape(spec.live ? 0x6c697665ULL : 0x616e6eULL);
  const Mixture mixture(spec.dim, spec.clusters, shape);
  Rng rng(args.seed);
  Mirror mirror{spec.dim, mixture.rows(spec.n, rng)};
  const auto fresh_point = [&] {
    std::vector<double> p(static_cast<std::size_t>(spec.dim));
    mixture.sample(rng, p.data());
    return p;
  };
  const auto fresh_read = [&](int plan) {
    if (!plans[static_cast<std::size_t>(plan)].at_data) return Read{plan, fresh_point()};
    const double* row = mirror.row(static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(mirror.size()))));
    return Read{plan, std::vector<double>(row, row + spec.dim)};
  };
  int total_weight = 0;
  for (const PlanSpec& p : plans) total_weight += p.weight;
  const auto pick_plan = [&] {
    int w = static_cast<int>(rng.below(static_cast<std::uint64_t>(total_weight)));
    int p = 0;
    while (w >= plans[static_cast<std::size_t>(p)].weight) w -= plans[static_cast<std::size_t>(p++)].weight;
    return p;
  };
  std::vector<Read> block;  // the capacity / 1-thread block
  for (int i = 0; i < kBlock; ++i)
    block.push_back(fresh_read(pick_plan()));

  const double open_s = std::max(3.2, args.seconds * 0.3);  // >= 3 full windows
  const double rounds_s = args.seconds * (args.trace ? 0.3 : 0.6);
  std::vector<Event> schedule;
  std::vector<Read> reads;
  std::vector<std::vector<double>> inserts;
  {
    const std::int64_t n_reads = static_cast<std::int64_t>(open_s * spec.read_qps);
    for (std::int64_t i = 0; i < n_reads; ++i) {
      schedule.push_back({static_cast<double>(i) / spec.read_qps, 0, static_cast<int>(i)});
      reads.push_back(fresh_read(pick_plan()));
    }
    const std::int64_t n_writes = static_cast<std::int64_t>(open_s * spec.write_qps);
    for (std::int64_t i = 0; i < n_writes; ++i) {
      const int kind = (i % 2 == 0) ? 1 : 2;
      schedule.push_back({(static_cast<double>(i) + 0.5) / spec.write_qps, kind,
                          static_cast<int>(inserts.size())});
      if (kind == 1) inserts.push_back(fresh_point());
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
  }

  // --- set-up: publish + prepare on fresh services ------------------------
  std::vector<double> setup_s, compile_ms;
  std::unique_ptr<PortalService> service;
  std::vector<portal::serve::PlanHandle> handles;
  const auto data = make_dataset(mirror);
  for (int r = 0; r < (args.trace ? 1 : spec.setup_reps); ++r) {
    service.reset();
    service = std::make_unique<PortalService>(opts);
    handles.clear();
    const double t0 = now_s();
    service->publish(data);
    const double t1 = now_s();
    for (const PlanSpec& p : plans) handles.push_back(service->prepare(p.inner));
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    compile_ms.push_back((t2 - t1) * 1e3);
  }

  if (args.trace) {
    portal::obs::set_enabled(true);
    portal::obs::reset();
  }

  // --- open loop ----------------------------------------------------------
  OpenLoopResult open;
  std::vector<Completion> done;
  const double start = now_s() + 0.02;
  {
    std::vector<InFlight> inflight;
    for (const Event& e : schedule) {
      const double due = start + e.t;
      double t = now_s();
      while (t < due) {
        poll(inflight, done);
        t = now_s();
      }
      open.late_ms.push_back((t - due) * 1e3);
      ++open.attempted;
      if (e.kind == 0) {
        const Read& rd = reads[static_cast<std::size_t>(e.index)];
        const double p0 = now_s();
        portal::serve::PlanHandle h = service->prepare(plans[static_cast<std::size_t>(rd.plan)].inner);
        open.prepare_us.push_back((now_s() - p0) * 1e6);
        inflight.push_back({service->submit(std::move(h), rd.point), due});
      } else if (e.kind == 1) {
        const std::vector<double>& p = inserts[static_cast<std::size_t>(e.index)];
        const double w0 = now_s();
        const portal::serve::IngestResult res = service->insert(p);
        const double w1 = now_s();
        open.insert_us.push_back((w1 - w0) * 1e6);
        open.write_ms.push_back((w1 - due) * 1e3);
        if (res.status == portal::serve::IngestStatus::Ok) mirror.add(p);
        else ++open.failed;
      } else {
        const std::int64_t victim = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(mirror.size())));
        const std::vector<double> p(mirror.row(victim), mirror.row(victim) + spec.dim);
        const portal::serve::IngestResult res = service->remove(p);
        const double w1 = now_s();
        open.write_ms.push_back((w1 - due) * 1e3);
        if (res.status == portal::serve::IngestStatus::Ok) mirror.remove_at(victim);
        else ++open.failed;
      }
    }
    while (!inflight.empty()) poll(inflight, done);
  }
  open.window_ms.resize(static_cast<std::size_t>(std::ceil(open_s)) + 1);
  for (const Completion& c : done) {
    if (c.ok) {
      open.read_ms.push_back(c.latency_ms);
      open.window_ms[static_cast<std::size_t>(c.due - start)].push_back(c.latency_ms);
    } else {
      ++open.failed;
    }
    open.approximate += c.approximate ? 1 : 0;
  }
  // Host stalls make the generator late in bursts of a few ms (that wait is
  // in the latencies, timed from due). A generator that cannot keep up is
  // late on most of its events: the run is then invalid, not slow.
  const double late_p99 = quantile(open.late_ms, 0.99);
  const double late_p90 = quantile(open.late_ms, 0.90);
  const double late_p50 = quantile(open.late_ms, 0.50);
  if (late_p50 > kLateLimitMs)
    fail("invalid run: the generator fell behind its schedule (" +
         std::to_string(late_p50) + " ms late at p50, limit " +
         std::to_string(kLateLimitMs) + " ms)");
  // The read tail: p99 of each full 1 s window, median over the windows, so
  // one host stall moves one window, not the run's figure.
  std::vector<double> window_p99;
  std::size_t window_reads = 0;  // fewest reads in a full window
  for (const std::vector<double>& w : open.window_ms)
    if (w.size() >= kMinWindowReads) {
      window_p99.push_back(quantile(w, 0.99));
      window_reads = window_reads ? std::min(window_reads, w.size()) : w.size();
    }
  if (window_p99.size() < 3)
    fail("too few full windows of reads for a p99: " + std::to_string(window_p99.size()));
  const portal::serve::ServiceStats open_stats = service->stats();
  const double open_depth_p99 = service->queue_depth().quantile(0.99) * 1e9;
  const portal::obs::TraceReport trace =
      args.trace ? portal::obs::collect() : portal::obs::TraceReport{};
  portal::obs::set_enabled(false);

  // --- quiesced quality check -------------------------------------------
  double merge_ms = 0;
  double quality = 0;
  {
    if (spec.live) {
      const double m0 = now_s();
      service->merge_now();
      merge_ms = (now_s() - m0) * 1e3;
      // A few writes below the merge threshold, so the checked answers run
      // the two-root path (delta slots and main tombstones) at a stable view.
      for (int i = 0; i < kQuiescedWrites; ++i) {
        ++open.attempted;
        if (i % 2 == 0) {
          const std::vector<double> p = fresh_point();
          if (service->insert(p).status == portal::serve::IngestStatus::Ok) mirror.add(p);
          else ++open.failed;
        } else {
          const std::int64_t victim = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(mirror.size())));
          const std::vector<double> p(mirror.row(victim), mirror.row(victim) + spec.dim);
          if (service->remove(p).status == portal::serve::IngestStatus::Ok) mirror.remove_at(victim);
          else ++open.failed;
        }
      }
    }
    const std::shared_ptr<const portal::LiveView> view = service->view();
    std::vector<Read> qreads;
    std::vector<std::future<Response>> futures;
    for (std::size_t p = 0; p < plans.size(); ++p)
      for (int i = 0; i < kQualityPerPlan; ++i) {
        qreads.push_back(fresh_read(static_cast<int>(p)));
        futures.push_back(service->submit(handles[p], qreads.back().point));
      }
    double score = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ++open.attempted;
      const Response r = futures[i].get();
      if (r.status != Status::Ok) {
        ++open.failed;
        continue;
      }
      if (r.epoch != view->epoch() || r.watermark != view->watermark)
        fail("the quality check's view moved while quiesced");
      const Read& q = qreads[i];
      const PlanSpec& plan = plans[static_cast<std::size_t>(q.plan)];
      if (spec.live) {
        if (!check_exact(plan, spec, mirror, *view, q.point.data(), r.result))
          fail(std::string("wrong answer from the exact ") + plan.name + " plan");
        score += 1;
        continue;
      }
      // ann: distinct in-range ids, every returned distance exact, recall@k
      // against brute force.
      const std::vector<Neighbor> want = knn_reference(mirror.rows, spec.dim, q.point.data(), spec.k);
      if (r.result.ids.size() != r.result.values.size() || r.result.ids.size() > want.size() ||
          !distinct(r.result.ids))
        fail("approximate answer has a malformed or duplicated id list");
      int hits = 0;
      for (std::size_t j = 0; j < r.result.ids.size(); ++j) {
        const index_t id = r.result.ids[j];
        if (id < 0 || id >= mirror.size())
          fail("approximate answer names id " + std::to_string(id) + ", outside the data");
        const double d = std::sqrt(sq_dist(q.point.data(), mirror.row(id), spec.dim));
        if (!distances_match({r.result.values[j]}, {d}, 1e-9))
          fail("approximate answer carries an inexact distance");
        for (const Neighbor& w : want) hits += (w.second == id) ? 1 : 0;
      }
      score += static_cast<double>(hits) / static_cast<double>(want.size());
    }
    quality = score / static_cast<double>(futures.size());
    if (!spec.live && quality < kRecallFloor)
      fail("recall@10 " + std::to_string(quality) + " below the floor " +
           std::to_string(kRecallFloor));
  }

  // --- capacity and the 1-thread engine, interleaved ----------------------
  // Each round answers the fixed block of reads twice: through the service
  // with a fixed window of in-flight submits (completions counted), then on
  // this thread through serve::run_query against a pinned view, beside the
  // benchmark's reference work (Yardstick). Alternating puts both under the
  // same host conditions.
  std::vector<double> block_s, one_block_s, engine_us;
  std::vector<double> one_block_rel, block_rel, reference_s;
  portal::TraversalStats block_stats;
  {
    Yardstick yardstick;
    portal::serve::Workspace ws;
    std::vector<Completion> cap_done;  // one round's, so memory stays flat
    const double end = now_s() + rounds_s;
    while (now_s() < end || one_block_s.size() < kMinRounds) {
      std::vector<InFlight> inflight;
      std::size_t submitted = 0, completed = 0;
      const double t0 = now_s();
      while (completed < block.size()) {
        while (submitted < block.size() && inflight.size() < static_cast<std::size_t>(kWindow)) {
          const Read& rd = block[submitted++];
          inflight.push_back(
              {service->submit(handles[static_cast<std::size_t>(rd.plan)], rd.point), now_s()});
          ++open.attempted;
        }
        completed += static_cast<std::size_t>(poll(inflight, cap_done));
      }
      block_s.push_back(now_s() - t0);
      for (const Completion& c : cap_done) open.failed += c.ok ? 0 : 1;
      cap_done.clear();

      const std::shared_ptr<const portal::LiveView> view = service->view();
      const bool record = one_block_s.empty();
      const Yardstick::Timing t = yardstick.time([&] {
        for (const Read& rd : block) {
          const double q0 = record ? now_s() : 0;
          const portal::serve::QueryResult r = portal::serve::run_query(
              *handles[static_cast<std::size_t>(rd.plan)], *view, rd.point.data(), eopt, ws);
          if (record) {
            engine_us.push_back((now_s() - q0) * 1e6);
            block_stats += r.stats;
          }
        }
      });
      one_block_s.push_back(t.work_s);
      one_block_rel.push_back(t.ratio());
      reference_s.push_back(t.reference_s);
      block_rel.push_back(block_s.back() / t.reference_s);
    }
  }

  const double lat_p50 = quantile(open.read_ms, 0.5);
  const double engine_p50_ms = quantile(engine_us, 0.5) * 1e-3;
  if (engine_p50_ms > lat_p50)
    fail("self-check: single-thread engine p50 " + std::to_string(engine_p50_ms) +
         " ms exceeds the served latency p50 " + std::to_string(lat_p50) + " ms");
  report.attempted = open.attempted;
  report.failed = open.failed;
  char line[256];
  std::snprintf(line, sizeof(line),
                "open loop: %zu reads at %.0f/s, %zu writes at %.0f/s; p99 windows: "
                "%zu of >= %zu reads (>= %zu beyond each p99); rounds: %zu; merges: %llu",
                open.read_ms.size(), spec.read_qps, open.write_ms.size(), spec.write_qps,
                window_p99.size(), window_reads, window_reads / 100, block_s.size(),
                static_cast<unsigned long long>(open_stats.ingest.merges));
  report.note(line);
  // Per-plan single-thread engine cost, to show no plan dominates the mix.
  std::string per_plan = "engine p50 per plan (us):";
  for (std::size_t p = 0; p < plans.size(); ++p) {
    std::vector<double> us;
    for (std::size_t i = 0; i < block.size(); ++i)
      if (block[i].plan == static_cast<int>(p)) us.push_back(engine_us[i]);
    per_plan += std::string(" ") + plans[p].name + "=" + std::to_string(median(us));
  }
  report.note(per_plan);
  std::snprintf(line, sizeof(line),
                "generator lateness ms: p50 %.4f p90 %.4f p99 %.4f max %.4f",
                late_p50, late_p90, late_p99, quantile(open.late_ms, 1.0));
  report.note(line);

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("solve_1t_rel", median(one_block_rel), "ratio");
    report.metric("quality", quality, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // The service's request path (scheduler, workers, batching): completions
    // with kWindow in flight, never the offered rate. Not gated: its spread
    // across runs swings with the host (perfbench/README.md).
    report.info("solve_1t_s", median(one_block_s), "s");
    report.info("reference_s", median(reference_s), "s");
    report.info("solve_s", median(block_s), "s");
    report.info("solve_rel", median(block_rel), "ratio");
    report.info("capacity_qps", kBlock / median(block_s), "1/s");
    report.info("latency_p50_ms", lat_p50, "ms");
    report.info("latency_p99_ms", median(window_p99), "ms");
    if (spec.live) report.info("write_p99_ms", quantile(open.write_ms, 0.99), "ms");
    report.info("failed_ratio",
                static_cast<double>(open.failed) / static_cast<double>(open.attempted),
                "ratio");
    return;
  }

  // --- traced run: per-layer metrics --------------------------------------
  report.metric("core.compile_ms", median(compile_ms), "ms");
  double ir_nodes = 0;
  for (const auto& h : handles) {
    ir_nodes += static_cast<double>(portal::ir_node_count(h->plan.kernel.kernel_ir));
    if (h->plan.kernel.envelope_ir)
      ir_nodes += static_cast<double>(portal::ir_node_count(h->plan.kernel.envelope_ir));
  }
  report.metric("core.ir_nodes_out", ir_nodes, "count");

  // Untraced vs traced single-thread engine block: the overhead ratio.
  {
    const std::shared_ptr<const portal::LiveView> view = service->view();
    portal::serve::Workspace ws;
    std::vector<double> untraced, traced;
    for (int rep = 0; rep < 3; ++rep)
      for (const bool on : {false, true}) {
        portal::obs::set_enabled(on);
        const double t0 = now_s();
        for (const Read& rd : block)
          portal::serve::run_query(*handles[static_cast<std::size_t>(rd.plan)], *view,
                                   rd.point.data(), eopt, ws);
        (on ? traced : untraced).push_back(now_s() - t0);
      }
    portal::obs::set_enabled(false);
    report.metric("obs.trace_overhead_ratio", median(traced) / median(untraced),
                  "ratio");
  }

  // Tree build without the graph, traced for the SoA-mirror timer.
  {
    portal::obs::set_enabled(true);
    portal::obs::reset();
    std::vector<double> build_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_s();
      portal::TreeSnapshot::build(data, 1, portal::SnapshotOptions{});
      build_ms.push_back((now_s() - t0) * 1e3);
    }
    const portal::obs::TraceReport tt = portal::obs::collect();
    portal::obs::set_enabled(false);
    report.metric("tree.build_ms", median(build_ms), "ms");
    report.metric("tree.soa_mirror_ms", tt.timer_seconds("tree/soa_mirror") * 1e3 / 3,
                  "ms");
  }

  report.metric("traversal.parallel_speedup", median(one_block_s) / median(block_s),
                "ratio");
  if (spec.live) {  // the graph route bypasses the tree descent
    const double pairs = static_cast<double>(block_stats.pairs_visited);
    const double prunes = static_cast<double>(block_stats.prunes);
    report.metric("traversal.pairs_visited", pairs, "count");
    report.metric("traversal.prunes", prunes, "count");
    report.metric("traversal.base_cases", static_cast<double>(block_stats.base_cases),
                  "count");
    report.metric("traversal.prune_ratio", pairs > 0 ? prunes / pairs : 0, "ratio");
    report.metric("traversal.nodes_per_query", pairs / static_cast<double>(block.size()),
                  "count");
  }
  const double batch_pairs = static_cast<double>(trace.counter("base/batch_pairs"));
  const double scalar_pairs = static_cast<double>(trace.counter("base/scalar_pairs"));
  report.metric("kernels.batch_pair_ratio",
                batch_pairs + scalar_pairs > 0 ? batch_pairs / (batch_pairs + scalar_pairs) : 0,
                "ratio");
  report.metric("kernels.tile_ns_per_pair", tile_ns_per_pair(*data, 0, args.seconds * 0.05),
                "ns");

  report.metric("serve.plan_cache.hit_ratio", open_stats.plan_cache.hit_rate(), "ratio");
  report.metric("serve.prepare_us_p50", quantile(open.prepare_us, 0.5), "us");
  report.metric("serve.latency_p50_ms", lat_p50, "ms");
  report.metric("serve.latency_p99_ms", median(window_p99), "ms");
  report.metric("serve.engine_us_p50", quantile(engine_us, 0.5), "us");
  report.metric("serve.engine_us_p99", quantile(engine_us, 0.99), "us");
  report.metric("serve.queue_depth_p99", open_depth_p99, "count");
  report.metric("serve.mean_batch", open_stats.mean_batch(), "count");
  report.metric("serve.graph_route_ratio",
                static_cast<double>(open.approximate) / static_cast<double>(done.size()),
                "ratio");

  if (spec.live) {
    report.metric("live.insert_us_p50", quantile(open.insert_us, 0.5), "us");
    report.metric("live.write_p99_ms", quantile(open.write_ms, 0.99), "ms");
    report.metric("live.merges", static_cast<double>(open_stats.ingest.merges), "count");
    report.metric("live.merged_points", static_cast<double>(open_stats.ingest.merged_points),
                  "count");
    report.metric("live.overflow_waits",
                  static_cast<double>(trace.counter("serve/ingest/overflow_waits")), "count");
    report.metric("live.merge_ms", merge_ms, "ms");
  }
  if (const auto& graph = service->snapshot()->graph()) {
    const portal::KnnGraphStats& gs = graph->stats();
    report.metric("index.build_s", gs.build_seconds, "s");
    report.metric("index.build_dist_evals", static_cast<double>(gs.dist_evals), "count");
    report.metric("index.build_rounds", static_cast<double>(gs.rounds), "count");
    const double queries = static_cast<double>(trace.counter("index/graph/queries"));
    if (queries > 0) {
      report.metric("index.hops_per_query",
                    static_cast<double>(trace.counter("index/graph/hops")) / queries, "count");
      report.metric("index.dist_evals_per_query",
                    static_cast<double>(trace.counter("index/graph/dist_evals")) / queries,
                    "count");
    }
  }
  report.metric("harness.generator_late_p99_ms", late_p99, "ms");
}

}  // namespace perfbench
