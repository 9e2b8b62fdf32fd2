// Portal -- PortalService: the concurrent query-serving runtime
// (DESIGN.md Sec. 13, docs/SERVING.md).
//
// Ties the three serving pieces together behind one object:
//   * a PlanCache (serve/plan_cache.h): prepare() resolves a layer chain to
//     a shared compiled plan, compiling at most once per distinct chain;
//   * a LiveStore (serve/live.h): publish() copy-rebuild-swaps an immutable
//     dataset + tree epoch; insert()/remove() land in a bounded delta
//     generation beside it and a background merger folds them into fresh
//     epochs; every batch answers against one pinned (snapshot, delta,
//     watermark) view, so in-flight requests keep the point-set they
//     started on;
//   * a micro-batching scheduler: submit() enqueues onto a bounded MPMC
//     queue (admission control: reject or block when full, per-request
//     deadlines), worker threads dequeue and coalesce same-plan requests
//     into one batch answered back-to-back against one pinned snapshot
//     tree, fulfilling a std::future per request with the result, the
//     serving epoch, and the measured latency.
//
// Observability: always-on latency and queue-depth histograms
// (obs/histogram.h) plus serve/* trace counters (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "serve/engine.h"
#include "serve/live.h"
#include "serve/plan_cache.h"
#include "tree/snapshot.h"
#include "util/thread_annotations.h"

namespace portal::serve {

enum class Status {
  Ok,       // answered; result/epoch/latency valid
  Rejected, // admission control: queue full (or service stopped)
  Expired,  // deadline passed in the queue or during the request's descent
  Error,    // the engine threw; see Response::error
};

const char* status_name(Status s);

struct Response {
  Status status = Status::Rejected;
  QueryResult result;       // valid when status == Ok
  std::uint64_t epoch = 0;  // snapshot epoch that answered the request
  /// Mutation-clock watermark of the pinned view that answered the request:
  /// (epoch, watermark) names the exact visible point-set the answer is
  /// attributable to (tree/delta.h).
  std::uint64_t watermark = 0;
  double latency_ms = 0;    // submit() to fulfillment
  /// True iff this answer came from the approximate graph path
  /// (engine.h routes_to_graph): exact per-candidate values, completeness
  /// bounded by the beam width. Always false when the request ran the exact
  /// descent -- even with approx mode on, plans the graph cannot honor fall
  /// through to the exact engine, and this flag reports what actually
  /// happened, not what was asked for.
  bool approximate = false;
  std::string error;
  /// The pinned view itself, set only when ServiceOptions::capture_view:
  /// lets differential tests brute-force the exact point-set this answer
  /// saw, long after the store has merged past it.
  std::shared_ptr<const LiveView> view;
};

struct ServiceOptions {
  int workers = 2;
  std::size_t queue_capacity = 1024;
  std::size_t max_batch = 64;      // same-plan requests coalesced per dequeue
  double default_deadline_ms = 0;  // 0 = no deadline
  bool block_on_full = false;      // false: reject when full; true: submit()
                                   // blocks until space (backpressure)
  real_t tau = 0;                  // SUM approximation budget; 0 = exact
  bool batch_base_cases = true;    // SIMD leaf tiles in the engine
  bool strength_reduction = true;  // compiler knob passed to plan compiles
  /// Also JIT-compile every served plan (fused leaf-tile loops; the VM
  /// stays the fallback and the bitwise oracle). Compiled `.so` artifacts
  /// persist in jit_cache_dir -- or the PORTAL_JIT_CACHE_DIR process cache
  /// when empty -- so a restarted service warm-starts with zero compiler
  /// invocations (DESIGN.md Sec. 17, docs/SERVING.md).
  bool jit = false;
  std::string jit_cache_dir;
  /// --- approximate mode (DESIGN.md Sec. 18, docs/SERVING.md) ---
  /// Runtime serving parameters like tau: they never enter plan identity,
  /// so exact and approximate callers at any beam width share one compiled
  /// plan. `approx` routes every eligible request through the snapshot's
  /// k-NN graph; `approx_auto_dim` > 0 turns approx on automatically when
  /// the published dataset's dimensionality reaches the threshold (0 =
  /// never automatic). Setting either makes publish() build the graph
  /// (snapshot.build_graph) so the route is available.
  bool approx = false;
  index_t approx_auto_dim = 0;
  index_t beam_width = 64;         // graph beam; recall/latency knob
  SnapshotOptions snapshot;        // leaf size + which trees publish() builds
  // --- live ingestion (serve/live.h, docs/SERVING.md "Live ingestion") ---
  index_t delta_capacity = 4096;   // slots per delta generation
  index_t merge_threshold = 1024;  // pending slots that wake the merger
  bool background_merge = true;    // false: overflow merges run inline
  double ingest_wait_ms = 500;     // overflow admission window for insert()
  /// Attach the pinned LiveView to every Ok response (Response::view). Off
  /// by default: it extends the lifetime of retired generations for as long
  /// as callers hold their responses. The ingest stress tests turn it on to
  /// replay each answer against its exact point-set.
  bool capture_view = false;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;          // worker dequeues
  std::uint64_t batched_requests = 0; // requests served through those batches
  std::size_t queue_depth = 0;        // at the time of the stats() call
  std::uint64_t epoch = 0;            // current snapshot epoch (0 = none)
  PlanCache::Stats plan_cache;
  LiveStoreStats ingest;              // insert/remove/merge counters

  double mean_batch() const {
    return batches == 0 ? 0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

class PortalService {
 public:
  explicit PortalService(ServiceOptions options = {});
  ~PortalService(); // stop()s and drains
  PortalService(const PortalService&) = delete;
  PortalService& operator=(const PortalService&) = delete;

  /// Copy-rebuild-swap: build the next snapshot epoch over `data` and make
  /// it current. Safe at any time, including under full query load.
  std::shared_ptr<const TreeSnapshot> publish(Dataset data);
  std::shared_ptr<const TreeSnapshot> publish(
      std::shared_ptr<const Dataset> data);

  /// Current snapshot (null before the first publish). Holding the returned
  /// pointer pins that epoch.
  std::shared_ptr<const TreeSnapshot> snapshot() const {
    return store_.snapshot();
  }

  /// Pin the current (snapshot, delta, watermark) view -- what the next
  /// admitted query batch would answer against. Null before publish().
  std::shared_ptr<const LiveView> view() const { return store_.pin(); }

  // --- live ingestion endpoints (serve/live.h). Synchronous: they return
  // --- once the mutation is visible to the next pinned view (O(dim) mutex
  // --- hold for inserts; removals of main-tree points add one exact
  // --- kd descent). Safe from any thread, concurrent with queries, merges,
  // --- and publish().

  /// Append one point. Ok => Response-visible at seq; id is the
  /// client-visible identity (main_size + slot for the current generation).
  /// Rejected when the delta is full and a merge could not drain it within
  /// ingest_wait_ms (admission control, mirroring submit()'s queue policy).
  IngestResult insert(const std::vector<real_t>& point) {
    return store_.insert(point.data(), static_cast<index_t>(point.size()));
  }

  /// Tombstone the unique visible point with exactly these coordinates.
  /// NotFound when nothing visible matches.
  IngestResult remove(const std::vector<real_t>& point) {
    return store_.remove(point.data(), static_cast<index_t>(point.size()));
  }

  /// Run one delta merge synchronously on the calling thread (tests and
  /// orderly shutdown; the background merger does this on its own once the
  /// delta crosses merge_threshold).
  bool merge_now() { return store_.merge_now(); }

  /// Resolve a query chain (FORALL over request points -> inner layer) to a
  /// compiled plan, through the plan cache. Requires a published dataset
  /// (the chain compiles against its shape). Throws std::invalid_argument
  /// for unsupported operators/kernels, std::logic_error before publish().
  PlanHandle prepare(const OpSpec& op, const PortalFunc& func);
  PlanHandle prepare(LayerSpec inner); // inner.storage is ignored

  /// Enqueue one query point. Returns immediately with a future that
  /// resolves to the Response (including non-Ok admission outcomes, so
  /// callers have one result path). `deadline_ms` < 0 means "use the
  /// service default"; 0 disables the deadline for this request.
  std::future<Response> submit(PlanHandle plan, std::vector<real_t> point,
                               double deadline_ms = -1);

  ServiceStats stats() const;
  obs::LatencyHistogram::Snapshot latency() const { return latency_.snapshot(); }
  /// Queue depth observed at each submit (quantiles are unit-agnostic).
  obs::LatencyHistogram::Snapshot queue_depth() const { return depth_.snapshot(); }
  const ServiceOptions& options() const { return options_; }

  /// Drain the queue (workers finish everything already admitted), then join
  /// the workers. New submits are rejected from the moment stop() is
  /// entered. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Pending {
    std::promise<Response> promise;
    PlanHandle plan;
    std::vector<real_t> point;
    double deadline_ms = 0;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  void fulfill(Pending& pending, Response response);
  /// Has this request's deadline passed as of now?
  bool past_deadline(const Pending& pending) const;
  /// Fulfill Expired (counting it) if the deadline has passed; returns
  /// whether the request was consumed.
  bool expire_if_late(Pending& pending, const char* why);

  ServiceOptions options_;
  LiveStore store_; // snapshot slot + delta generation + background merger
  PlanCache cache_;

  Mutex stop_mutex_;    // serializes stop() (see service.cpp)
  mutable Mutex mutex_; // guards queue_ and stopping_
  CondVar work_cv_;
  CondVar space_cv_;
  std::deque<std::unique_ptr<Pending>> queue_ PORTAL_GUARDED_BY(mutex_);
  bool stopping_ PORTAL_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;

  obs::LatencyHistogram latency_;
  obs::LatencyHistogram depth_;
  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, rejected_{0},
      expired_{0}, errors_{0}, batches_{0}, batched_requests_{0};
};

} // namespace portal::serve
