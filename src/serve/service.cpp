#include "serve/service.h"

#include <utility>

#include "obs/trace.h"

namespace portal::serve {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

ServiceOptions normalize(ServiceOptions options) {
  if (options.workers < 1) options.workers = 1;
  if (options.max_batch < 1) options.max_batch = 1;
  if (options.queue_capacity < 1) options.queue_capacity = 1;
  if (options.beam_width < 1) options.beam_width = 1;
  // Asking for approximate mode implies the snapshot must carry the graph;
  // flipping build_graph here (rather than at each publish) also flows
  // through the delta-merge rebuilds, which reuse these snapshot options.
  if (options.approx || options.approx_auto_dim > 0)
    options.snapshot.build_graph = true;
  return options;
}

LiveStoreOptions live_options(const ServiceOptions& options) {
  LiveStoreOptions lo;
  lo.snapshot = options.snapshot;
  lo.delta_capacity = options.delta_capacity;
  lo.merge_threshold = options.merge_threshold;
  lo.background_merge = options.background_merge;
  lo.overflow_wait_ms = options.ingest_wait_ms;
  return lo;
}

} // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Rejected: return "rejected";
    case Status::Expired: return "expired";
    case Status::Error: return "error";
  }
  return "?";
}

PortalService::PortalService(ServiceOptions options)
    : options_(normalize(std::move(options))), store_(live_options(options_)) {
  if (options_.jit) {
    PlanCache::JitOptions jit;
    jit.enabled = true;
    jit.cache_dir = options_.jit_cache_dir;
    cache_.configure_jit(jit);
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back(&PortalService::worker_loop, this);
}

PortalService::~PortalService() { stop(); }

std::shared_ptr<const TreeSnapshot> PortalService::publish(Dataset data) {
  return publish(std::make_shared<const Dataset>(std::move(data)));
}

std::shared_ptr<const TreeSnapshot> PortalService::publish(
    std::shared_ptr<const Dataset> data) {
  auto snap = store_.publish(std::move(data));
  PORTAL_OBS_COUNT("serve/publishes", 1);
  return snap;
}

PlanHandle PortalService::prepare(const OpSpec& op, const PortalFunc& func) {
  LayerSpec inner;
  inner.op = op;
  inner.func = func;
  return prepare(std::move(inner));
}

PlanHandle PortalService::prepare(LayerSpec inner) {
  auto snap = store_.snapshot();
  if (!snap)
    throw std::logic_error(
        "PortalService::prepare: publish() a dataset first (plans compile "
        "against its shape)");
  PortalConfig config;
  config.tau = options_.tau;
  config.strength_reduction = options_.strength_reduction;
  config.leaf_size = options_.snapshot.leaf_size;
  config.batch_base_cases = options_.batch_base_cases;
  return cache_.get_or_compile(inner, *snap->source(), config);
}

bool PortalService::past_deadline(const Pending& pending) const {
  return pending.deadline_ms > 0 &&
         elapsed_ms(pending.enqueued, std::chrono::steady_clock::now()) >
             pending.deadline_ms;
}

bool PortalService::expire_if_late(Pending& pending, const char* why) {
  if (!past_deadline(pending)) return false;
  expired_.fetch_add(1, std::memory_order_relaxed);
  PORTAL_OBS_COUNT("serve/expired", 1);
  Response resp;
  resp.status = Status::Expired;
  resp.error = why;
  fulfill(pending, std::move(resp));
  return true;
}

void PortalService::fulfill(Pending& pending, Response response) {
  response.latency_ms =
      elapsed_ms(pending.enqueued, std::chrono::steady_clock::now());
  latency_.record(response.latency_ms * 1e-3);
  pending.promise.set_value(std::move(response));
}

std::future<Response> PortalService::submit(PlanHandle plan,
                                            std::vector<real_t> point,
                                            double deadline_ms) {
  auto pending = std::make_unique<Pending>();
  pending->enqueued = std::chrono::steady_clock::now();
  pending->plan = std::move(plan);
  pending->point = std::move(point);
  pending->deadline_ms =
      deadline_ms < 0 ? options_.default_deadline_ms : deadline_ms;
  std::future<Response> future = pending->promise.get_future();

  if (!pending->plan) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.status = Status::Error;
    resp.error = "null plan handle";
    fulfill(*pending, std::move(resp));
    return future;
  }
  if (static_cast<index_t>(pending->point.size()) != pending->plan->dim) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.status = Status::Error;
    resp.error = "query point has " + std::to_string(pending->point.size()) +
                 " coordinates, plan expects " +
                 std::to_string(pending->plan->dim);
    fulfill(*pending, std::move(resp));
    return future;
  }

  bool admitted = false;
  bool stopped = false;
  {
    MutexLock lock(mutex_);
    if (options_.block_on_full) {
      while (!stopping_ && queue_.size() >= options_.queue_capacity)
        space_cv_.wait(mutex_);
    }
    if (stopping_ || queue_.size() >= options_.queue_capacity) {
      stopped = stopping_;
    } else {
      depth_.record_ns(queue_.size());
      queue_.push_back(std::move(pending));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      admitted = true;
    }
  }
  if (!admitted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/rejected", 1);
    Response resp;
    resp.status = Status::Rejected;
    resp.error = stopped ? "service stopped" : "queue full";
    fulfill(*pending, std::move(resp));
    return future;
  }
  PORTAL_OBS_COUNT("serve/submitted", 1);
  work_cv_.notify_one();
  return future;
}

void PortalService::worker_loop() {
  Workspace ws;
  std::vector<std::unique_ptr<Pending>> batch;
  while (true) {
    batch.clear();
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(mutex_);
      if (queue_.empty()) break; // stopping and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Micro-batch coalescing: pull every queued request sharing the head's
      // plan fingerprint (up to max_batch), preserving the relative order of
      // everything left behind. The whole batch then runs against one pinned
      // snapshot with warm per-plan state.
      const std::uint64_t key = batch.front()->plan->fingerprint;
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        if ((*it)->plan->fingerprint == key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      if (options_.block_on_full) space_cv_.notify_all();
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/batches", 1);
    PORTAL_OBS_COUNT("serve/coalesced",
                     static_cast<std::uint64_t>(batch.size()));

    // Pin one live view for the whole batch: every member is answered at
    // the same (epoch, watermark) even if a publish, ingest, or merge lands
    // mid-batch.
    const std::shared_ptr<const LiveView> view = store_.pin();
    EngineOptions eopt;
    eopt.batch_base_cases = options_.batch_base_cases;
    eopt.tau = options_.tau;
    eopt.beam_width = options_.beam_width;
    eopt.approx =
        options_.approx ||
        (options_.approx_auto_dim > 0 && view && view->snapshot &&
         view->snapshot->dim() >= options_.approx_auto_dim);

    // One run-to-completion descent per request; a request's engine error
    // fails that request alone.
    for (std::unique_ptr<Pending>& pending : batch) {
      // Deadline check at this request's turn, not just at dequeue: the
      // requests ahead of it in the batch may have consumed its budget.
      if (expire_if_late(*pending, "deadline exceeded in queue")) continue;
      Response resp;
      if (!view) {
        resp.status = Status::Error;
        resp.error = "no dataset published";
        errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        try {
          resp.result = run_query(*pending->plan, *view,
                                  pending->point.data(), eopt, ws);
          resp.status = Status::Ok;
          resp.epoch = view->epoch();
          resp.watermark = view->watermark;
          resp.approximate =
              view->snapshot &&
              routes_to_graph(*pending->plan, *view->snapshot, eopt);
          if (options_.capture_view) resp.view = view;
        } catch (const std::exception& e) {
          resp.status = Status::Error;
          resp.error = e.what();
          errors_.fetch_add(1, std::memory_order_relaxed);
        }
        // Re-check after execution: the deadline may have passed *during*
        // this request's own descent, and a deadline-carrying client has
        // stopped waiting -- fulfilling Ok here would under-count expiries
        // and misreport a late answer as on-time.
        if (resp.status == Status::Ok) {
          if (expire_if_late(*pending, "deadline exceeded during execution"))
            continue;
          completed_.fetch_add(1, std::memory_order_relaxed);
          PORTAL_OBS_COUNT("serve/completed", 1);
        }
      }
      fulfill(*pending, std::move(resp));
    }
  }
}

ServiceStats PortalService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mutex_);
    s.queue_depth = queue_.size();
  }
  s.epoch = store_.current_epoch();
  s.plan_cache = cache_.stats();
  s.ingest = store_.stats();
  return s;
}

void PortalService::stop() {
  // Serialize whole-stop against concurrent stop() calls (explicit stop
  // racing the destructor); the queue mutex alone can't cover the joins.
  MutexLock stop_lock(stop_mutex_);
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  // Join the background merger too; merges stay available synchronously.
  store_.stop();
  // Workers drain the queue before exiting, but a submit() racing stop() may
  // have slipped a request in after the last worker left.
  std::deque<std::unique_ptr<Pending>> leftovers;
  {
    MutexLock lock(mutex_);
    leftovers.swap(queue_);
  }
  for (std::unique_ptr<Pending>& pending : leftovers) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.status = Status::Rejected;
    resp.error = "service stopped";
    fulfill(*pending, std::move(resp));
  }
}

} // namespace portal::serve
