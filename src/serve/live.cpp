#include "serve/live.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/trace.h"
#include "tree/kdtree.h"

namespace portal::serve {
namespace {

bool coords_equal(const Dataset& data, index_t i, const real_t* point,
                  index_t dim) {
  for (index_t d = 0; d < dim; ++d)
    if (data.coord(i, d) != point[d]) return false;
  return true;
}

/// Exact-coordinate lookup in the main tree: descend every node whose box
/// contains the point (tight boxes, so typically one path), scan the leaf
/// range for a bitwise match that `alive` accepts. Returns the *permuted*
/// index, or -1.
template <typename Alive>
index_t find_main_exact(const KdTree& kd, const real_t* point,
                        const Alive& alive) {
  std::vector<index_t> stack{kd.root_index()};
  while (!stack.empty()) {
    const index_t n = stack.back();
    stack.pop_back();
    const KdNode& node = kd.node(n);
    if (!node.box.contains(point)) continue;
    if (!node.is_leaf()) {
      stack.push_back(node.left);
      stack.push_back(node.right);
      continue;
    }
    for (index_t j = node.begin; j < node.end; ++j)
      if (alive(j) && coords_equal(kd.data(), j, point, kd.data().dim()))
        return j;
  }
  return -1;
}

/// The merge's parallel decomposition: walk down from the root, repeatedly
/// splitting the largest frontier node, until there are enough subtrees to
/// feed the machine. Preorder construction makes every frontier node one
/// contiguous permuted range, and together they partition [0, size).
std::vector<std::pair<index_t, index_t>> top_level_ranges(const KdTree& kd) {
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  const std::size_t target = static_cast<std::size_t>(std::max(1, 4 * threads));
  std::vector<index_t> frontier{kd.root_index()};
  while (frontier.size() < target) {
    std::size_t best = frontier.size();
    index_t best_count = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const KdNode& node = kd.node(frontier[i]);
      if (node.is_leaf()) continue;
      if (node.count() > best_count) {
        best_count = node.count();
        best = i;
      }
    }
    if (best == frontier.size()) break; // all leaves
    const KdNode& node = kd.node(frontier[best]);
    frontier[best] = node.left;
    frontier.push_back(node.right);
  }
  std::vector<std::pair<index_t, index_t>> ranges;
  ranges.reserve(frontier.size());
  for (const index_t n : frontier)
    ranges.emplace_back(kd.node(n).begin, kd.node(n).end);
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

IngestResult reject(std::string why) {
  IngestResult r;
  r.status = IngestStatus::Rejected;
  r.error = std::move(why);
  return r;
}

} // namespace

LiveStore::LiveStore(LiveStoreOptions options) : options_(std::move(options)) {
  if (options_.delta_capacity < 1) options_.delta_capacity = 1;
  if (options_.merge_threshold < 1) options_.merge_threshold = 1;
  if (options_.merge_threshold > options_.delta_capacity)
    options_.merge_threshold = options_.delta_capacity;
  if (options_.background_merge)
    merger_ = std::thread(&LiveStore::merger_loop, this);
}

LiveStore::~LiveStore() { stop(); }

void LiveStore::stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  merge_cv_.notify_all();
  space_cv_.notify_all();
  if (merger_.joinable()) merger_.join();
}

std::shared_ptr<const TreeSnapshot> LiveStore::publish(
    std::shared_ptr<const Dataset> data) {
  // Serialized against merges: a merge must never re-publish a union
  // gathered from a generation this publish retires.
  MutexLock merge_lock(merge_mutex_);
  auto snap = slot_.publish(std::move(data), options_.snapshot);
  {
    MutexLock lock(mu_);
    snap_ = snap;
    delta_ = std::make_shared<DeltaTree>(snap->dim(), options_.delta_capacity,
                                         snap->size());
    rebuild_view_locked();
  }
  space_cv_.notify_all();
  return snap;
}

void LiveStore::rebuild_view_locked() {
  auto view = std::make_shared<LiveView>();
  view->snapshot = snap_;
  view->delta = delta_;
  view->watermark = seq_;
  view->delta_count = delta_ ? delta_->count() : 0;
  // Every kill in the list so far carries a seq <= seq_, and every later one
  // a seq above it: the pinned prefix is exactly the kills this view sees.
  view->main_kills = delta_ ? delta_->main_kill_count() : 0;
  view_ = std::move(view);
}

std::shared_ptr<const LiveView> LiveStore::pin() const {
  MutexLock lock(mu_);
  return view_;
}

std::shared_ptr<const TreeSnapshot> LiveStore::snapshot() const {
  MutexLock lock(mu_);
  return snap_;
}

std::uint64_t LiveStore::current_epoch() const {
  MutexLock lock(mu_);
  return snap_ ? snap_->epoch() : 0;
}

std::uint64_t LiveStore::watermark() const {
  MutexLock lock(mu_);
  return seq_;
}

IngestResult LiveStore::insert(const real_t* point, index_t dim) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(options_.overflow_wait_ms);
  bool tried_sync = false;
  while (true) {
    bool want_sync = false;
    {
      MutexLock lock(mu_);
      if (!snap_) return reject("no dataset published");
      if (dim != snap_->dim())
        return reject("insert point has " + std::to_string(dim) +
                      " coordinates, dataset has " +
                      std::to_string(snap_->dim()));
      const index_t slot = delta_->append(point, seq_ + 1);
      if (slot >= 0) {
        ++seq_;
        rebuild_view_locked();
        inserts_.fetch_add(1, std::memory_order_relaxed);
        PORTAL_OBS_COUNT("serve/ingest/inserts", 1);
        if (delta_->count() >= options_.merge_threshold)
          merge_cv_.notify_one();
        IngestResult r;
        r.status = IngestStatus::Ok;
        r.seq = seq_;
        r.id = delta_->main_size() + slot;
        return r;
      }
      // Overflow admission: give the background merger a bounded window to
      // drain, then fall back to merging on this thread; reject only when a
      // merge genuinely could not free a slot.
      if (options_.background_merge && !stopping_ &&
          std::chrono::steady_clock::now() < deadline) {
        PORTAL_OBS_COUNT("serve/ingest/overflow_waits", 1);
        merge_cv_.notify_one();
        space_cv_.wait_for(mu_, std::chrono::milliseconds(10));
        continue;
      }
      if (!tried_sync) want_sync = true;
    }
    if (want_sync) {
      tried_sync = true;
      merge_once();
      continue;
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/ingest/rejected", 1);
    return reject("delta full (merge could not drain it)");
  }
}

IngestResult LiveStore::remove(const real_t* point, index_t dim) {
  MutexLock lock(mu_);
  if (!snap_) return reject("no dataset published");
  if (dim != snap_->dim())
    return reject("remove point has " + std::to_string(dim) +
                  " coordinates, dataset has " + std::to_string(snap_->dim()));

  // Newest-first over live delta slots: remove-then-reinsert-then-remove
  // chains must always take out the most recent incarnation.
  for (index_t s = delta_->count() - 1; s >= 0; --s) {
    if (delta_->slot_dead(s, seq_)) continue;
    if (!coords_equal(delta_->points(), s, point, dim)) continue;
    delta_->kill_slot(s, ++seq_);
    rebuild_view_locked();
    removes_.fetch_add(1, std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/ingest/removes", 1);
    IngestResult r;
    r.status = IngestStatus::Ok;
    r.seq = seq_;
    return r;
  }

  const index_t j = find_main_exact(
      *snap_->kd(), point,
      [&](index_t i) { return !delta_->main_dead(i, seq_); });
  if (j >= 0) {
    delta_->kill_main(j, ++seq_);
    rebuild_view_locked();
    removes_.fetch_add(1, std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/ingest/removes", 1);
    PORTAL_OBS_COUNT("serve/delta/tombstones", 1);
    IngestResult r;
    r.status = IngestStatus::Ok;
    r.seq = seq_;
    return r;
  }

  remove_misses_.fetch_add(1, std::memory_order_relaxed);
  PORTAL_OBS_COUNT("serve/ingest/remove_misses", 1);
  IngestResult r;
  r.status = IngestStatus::NotFound;
  r.error = "no visible point matches";
  return r;
}

bool LiveStore::merge_due_locked() const {
  return snap_ && snap_->kd() && delta_ &&
         delta_->count() >= options_.merge_threshold;
}

void LiveStore::merger_loop() {
  while (true) {
    {
      MutexLock lock(mu_);
      while (!stopping_ && !merge_due_locked()) merge_cv_.wait(mu_);
      if (stopping_) return;
    }
    merge_once();
  }
}

bool LiveStore::merge_now() { return merge_once(); }

bool LiveStore::merge_once() {
  MutexLock merge_lock(merge_mutex_);

  // Phase 1 -- cut: pin the current view (rebuilt under the store mutex on
  // every mutation, so it is the generation and watermark at the cut).
  // Everything at or below the cut is merged; everything above it is
  // replayed afterwards.
  std::shared_ptr<const LiveView> at_cut;
  {
    MutexLock lock(mu_);
    if (!snap_) return false;
    at_cut = view_;
  }
  const std::uint64_t cut = at_cut->watermark;
  const index_t count_at_cut = at_cut->delta_count;
  if (count_at_cut == 0 && !at_cut->filter_main()) {
    PORTAL_OBS_COUNT("serve/delta/merge_noops", 1);
    return false; // empty-delta no-op: no epoch churn
  }
  const KdTree* kd = at_cut->snapshot->kd().get();
  if (!kd) return false; // serving snapshots always carry one
  const DeltaTree& delta = *at_cut->delta;

  const index_t nmain = kd->data().size();
  const index_t dim = kd->data().dim();

  // Phase 2 -- gather the visible union at the cut, lock-free: the pinned
  // generation's slots, kill seqs and kill-list prefix are immutable. The
  // main side is sharded by the kd top-level splits; each shard is a
  // contiguous permuted range, counted from the kill prefix and copied
  // independently.
  const std::vector<std::pair<index_t, index_t>> shards =
      top_level_ranges(*kd);
  const std::ptrdiff_t ns = static_cast<std::ptrdiff_t>(shards.size());
  std::vector<index_t> offsets(shards.size() + 1, 0);
  for (std::size_t s = 0; s < shards.size(); ++s)
    offsets[s + 1] = offsets[s] + at_cut->main_visible_count(
                                      shards[s].first, shards[s].second);
  const index_t main_alive = offsets.back();

  std::vector<index_t> live_slots;
  live_slots.reserve(static_cast<std::size_t>(count_at_cut));
  for (index_t s = 0; s < count_at_cut; ++s)
    if (at_cut->slot_visible(s)) live_slots.push_back(s);

  const index_t total = main_alive + static_cast<index_t>(live_slots.size());
  if (total == 0) {
    // Everything visible at the cut is dead: there is no dataset to build a
    // tree over, so compact instead -- fresh generation against the same
    // main epoch, kill state carried over, post-cut suffix replayed. This
    // reclaims the delta capacity that dead slots were pinning.
    MutexLock lock(mu_);
    auto fresh = std::make_shared<DeltaTree>(dim, options_.delta_capacity,
                                             nmain);
    fresh->copy_main_kills(*delta_);
    replay_suffix(*delta_, cut, count_at_cut, nullptr, {}, {}, *fresh);
    delta_ = std::move(fresh);
    rebuild_view_locked();
    space_cv_.notify_all();
    compactions_.fetch_add(1, std::memory_order_relaxed);
    PORTAL_OBS_COUNT("serve/delta/compactions", 1);
    return true;
  }

  auto union_data = std::make_shared<Dataset>(total, dim);
  std::vector<index_t> main_to_new(static_cast<std::size_t>(nmain), -1);
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t s = 0; s < ns; ++s) {
    index_t pos = offsets[static_cast<std::size_t>(s)];
    for (index_t j = shards[static_cast<std::size_t>(s)].first;
         j < shards[static_cast<std::size_t>(s)].second; ++j) {
      if (!at_cut->main_visible(j)) continue;
      for (index_t d = 0; d < dim; ++d)
        union_data->coord(pos, d) = kd->data().coord(j, d);
      main_to_new[static_cast<std::size_t>(j)] = pos;
      ++pos;
    }
  }
  std::vector<index_t> delta_to_new(static_cast<std::size_t>(count_at_cut),
                                    -1);
  for (std::size_t i = 0; i < live_slots.size(); ++i) {
    const index_t slot = live_slots[i];
    const index_t pos = main_alive + static_cast<index_t>(i);
    for (index_t d = 0; d < dim; ++d)
      union_data->coord(pos, d) = delta.points().coord(slot, d);
    delta_to_new[static_cast<std::size_t>(slot)] = pos;
  }

  // Phase 3 -- build + publish the fresh epoch through the slot (epoch
  // grant, monotone-swap assertions, task-parallel tree builds inside
  // TreeSnapshot::build). Readers keep pinning the old pair throughout.
  const std::shared_ptr<const TreeSnapshot> new_snap = slot_.publish_with(
      [&](std::uint64_t epoch) {
        return TreeSnapshot::build(union_data, epoch, options_.snapshot);
      });

  // Phase 4 -- atomically retire the merged prefix: fresh generation, the
  // post-cut log suffix replayed with original seqs (so any watermark keeps
  // naming the same visible set), then one pair swap.
  {
    MutexLock lock(mu_);
    auto fresh = std::make_shared<DeltaTree>(dim, options_.delta_capacity,
                                             new_snap->size());
    replay_suffix(*delta_, cut, count_at_cut, new_snap->kd().get(),
                  main_to_new, delta_to_new, *fresh);
    snap_ = new_snap;
    delta_ = std::move(fresh);
    rebuild_view_locked();
  }
  space_cv_.notify_all();
  merges_.fetch_add(1, std::memory_order_relaxed);
  merged_points_.fetch_add(static_cast<std::uint64_t>(total),
                           std::memory_order_relaxed);
  PORTAL_OBS_COUNT("serve/delta/merges", 1);
  PORTAL_OBS_COUNT("serve/delta/merged_points",
                   static_cast<std::uint64_t>(total));
  return true;
}

void LiveStore::replay_suffix(const DeltaTree& old_delta, std::uint64_t cut,
                              index_t count_at_cut, const KdTree* new_kd,
                              const std::vector<index_t>& main_to_new,
                              const std::vector<index_t>& delta_to_new,
                              DeltaTree& fresh) {
  std::vector<index_t> slot_map(static_cast<std::size_t>(old_delta.count()),
                                -1);
  std::vector<real_t> pt(static_cast<std::size_t>(old_delta.dim()));
  std::uint64_t replayed = 0;
  for (const DeltaTree::Mutation& m : old_delta.log()) {
    if (m.seq <= cut) continue;
    ++replayed;
    switch (m.kind) {
      case DeltaTree::MutationKind::Insert: {
        // Post-cut inserts all fit: the fresh generation is empty and the
        // old one held them within the same capacity.
        old_delta.copy_point(m.index, pt.data());
        slot_map[static_cast<std::size_t>(m.index)] =
            fresh.append(pt.data(), m.seq);
        assert(slot_map[static_cast<std::size_t>(m.index)] >= 0);
        break;
      }
      case DeltaTree::MutationKind::RemoveDelta: {
        if (m.index >= count_at_cut) {
          // Removed a slot that was itself replayed above.
          fresh.kill_slot(slot_map[static_cast<std::size_t>(m.index)], m.seq);
        } else {
          // Removed a slot the merge just folded into the new main tree:
          // the removal becomes a main tombstone at its new permuted home.
          assert(new_kd != nullptr);
          const index_t pos = delta_to_new[static_cast<std::size_t>(m.index)];
          assert(pos >= 0);
          fresh.kill_main(new_kd->inverse_perm()[static_cast<std::size_t>(pos)],
                          m.seq);
        }
        break;
      }
      case DeltaTree::MutationKind::RemoveMain: {
        if (new_kd) {
          const index_t pos = main_to_new[static_cast<std::size_t>(m.index)];
          assert(pos >= 0);
          fresh.kill_main(new_kd->inverse_perm()[static_cast<std::size_t>(pos)],
                          m.seq);
        } else {
          // Compaction keeps the same main tree, so indices carry over.
          fresh.kill_main(m.index, m.seq);
        }
        break;
      }
    }
  }
  PORTAL_OBS_COUNT("serve/delta/replayed", replayed);
}

LiveStoreStats LiveStore::stats() const {
  LiveStoreStats s;
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.removes = removes_.load(std::memory_order_relaxed);
  s.remove_misses = remove_misses_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.merges = merges_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.merged_points = merged_points_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    s.watermark = seq_;
    s.epoch = snap_ ? snap_->epoch() : 0;
    s.delta_count = delta_ ? delta_->count() : 0;
  }
  return s;
}

} // namespace portal::serve
