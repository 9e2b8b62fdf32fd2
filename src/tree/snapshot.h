// Portal -- immutable dataset snapshots for the concurrent serving runtime.
//
// The query-serving engine (src/serve) answers requests against a *frozen*
// view of the reference data: a pinned dataset plus the spatial indexes
// built over it. Updates never mutate a live tree -- a writer builds a
// complete replacement snapshot off to the side (copy-rebuild) and then
// publishes it with one pointer swap, so in-flight traversals keep reading
// the epoch they started on and every request's answer is attributable to
// exactly one epoch. This is classic RCU-by-shared_ptr: readers pin a
// snapshot for the duration of a traversal; the last reader of a retired
// epoch frees it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "index/knn_graph.h"
#include "tree/kdtree.h"
#include "tree/octree.h"

namespace portal {

/// Which indexes a snapshot materializes. The kd-tree is the serving
/// default (every supported query runs on it); the octree is opt-in for
/// workloads that want it (it requires 3-D data and is built with unit
/// masses unless the publisher supplies its own). The k-NN graph
/// (index/knn_graph.h) is the opt-in third structure for approximate
/// high-dimensional serving; `graph` holds its build knobs.
struct SnapshotOptions {
  index_t leaf_size = kDefaultLeafSize;
  bool build_kd = true;
  bool build_octree = false;
  bool build_graph = false;
  KnnGraphOptions graph;
};

/// One immutable epoch: the source dataset (original point order, pinned so
/// external label arrays and identity keys stay valid) plus the trees built
/// over it. All members are set once at build time and never mutated, so a
/// snapshot is safe to read from any number of threads with no locking.
class TreeSnapshot {
 public:
  /// Builds every index requested by `options` over `source`. Heavy -- runs
  /// outside any lock (see SnapshotSlot::publish). Throws if `source` is
  /// null/empty or if build_octree is set on non-3-D data.
  static std::shared_ptr<const TreeSnapshot> build(
      std::shared_ptr<const Dataset> source, std::uint64_t epoch,
      const SnapshotOptions& options);

  std::uint64_t epoch() const { return epoch_; }
  const std::shared_ptr<const Dataset>& source() const { return source_; }
  index_t size() const { return source_->size(); }
  index_t dim() const { return source_->dim(); }

  /// Null when the corresponding SnapshotOptions flag was off.
  const std::shared_ptr<const KdTree>& kd() const { return kd_; }
  const std::shared_ptr<const Octree>& octree() const { return octree_; }
  const std::shared_ptr<const KnnGraph>& graph() const { return graph_; }

 private:
  TreeSnapshot() = default;

  std::uint64_t epoch_ = 0;
  std::shared_ptr<const Dataset> source_;
  std::shared_ptr<const KdTree> kd_;
  std::shared_ptr<const Octree> octree_;
  std::shared_ptr<const KnnGraph> graph_;
};

/// The single mutable cell of the serving data plane: an epoch-versioned
/// pointer to the current TreeSnapshot.
///
/// load() hands out a shared_ptr copy under a short mutex hold -- no tree
/// work ever happens inside the lock, so readers only contend on the
/// pointer copy itself (a few nanoseconds at per-batch granularity). A
/// plain mutex is deliberate over std::atomic<shared_ptr>: it is portable
/// across the toolchains CI exercises and is exactly what ThreadSanitizer
/// models best.
///
/// publish() serializes writers: the replacement snapshot is built with no
/// locks held, then swapped in under the pointer mutex. Epochs are handed
/// out monotonically, and because builders hold `publish_mutex_` from epoch
/// grant to swap, epoch N is never published after N+1 -- readers observe
/// a strictly increasing epoch sequence with no gaps going backward.
class SnapshotSlot {
 public:
  /// Builds the replacement snapshot for a granted epoch. Runs with only the
  /// writer lock held; must return a snapshot carrying exactly that epoch.
  using SnapshotBuilder =
      std::function<std::shared_ptr<const TreeSnapshot>(std::uint64_t epoch)>;

  /// Current snapshot, or null before the first publish. The returned
  /// pointer pins the epoch for as long as the caller holds it.
  ///
  /// Monotone-observation assertion: once any reader has seen epoch N, no
  /// later load() may return an epoch < N. The swap path already guarantees
  /// this, but a stale shared_ptr smuggled back through publish_with (the
  /// TreeCache-style bug this guards against) used to be silently served;
  /// now the retired epoch is caught here and at install time.
  std::shared_ptr<const TreeSnapshot> load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t epoch = current_ ? current_->epoch() : 0;
    if (epoch < max_observed_)
      throw std::logic_error(
          "SnapshotSlot::load: epoch " + std::to_string(epoch) +
          " observed after epoch " + std::to_string(max_observed_) +
          " was already served (retired snapshot republished?)");
    max_observed_ = epoch;
    return current_;
  }

  /// Epoch of the current snapshot (0 = nothing published yet).
  std::uint64_t current_epoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->epoch() : 0;
  }

  /// Copy-rebuild-swap: build a snapshot of `source` at the next epoch,
  /// then make it current. Returns the published snapshot. Readers holding
  /// the previous epoch are unaffected; its memory is reclaimed when the
  /// last of them drops its pointer.
  std::shared_ptr<const TreeSnapshot> publish(
      std::shared_ptr<const Dataset> source, const SnapshotOptions& options);

  /// Generalized publish: grants the next epoch, runs `build` (with only the
  /// writer lock held -- readers are unaffected), and installs the result.
  /// The delta-merge path uses this to build a snapshot from a gathered
  /// union dataset instead of a caller-supplied one. Throws std::logic_error
  /// -- without installing anything -- if the builder returns null, a
  /// snapshot stamped with a different epoch than the granted one, or an
  /// epoch not strictly above the current one (a retired snapshot resurfacing
  /// through a stale cache must never be re-published).
  std::shared_ptr<const TreeSnapshot> publish_with(const SnapshotBuilder& build);

 private:
  /// Swap-in under mutex_ with the monotonicity assertions. Requires
  /// publish_mutex_ held.
  void install(std::shared_ptr<const TreeSnapshot> snap, std::uint64_t granted);

  mutable std::mutex mutex_;     // guards current_ and max_observed_
  std::mutex publish_mutex_;     // serializes writers across build+swap
  std::uint64_t next_epoch_ = 1; // guarded by publish_mutex_
  std::shared_ptr<const TreeSnapshot> current_;
  /// Highest epoch any reader has observed through load(); lets load()
  /// detect a backward swap the instant it would become visible.
  mutable std::uint64_t max_observed_ = 0;
};

} // namespace portal
