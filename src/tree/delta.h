// Portal -- the mutable side of the incremental-ingestion data plane
// (DESIGN.md Sec. 16, docs/SERVING.md).
//
// A DeltaTree is the small, flat, bounded structure that absorbs live writes
// next to the immutable main TreeSnapshot: inserts append into a
// preallocated point store, removals are tombstones (a kill sequence number
// per delta slot, and one per *permuted main index* so removals of points
// that live in the main tree filter out of traversals without touching the
// tree). Every mutation is stamped by the owner's monotone mutation clock
// and recorded in an append-only log; a pinned (snapshot, delta, watermark)
// triple -- a LiveView -- therefore names an exact point-set: main points
// whose kill seq is 0 or > watermark, plus delta slots appended at seq <=
// watermark and not killed at seq <= watermark.
//
// Main tombstones are also kept as one append-only kill list of permuted
// indices in seq order. Its storage is reserved for main_size entries at the
// generation's first main kill (a main index dies at most once per
// generation), so it never moves under a reader, and a generation that never
// removes a main point allocates none. Seqs are issued in log order under
// the owner's mutex, so the main kills visible at a watermark are exactly
// the list prefix that existed when the view was pinned; the view records
// that prefix length, and counting a node's visible points costs O(min(node
// points, visible kills)) instead of O(node points).
//
// Concurrency contract (the event-driven decoupling of Dekate et al., PAPERS
// "Improving the scalability of parallel N-body applications"): all mutation
// entry points are serialized by the owning LiveStore's mutex -- the delta
// itself carries no lock. Readers never take a lock either: a reader's
// pinned delta_count was read under that mutex (so every slot below it was
// fully written happens-before the pin), slots are immutable once appended,
// and kill seqs are per-slot atomics written at most once (0 -> seq). A kill
// racing a pinned reader necessarily carries a seq above the reader's
// watermark, so whether the reader observes the store or not, its visibility
// decision is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "tree/snapshot.h"

namespace portal {

/// Flat bounded delta structure: one generation of live mutations between
/// two main-tree epochs. Created fresh by each merge; old generations stay
/// valid for readers that pinned them (all their visible state is immutable
/// at the reader's watermark).
class DeltaTree {
 public:
  enum class MutationKind : std::uint8_t {
    Insert,      // index = delta slot appended
    RemoveDelta, // index = delta slot tombstoned
    RemoveMain,  // index = *permuted* main-tree index tombstoned
  };

  /// One append-only log entry; the merge replays entries with seq above its
  /// cut watermark into the successor generation, preserving seqs.
  struct Mutation {
    std::uint64_t seq = 0;
    MutationKind kind = MutationKind::Insert;
    index_t index = -1;
  };

  /// `main_size` is the point count of the TreeSnapshot this generation
  /// rides next to (sizes the main-tombstone array, permuted indexing).
  DeltaTree(index_t dim, index_t capacity, index_t main_size);
  DeltaTree(const DeltaTree&) = delete;
  DeltaTree& operator=(const DeltaTree&) = delete;

  index_t dim() const { return points_.dim(); }
  index_t capacity() const {
    return static_cast<index_t>(insert_seq_.size());
  }
  index_t main_size() const {
    return static_cast<index_t>(main_kill_seq_.size());
  }

  // --- writer side: every call below must be serialized by the owning
  // --- LiveStore's mutex (the delta carries no lock of its own).

  /// Append a point at `seq`. Returns the slot, or -1 when full (the caller
  /// merges and retries). Coordinates are fully written before the caller
  /// makes the new count visible to readers.
  index_t append(const real_t* point, std::uint64_t seq);

  /// Tombstone a live delta slot / a live permuted main index. A slot or
  /// index is killed at most once per generation (re-inserting the same
  /// coordinates appends a fresh slot).
  void kill_slot(index_t slot, std::uint64_t seq);
  void kill_main(index_t permuted_index, std::uint64_t seq);

  /// Wholesale main-tombstone copy for compaction (the successor generation
  /// keeps the same main tree, so kill state carries over verbatim, in kill
  /// order, preserving seqs and without re-logging).
  void copy_main_kills(const DeltaTree& from);

  /// Appended slot count / main kill-list length. Writer-side only: readers
  /// must use the delta_count / main_kills pinned into their LiveView.
  index_t count() const { return count_; }
  index_t main_kill_count() const {
    return static_cast<index_t>(main_kills_.size());
  }
  const std::vector<Mutation>& log() const { return log_; }

  // --- reader side: safe from any thread against a pinned watermark.

  /// The slot store: a capacity-sized Dataset (paper layout policy), slots
  /// [0, pinned count) hold immutable points.
  const Dataset& points() const { return points_; }
  void copy_point(index_t slot, real_t* out) const {
    points_.copy_point(slot, out);
  }
  std::uint64_t insert_seq(index_t slot) const {
    return insert_seq_[static_cast<std::size_t>(slot)];
  }

  /// Was this delta slot / permuted main index removed at or before the
  /// watermark? (kill seq 0 = alive.)
  bool slot_dead(index_t slot, std::uint64_t watermark) const {
    const std::uint64_t k =
        kill_seq_[static_cast<std::size_t>(slot)].load(std::memory_order_relaxed);
    return k != 0 && k <= watermark;
  }
  bool main_dead(index_t permuted_index, std::uint64_t watermark) const {
    const std::uint64_t k = main_kill_seq_[static_cast<std::size_t>(permuted_index)]
                                .load(std::memory_order_relaxed);
    return k != 0 && k <= watermark;
  }

  /// The main kill list, in kill order. Entries [0, pinned main_kills) are
  /// immutable and later appends never move them. Read it only through a
  /// view with main_kills > 0: the storage is allocated by the first kill.
  const index_t* main_kills() const { return main_kills_.data(); }

 private:
  void append_main_kill(index_t permuted_index);

  index_t count_ = 0; // writer-side; readers pin a count via LiveView
  Dataset points_;    // preallocated capacity x dim slot store
  std::vector<std::uint64_t> insert_seq_;           // immutable once visible
  std::vector<std::atomic<std::uint64_t>> kill_seq_;      // 0 = alive
  std::vector<std::atomic<std::uint64_t>> main_kill_seq_; // permuted index
  std::vector<index_t> main_kills_; // main_size reserved at the first kill
  std::vector<Mutation> log_;
};

/// A pinned, fully consistent read view of the live data plane: one main
/// snapshot epoch, one delta generation, and the mutation-clock watermark at
/// pin time. The (epoch, watermark) pair names the exact visible point-set;
/// every query answered through a view is attributable -- and replayable
/// bitwise -- against it. Copied out under the LiveStore mutex, so the pair
/// can never be torn across a merge publish.
struct LiveView {
  std::shared_ptr<const TreeSnapshot> snapshot;
  std::shared_ptr<const DeltaTree> delta; // null on snapshot-only views
  std::uint64_t watermark = 0;
  index_t delta_count = 0; // visible slots are [0, delta_count)
  index_t main_kills = 0;  // visible main kills are delta->main_kills()[0, n)

  std::uint64_t epoch() const { return snapshot ? snapshot->epoch() : 0; }

  /// Does any main point need a visibility check? Zero lets the query
  /// engine skip per-point filtering entirely (the insert-mostly case pays
  /// nothing for removals it never made).
  bool filter_main() const { return main_kills > 0; }

  /// Visibility of one delta slot / one permuted main index at this view.
  bool slot_visible(index_t slot) const {
    return slot < delta_count && !delta->slot_dead(slot, watermark);
  }
  bool main_visible(index_t permuted_index) const {
    return !filter_main() || !delta->main_dead(permuted_index, watermark);
  }

  /// Visible main points in the permuted range [begin, end): the range size
  /// minus the visible kills inside it, at O(min(end - begin, main_kills)).
  index_t main_visible_count(index_t begin, index_t end) const;

  /// Exact visible point count (main survivors + live delta slots).
  index_t live_size() const;
};

} // namespace portal
