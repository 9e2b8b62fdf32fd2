// Tests for the incremental-ingestion data plane (tree/delta.h,
// serve/live.h): DeltaTree slot/tombstone visibility at pinned watermarks,
// LiveView point-set semantics, the SnapshotSlot monotone-publish
// assertions (publish_with epoch grants, stale-snapshot rejection), and the
// LiveStore lifecycle edge cases the merge design pins -- remove-then-
// reinsert, main-tree tombstones, delta overflow forcing a synchronous
// merge, empty-delta no-op merges, all-dead compaction, pinned views
// surviving a merge bitwise, and epoch monotonicity across racing merges --
// plus the ServeTombstones wall: SUM plans' bulk node counts (AcceptAll,
// Approximate) on views holding main tombstones, against brute force over
// the view's visible points. The whole file runs in the TSan and ASan CI
// jobs (ctest -R 'TreeDelta|LiveStore|ServeTombstones').
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/engine.h"
#include "serve/live.h"
#include "serve/plan_cache.h"
#include "tree/delta.h"
#include "tree/snapshot.h"

namespace portal {
namespace {

using serve::EngineOptions;
using serve::IngestResult;
using serve::IngestStatus;
using serve::LiveStore;
using serve::LiveStoreOptions;
using serve::PlanCache;
using serve::PlanHandle;
using serve::QueryResult;
using serve::run_query;
using serve::run_query_bruteforce;
using serve::Workspace;

LayerSpec chain(OpSpec op, PortalFunc func) {
  LayerSpec inner;
  inner.op = op;
  inner.func = func;
  return inner;
}

PlanHandle compile(const LayerSpec& spec, const Dataset& reference) {
  PortalConfig config;
  config.tau = 0;
  PlanCache cache;
  return cache.get_or_compile(spec, reference, config);
}

std::vector<real_t> point_of(const Dataset& data, index_t i) {
  std::vector<real_t> pt(data.dim());
  for (index_t d = 0; d < data.dim(); ++d) pt[d] = data.coord(i, d);
  return pt;
}

/// Values bitwise (NaN-aware), ids exactly.
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
// DeltaTree
// ---------------------------------------------------------------------------

TEST(TreeDelta, CtorValidatesShape) {
  EXPECT_THROW(DeltaTree(0, 8, 10), std::invalid_argument);
  EXPECT_THROW(DeltaTree(3, 0, 10), std::invalid_argument);
  DeltaTree delta(3, 8, 0); // empty main side is fine (pre-publish shape)
  EXPECT_EQ(delta.capacity(), 8);
  EXPECT_EQ(delta.main_size(), 0);
}

TEST(TreeDelta, AppendStoresPointsSeqsAndLog) {
  DeltaTree delta(2, 3, 10);
  const real_t a[] = {1.0, 2.0};
  const real_t b[] = {3.0, 4.0};
  EXPECT_EQ(delta.append(a, 1), 0);
  EXPECT_EQ(delta.append(b, 2), 1);
  EXPECT_EQ(delta.count(), 2);
  EXPECT_EQ(delta.points().coord(0, 1), 2.0);
  EXPECT_EQ(delta.points().coord(1, 0), 3.0);
  EXPECT_EQ(delta.insert_seq(0), 1u);
  EXPECT_EQ(delta.insert_seq(1), 2u);
  ASSERT_EQ(delta.log().size(), 2u);
  EXPECT_EQ(delta.log()[1].kind, DeltaTree::MutationKind::Insert);
  EXPECT_EQ(delta.log()[1].index, 1);
  EXPECT_EQ(delta.log()[1].seq, 2u);

  // Bounded: the third slot fills the store, the fourth append reports full.
  EXPECT_EQ(delta.append(a, 3), 2);
  EXPECT_EQ(delta.append(b, 4), -1);
  EXPECT_EQ(delta.count(), 3);
}

TEST(TreeDelta, SlotTombstoneVisibilityByWatermark) {
  DeltaTree delta(1, 4, 0);
  const real_t p[] = {7.0};
  delta.append(p, 1);
  delta.append(p, 2);
  delta.kill_slot(0, 5);

  // kill seq 0 = alive at every watermark.
  EXPECT_FALSE(delta.slot_dead(1, 1));
  EXPECT_FALSE(delta.slot_dead(1, 100));
  // Killed at 5: alive to views pinned strictly before, dead at and after.
  EXPECT_FALSE(delta.slot_dead(0, 4));
  EXPECT_TRUE(delta.slot_dead(0, 5));
  EXPECT_TRUE(delta.slot_dead(0, 6));
  ASSERT_EQ(delta.log().size(), 3u);
  EXPECT_EQ(delta.log()[2].kind, DeltaTree::MutationKind::RemoveDelta);
}

TEST(TreeDelta, MainTombstonesAndWholesaleCopy) {
  DeltaTree delta(2, 4, 6);
  EXPECT_EQ(delta.main_kill_count(), 0);
  delta.kill_main(5, 2);
  delta.kill_main(3, 7);
  EXPECT_EQ(delta.main_kill_count(), 2);
  // The kill list holds permuted indices in kill (seq) order.
  EXPECT_EQ(delta.main_kills()[0], 5);
  EXPECT_EQ(delta.main_kills()[1], 3);
  EXPECT_TRUE(delta.main_dead(5, 2));
  EXPECT_FALSE(delta.main_dead(5, 1));
  EXPECT_FALSE(delta.main_dead(3, 6));
  EXPECT_TRUE(delta.main_dead(3, 7));
  EXPECT_FALSE(delta.main_dead(0, 100));

  // Compaction carry-over: same main tree, kill state copied verbatim with
  // seqs preserved (watermark semantics must not shift), nothing re-logged.
  DeltaTree fresh(2, 4, 6);
  fresh.copy_main_kills(delta);
  EXPECT_EQ(fresh.main_kill_count(), 2);
  EXPECT_EQ(fresh.main_kills()[0], 5);
  EXPECT_EQ(fresh.main_kills()[1], 3);
  EXPECT_FALSE(fresh.main_dead(5, 1));
  EXPECT_TRUE(fresh.main_dead(5, 2));
  EXPECT_TRUE(fresh.main_dead(3, 7));
  EXPECT_TRUE(fresh.log().empty());
}

TEST(TreeDelta, RemoveThenReinsertIsAFreshSlot) {
  // Re-inserting removed coordinates never resurrects the old slot: each
  // watermark sees exactly the incarnations alive at its pin time.
  DeltaTree delta(2, 4, 0);
  const real_t p[] = {1.5, -2.5};
  const index_t first = delta.append(p, 1);
  delta.kill_slot(first, 2);
  const index_t second = delta.append(p, 3);
  ASSERT_NE(first, second);

  EXPECT_FALSE(delta.slot_dead(first, 1)); // view at 1: first alive
  EXPECT_TRUE(delta.slot_dead(first, 2));  // view at 2: gone
  EXPECT_TRUE(delta.slot_dead(first, 3));  // view at 3: first gone...
  EXPECT_FALSE(delta.slot_dead(second, 3)); // ...second alive
  EXPECT_EQ(delta.insert_seq(second), 3u);
}

TEST(TreeDelta, LiveViewNamesTheExactPointSet) {
  const auto source =
      std::make_shared<const Dataset>(make_uniform(20, 2, 77));
  const auto snap = TreeSnapshot::build(source, 1, {});
  auto delta = std::make_shared<DeltaTree>(2, 8, snap->size());
  const real_t p[] = {0.5, 0.5};
  delta->append(p, 1);
  delta->append(p, 2);
  delta->append(p, 3);
  delta->kill_slot(1, 4);
  delta->kill_main(0, 5);

  LiveView view;
  view.snapshot = snap;
  view.delta = delta;
  view.watermark = 4;  // pinned before the main kill
  view.delta_count = 2; // pinned before the third append
  view.main_kills = 0;  // pinned before the main kill
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_TRUE(view.slot_visible(0));
  EXPECT_FALSE(view.slot_visible(1)); // killed at 4 <= watermark
  EXPECT_FALSE(view.slot_visible(2)); // beyond the pinned count
  EXPECT_TRUE(view.main_visible(0));  // killed at 5 > watermark
  EXPECT_EQ(view.live_size(), 20 + 1);

  view.watermark = 5;
  view.main_kills = 1; // a pin at 5 sees the first kill-list entry
  EXPECT_FALSE(view.main_visible(0));
  EXPECT_EQ(view.live_size(), 19 + 1);
}

// ---------------------------------------------------------------------------
// SnapshotSlot monotone-publish assertions (the latent seed bug: the epoch
// docs promised monotone observation but nothing enforced it -- a stale
// snapshot handed back through a builder used to be silently served).
// ---------------------------------------------------------------------------

TEST(SnapshotMonotone, PublishWithGrantsSequentialEpochs) {
  SnapshotSlot slot;
  SnapshotOptions options;
  const auto data = std::make_shared<const Dataset>(make_uniform(30, 2, 1));
  const auto first = slot.publish_with([&](std::uint64_t epoch) {
    EXPECT_EQ(epoch, 1u);
    return TreeSnapshot::build(data, epoch, options);
  });
  ASSERT_TRUE(first);
  EXPECT_EQ(first->epoch(), 1u);
  const auto second = slot.publish_with([&](std::uint64_t epoch) {
    EXPECT_EQ(epoch, 2u);
    return TreeSnapshot::build(data, epoch, options);
  });
  EXPECT_EQ(second->epoch(), 2u);
  EXPECT_EQ(slot.load().get(), second.get());
}

TEST(SnapshotMonotone, PublishWithRejectsStaleOrNullSnapshots) {
  SnapshotSlot slot;
  SnapshotOptions options;
  const auto data = std::make_shared<const Dataset>(make_uniform(30, 2, 2));
  const auto current = slot.publish(data, options);
  ASSERT_EQ(current->epoch(), 1u);

  // A builder that ignores its epoch grant and hands back the snapshot it
  // cached earlier (the TreeCache-style bug) must be rejected, not served.
  EXPECT_THROW(slot.publish_with([&](std::uint64_t) { return current; }),
               std::logic_error);
  EXPECT_THROW(slot.publish_with(
                   [](std::uint64_t) {
                     return std::shared_ptr<const TreeSnapshot>();
                   }),
               std::logic_error);
  // A snapshot stamped with a made-up epoch differing from the grant is
  // rejected even when it would move forward.
  EXPECT_THROW(slot.publish_with([&](std::uint64_t epoch) {
                 return TreeSnapshot::build(data, epoch + 7, options);
               }),
               std::logic_error);

  // Nothing was installed: readers still see epoch 1 and loads stay legal.
  EXPECT_EQ(slot.load().get(), current.get());
  EXPECT_EQ(slot.current_epoch(), 1u);

  // And the slot recovers: the next well-behaved publish lands the epoch
  // after the failed grants (grants are consumed, never reissued).
  const auto next = slot.publish_with([&](std::uint64_t epoch) {
    return TreeSnapshot::build(data, epoch, options);
  });
  EXPECT_GT(next->epoch(), 1u);
  EXPECT_EQ(slot.load().get(), next.get());
}

TEST(SnapshotMonotone, ConcurrentReadersObserveMonotoneEpochs) {
  SnapshotSlot slot;
  SnapshotOptions options;
  const auto data = std::make_shared<const Dataset>(make_uniform(64, 2, 3));
  slot.publish(data, options);

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        // load() itself throws if the slot would serve a retired epoch;
        // per-reader monotonicity is re-checked here on top.
        const auto snap = slot.load();
        if (snap->epoch() < last) violations.fetch_add(1);
        last = snap->epoch();
      }
    });
  }
  for (int e = 0; e < 24; ++e) slot.publish(data, options);
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(slot.current_epoch(), 25u);
}

// ---------------------------------------------------------------------------
// LiveStore lifecycle
// ---------------------------------------------------------------------------

LiveStoreOptions small_store(index_t capacity, index_t threshold,
                             bool background) {
  LiveStoreOptions options;
  options.delta_capacity = capacity;
  options.merge_threshold = threshold;
  options.background_merge = background;
  return options;
}

TEST(LiveStore, RejectsBeforePublishAndOnDimMismatch) {
  LiveStore store(small_store(8, 8, false));
  const real_t p[] = {1.0, 2.0};
  EXPECT_EQ(store.insert(p, 2).status, IngestStatus::Rejected);
  EXPECT_EQ(store.remove(p, 2).status, IngestStatus::Rejected);
  EXPECT_EQ(store.pin(), nullptr);

  store.publish(std::make_shared<const Dataset>(make_uniform(16, 3, 4)));
  EXPECT_EQ(store.insert(p, 2).status, IngestStatus::Rejected);
  const real_t q[] = {1.0, 2.0, 3.0};
  EXPECT_EQ(store.insert(q, 3).status, IngestStatus::Ok);
}

TEST(LiveStore, InsertsAreVisibleAndBitwiseAgainstTheLiveOracle) {
  const Dataset reference = make_uniform(64, 3, 5);
  LiveStore store(small_store(32, 32, false));
  store.publish(std::make_shared<const Dataset>(reference));
  EXPECT_EQ(store.current_epoch(), 1u);

  const Dataset extra = make_uniform(5, 3, 55);
  for (index_t i = 0; i < extra.size(); ++i) {
    const auto pt = point_of(extra, i);
    const IngestResult r = store.insert(pt.data(), 3);
    ASSERT_EQ(r.status, IngestStatus::Ok);
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(r.id, 64 + i); // client id = main_size + slot
  }

  const auto view = store.pin();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->watermark, 5u);
  EXPECT_EQ(view->live_size(), 69);

  const auto knn = compile(chain({PortalOp::KARGMIN, 4}, PortalFunc::EUCLIDEAN),
                           reference);
  const auto kde = compile(chain(PortalOp::SUM, PortalFunc::gaussian(0.7)),
                           reference);
  Workspace ws;
  EngineOptions eopt;
  for (index_t i = 0; i < extra.size(); ++i) {
    const auto pt = point_of(extra, i);
    const QueryResult got_knn = run_query(*knn, *view, pt.data(), eopt, ws);
    expect_bitwise(got_knn, run_query_bruteforce(*knn, *view, pt.data()));
    // The query point itself was inserted: its own delta id must win slot 0
    // at distance exactly zero.
    EXPECT_EQ(got_knn.ids[0], 64 + i);
    EXPECT_EQ(got_knn.values[0], 0.0);
    const QueryResult got_kde = run_query(*kde, *view, pt.data(), eopt, ws);
    expect_bitwise(got_kde, run_query_bruteforce(*kde, *view, pt.data()));
  }
}

TEST(LiveStore, RemoveTombstonesMainPointsExactly) {
  const Dataset reference = make_uniform(48, 2, 6);
  LiveStore store(small_store(16, 16, false));
  store.publish(std::make_shared<const Dataset>(reference));

  const auto target = point_of(reference, 7);
  ASSERT_EQ(store.remove(target.data(), 2).status, IngestStatus::Ok);
  EXPECT_EQ(store.pin()->live_size(), 47);

  // The tombstoned point is invisible to queries: a nearest-neighbour probe
  // at its exact coordinates no longer finds distance zero / its id.
  const auto nn = compile(chain(PortalOp::ARGMIN, PortalFunc::EUCLIDEAN),
                          reference);
  Workspace ws;
  const auto view = store.pin();
  const QueryResult got =
      run_query(*nn, *view, target.data(), EngineOptions{}, ws);
  expect_bitwise(got, run_query_bruteforce(*nn, *view, target.data()));
  EXPECT_NE(got.ids[0], 7);

  // Removing it again: nothing visible matches anymore.
  EXPECT_EQ(store.remove(target.data(), 2).status, IngestStatus::NotFound);
  const real_t nowhere[] = {1e9, -1e9};
  EXPECT_EQ(store.remove(nowhere, 2).status, IngestStatus::NotFound);
  const auto stats = store.stats();
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.remove_misses, 2u);
}

TEST(LiveStore, RemoveTakesTheNewestIncarnationFirst) {
  const Dataset reference = make_uniform(16, 2, 8);
  LiveStore store(small_store(16, 16, false));
  store.publish(std::make_shared<const Dataset>(reference));

  const real_t p[] = {0.25, 0.75};
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok); // slot 0
  ASSERT_EQ(store.remove(p, 2).status, IngestStatus::Ok); // kills slot 0
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok); // fresh slot 1
  EXPECT_EQ(store.pin()->live_size(), 17);

  // One more remove takes out the reinserted copy, not a double-kill.
  ASSERT_EQ(store.remove(p, 2).status, IngestStatus::Ok);
  EXPECT_EQ(store.pin()->live_size(), 16);
  EXPECT_EQ(store.remove(p, 2).status, IngestStatus::NotFound);
}

TEST(LiveStore, OverflowRunsASynchronousMergeInline) {
  const Dataset reference = make_uniform(40, 3, 9);
  LiveStore store(small_store(8, 8, /*background=*/false));
  store.publish(std::make_shared<const Dataset>(reference));

  // 20 inserts through an 8-slot delta: every overflow must merge inline
  // (new epoch, drained delta) and then succeed -- never a rejection.
  const Dataset extra = make_uniform(20, 3, 99);
  for (index_t i = 0; i < extra.size(); ++i) {
    const auto pt = point_of(extra, i);
    ASSERT_EQ(store.insert(pt.data(), 3).status, IngestStatus::Ok) << i;
  }
  const auto stats = store.stats();
  EXPECT_GE(stats.merges, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.epoch, 1u);
  EXPECT_EQ(store.pin()->live_size(), 60);

  // Post-merge queries still match the oracle bitwise on the merged set.
  const auto knn = compile(chain({PortalOp::KARGMIN, 3}, PortalFunc::EUCLIDEAN),
                           reference);
  Workspace ws;
  const auto view = store.pin();
  for (index_t i = 0; i < 8; ++i) {
    const auto pt = point_of(extra, i);
    expect_bitwise(run_query(*knn, *view, pt.data(), EngineOptions{}, ws),
                   run_query_bruteforce(*knn, *view, pt.data()));
  }
}

TEST(LiveStore, EmptyDeltaMergeIsANoop) {
  LiveStore store(small_store(8, 8, false));
  EXPECT_FALSE(store.merge_now()); // nothing published yet
  store.publish(std::make_shared<const Dataset>(make_uniform(32, 2, 10)));
  const std::uint64_t epoch = store.current_epoch();
  EXPECT_FALSE(store.merge_now());
  EXPECT_EQ(store.current_epoch(), epoch); // no epoch churn
  const auto stats = store.stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.compactions, 0u);
}

TEST(LiveStore, AllDeadMergeCompactsWithoutAnEpoch) {
  const Dataset reference = make_uniform(4, 2, 11);
  LiveStore store(small_store(8, 8, false));
  store.publish(std::make_shared<const Dataset>(reference));

  // Kill every main point and a full insert+remove delta round-trip: the
  // visible union is empty, so there is nothing to build a tree over.
  for (index_t i = 0; i < reference.size(); ++i) {
    const auto pt = point_of(reference, i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const real_t p[] = {5.0, 5.0};
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  ASSERT_EQ(store.remove(p, 2).status, IngestStatus::Ok);
  ASSERT_EQ(store.pin()->live_size(), 0);

  const std::uint64_t epoch = store.current_epoch();
  EXPECT_TRUE(store.merge_now()); // compaction: delta reclaimed...
  EXPECT_EQ(store.current_epoch(), epoch); // ...same main epoch
  const auto stats = store.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.delta_count, 0);
  EXPECT_EQ(store.pin()->live_size(), 0);

  // The store keeps working: a fresh insert is visible and merges normally.
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  EXPECT_EQ(store.pin()->live_size(), 1);
  EXPECT_TRUE(store.merge_now());
  EXPECT_GT(store.current_epoch(), epoch);
  EXPECT_EQ(store.pin()->live_size(), 1);
}

TEST(LiveStore, PinnedViewsSurviveAMergeBitwise) {
  const Dataset reference = make_uniform(128, 3, 12);
  LiveStore store(small_store(64, 64, false));
  store.publish(std::make_shared<const Dataset>(reference));

  const Dataset extra = make_uniform(16, 3, 13);
  for (index_t i = 0; i < extra.size(); ++i) {
    const auto pt = point_of(extra, i);
    ASSERT_EQ(store.insert(pt.data(), 3).status, IngestStatus::Ok);
  }
  const auto doomed = point_of(reference, 3);
  ASSERT_EQ(store.remove(doomed.data(), 3).status, IngestStatus::Ok);

  const auto pinned = store.pin();
  const auto knn = compile(chain({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN),
                           reference);
  const auto count =
      compile(chain(PortalOp::SUM, PortalFunc::indicator(0, 0.8)), reference);
  Workspace ws;
  const Dataset probes = make_uniform(8, 3, 14);
  std::vector<QueryResult> before;
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    before.push_back(run_query(*knn, *pinned, pt.data(), EngineOptions{}, ws));
    before.push_back(
        run_query(*count, *pinned, pt.data(), EngineOptions{}, ws));
  }

  ASSERT_TRUE(store.merge_now());
  EXPECT_EQ(store.current_epoch(), 2u);
  EXPECT_EQ(store.pin()->live_size(), 128 + 16 - 1);
  EXPECT_EQ(store.stats().delta_count, 0);

  // The pinned pre-merge view still answers its exact old point-set,
  // bit for bit -- the retired generation's visible state is immutable.
  std::size_t b = 0;
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    expect_bitwise(run_query(*knn, *pinned, pt.data(), EngineOptions{}, ws),
                   before[b++]);
    expect_bitwise(run_query(*count, *pinned, pt.data(), EngineOptions{}, ws),
                   before[b++]);
  }

  // And the merged epoch answers the same point-set through its new tree:
  // the indicator count (integer-valued, order-free) must agree exactly;
  // the knn distance values are per-point identical computations.
  const auto merged = store.pin();
  b = 0;
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    const QueryResult knn_new =
        run_query(*knn, *merged, pt.data(), EngineOptions{}, ws);
    expect_bitwise(knn_new, run_query_bruteforce(*knn, *merged, pt.data()));
    const QueryResult& knn_old = before[b++];
    ASSERT_EQ(knn_new.values.size(), knn_old.values.size());
    for (std::size_t v = 0; v < knn_old.values.size(); ++v)
      EXPECT_EQ(knn_new.values[v], knn_old.values[v]) << "slot " << v;
    const QueryResult count_new =
        run_query(*count, *merged, pt.data(), EngineOptions{}, ws);
    EXPECT_EQ(count_new.values[0], before[b++].values[0]);
  }
}

TEST(LiveStore, MergeTranslatesTombstonesLandedDuringTheMergeWindow) {
  // A removal of a *merged* point that lands after the merge cut must be
  // replayed as a tombstone at the point's new permuted home. Single-
  // threaded proxy: remove a delta-inserted point after it merged into the
  // main tree -- the exact kd descent must find it there and kill it.
  const Dataset reference = make_uniform(32, 2, 15);
  LiveStore store(small_store(8, 8, false));
  store.publish(std::make_shared<const Dataset>(reference));
  const real_t p[] = {0.125, 0.625};
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  ASSERT_TRUE(store.merge_now());
  EXPECT_EQ(store.pin()->live_size(), 33);

  // Now in the main tree of epoch 2; removing goes through the kd descent.
  ASSERT_EQ(store.remove(p, 2).status, IngestStatus::Ok);
  EXPECT_EQ(store.pin()->live_size(), 32);
  const auto nn =
      compile(chain(PortalOp::MIN, PortalFunc::EUCLIDEAN), reference);
  Workspace ws;
  const auto view = store.pin();
  const QueryResult got = run_query(*nn, *view, p, EngineOptions{}, ws);
  expect_bitwise(got, run_query_bruteforce(*nn, *view, p));
  EXPECT_GT(got.values[0], 0.0); // its exact location is empty again

  // Merging the lone tombstone publishes a 32-point epoch with it gone.
  ASSERT_TRUE(store.merge_now());
  EXPECT_EQ(store.pin()->live_size(), 32);
  EXPECT_EQ(store.pin()->snapshot->size(), 32);
}

TEST(LiveStore, RacingMergesKeepEpochsMonotone) {
  // Two threads hammering merge_now while a writer streams inserts and a
  // reader pins views: merge_mutex_ serializes the merges, the slot's
  // install-time assertions reject any non-monotone publish (they would
  // throw, failing the test), and every pinned view must carry an epoch and
  // watermark no older than the previous pin on that thread.
  const Dataset reference = make_uniform(96, 2, 16);
  LiveStore store(small_store(64, 16, /*background=*/true));
  store.publish(std::make_shared<const Dataset>(reference));

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    const Dataset stream = make_uniform(400, 2, 17);
    for (index_t i = 0; i < stream.size(); ++i) {
      const auto pt = point_of(stream, i);
      if (store.insert(pt.data(), 2).status != IngestStatus::Ok)
        violations.fetch_add(1);
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> mergers;
  for (int t = 0; t < 2; ++t) {
    mergers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) store.merge_now();
    });
  }
  std::thread reader([&] {
    std::uint64_t last_epoch = 0, last_mark = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto view = store.pin();
      if (view->epoch() < last_epoch || view->watermark < last_mark)
        violations.fetch_add(1);
      last_epoch = view->epoch();
      last_mark = view->watermark;
    }
  });
  writer.join();
  reader.join();
  for (std::thread& m : mergers) m.join();
  store.stop();

  EXPECT_EQ(violations.load(), 0);
  // Every insert was admitted; after a final merge the live set is exact.
  store.merge_now();
  EXPECT_EQ(store.pin()->live_size(), 96 + 400);
  EXPECT_EQ(store.stats().watermark, 400u);
}

TEST(LiveStore, PublishReplacesAndDiscardsTheDelta) {
  const Dataset first = make_uniform(24, 2, 18);
  LiveStore store(small_store(8, 8, false));
  store.publish(std::make_shared<const Dataset>(first));
  const real_t p[] = {9.0, 9.0};
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  ASSERT_EQ(store.pin()->live_size(), 25);

  // Full replace: the pending delta belongs to the retired generation.
  const Dataset second = make_uniform(10, 2, 19);
  store.publish(std::make_shared<const Dataset>(second));
  EXPECT_EQ(store.current_epoch(), 2u);
  EXPECT_EQ(store.pin()->live_size(), 10);
  EXPECT_EQ(store.stats().delta_count, 0);
}

// ---------------------------------------------------------------------------
// Tombstone-aware node counts (ServeTombstones): a SUM plan's AcceptAll and
// Approximate nodes add the node's *visible* point count, read from the
// view's pinned kill-list prefix. Nodes larger than the prefix subtract the
// kills inside them; smaller ones check their points one by one.
// ---------------------------------------------------------------------------

/// Every node of the view's tree: the pinned-prefix count equals a per-point
/// main_dead check at the view's watermark.
void expect_node_counts_match(const LiveView& view) {
  const KdTree& kd = *view.snapshot->kd();
  for (index_t n = 0; n < kd.num_nodes(); ++n) {
    const KdNode& node = kd.node(n);
    index_t want = 0;
    for (index_t j = node.begin; j < node.end; ++j)
      want += view.delta->main_dead(j, view.watermark) ? 0 : 1;
    EXPECT_EQ(view.main_visible_count(node.begin, node.end), want)
        << "node " << n << " [" << node.begin << ", " << node.end
        << ") at watermark " << view.watermark;
  }
}

/// Visible points of a view, counted point by point (not through the
/// pinned prefix).
index_t visible_points(const LiveView& view) {
  index_t n = 0;
  for (index_t j = 0; j < view.snapshot->size(); ++j)
    n += view.delta->main_dead(j, view.watermark) ? 0 : 1;
  for (index_t s = 0; s < view.delta_count; ++s)
    n += view.slot_visible(s) ? 1 : 0;
  return n;
}

/// One query of a SUM plan against the view's brute force: counts exact
/// (tau does not touch an indicator), smooth sums within tau per visible
/// point.
void expect_sum_matches(const PlanHandle& plan, const LiveView& view,
                        const real_t* point, real_t tau, Workspace& ws) {
  EngineOptions eopt;
  eopt.tau = tau;
  const QueryResult got = run_query(*plan, view, point, eopt, ws);
  const QueryResult want = run_query_bruteforce(*plan, view, point);
  ASSERT_EQ(got.values.size(), 1u);
  ASSERT_EQ(want.values.size(), 1u);
  if (tau == 0) {
    EXPECT_EQ(got.values[0], want.values[0]);
  } else {
    EXPECT_LE(std::abs(got.values[0] - want.values[0]),
              tau * static_cast<real_t>(visible_points(view)))
        << "got " << got.values[0] << " want " << want.values[0];
  }
}

LiveStoreOptions tombstone_store(bool background) {
  LiveStoreOptions options = small_store(64, 64, background);
  options.snapshot.leaf_size = 8;
  return options;
}

constexpr real_t kCountRadii[] = {0.05, 0.15, 0.3, 0.6, 4.0};
constexpr real_t kKdeTau = 1e-3;

TEST(ServeTombstones, SumPlansCountOnlyVisiblePoints) {
  const Dataset reference = make_uniform(640, 2, 31);
  LiveStore store(tombstone_store(false));
  store.publish(std::make_shared<const Dataset>(reference));
  // 40 kills spread over the square: every leaf (8 points) is smaller than
  // the prefix and the upper levels are larger, so both counting branches
  // run wherever a node is accepted or approximated.
  for (index_t i = 0; i < reference.size(); i += 16) {
    const auto pt = point_of(reference, i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const real_t extra[] = {0.5, 0.5};
  ASSERT_EQ(store.insert(extra, 2).status, IngestStatus::Ok);
  const auto view = store.pin();
  ASSERT_EQ(view->main_kills, 40);
  EXPECT_EQ(view->live_size(), visible_points(*view));
  EXPECT_EQ(view->live_size(), 640 - 40 + 1);

  const KdTree& kd = *view->snapshot->kd();
  index_t above = 0, below = 0;
  for (index_t n = 0; n < kd.num_nodes(); ++n)
    (kd.node(n).count() > view->main_kills ? above : below) += 1;
  ASSERT_GT(above, 0);
  ASSERT_GT(below, 0);
  expect_node_counts_match(*view);

  std::vector<PlanHandle> counts;
  for (const real_t h : kCountRadii)
    counts.push_back(
        compile(chain(PortalOp::SUM, PortalFunc::indicator(0, h)), reference));
  const auto kde =
      compile(chain(PortalOp::SUM, PortalFunc::gaussian(0.4)), reference);

  Workspace ws;
  const Dataset probes = make_uniform(24, 2, 32);
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    for (const PlanHandle& count : counts)
      expect_sum_matches(count, *view, pt.data(), 0, ws);
    expect_sum_matches(kde, *view, pt.data(), kKdeTau, ws);
    expect_sum_matches(kde, *view, pt.data(), 0, ws);
  }
  // From outside the unit square, the widest radius accepts the root: the
  // count is the view's exact visible size, every kill subtracted.
  const real_t outside[] = {-1.0, -1.0};
  const QueryResult all =
      run_query(*counts.back(), *view, outside, EngineOptions{}, ws);
  EXPECT_EQ(all.values[0], static_cast<real_t>(640 - 40 + 1));
}

TEST(ServeTombstones, ViewPinnedBeforeRemovesStillCountsThemAlive) {
  const Dataset reference = make_uniform(400, 2, 33);
  LiveStore store(tombstone_store(false));
  store.publish(std::make_shared<const Dataset>(reference));
  for (index_t i = 0; i < 12; ++i) {
    const auto pt = point_of(reference, 7 * i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const auto pinned = store.pin();
  ASSERT_EQ(pinned->main_kills, 12);

  const auto count = compile(
      chain(PortalOp::SUM, PortalFunc::indicator(0, 0.35)), reference);
  // Accepts the whole tree from the outside probe below.
  const auto everything =
      compile(chain(PortalOp::SUM, PortalFunc::indicator(0, 4.0)), reference);
  const auto kde =
      compile(chain(PortalOp::SUM, PortalFunc::gaussian(0.3)), reference);
  EngineOptions approx;
  approx.tau = kKdeTau;
  Workspace ws;
  const Dataset probes = make_uniform(16, 2, 34);
  std::vector<QueryResult> before;
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    before.push_back(run_query(*count, *pinned, pt.data(), EngineOptions{}, ws));
    before.push_back(run_query(*kde, *pinned, pt.data(), approx, ws));
  }

  // 30 more removes, all after the pin: the pinned view must keep counting
  // those points as alive.
  for (index_t i = 0; i < 30; ++i) {
    const auto pt = point_of(reference, 7 * i + 3);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  EXPECT_EQ(pinned->main_kills, 12);
  EXPECT_EQ(pinned->live_size(), 400 - 12);
  EXPECT_EQ(pinned->live_size(), visible_points(*pinned));
  expect_node_counts_match(*pinned);
  const real_t probe[] = {-1.0, -1.0};
  EXPECT_EQ(run_query(*everything, *pinned, probe, EngineOptions{}, ws)
                .values[0],
            static_cast<real_t>(400 - 12));

  std::size_t b = 0;
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    expect_bitwise(run_query(*count, *pinned, pt.data(), EngineOptions{}, ws),
                   before[b++]);
    expect_bitwise(run_query(*kde, *pinned, pt.data(), approx, ws),
                   before[b++]);
    expect_sum_matches(count, *pinned, pt.data(), 0, ws);
    expect_sum_matches(kde, *pinned, pt.data(), kKdeTau, ws);
  }

  // The fresh pin sees all 42 kills.
  const auto now = store.pin();
  EXPECT_EQ(now->main_kills, 42);
  expect_node_counts_match(*now);
  EXPECT_EQ(run_query(*everything, *now, probe, EngineOptions{}, ws).values[0],
            static_cast<real_t>(400 - 42));
  for (index_t i = 0; i < probes.size(); ++i) {
    const auto pt = point_of(probes, i);
    expect_sum_matches(count, *now, pt.data(), 0, ws);
    expect_sum_matches(kde, *now, pt.data(), kKdeTau, ws);
  }
}

TEST(ServeTombstones, NodeCountsMatchMainDeadAfterMergeAndCompaction) {
  const Dataset reference = make_uniform(300, 2, 35);
  LiveStore store(tombstone_store(false));
  store.publish(std::make_shared<const Dataset>(reference));
  const Dataset extra = make_uniform(20, 2, 36);
  for (index_t i = 0; i < extra.size(); ++i) {
    const auto pt = point_of(extra, i);
    ASSERT_EQ(store.insert(pt.data(), 2).status, IngestStatus::Ok);
  }
  for (index_t i = 0; i < 25; ++i) {
    const auto pt = point_of(reference, 11 * i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const auto before_merge = store.pin();
  expect_node_counts_match(*before_merge);

  // A merge folds the kills into the new tree: an empty kill list...
  ASSERT_TRUE(store.merge_now());
  const auto merged = store.pin();
  EXPECT_EQ(merged->main_kills, 0);
  expect_node_counts_match(*merged);
  EXPECT_EQ(merged->live_size(), 300 - 25 + 20);

  // ...which the next removes (of main and of merged delta points) refill.
  for (index_t i = 0; i < extra.size(); i += 2) {
    const auto pt = point_of(extra, i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  for (index_t i = 0; i < 15; ++i) {
    const auto pt = point_of(reference, 11 * i + 5);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const auto after = store.pin();
  EXPECT_EQ(after->main_kills, 25);
  EXPECT_EQ(after->live_size(), visible_points(*after));
  expect_node_counts_match(*after);
  // The pre-merge view still names its own generation's kills.
  expect_node_counts_match(*before_merge);

  // All-dead compaction: the copied kill list keeps every node at zero.
  const Dataset tiny = make_uniform(24, 2, 37);
  store.publish(std::make_shared<const Dataset>(tiny));
  for (index_t i = 0; i < tiny.size(); ++i) {
    const auto pt = point_of(tiny, i);
    ASSERT_EQ(store.remove(pt.data(), 2).status, IngestStatus::Ok);
  }
  const real_t p[] = {5.0, 5.0};
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  ASSERT_EQ(store.remove(p, 2).status, IngestStatus::Ok);
  const std::uint64_t compactions = store.stats().compactions;
  ASSERT_TRUE(store.merge_now());
  EXPECT_EQ(store.stats().compactions, compactions + 1);
  const auto compacted = store.pin();
  EXPECT_EQ(compacted->main_kills, 24);
  EXPECT_EQ(compacted->live_size(), 0);
  expect_node_counts_match(*compacted);
  ASSERT_EQ(store.insert(p, 2).status, IngestStatus::Ok);
  const auto refilled = store.pin();
  EXPECT_EQ(refilled->live_size(), 1);
  expect_node_counts_match(*refilled);
  const auto count = compile(
      chain(PortalOp::SUM, PortalFunc::indicator(0, 20.0)), tiny);
  Workspace ws;
  expect_sum_matches(count, *refilled, p, 0, ws);
}

TEST(ServeTombstones, ReadersSumOnPinnedViewsWhileAWriterRemoves) {
  // One writer removes main points (and inserts, so the background merger
  // publishes new generations mid-run, replaying kills that land in the
  // merge window); readers pin views and check SUM plans against the brute
  // force over each view's visible points. A reader reads only the kill
  // list's pinned prefix while the writer appends past it. The writer waits
  // for a read after each remove, so the views see every kill count.
  const Dataset reference = make_uniform(500, 2, 38);
  LiveStoreOptions options = tombstone_store(/*background=*/true);
  options.merge_threshold = 16;
  LiveStore store(options);
  store.publish(std::make_shared<const Dataset>(reference));
  const auto count = compile(
      chain(PortalOp::SUM, PortalFunc::indicator(0, 0.3)), reference);
  const auto kde =
      compile(chain(PortalOp::SUM, PortalFunc::gaussian(0.3)), reference);

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    const Dataset stream = make_uniform(60, 2, 39);
    for (index_t i = 0; i < 150; ++i) {
      const int seen = reads.load(std::memory_order_acquire);
      const auto pt = point_of(reference, 3 * i);
      if (store.remove(pt.data(), 2).status != IngestStatus::Ok)
        write_failures.fetch_add(1);
      if (i % 5 == 0) {
        const auto ins = point_of(stream, i / 5);
        if (store.insert(ins.data(), 2).status != IngestStatus::Ok)
          write_failures.fetch_add(1);
      }
      while (reads.load(std::memory_order_acquire) == seen)
        std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Workspace ws;
      EngineOptions approx;
      approx.tau = kKdeTau;
      const Dataset probes = make_uniform(12, 2, 40 + r);
      for (index_t p = 0; !done.load(std::memory_order_acquire); ++p) {
        const auto view = store.pin();
        const auto pt = point_of(probes, p % probes.size());
        const QueryResult got_count =
            run_query(*count, *view, pt.data(), EngineOptions{}, ws);
        if (got_count.values[0] !=
            run_query_bruteforce(*count, *view, pt.data()).values[0])
          mismatches.fetch_add(1);
        const real_t got_kde =
            run_query(*kde, *view, pt.data(), approx, ws).values[0];
        const real_t want_kde =
            run_query_bruteforce(*kde, *view, pt.data()).values[0];
        if (std::abs(got_kde - want_kde) >
            kKdeTau * static_cast<real_t>(visible_points(*view)))
          mismatches.fetch_add(1);
        reads.fetch_add(1, std::memory_order_release);
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  store.stop();

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), 150);
  // A final merge folds every kill into a fresh epoch.
  store.merge_now();
  EXPECT_GE(store.stats().merges, 1u);
  const auto last = store.pin();
  EXPECT_EQ(last->live_size(), 500 - 150 + 30);
  EXPECT_EQ(last->live_size(), visible_points(*last));
  expect_node_counts_match(*last);
}

} // namespace
} // namespace portal
