// Portal -- the per-request query engine of the serving runtime.
//
// Where the batch executor answers "every query point against every
// reference point" with the dual-tree traversal, serving answers *one
// arriving point at a time*: each request is a single-tree descent
// (traversal/singletree.h) of the current snapshot's kd-tree. The prune,
// approximation and leaf rules are not restated here: the descent runs the
// rule core (core/rule_core.h) the executor runs -- envelope-bound pruning
// for the comparative reductions, indicator interval logic for range
// queries, tau-bounded approximation for KDE-style sums, and one leaf
// evaluator over the SIMD-batched tiles (kernels/batch.h). This engine only
// bounds the query point against a node and applies each decision to that
// point.
//
// Determinism contract: with tau == 0 the engine is *bitwise* equal to the
// serial brute-force oracle below, and to the matching row of the batch
// executor for order-independent answers. Sums accumulate in ascending
// permuted order (the unscored descent visits leaves left-to-right), leaf
// values go through the core's leaf_values (every branch bit-for-bit the
// scalar path), and the envelope runs through the same evaluator on both
// sides. The concurrent stress tests pin this at tolerance zero.
#pragma once

#include <vector>

#include "serve/plan_cache.h"
#include "traversal/multitree.h"
#include "tree/bbox.h"
#include "tree/delta.h"
#include "tree/snapshot.h"

namespace portal::serve {

/// Reusable per-worker scratch; sized lazily to the largest (plan, snapshot)
/// combination seen. Never shared between threads.
struct Workspace {
  LeafScratch leaf;              // rule-core leaf buffers
  std::vector<real_t> knn_dists; // reduction slots (sense, selection space)
  std::vector<index_t> knn_ids;
  BBox qbox; // degenerate query box for non-L2 point-to-node bounds
  // Approximate-path scratch (graph beam search + its candidate output);
  // untouched on exact queries.
  KnnGraph::SearchScratch graph;
  std::vector<real_t> graph_sq;
  std::vector<index_t> graph_ids;
};

/// One answered query. Reductions fill `slots` values (sense applied, NaN
/// for unfilled slots) plus original-order reference ids for the arg
/// flavors; SUM fills one value; UNION/UNIONARG fill ids sorted by original
/// reference index (values alongside for UNION).
struct QueryResult {
  std::vector<real_t> values;
  std::vector<index_t> ids;
  TraversalStats stats;
};

struct EngineOptions {
  bool batch_base_cases = true; // SoA leaf tiles vs scalar per-pair loop
  real_t tau = 0; // approximation budget for SUM plans; 0 = exact
  /// Approximate mode: route eligible KARGMIN/KMIN-family plans to the
  /// snapshot's k-NN graph (routes_to_graph below). Like tau, these are
  /// *runtime serving parameters, not plan properties* -- exact and
  /// approximate callers at any beam width share one compiled plan, and
  /// turning approx off always restores the exact answer bitwise.
  bool approx = false;
  index_t beam_width = 64; // graph beam; clamped up to the plan's k
};

/// Does this (plan, snapshot, options) triple route to the approximate
/// graph path? True only when the caller asked for approx mode, the
/// snapshot carries a graph, and the plan is a min-sense comparative
/// reduction over an identity-envelope L2-family kernel (the shape where
/// graph distance order provably matches plan value order). Everything else
/// -- max-sense, shaped envelopes, non-L2 metrics, SUM/UNION plans -- falls
/// through to the exact descent even with approx on, so enabling the knob
/// never silently degrades a plan the graph cannot honor. The service layer
/// uses this same predicate to stamp Response::approximate honestly.
bool routes_to_graph(const CompiledPlan& plan, const TreeSnapshot& snapshot,
                     const EngineOptions& options);

/// Answer one request against the snapshot's kd-tree -- or, when
/// routes_to_graph holds, against its k-NN graph: beam search collects
/// candidates whose distances are bitwise-equal to the exact engine's
/// (the graph's row kernel accumulates dimensions in the same ascending
/// order), so approximate results are always a subset of the true point
/// set with exact values; only completeness is approximate, bounded by the
/// beam width. Live views filter tombstoned candidates and drain the visible
/// delta slots exactly, like the descent paths. Reentrant: any number
/// of threads may run queries against the same plan and snapshot, each with
/// its own Workspace. Throws std::invalid_argument when the snapshot has no
/// kd-tree or the plan/snapshot dimensions disagree.
QueryResult run_query(const CompiledPlan& plan, const TreeSnapshot& snapshot,
                      const real_t* point, const EngineOptions& options,
                      Workspace& ws);

/// The serial O(N) oracle: same kernels, same envelope VM, one pass over the
/// snapshot's points in ascending permuted order. With tau == 0 the results
/// match run_query bitwise (values; arg ids can legitimately differ on
/// exactly tied distances). Differential tests cross-check against this.
QueryResult run_query_bruteforce(const CompiledPlan& plan,
                                 const TreeSnapshot& snapshot,
                                 const real_t* point);

// --- Two-root live variants (incremental ingestion, DESIGN.md Sec. 16) ---
//
// The LiveView overloads answer against a pinned (snapshot, delta,
// watermark) triple: the main kd-tree descent runs exactly as above but
// skips main points tombstoned at or before the watermark (and counts only
// survivors in indicator/approximation bulk accepts), then the visible
// delta slots are drained in insertion order through the same scalar
// kernels. The canonical visible order -- main points ascending by permuted
// index, then delta slots ascending -- is what the live brute-force oracle
// sweeps, so tau == 0 answers are bitwise-equal to it for every op,
// including SUM (same additions in the same order). Client-visible ids:
// main points keep their original dataset indices; a delta point reports
// `main_size + slot` (stable within its generation; a merge starts a new
// one). A null view.delta (or an all-visible view) degrades bitwise to the
// snapshot-only paths above.

QueryResult run_query(const CompiledPlan& plan, const LiveView& view,
                      const real_t* point, const EngineOptions& options,
                      Workspace& ws);

/// The live oracle: one scalar sweep over the exact point-set the view
/// pins, in canonical visible order (main permuted-ascending minus
/// tombstones, then live delta slots). The concurrent ingest stress suites
/// compare every pinned read against this at tolerance zero.
QueryResult run_query_bruteforce(const CompiledPlan& plan,
                                 const LiveView& view, const real_t* point);

} // namespace portal::serve
