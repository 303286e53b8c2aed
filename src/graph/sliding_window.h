// Sliding-window graph snapshots over a timestamped edge stream — the
// workload structure of TaoBao's fraud-detection pipeline (paper §5.4,
// Table 4): a window of recent transactions induces a graph over the
// entities active in that window.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"

namespace glp::graph {

/// One timestamped interaction (e.g. a purchase: buyer -> item).
struct TimedEdge {
  VertexId src;
  VertexId dst;
  double time;
};

/// Canonical stream order: (time, src, dst). Everything that materializes a
/// window graph — full sorts, incremental batch merges, snapshot iteration —
/// uses this one ordering, so an incrementally-appended stream produces
/// byte-identical snapshots (same local-id assignment, same edge order) to a
/// stream constructed in one shot. Ties across all three keys are identical
/// edges, whose relative order cannot affect the built graph.
inline bool CanonicalEdgeLess(const TimedEdge& a, const TimedEdge& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

/// The order of window (local) ids: descending entity id. A vertex's window
/// id is its initial label and its rank in every smaller-label tie-break,
/// so a fixed order over entities — not first appearance in the window —
/// keeps those ranks unchanged when a prefix expires or edges arrive, and
/// numbers the window of any component or shard subset consistently. Id
/// order also keeps entities that are adjacent in the stream's id space
/// (buyers, items) adjacent on the device, so label gathers coalesce.
/// Descending rather than ascending: the smallest ids of the synthetic
/// stream are its fraud-ring buyers, and ties broken toward them spread
/// ring labels into organic neighbours (DESIGN.md §4.9).
inline bool WindowIdBefore(VertexId a, VertexId b) { return a > b; }

/// A window's induced graph plus the mapping back to stream-global ids.
struct WindowSnapshot {
  Graph graph;
  /// local_to_global[local_id] = id in the full entity universe, in
  /// WindowIdBefore order. Only entities with at least one edge in the
  /// window appear.
  std::vector<VertexId> local_to_global;
};

/// \brief A time-sorted edge stream supporting window snapshot extraction
/// and incremental append (streaming ingest).
///
/// Snapshots compact the active entities to a dense id range — exactly why
/// Table 4's |V| grows with window length: longer windows touch more
/// entities.
class SlidingWindow {
 public:
  SlidingWindow() = default;

  /// Takes ownership of the edges and sorts them canonically.
  explicit SlidingWindow(std::vector<TimedEdge> edges);

  /// Appends a batch of edges to the stream. The batch may arrive in any
  /// internal order: it is sorted if needed (a linear is_sorted check keeps
  /// the common already-sorted case at O(|batch|)) and merged into the
  /// (already sorted) stream tail with std::inplace_merge — no full
  /// re-sort. Every append bumps generation(), which cursors use to
  /// re-sync their indices.
  void Append(std::vector<TimedEdge> batch);

  /// Incremented on every Append; lets cursors detect staleness.
  uint64_t generation() const { return generation_; }

  /// Minimum canonical insert position over every Append committed after
  /// generation `gen`: SIZE_MAX when nothing was appended since, 0
  /// (maximally conservative) when the bounded append log no longer reaches
  /// back to `gen`. A cursor holding edge indices valid at `gen` may keep
  /// them iff MinInsertSince(gen) is at or past its upper bound — then the
  /// array prefix it indexed is byte-for-byte untouched.
  size_t MinInsertSince(uint64_t gen) const;

  size_t num_stream_edges() const { return edges_.size(); }
  const std::vector<TimedEdge>& edges() const { return edges_; }
  double min_time() const;
  double max_time() const;

  /// Index of the first edge with time >= t (edges are time-sorted).
  size_t LowerBound(double t) const;

  /// Builds the graph induced by edges with time in [start, end), compacted
  /// and symmetrized.
  WindowSnapshot Snapshot(double start_time, double end_time) const;

  /// Reusable buffers for repeated snapshotting (see SlidingWindowCursor).
  struct Scratch {
    std::vector<uint32_t> epoch_of;  ///< per-entity stamp
    uint32_t epoch = 0;
    std::vector<VertexId> local_of;  ///< per-entity local id (valid if stamped)
  };

  /// Snapshot reusing `scratch` across calls: avoids the O(universe) remap
  /// allocation per window, which matters when a production pipeline
  /// advances the window continuously. With `collapse` set, parallel edges
  /// (repeat purchases) merge into multiplicity *weights*: LP results are
  /// identical and the graph occupies a fraction of the memory.
  WindowSnapshot Snapshot(double start_time, double end_time,
                          Scratch* scratch, bool collapse = false) const;

  /// Snapshot over the half-open edge-index range [begin_idx, end_idx) —
  /// the cursor path: the caller already knows the indices and skips the
  /// binary searches.
  WindowSnapshot SnapshotRange(size_t begin_idx, size_t end_idx,
                               Scratch* scratch, bool collapse = false) const;

  VertexId max_entity() const { return max_entity_; }

 private:
  std::vector<TimedEdge> edges_;  // sorted by CanonicalEdgeLess
  VertexId max_entity_ = 0;
  uint64_t generation_ = 0;
  // Bounded log of (generation after append, canonical insert position),
  // backing MinInsertSince. Appends older than log_covered_from_ have been
  // evicted; queries reaching past it get the conservative answer.
  struct AppendRecord {
    uint64_t gen;
    size_t insert_pos;
  };
  std::vector<AppendRecord> append_log_;
  uint64_t log_covered_from_ = 0;
};

/// \brief What one window advance changed, as half-open edge-index ranges
/// into the *current* stream array.
///
/// Only meaningful when `exact` is true — which requires a forward move
/// over a stream whose appends since the cursor's last sync all landed at
/// or past the old upper bound (MinInsertSince), so the array prefix the
/// old indices pointed into is untouched. Then the old window is
/// expired ∪ retained and the new window is retained ∪ appended, with no
/// overlap between ranges. When `exact` is false (first use, backward
/// move, or an append that rewrote the prefix) the ranges are empty and
/// the caller must treat the whole window as changed.
struct WindowDelta {
  bool exact = false;
  size_t expired_begin = 0, expired_end = 0;    ///< left the window
  size_t retained_begin = 0, retained_end = 0;  ///< in both windows
  size_t appended_begin = 0, appended_end = 0;  ///< entered the window
};

/// \brief Snapshot-free window range tracking with exact-delta reporting.
///
/// The bound-advancing core of SlidingWindowCursor, usable on its own when
/// the caller materializes graphs elsewhere: the sharded server keeps one
/// per shard window to feed the fleet-wide incremental union-find without
/// building per-shard snapshot graphs it would then throw away.
class WindowRangeCursor {
 public:
  WindowRangeCursor() = default;
  explicit WindowRangeCursor(const SlidingWindow* window) : window_(window) {}

  /// Moves the tracked range to the edges with time in
  /// [start_time, end_time), reporting what changed (see WindowDelta for
  /// when the delta is exact). Bounds advance incrementally on forward
  /// moves, by binary search otherwise.
  void AdvanceTo(double start_time, double end_time, WindowDelta* delta);

  /// Seats the cached bounds at [start_time, end_time) without reporting a
  /// delta — checkpoint restore, so the first post-restore AdvanceTo can
  /// report an exact delta against the pre-kill window.
  void PrimeAt(double start_time, double end_time);

  size_t lo() const { return lo_; }
  size_t hi() const { return hi_; }

 private:
  const SlidingWindow* window_ = nullptr;
  // Cached state of the previous advance.
  bool primed_ = false;
  uint64_t generation_ = 0;
  double start_ = 0, end_ = 0;
  size_t lo_ = 0, hi_ = 0;
};

/// \brief Amortized window advancement over a (possibly growing) stream.
///
/// Wraps a SlidingWindow with persistent scratch and remembered edge-index
/// bounds, so sliding the window forward (the production cadence:
/// re-evaluate every few hours) reuses all buffers and advances the bounds
/// incrementally instead of re-searching from scratch. When the underlying
/// stream grows (Append) or the window moves backwards, the cursor re-syncs
/// via binary search; otherwise each bound only walks forward over the
/// edges that actually entered/left the window.
class SlidingWindowCursor {
 public:
  SlidingWindowCursor(const SlidingWindow* window, double window_length,
                      bool collapse = false)
      : window_(window), length_(window_length), collapse_(collapse),
        range_(window) {}

  /// Moves the window to end at `end_time` and returns its snapshot.
  const WindowSnapshot& AdvanceTo(double end_time);

  /// As above, additionally reporting what changed relative to the previous
  /// advance. The delta is exact only for a forward move whose intervening
  /// appends all landed at or past the old upper bound (see WindowDelta);
  /// otherwise delta->exact is false and the snapshot is still correct —
  /// the caller just cannot reuse prior per-window state.
  const WindowSnapshot& AdvanceTo(double end_time, WindowDelta* delta);

  /// Primes the cursor's cached bounds at `end_time` without materializing
  /// a snapshot. Checkpoint restore uses it so the first post-restore
  /// AdvanceTo can report an exact delta against the pre-kill window.
  void PrimeAt(double end_time);

  const WindowSnapshot& snapshot() const { return snapshot_; }
  /// Edge-index bounds of the last snapshot (for diagnostics).
  size_t lo() const { return range_.lo(); }
  size_t hi() const { return range_.hi(); }

 private:
  const SlidingWindow* window_;
  double length_;
  bool collapse_;
  SlidingWindow::Scratch scratch_;
  WindowSnapshot snapshot_;
  WindowRangeCursor range_;
};

}  // namespace glp::graph
