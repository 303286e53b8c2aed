// Persistent cross-tick connectivity for the incremental serve path
// (DESIGN.md §4.10): a union-find over the entity universe that survives
// window advances, absorbing appended edges in place and rebuilding only
// the components that lost window edges. Its dirty-component set is what
// bounds per-tick LP and extraction work by what actually changed —
// Gunrock's work-proportional-to-the-active-set philosophy applied to the
// streaming tick instead of one kernel launch.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/sliding_window.h"
#include "graph/types.h"

namespace glp::serve {

/// \brief Union-find over stream entities, maintained across ticks.
///
/// Presence is tracked by window edge-endpoint degree: an entity with no
/// window edges is not in any component. Each tick (or rebuild) starts a
/// fresh epoch and leaves behind the canonical set of *dirty* component
/// roots — components whose edge set changed this tick and therefore need
/// LP re-run. The eviction rule:
/// a component that lost any window edge is reset to singletons and
/// re-unioned from its retained edges (connectivity can only be re-derived,
/// never decremented); a component touched solely by appended edges is
/// union-merged in place. Both are dirty; untouched components are clean
/// and keep their previous labels and cluster records verbatim.
///
/// Query methods are non-const only because Find performs path halving;
/// they never change the partition.
class IncrementalTracker {
 public:
  // -------------------------------------------------------------------------
  // The server feeds one tracker from its N >= 1 shard windows (owned edges
  // plus mirrors; a mirrored copy just double-counts an endpoint degree,
  // which cancels because both copies appear and expire together). One
  // exact tick is
  //   BeginTick -> Expire per window -> Rescan per window -> Append per
  //   window -> FinishTick
  // with each window's exact delta (delta.exact must be true), and the
  // phase barriers matter: every window's expirations must land before any
  // retained-edge rescan, or a component spanning shards would re-derive
  // from only one shard's retained edges.
  // -------------------------------------------------------------------------

  void BeginTick();
  /// Drops expired endpoint degrees and resets every component that lost an
  /// edge to marked singletons (degree-zero members are evicted).
  void Expire(const std::vector<graph::TimedEdge>& edges,
              const graph::WindowDelta& delta);
  /// Re-derives reset components' connectivity from the retained range.
  void Rescan(const std::vector<graph::TimedEdge>& edges,
              const graph::WindowDelta& delta);
  /// Unions appended edges in place, dirtying every component they touch.
  void Append(const std::vector<graph::TimedEdge>& edges,
              const graph::WindowDelta& delta);
  void FinishTick();

  /// Rebuild from scratch: BeginRebuild -> AddWindowRange per window ->
  /// FinishRebuild. `mark_all_dirty` marks every component dirty (the
  /// inexact-delta / fault fallback); without it nothing is dirty
  /// (checkpoint restore and resize, where the previous tick's labels are
  /// already authoritative).
  void BeginRebuild();
  void AddWindowRange(const std::vector<graph::TimedEdge>& edges, size_t lo,
                      size_t hi);
  void FinishRebuild(bool mark_all_dirty);

  /// Writes a dirty flag for every entity in [0, universe) into `flags`
  /// (assigned/resized): 1 when the entity is out of the window or its
  /// component was dirtied by the last operation. A clean in-window
  /// entity's component is byte-identical to last tick — the reuse
  /// licence. One single-threaded pass with path compression, so
  /// concurrent readers of the result never race on Find's path halving —
  /// the server snapshots this before fanning detection out.
  void ExportDirty(size_t universe, std::vector<uint8_t>* flags);

  /// True when the entity has at least one edge in the current window.
  bool InWindow(graph::VertexId entity) const {
    return static_cast<size_t>(entity) < deg_.size() && deg_[entity] > 0;
  }

  graph::VertexId Root(graph::VertexId entity) { return Find(entity); }
  /// True when the in-window entity roots its component (Root(e) == e,
  /// without the walk).
  bool IsRoot(graph::VertexId entity) const {
    return parent_[entity] == entity;
  }

  /// Canonical dirty-component roots left by the last operation.
  const std::vector<graph::VertexId>& dirty_roots() const {
    return dirty_roots_;
  }
  int64_t NumDirtyComponents() const {
    return static_cast<int64_t>(dirty_roots_.size());
  }

  /// Members of the component rooted at `root` (valid only at roots).
  const std::vector<graph::VertexId>& MembersOf(graph::VertexId root) const {
    return members_[root];
  }

 private:
  void NewEpoch();
  void EnsureUniverse(graph::VertexId max_entity);
  graph::VertexId Find(graph::VertexId v);
  /// Unions the two components; the surviving root inherits either side's
  /// dirty mark. Returns the surviving root.
  graph::VertexId Union(graph::VertexId a, graph::VertexId b);
  /// Registers the entity as a window member (lazy singleton init) and
  /// counts one more edge endpoint on it.
  void Touch(graph::VertexId e);
  void Mark(graph::VertexId e) { mark_epoch_[e] = epoch_; }
  bool Marked(graph::VertexId e) const { return mark_epoch_[e] == epoch_; }
  /// Deduplicates `candidates` into canonical dirty roots.
  void Canonicalize(const std::vector<graph::VertexId>& candidates);

  std::vector<graph::VertexId> parent_;
  std::vector<int64_t> deg_;  ///< window edge endpoints per entity
  std::vector<std::vector<graph::VertexId>> members_;  ///< valid at roots
  // Per-tick epoch stamps: mark_epoch_ flags dirty entities/roots,
  // seen_epoch_ deduplicates roots during Canonicalize.
  std::vector<uint32_t> mark_epoch_, seen_epoch_;
  uint32_t epoch_ = 0;
  std::vector<graph::VertexId> dirty_roots_;
  /// Dirty-root candidates accumulated between BeginTick/BeginRebuild and
  /// the matching Finish call (deduplicated there).
  std::vector<graph::VertexId> candidates_;
};

}  // namespace glp::serve
