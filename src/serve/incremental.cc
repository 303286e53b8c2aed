#include "serve/incremental.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace glp::serve {

using graph::TimedEdge;
using graph::VertexId;
using graph::WindowDelta;

void IncrementalTracker::NewEpoch() {
  if (++epoch_ == 0) {  // stamp wrap
    std::fill(mark_epoch_.begin(), mark_epoch_.end(), 0u);
    std::fill(seen_epoch_.begin(), seen_epoch_.end(), 0u);
    epoch_ = 1;
  }
  dirty_roots_.clear();
}

void IncrementalTracker::EnsureUniverse(VertexId max_entity) {
  const size_t need = static_cast<size_t>(max_entity) + 1;
  if (parent_.size() >= need) return;
  const size_t old = parent_.size();
  parent_.resize(need);
  for (size_t v = old; v < need; ++v) parent_[v] = static_cast<VertexId>(v);
  deg_.resize(need, 0);
  members_.resize(need);
  mark_epoch_.resize(need, 0);
  seen_epoch_.resize(need, 0);
}

VertexId IncrementalTracker::Find(VertexId v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];  // path halving
    v = parent_[v];
  }
  return v;
}

VertexId IncrementalTracker::Union(VertexId a, VertexId b) {
  VertexId ra = Find(a), rb = Find(b);
  if (ra == rb) return ra;
  if (members_[ra].size() < members_[rb].size()) std::swap(ra, rb);
  parent_[rb] = ra;
  members_[ra].insert(members_[ra].end(), members_[rb].begin(),
                      members_[rb].end());
  members_[rb].clear();
  members_[rb].shrink_to_fit();
  if (Marked(rb)) Mark(ra);
  return ra;
}

void IncrementalTracker::Touch(VertexId e) {
  if (deg_[e] == 0) {
    parent_[e] = e;
    members_[e].assign(1, e);
  }
  ++deg_[e];
}

void IncrementalTracker::Canonicalize(
    const std::vector<VertexId>& candidates) {
  for (VertexId e : candidates) {
    if (deg_[e] == 0) continue;  // evicted after being marked
    const VertexId r = Find(e);
    if (!Marked(r) || seen_epoch_[r] == epoch_) continue;
    seen_epoch_[r] = epoch_;
    dirty_roots_.push_back(r);
  }
}

void IncrementalTracker::BeginTick() {
  NewEpoch();
  candidates_.clear();
}

void IncrementalTracker::Expire(const std::vector<TimedEdge>& edges,
                                const WindowDelta& delta) {
  // Drop endpoint degrees and collect the *old* roots of every component
  // that lost an edge.
  std::unordered_set<VertexId> affected_roots;
  for (size_t i = delta.expired_begin; i < delta.expired_end; ++i) {
    const TimedEdge& e = edges[i];
    --deg_[e.src];
    --deg_[e.dst];
    affected_roots.insert(Find(e.src));
    affected_roots.insert(Find(e.dst));
  }

  // Reset every affected component to singletons, dropping members whose
  // degree hit zero (evicted from the window). A later Expire over another
  // window re-collects the resulting singletons if it evicts them too.
  for (VertexId r : affected_roots) {
    std::vector<VertexId> mem = std::move(members_[r]);
    members_[r].clear();
    for (VertexId e : mem) {
      parent_[e] = e;
      if (deg_[e] > 0) {
        members_[e].assign(1, e);
        Mark(e);
        candidates_.push_back(e);
      } else {
        members_[e].clear();
        members_[e].shrink_to_fit();
      }
    }
  }
}

void IncrementalTracker::Rescan(const std::vector<TimedEdge>& edges,
                                const WindowDelta& delta) {
  // Re-derive the affected components' connectivity from their retained
  // edges. A retained edge's endpoints shared a component before the
  // delta, so checking one endpoint's mark suffices; edges of untouched
  // components are skipped without a Find.
  for (size_t i = delta.retained_begin; i < delta.retained_end; ++i) {
    const TimedEdge& e = edges[i];
    if (Marked(e.src)) Union(e.src, e.dst);
  }
}

void IncrementalTracker::Append(const std::vector<TimedEdge>& edges,
                                const WindowDelta& delta) {
  VertexId mx = 0;
  for (size_t i = delta.appended_begin; i < delta.appended_end; ++i) {
    mx = std::max({mx, edges[i].src, edges[i].dst});
  }
  EnsureUniverse(mx);
  // Union in place, dirtying every component an appended edge touches
  // (including previously-clean ones it merges in).
  for (size_t i = delta.appended_begin; i < delta.appended_end; ++i) {
    const TimedEdge& e = edges[i];
    Touch(e.src);
    Touch(e.dst);
    const VertexId r = Union(e.src, e.dst);
    Mark(r);
    candidates_.push_back(r);
  }
}

void IncrementalTracker::FinishTick() {
  Canonicalize(candidates_);
  candidates_.clear();
}

void IncrementalTracker::BeginRebuild() {
  NewEpoch();
  candidates_.clear();
  std::fill(deg_.begin(), deg_.end(), 0);
  for (auto& m : members_) m.clear();
}

void IncrementalTracker::AddWindowRange(const std::vector<TimedEdge>& edges,
                                        size_t lo, size_t hi) {
  VertexId mx = 0;
  for (size_t i = lo; i < hi; ++i) {
    mx = std::max({mx, edges[i].src, edges[i].dst});
  }
  EnsureUniverse(mx);
  for (size_t i = lo; i < hi; ++i) {
    const TimedEdge& e = edges[i];
    Touch(e.src);
    Touch(e.dst);
    candidates_.push_back(Union(e.src, e.dst));
  }
}

void IncrementalTracker::FinishRebuild(bool mark_all_dirty) {
  if (mark_all_dirty) {
    for (VertexId e : candidates_) {
      if (deg_[e] > 0) Mark(Find(e));
    }
    Canonicalize(candidates_);
  }
  candidates_.clear();
}

void IncrementalTracker::ExportDirty(size_t universe,
                                     std::vector<uint8_t>* flags) {
  flags->assign(universe, 1);
  const size_t n = std::min(universe, deg_.size());
  for (size_t e = 0; e < n; ++e) {
    if (deg_[e] <= 0) continue;
    (*flags)[e] =
        Marked(Find(static_cast<VertexId>(e))) ? uint8_t{1} : uint8_t{0};
  }
}

}  // namespace glp::serve
