// Partition assignment shared by the distributed cost model
// (pipeline::PriceSuperstep) and the live sharded serving layer
// (serve::StreamServer). One definition, so the simulated cluster
// and the real shard fleet agree on which machine/shard owns an entity.
//
// Two layers:
//   - PartitionOf(v, n): the stateless hash rule. HashMix64 spreads the
//     (often sequential) entity-id space so partitions balance even under
//     range-clustered id assignment.
//   - PartitionMap: a *versioned* assignment — hash rule over `num_parts`
//     plus an optional sorted per-entity override table. The serving layer
//     routes every edge through one PartitionMap snapshot, persists the map
//     in the shard manifest (v3), and bumps `version` on every reshard so
//     producers racing a live resize can detect a stale routing decision
//     and re-route (DESIGN.md §4.14).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/hash.h"

namespace glp::pipeline {

/// The shard/machine that owns entity `v` in an `num_parts`-way hash
/// partition. A non-positive or single part count owns everything at part
/// 0 — mod 0 is UB, and callers sizing a fleet down to one shard expect
/// the degenerate map, not a crash.
inline int PartitionOf(graph::VertexId v, int num_parts) {
  if (num_parts <= 1) return 0;
  return static_cast<int>(glp::HashMix64(v) %
                          static_cast<uint64_t>(num_parts));
}

/// \brief Versioned entity→partition assignment.
///
/// The default map of `n` parts reproduces PartitionOf(v, n) exactly, so
/// manifests written before the map existed (v1/v2) deserialize into an
/// equivalent PartitionMap and old checkpoints restore byte-identically.
/// Overrides pin individual entities to an explicit part (sorted lookup
/// table); Repartitioned() derives the successor map and bumps the
/// version, which is what routing snapshots compare against.
class PartitionMap {
 public:
  PartitionMap() = default;
  explicit PartitionMap(int num_parts, uint64_t version = 1)
      : num_parts_(num_parts < 1 ? 1 : num_parts), version_(version) {}

  int num_parts() const { return num_parts_; }
  uint64_t version() const { return version_; }

  /// The part owning entity `v`: the override table when pinned, the hash
  /// rule otherwise.
  int PartOf(graph::VertexId v) const {
    if (!override_keys_.empty()) {
      const auto it = std::lower_bound(override_keys_.begin(),
                                       override_keys_.end(), v);
      if (it != override_keys_.end() && *it == v) {
        return override_parts_[static_cast<size_t>(
            it - override_keys_.begin())];
      }
    }
    return PartitionOf(v, num_parts_);
  }

  /// Pins entity `v` to `part` (replacing any existing pin). Out-of-range
  /// parts are clamped into [0, num_parts).
  void SetOverride(graph::VertexId v, int part) {
    if (part < 0) part = 0;
    if (part >= num_parts_) part = num_parts_ - 1;
    const auto it =
        std::lower_bound(override_keys_.begin(), override_keys_.end(), v);
    const size_t idx = static_cast<size_t>(it - override_keys_.begin());
    if (it != override_keys_.end() && *it == v) {
      override_parts_[idx] = part;
      return;
    }
    override_keys_.insert(it, v);
    override_parts_.insert(override_parts_.begin() +
                               static_cast<ptrdiff_t>(idx),
                           part);
  }

  void ClearOverrides() {
    override_keys_.clear();
    override_parts_.clear();
  }

  /// Sorted override table, exposed for manifest serialization.
  const std::vector<graph::VertexId>& override_keys() const {
    return override_keys_;
  }
  const std::vector<int32_t>& override_parts() const {
    return override_parts_;
  }

  /// Rebuilds the override table from parallel arrays (manifest
  /// deserialization). Keys must be sorted and unique; parts are clamped.
  void SetOverrides(std::vector<graph::VertexId> keys,
                    std::vector<int32_t> parts) {
    override_keys_ = std::move(keys);
    override_parts_ = std::move(parts);
    for (int32_t& p : override_parts_) {
      if (p < 0) p = 0;
      if (p >= num_parts_) p = num_parts_ - 1;
    }
  }

  /// The successor map after resizing to `new_parts`: hash rule over the
  /// new count, overrides dropped (they were pinned against the old
  /// count), version bumped so routing snapshots taken under this map
  /// read as stale.
  PartitionMap Repartitioned(int new_parts) const {
    return PartitionMap(new_parts, version_ + 1);
  }

  bool operator==(const PartitionMap& o) const {
    return num_parts_ == o.num_parts_ && version_ == o.version_ &&
           override_keys_ == o.override_keys_ &&
           override_parts_ == o.override_parts_;
  }
  bool operator!=(const PartitionMap& o) const { return !(*this == o); }

 private:
  int num_parts_ = 1;
  uint64_t version_ = 1;
  // Parallel arrays, sorted by key: entity → pinned part.
  std::vector<graph::VertexId> override_keys_;
  std::vector<int32_t> override_parts_;
};

}  // namespace glp::pipeline
