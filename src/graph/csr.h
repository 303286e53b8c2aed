// Compressed-sparse-row graph — the storage format of GLP (paper §3.1).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace glp::graph {

/// \brief Immutable CSR adjacency structure, optionally edge-weighted.
///
/// Stores *incoming* neighbor lists (the direction LP consumes: a vertex
/// gathers the labels of its in-neighbors). For graphs built as undirected
/// the lists are symmetrized, so in- and out-neighborhoods coincide.
///
/// List order: every producer in the repository (GraphBuilder, LoadBinary
/// restoring a saved CSR, and the monotone row copies of the incremental
/// dirty subgraph) emits each neighbor list in ascending id order, parallel
/// edges adjacent. The constructor does not check it. LP's
/// labels never depend on it, but its cost does: the 32 lanes of a warp
/// gather the labels of 32 ascending ids, which share sectors wherever ids
/// cluster, and the low-degree kernel's rounds read one contiguous range.
///
/// Weighted graphs carry one float per CSR entry; the canonical producer is
/// GraphBuilder::BuildCollapsed, which merges parallel edges into
/// multiplicity weights — same LP semantics as the multigraph at a fraction
/// of the memory and traffic.
class Graph {
 public:
  Graph() = default;
  Graph(VertexId num_vertices, std::vector<EdgeId> offsets,
        std::vector<VertexId> neighbors)
      : num_vertices_(num_vertices),
        offsets_(std::move(offsets)),
        neighbors_(std::move(neighbors)) {
    GLP_CHECK_EQ(offsets_.size(), static_cast<size_t>(num_vertices_) + 1);
    GLP_CHECK_EQ(offsets_.back(), static_cast<EdgeId>(neighbors_.size()));
  }

  Graph(VertexId num_vertices, std::vector<EdgeId> offsets,
        std::vector<VertexId> neighbors, std::vector<float> weights)
      : Graph(num_vertices, std::move(offsets), std::move(neighbors)) {
    GLP_CHECK_EQ(weights.size(), neighbors_.size());
    weights_ = std::move(weights);
  }

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(neighbors_.size()); }

  /// Average in-degree.
  double avg_degree() const {
    return num_vertices_ == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices_;
  }

  EdgeId offset(VertexId v) const { return offsets_[v]; }
  int64_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// In-neighbors of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(degree(v))};
  }

  const std::vector<EdgeId>& offsets() const { return offsets_; }
  const std::vector<VertexId>& neighbor_array() const { return neighbors_; }
  const EdgeId* offsets_data() const { return offsets_.data(); }
  const VertexId* neighbors_data() const { return neighbors_.data(); }

  /// Edge weights (empty for unweighted graphs).
  bool has_weights() const { return !weights_.empty(); }
  const std::vector<float>& weight_array() const { return weights_; }
  const float* weights_data() const {
    return weights_.empty() ? nullptr : weights_.data();
  }
  /// Weight of CSR entry `e` (1.0 for unweighted graphs).
  float edge_weight(EdgeId e) const {
    return weights_.empty() ? 1.0f : weights_[e];
  }
  /// Sum of all edge weights (== num_edges() for unweighted graphs).
  double total_weight() const;

  int64_t max_degree() const;

  /// Bytes of the CSR arrays — what a device-resident copy would occupy.
  uint64_t bytes() const {
    return offsets_.size() * sizeof(EdgeId) +
           neighbors_.size() * sizeof(VertexId) +
           weights_.size() * sizeof(float);
  }

  /// "V=… E=… avg_deg=… max_deg=…" one-liner.
  std::string ToString() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<EdgeId> offsets_{0};
  std::vector<VertexId> neighbors_;
  std::vector<float> weights_;
};

}  // namespace glp::graph
