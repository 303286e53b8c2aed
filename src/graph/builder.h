// Edge-list accumulation and CSR construction.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "util/status.h"

namespace glp::graph {

/// A directed edge u -> v (v will list u as an in-neighbor).
struct Edge {
  VertexId src;
  VertexId dst;
  bool operator==(const Edge&) const = default;
};

/// \brief Accumulates edges and builds a CSR Graph.
///
/// Build options: `symmetrize` inserts the reverse of every edge (undirected
/// semantics — the form all Table 2 datasets use for LP), `dedupe` removes
/// parallel edges, and self-loops are always dropped. Every built neighbour
/// list is in ascending id order, parallel edges adjacent, whatever order
/// the edges were added in: the same edge multiset always builds the same
/// CSR.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}
  /// Adopts `edges` as the pending edges, without copying them. Their
  /// endpoints must be below `num_vertices`.
  GraphBuilder(VertexId num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_pending_edges() const { return edges_.size(); }

  void Reserve(size_t n) { edges_.reserve(n); }

  /// Queues edge u -> v; returns InvalidArgument if an endpoint is out of
  /// range.
  Status AddEdge(VertexId u, VertexId v);

  /// Queues without range checks (hot path for generators which guarantee
  /// in-range ids).
  void AddEdgeUnchecked(VertexId u, VertexId v) { edges_.push_back({u, v}); }

  /// Builds the CSR (consumes the pending edges).
  Graph Build(bool symmetrize = true, bool dedupe = true);

  /// Hands back the pending-edge buffer. After a Build it is empty but keeps
  /// its capacity, so a caller that refills it every round allocates once.
  std::vector<Edge> TakeEdges() { return std::move(edges_); }

  /// Builds a *weighted* CSR with parallel edges collapsed into multiplicity
  /// weights (consumes the pending edges). LP over the result is exactly
  /// equivalent to LP over the multigraph Build(symmetrize, false) would
  /// produce, at one CSR entry per distinct neighbor.
  Graph BuildCollapsed(bool symmetrize = true);

 private:
  /// Places the pending edges (consumed) into ascending neighbour lists.
  void Place(bool symmetrize, std::vector<EdgeId>* offsets,
             std::vector<VertexId>* neighbors);

  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

/// Convenience: CSR directly from an edge vector.
Graph BuildGraph(VertexId num_vertices, const std::vector<Edge>& edges,
                 bool symmetrize = true, bool dedupe = true);

}  // namespace glp::graph
