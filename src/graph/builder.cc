#include "graph/builder.h"

#include <algorithm>
#include <sstream>

namespace glp::graph {

Status GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    std::ostringstream os;
    os << "edge (" << u << ", " << v << ") out of range for " << num_vertices_
       << " vertices";
    return Status::InvalidArgument(os.str());
  }
  edges_.push_back({u, v});
  return Status::OK();
}

Graph GraphBuilder::Build(bool symmetrize, bool dedupe) {
  std::vector<Edge> work;
  work.swap(edges_);

  // Counting-sort placement by destination: O(E), no comparison sort of the
  // whole edge array. Self-loops are dropped; symmetrization contributes the
  // reverse of every edge without materializing it.
  std::vector<EdgeId> offsets(static_cast<size_t>(num_vertices_) + 1, 0);
  for (const Edge& e : work) {
    if (e.src == e.dst) continue;
    offsets[e.dst + 1]++;
    if (symmetrize) offsets[e.src + 1]++;
  }
  for (VertexId v = 0; v < num_vertices_; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> neighbors(static_cast<size_t>(offsets.back()));
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : work) {
    if (e.src == e.dst) continue;
    neighbors[cursor[e.dst]++] = e.src;
    if (symmetrize) neighbors[cursor[e.src]++] = e.dst;
  }
  // The edges are placed: the buffer goes back, emptied, for TakeEdges.
  work.clear();
  edges_.swap(work);

  if (!dedupe) {
    // Neighbor lists are left in placement order (LP never depends on it).
    return Graph(num_vertices_, std::move(offsets), std::move(neighbors));
  }

  // Sort each (short) list and drop parallel edges, compacting in place.
  std::vector<EdgeId> out_offsets(static_cast<size_t>(num_vertices_) + 1, 0);
  EdgeId write = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    auto begin = neighbors.begin() + offsets[v];
    auto end = neighbors.begin() + offsets[v + 1];
    std::sort(begin, end);
    auto last = std::unique(begin, end);
    for (auto it = begin; it != last; ++it) neighbors[write++] = *it;
    out_offsets[v + 1] = write;
  }
  neighbors.resize(static_cast<size_t>(write));

  return Graph(num_vertices_, std::move(out_offsets), std::move(neighbors));
}

Graph GraphBuilder::BuildCollapsed(bool symmetrize) {
  // Start from the multigraph placement (cheap counting sort)...
  Graph multi = Build(symmetrize, /*dedupe=*/false);
  const auto& offsets = multi.offsets();
  const auto& neighbors = multi.neighbor_array();

  // ...then sort each list and merge runs of equal neighbors into weights.
  std::vector<EdgeId> out_offsets(static_cast<size_t>(num_vertices_) + 1, 0);
  std::vector<VertexId> out_neighbors;
  std::vector<float> out_weights;
  out_neighbors.reserve(neighbors.size());
  out_weights.reserve(neighbors.size());
  std::vector<VertexId> list;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    list.assign(neighbors.begin() + offsets[v],
                neighbors.begin() + offsets[v + 1]);
    std::sort(list.begin(), list.end());
    for (size_t i = 0; i < list.size();) {
      size_t j = i;
      while (j < list.size() && list[j] == list[i]) ++j;
      out_neighbors.push_back(list[i]);
      out_weights.push_back(static_cast<float>(j - i));
      i = j;
    }
    out_offsets[v + 1] = static_cast<EdgeId>(out_neighbors.size());
  }
  return Graph(num_vertices_, std::move(out_offsets),
               std::move(out_neighbors), std::move(out_weights));
}

Graph BuildGraph(VertexId num_vertices, const std::vector<Edge>& edges,
                 bool symmetrize, bool dedupe) {
  GraphBuilder b(num_vertices);
  b.Reserve(edges.size());
  for (const Edge& e : edges) b.AddEdgeUnchecked(e.src, e.dst);
  return b.Build(symmetrize, dedupe);
}

}  // namespace glp::graph
