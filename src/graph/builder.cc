#include "graph/builder.h"

#include <memory>
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

namespace {

/// Compacts each ascending neighbour list of the CSR (offsets, neighbors) to
/// one entry per distinct neighbour, in place, in one linear pass over runs
/// of equal ids. With `weights` set, each kept entry's weight is its run
/// length (the parallel-edge multiplicity).
void CollapseRuns(VertexId num_vertices, std::vector<EdgeId>* offsets,
                  std::vector<VertexId>* neighbors,
                  std::vector<float>* weights) {
  std::vector<VertexId>& nbr = *neighbors;
  EdgeId write = 0;
  EdgeId begin = 0;  // the list's start before compaction
  for (VertexId v = 0; v < num_vertices; ++v) {
    const EdgeId end = (*offsets)[v + 1];
    for (EdgeId i = begin; i < end;) {
      EdgeId j = i + 1;
      while (j < end && nbr[j] == nbr[i]) ++j;
      nbr[write] = nbr[i];
      if (weights != nullptr) {
        weights->push_back(static_cast<float>(j - i));
      }
      ++write;
      i = j;
    }
    (*offsets)[v + 1] = write;
    begin = end;
  }
  nbr.resize(static_cast<size_t>(write));
}

}  // namespace

void GraphBuilder::Place(bool symmetrize, std::vector<EdgeId>* offsets_out,
                         std::vector<VertexId>* neighbors_out) {
  std::vector<Edge> work;
  work.swap(edges_);

  // Two counting passes place the edges, O(E) with no comparison sort.
  // Self-loops are dropped; symmetrization contributes the reverse of every
  // edge without materializing it. An entry "u lists w" is first bucketed
  // by its neighbour w, then the buckets are emptied in ascending w into
  // the lists, so every neighbour list comes out in ascending id order
  // whatever order the edges arrived in.
  const size_t nv = num_vertices_;
  std::vector<EdgeId> offsets(nv + 1, 0);  // list lengths, then offsets
  std::vector<EdgeId> by_nbr;              // bucket offsets when directed
  if (!symmetrize) by_nbr.assign(nv + 1, 0);
  for (const Edge& e : work) {
    if (e.src == e.dst) continue;
    offsets[e.dst + 1]++;
    if (symmetrize) {
      offsets[e.src + 1]++;
    } else {
      by_nbr[e.src + 1]++;
    }
  }
  for (size_t v = 0; v < nv; ++v) offsets[v + 1] += offsets[v];
  for (size_t v = 0; !by_nbr.empty() && v < nv; ++v) {
    by_nbr[v + 1] += by_nbr[v];
  }
  // Symmetric lists are their own transpose: the buckets have the lists'
  // lengths.
  const std::vector<EdgeId>& bucket_offsets = symmetrize ? offsets : by_nbr;

  // Pass 1: bucket each entry's list owner by its neighbour. Every slot is
  // written before it is read, so the buffer is not zero-filled.
  const auto placed = static_cast<size_t>(offsets.back());
  std::unique_ptr<VertexId[]> owners(new VertexId[placed]);
  std::vector<EdgeId> cursor(bucket_offsets.begin(), bucket_offsets.end() - 1);
  for (const Edge& e : work) {
    if (e.src == e.dst) continue;
    owners[cursor[e.src]++] = e.dst;
    if (symmetrize) owners[cursor[e.dst]++] = e.src;
  }
  // The edges are placed: the buffer goes back, emptied, for TakeEdges.
  work.clear();
  edges_.swap(work);

  // Pass 2: empty the buckets in ascending neighbour id.
  std::vector<VertexId> neighbors(placed);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (VertexId w = 0; w < num_vertices_; ++w) {
    for (EdgeId i = bucket_offsets[w]; i < bucket_offsets[w + 1]; ++i) {
      neighbors[cursor[owners[i]]++] = w;
    }
  }
  *offsets_out = std::move(offsets);
  *neighbors_out = std::move(neighbors);
}

Graph GraphBuilder::Build(bool symmetrize, bool dedupe) {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> neighbors;
  Place(symmetrize, &offsets, &neighbors);
  // Parallel edges are adjacent in an ascending list: dropping them is one
  // run-length pass.
  if (dedupe) CollapseRuns(num_vertices_, &offsets, &neighbors, nullptr);
  return Graph(num_vertices_, std::move(offsets), std::move(neighbors));
}

Graph GraphBuilder::BuildCollapsed(bool symmetrize) {
  // The placement lists parallel edges adjacently; each run of equal
  // neighbours becomes one entry weighted by its length.
  std::vector<EdgeId> offsets;
  std::vector<VertexId> neighbors;
  Place(symmetrize, &offsets, &neighbors);
  std::vector<float> weights;
  weights.reserve(neighbors.size());
  CollapseRuns(num_vertices_, &offsets, &neighbors, &weights);
  return Graph(num_vertices_, std::move(offsets), std::move(neighbors),
               std::move(weights));
}

Graph BuildGraph(VertexId num_vertices, const std::vector<Edge>& edges,
                 bool symmetrize, bool dedupe) {
  GraphBuilder b(num_vertices);
  b.Reserve(edges.size());
  for (const Edge& e : edges) b.AddEdgeUnchecked(e.src, e.dst);
  return b.Build(symmetrize, dedupe);
}

}  // namespace glp::graph
