// Warp-per-vertex LabelPropagation through *global-memory* hash tables —
// the strategy of the G-Hash baseline [2] and the "global" row of Table 3.
//
// Every listed vertex owns a power-of-two region (2x its degree) in one big
// device arena; counting happens with atomicCAS/atomicAdd straight into
// global memory, relying only on the hardware cache. The arena is O(|E|)
// extra device memory and must be re-zeroed every iteration — both costs the
// CMS+HT design eliminates, and both are charged here.

#pragma once

#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"

namespace glp::lp {

/// Per-vertex hash-table regions in device global memory.
struct GlobalHtArena {
  std::vector<graph::Label> keys;
  std::vector<float> counts;
  /// region of vertex list[i] = [offsets[i], offsets[i] + capacities[i])
  std::vector<int64_t> offsets;
  std::vector<int> capacities;

  uint64_t bytes() const {
    return keys.size() * sizeof(graph::Label) + counts.size() * sizeof(float);
  }

  /// Sizes regions for `vertices`: 2x degree rounded up to a 32-slot
  /// multiple (warp-aligned scans), min 32.
  void Build(const graph::Graph& g,
             const std::vector<graph::VertexId>& vertices) {
    offsets.resize(vertices.size());
    capacities.resize(vertices.size());
    int64_t total = 0;
    for (size_t i = 0; i < vertices.size(); ++i) {
      const int64_t want = 2 * g.degree(vertices[i]);
      const int cap = static_cast<int>(std::max<int64_t>(32, (want + 31) / 32 * 32));
      offsets[i] = total;
      capacities[i] = cap;
      total += cap;
    }
    keys.assign(total, graph::kInvalidLabel);
    counts.assign(total, 0.0f);
  }

  /// Host-side reset; the kernel-side memset cost is charged separately by
  /// the engine (MapKernelStats over the arena bytes).
  void Reset() {
    std::fill(keys.begin(), keys.end(), graph::kInvalidLabel);
    std::fill(counts.begin(), counts.end(), 0.0f);
  }
};

/// Runs one LabelPropagation pass over `vertices`, one warp per vertex,
/// counting through the global arena. The arena must be Reset() beforehand.
template <typename Variant>
sim::KernelStats RunGlobalHtKernel(const sim::DeviceProps& props,
                                   glp::ThreadPool* pool,
                                   const DeviceView<Variant>& view,
                                   const std::vector<graph::VertexId>& vertices,
                                   GlobalHtArena* arena,
                                   int threads_per_block) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  if (num_vertices == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (num_vertices + warps_per_block - 1) / warps_per_block;
  const graph::VertexId* vlist = vertices.data();

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t vi = blk.block_idx() * warps_per_block + w.warp_id();
      if (vi >= num_vertices) return;
      const graph::VertexId v = vlist[vi];
      const graph::EdgeId begin = view.offsets[v];
      const int64_t degree = view.offsets[v + 1] - begin;
      // The vertex's region of the arena; accesses name the arena arrays
      // plus region + slot, never an interior pointer.
      graph::Label* ht_keys = arena->keys.data();
      float* ht_counts = arena->counts.data();
      const int64_t region = arena->offsets[vi];
      const int cap = arena->capacities[vi];

      Candidate best;
      if (degree > 0) {
        // Insert phase.
        for (int64_t base = 0; base < degree; base += sim::kWarpSize) {
          const int lanes = static_cast<int>(
              std::min<int64_t>(sim::kWarpSize, degree - base));
          const sim::LaneMask mask =
              lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
          w.SetActive(mask);
          const sim::LaneArray<graph::VertexId> nbr =
              w.GatherContig(view.neighbors, begin + base);
          sim::LaneArray<int64_t> lidx;
          sim::ForEachLane(mask, [&](int l) { lidx[l] = nbr[l]; });
          const sim::LaneArray<graph::Label> lbl =
              w.Gather(view.labels, lidx);
          sim::LaneArray<float> wgt;
          sim::ForEachLane(mask, [&](int l) {
            wgt[l] =
                static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
          });
          w.CountInstr();
          ApplyEdgeWeightsContig(w, view, begin + base, &wgt);
          sim::LaneArray<float> post;
          GlobalHtInsert(w, ht_keys, ht_counts, region, cap, lbl, wgt,
                         &post);
        }

        // Scan phase over the region (coalesced reads of the arena).
        for (int base = 0; base < cap; base += sim::kWarpSize) {
          const int lanes = std::min(sim::kWarpSize, cap - base);
          w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                              : ((1u << lanes) - 1u));
          const sim::LaneArray<graph::Label> k =
              w.GatherContig(ht_keys, region + base);
          const sim::LaneArray<float> c =
              w.GatherContig(ht_counts, region + base);
          sim::LaneMask valid = 0;
          sim::ForEachLane(w.active(), [&](int l) {
            if (k[l] != graph::kInvalidLabel) valid |= sim::LaneBit(l);
          });
          if (valid == 0) continue;
          w.SetActive(valid);
          const sim::LaneArray<double> aux = GatherAux(w, view, k);
          sim::LaneArray<double> score;
          sim::ForEachLane(valid, [&](int l) {
            score[l] = view.variant->Score(v, k[l], c[l], aux[l]);
          });
          w.CountInstr();
          best.Merge(WarpArgMax(w, valid, score, k));
        }
      }

      sim::LaneArray<int64_t> idx(0);
      sim::LaneArray<graph::Label> val(best.label);
      idx[0] = v;
      w.SetActive(sim::LaneBit(0));
      w.Scatter(view.next, idx, val);
      w.SetActive(sim::kFullMask);
    });
  });
}

}  // namespace glp::lp
