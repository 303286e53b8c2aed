// Warp-per-vertex LabelPropagation kernel with a warp-private shared-memory
// hash table — GLP's mid-degree path (32 <= degree <= 128), where the whole
// neighborhood's label set fits comfortably in shared memory.
//
// Per vertex: clear the warp's HT slice, lockstep-insert all neighbor labels
// (coalesced neighbor-id reads, scattered label gathers — the irreducible
// traffic), then scan the HT evaluating LabelScore and elect the argmax.

#pragma once

#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"

namespace glp::lp {

/// Runs one LabelPropagation pass over `vertices`, one warp per vertex.
/// `ht_capacity` is the per-warp table size (slots); callers size it at
/// twice the largest degree in the bin.
template <typename Variant>
sim::KernelStats RunWarpPerVertexSmemKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, int ht_capacity,
    int threads_per_block) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (num_vertices + warps_per_block - 1) / warps_per_block;
  if (cfg.num_blocks == 0) return sim::KernelStats{};
  const graph::VertexId* vlist = vertices.data();

  return sim::Launch(props, cfg, pool, [&, vlist](sim::Block& blk) {
    auto keys = blk.shared().Alloc<graph::Label>(
        static_cast<size_t>(warps_per_block) * ht_capacity);
    auto counts = blk.shared().Alloc<float>(
        static_cast<size_t>(warps_per_block) * ht_capacity);

    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t vi =
          blk.block_idx() * warps_per_block + w.warp_id();
      if (vi >= num_vertices) return;
      const graph::VertexId v = vlist[vi];
      const graph::EdgeId begin = view.offsets[v];
      const int64_t degree = view.offsets[v + 1] - begin;

      const size_t slice = static_cast<size_t>(w.warp_id()) * ht_capacity;
      auto ht_keys = SubSpan(keys, slice, ht_capacity);
      auto ht_counts = SubSpan(counts, slice, ht_capacity);

      if (degree == 0) {
        sim::LaneArray<int64_t> idx(0);
        sim::LaneArray<graph::Label> val(graph::kInvalidLabel);
        idx[0] = v;
        w.SetActive(sim::LaneBit(0));
        w.Scatter(view.next, idx, val);
        w.SetActive(sim::kFullMask);
        return;
      }

      // Clear the warp's HT slice.
      const sim::LaneArray<graph::Label> inv(graph::kInvalidLabel);
      const sim::LaneArray<float> zero(0.0f);
      for (int base = 0; base < ht_capacity; base += sim::kWarpSize) {
        const int lanes = std::min(sim::kWarpSize, ht_capacity - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        w.SharedStoreContig(ht_keys, base, inv);
        w.SharedStoreContig(ht_counts, base, zero);
      }

      // Insert all neighbor labels.
      for (int64_t base = 0; base < degree; base += sim::kWarpSize) {
        const int lanes =
            static_cast<int>(std::min<int64_t>(sim::kWarpSize, degree - base));
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        const sim::LaneArray<graph::VertexId> nbr =
            w.GatherContig(view.neighbors, begin + base);
        sim::LaneArray<int64_t> lidx(sim::kUninit);
        sim::ForEachLane(w.active(), [&](int l) { lidx[l] = nbr[l]; });
        const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
        sim::LaneArray<float> wgt(sim::kUninit);
        sim::ForEachLane(w.active(), [&](int l) {
          wgt[l] = static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
        });
        w.CountInstr();
        ApplyEdgeWeightsContig(w, view, begin + base, &wgt);
        sim::LaneArray<float> post(sim::kUninit);
        SharedHtInsert(w, ht_keys, ht_counts, ht_capacity,
                       /*max_probes=*/ht_capacity, lbl, wgt, &post);
      }

      // Scan the HT for the best-scoring label.
      Candidate best;
      for (int base = 0; base < ht_capacity; base += sim::kWarpSize) {
        const int lanes = std::min(sim::kWarpSize, ht_capacity - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        const sim::LaneArray<graph::Label> k =
            w.SharedLoadContig(ht_keys, base);
        const sim::LaneArray<float> c = w.SharedLoadContig(ht_counts, base);
        sim::LaneMask valid = 0;
        sim::ForEachLane(w.active(), [&](int l) {
          if (k[l] != graph::kInvalidLabel) valid |= sim::LaneBit(l);
        });
        if (valid == 0) continue;
        w.SetActive(valid);
        const sim::LaneArray<double> aux = GatherAux(w, view, k);
        sim::LaneArray<double> score(sim::kUninit);
        sim::ForEachLane(valid, [&](int l) {
          score[l] = view.variant->Score(v, k[l], c[l], aux[l]);
        });
        w.CountInstr();
        best.Merge(WarpArgMax(w, valid, score, k));
      }

      // Leader lane commits the choice.
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
