// One-warp-multi-vertices LabelPropagation kernel for low-degree vertices —
// the warp-centric scheduling of paper §4.2 (Figure 3).
//
// A packing plan assigns (vertex, edge) pairs of several low-degree vertices
// to the 32 lanes of a warp round, never splitting a vertex across rounds.
// Peer discovery then uses warp intrinsics exactly as the paper describes:
//   1. __ballot_sync     -> activemask of lanes holding a valid slot
//   2. __match_any_sync  on vertex ids -> vmask (same-vertex peers)
//   3. __match_any_sync  on labels, intersected with vmask -> lmask
//   4. __popc(lmask)     -> the label's frequency
// followed by a shuffle-based per-vertex argmax and a scatter of Lnext.
//
// Frequencies come from popcounts, so this kernel requires unit neighbor
// weights (all of the paper's variants are unit-weight); engines route
// non-unit-weight variants to the warp-per-vertex kernel instead.

#pragma once

#include <algorithm>
#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"

namespace glp::lp {

/// Lane assignment for the low-degree kernel: rounds of 32 slots, each slot
/// one lane of a vertex, vertices never straddling rounds. Only the vertex
/// id is materialized — a lane derives its edge index as
/// offsets[v] + popc(vmask & lanes_below), since a vertex's slots are
/// contiguous in lane order and cover its whole neighbor list. Built once
/// per run (the graph is static) and resident on the device.
struct LowDegreePlan {
  std::vector<graph::VertexId> slot_vertex;  ///< kInvalidVertex = padding
  int64_t num_rounds = 0;
  /// Low-bin vertices with zero degree (handled by a trivial map kernel).
  std::vector<graph::VertexId> isolated;
  /// Fraction of lane slots carrying real work (packing efficiency).
  double occupancy = 0;

  uint64_t device_bytes() const {
    return slot_vertex.size() * sizeof(graph::VertexId);
  }
};

/// Greedy first-fit packing of the low bin. Vertices are packed in *id*
/// order so that the slot_edge sequence walks the CSR nearly contiguously —
/// the neighbor-id gathers of a round then coalesce (packing by degree
/// instead scatters each lane into a distant CSR range and costs one
/// transaction per lane).
inline LowDegreePlan BuildLowDegreePlan(
    const graph::Graph& g, const std::vector<graph::VertexId>& low_vertices) {
  LowDegreePlan plan;
  std::vector<graph::VertexId> by_id(low_vertices);
  std::sort(by_id.begin(), by_id.end());
  int fill = sim::kWarpSize;  // force a fresh round on first vertex
  int64_t used_slots = 0;
  for (graph::VertexId v : by_id) {
    const int deg = static_cast<int>(g.degree(v));
    if (deg == 0) {
      plan.isolated.push_back(v);
      continue;
    }
    if (fill + deg > sim::kWarpSize) {
      // Pad the current round and open a new one.
      while (fill < sim::kWarpSize) {
        plan.slot_vertex.push_back(graph::kInvalidVertex);
        ++fill;
      }
      fill = 0;
    }
    for (int i = 0; i < deg; ++i) plan.slot_vertex.push_back(v);
    fill += deg;
    used_slots += deg;
  }
  while (fill < sim::kWarpSize && fill > 0) {
    plan.slot_vertex.push_back(graph::kInvalidVertex);
    ++fill;
  }
  plan.num_rounds =
      static_cast<int64_t>(plan.slot_vertex.size()) / sim::kWarpSize;
  plan.occupancy = plan.slot_vertex.empty()
                       ? 1.0
                       : static_cast<double>(used_slots) /
                             static_cast<double>(plan.slot_vertex.size());
  return plan;
}

/// Runs one LabelPropagation pass over the packed low-degree rounds. The
/// commit's change count (CommitLabels) is charged to `commit_stats` when
/// set.
template <typename Variant>
sim::KernelStats RunLowDegreeWarpKernel(const sim::DeviceProps& props,
                                        glp::ThreadPool* pool,
                                        const DeviceView<Variant>& view,
                                        const LowDegreePlan& plan,
                                        int threads_per_block,
                                        sim::KernelStats* commit_stats =
                                            nullptr) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t rounds =
      static_cast<int64_t>(plan.slot_vertex.size()) / sim::kWarpSize;
  if (rounds == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (rounds + warps_per_block - 1) / warps_per_block;
  const graph::VertexId* slot_vertex = plan.slot_vertex.data();

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t round =
          blk.block_idx() * warps_per_block + w.warp_id();
      if (round >= rounds) return;
      const int64_t base = round * sim::kWarpSize;

      // Load this round's slot assignment (fully coalesced).
      const sim::LaneArray<graph::VertexId> vid =
          w.GatherContig(slot_vertex, base);

      // Step 1: __ballot_sync over slot validity.
      sim::LaneArray<int> valid_pred(sim::kUninit);
      sim::ForEachLane(sim::kFullMask, [&](int l) {
        valid_pred[l] = vid[l] != graph::kInvalidVertex ? 1 : 0;
      });
      sim::LaneMask active = w.BallotSync(valid_pred);
      if (active == 0) return;
      w.SetActive(active);
      // Frontier: a vertex's lanes are all marked or all not.
      if (view.marks_in != nullptr) {
        active = MarkedLanes(w, view, vid);
        if (active == 0) return;
        w.SetActive(active);
      }

      // Step 2 (early): group lanes by vertex — also yields each lane's rank
      // within its vertex, from which the edge index is derived without a
      // materialized slot_edge array.
      const sim::LaneArray<sim::LaneMask> vmask = w.MatchAnySync(vid, active);

      // Each vertex's lanes cover its full neighbor list in lane order:
      // edge = offsets[v] + rank(lane within vmask).
      sim::LaneArray<int64_t> voff_idx(sim::kUninit);
      sim::ForEachLane(active, [&](int l) { voff_idx[l] = vid[l]; });
      const sim::LaneArray<graph::EdgeId> voff =
          w.Gather(view.offsets, voff_idx);
      sim::LaneArray<graph::EdgeId> eidx(sim::kUninit);
      sim::ForEachLane(active, [&](int l) {
        const int rank = sim::Popc(vmask[l] & (sim::LaneBit(l) - 1u));
        eidx[l] = voff[l] + rank;
      });
      w.stats()->intrinsic_ops += 1;  // popc for the rank
      w.CountInstr();

      // Load the assigned neighbor and its label.
      const sim::LaneArray<graph::VertexId> nbr =
          w.Gather(view.neighbors, eidx);
      sim::LaneArray<int64_t> lidx(sim::kUninit);
      sim::ForEachLane(active, [&](int l) { lidx[l] = nbr[l]; });
      const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);

      // Step 3: sub-group by label within each vertex group.
      const sim::LaneArray<sim::LaneMask> lmask_raw =
          w.MatchAnySync(lbl, active);
      sim::LaneArray<sim::LaneMask> lmask(sim::kUninit);
      sim::ForEachLane(active,
                       [&](int l) { lmask[l] = lmask_raw[l] & vmask[l]; });
      w.CountInstr();

      // Step 4: frequency = __popc(lmask); one label leader per group.
      w.stats()->intrinsic_ops += 1;  // popc
      sim::LaneMask label_leaders = 0;
      sim::ForEachLane(active, [&](int l) {
        if (sim::FirstLane(lmask[l]) == l) label_leaders |= sim::LaneBit(l);
      });

      // Label leaders score their group's frequency.
      sim::LaneArray<double> score(
          -std::numeric_limits<double>::infinity());
      if (label_leaders != 0) {
        w.SetActive(label_leaders);
        const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
        sim::ForEachLane(label_leaders, [&](int l) {
          const double freq = sim::Popc(lmask[l]);
          score[l] = view.variant->Score(vid[l], lbl[l], freq, aux[l]);
        });
        w.CountInstr();
      }

      // Per-vertex argmax across that vertex's label leaders (butterfly
      // shuffles over vmask groups).
      w.stats()->intrinsic_ops += 5;
      w.SetActive(active);
      w.CountInstr(5);
      sim::LaneMask vertex_leaders = 0;
      sim::LaneArray<graph::Label> winner(graph::kInvalidLabel);
      sim::ForEachLane(active, [&](int l) {
        if (sim::FirstLane(vmask[l]) != l) return;
        vertex_leaders |= sim::LaneBit(l);
        Candidate best;
        sim::ForEachLane(vmask[l] & label_leaders, [&](int peer) {
          best.Merge(Candidate{score[peer], lbl[peer]});
        });
        winner[l] = best.label;
      });

      // Vertex leaders commit Lnext (one store per vertex in the round).
      w.SetActive(vertex_leaders);
      sim::LaneArray<int64_t> out_idx(sim::kUninit);
      sim::ForEachLane(vertex_leaders,
                       [&](int l) { out_idx[l] = vid[l]; });
      // A vertex's degree is its lane count, popc(vmask), under the frontier.
      sim::LaneArray<uint32_t> edges(0);
      if (view.pushed_slot >= 0) {
        sim::ForEachLane(vertex_leaders, [&](int l) {
          edges[l] = static_cast<uint32_t>(sim::Popc(vmask[l]));
        });
        w.stats()->intrinsic_ops += 1;
        w.CountInstr();
      }
      const sim::LaneMask pushers =
          CommitLabels(w, blk.epilogue_stats(), view, out_idx, winner, edges);
      if (pushers != 0) {
        // Every lane of a differing vertex stores the mark of the neighbour
        // it already holds.
        sim::LaneMask push_lanes = 0;
        sim::ForEachLane(pushers, [&](int l) { push_lanes |= vmask[l]; });
        sim::Warp pw(w.warp_id(), push_lanes, blk.epilogue_stats());
        pw.CountInstr();
        pw.ScatterRelaxed(view.marks_out, nbr,
                          sim::LaneArray<uint32_t>(view.stamp + 1));
      }
      w.SetActive(sim::kFullMask);
    });
  }, commit_stats);
}

}  // namespace glp::lp
