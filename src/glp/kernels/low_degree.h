// One-warp-multi-vertices LabelPropagation kernel for low-degree vertices —
// the warp-centric scheduling of paper §4.2 (Figure 3).
//
// A packing plan cuts the low bin into rounds, each a range [a, b) of
// consecutive vertex ids whose neighbor lists together fit the 32 lanes of
// a warp, never splitting a vertex across rounds. The round's lists are one
// contiguous CSR range, so lane l takes edge offsets[a] + l, and finds its
// vertex by a 5-step shuffle search over the round's offsets (Gunrock's
// load-balanced search): no per-lane table is stored or read. Peer
// discovery then uses warp intrinsics exactly as the paper describes:
//   1. __ballot_sync     -> activemask of lanes holding an edge
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

/// One round of the low-degree kernel: the consecutive vertex ids
/// [begin, end), all in the low bin and none isolated, whose degrees sum to
/// at most 32.
struct LowDegreeRound {
  graph::VertexId begin = 0;
  graph::VertexId end = 0;
};

/// Lane assignment for the low-degree kernel: one vertex range per round.
/// A lane derives its edge and its vertex from the round's offsets, so a
/// round needs only its two bounds on the device. Built once per run (the
/// graph is static) and resident on the device.
struct LowDegreePlan {
  std::vector<LowDegreeRound> rounds;
  /// Low-bin vertices with zero degree (handled by a trivial map kernel).
  std::vector<graph::VertexId> isolated;
  /// Fraction of lane slots carrying real work (packing efficiency).
  double occupancy = 0;

  uint64_t device_bytes() const {
    return rounds.size() * sizeof(LowDegreeRound);
  }
};

/// Greedy first-fit packing of the low bin in id order: a round grows by
/// the next id while that vertex's list still fits its lanes, and closes at
/// an id gap (a vertex outside the bin, or an isolated one). Packing in id
/// order is what makes a round's lists one contiguous CSR range; the
/// neighbor-id reads of a round then coalesce (packing by degree instead
/// scatters each lane into a distant CSR range).
inline LowDegreePlan BuildLowDegreePlan(
    const graph::Graph& g, const std::vector<graph::VertexId>& low_vertices) {
  LowDegreePlan plan;
  std::vector<graph::VertexId> by_id(low_vertices);
  std::sort(by_id.begin(), by_id.end());
  int fill = 0;  // edges of the open round; no round is open at first
  int64_t used_slots = 0;
  for (graph::VertexId v : by_id) {
    const int deg = static_cast<int>(g.degree(v));
    if (deg == 0) {
      plan.isolated.push_back(v);
      continue;
    }
    if (plan.rounds.empty() || plan.rounds.back().end != v ||
        fill + deg > sim::kWarpSize) {
      plan.rounds.push_back({v, v});
      fill = 0;
    }
    plan.rounds.back().end = v + 1;
    fill += deg;
    used_slots += deg;
  }
  const auto slots =
      static_cast<double>(plan.rounds.size()) * sim::kWarpSize;
  plan.occupancy =
      plan.rounds.empty() ? 1.0 : static_cast<double>(used_slots) / slots;
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
  const auto rounds = static_cast<int64_t>(plan.rounds.size());
  if (rounds == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (rounds + warps_per_block - 1) / warps_per_block;
  const LowDegreeRound* round_of = plan.rounds.data();

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t round =
          blk.block_idx() * warps_per_block + w.warp_id();
      if (round >= rounds) return;

      // The round's vertex range: one uniform load.
      const LowDegreeRound r =
          w.Gather(round_of, sim::LaneArray<int64_t>(round))[0];
      const graph::VertexId a = r.begin;
      const int nv = static_cast<int>(r.end - r.begin);  // 1..32
      // Lane i stands for vertex a + i in the range reads below.
      const sim::LaneMask vertex_lanes =
          nv >= sim::kWarpSize ? sim::kFullMask : ((1u << nv) - 1u);

      // Frontier: the round's marks are one contiguous read, and a round
      // with no marked vertex ends here.
      sim::LaneMask marked = vertex_lanes;
      if (view.marks_in != nullptr) {
        w.SetActive(vertex_lanes);
        const sim::LaneArray<uint32_t> mark =
            w.GatherContig(view.marks_in, a);
        sim::LaneArray<int> pred(0);
        sim::ForEachLane(vertex_lanes,
                         [&](int l) { pred[l] = mark[l] == view.stamp; });
        w.CountInstr();
        marked = w.BallotSync(pred);
        if (marked == 0) {
          w.SetActive(sim::kFullMask);
          return;
        }
      }

      // The round's offsets, one contiguous read: nv + 1 of them, except
      // that a 32-vertex round has 33 and its lanes read the first 32 — its
      // 32 non-isolated vertices share 32 edge slots, so each has degree 1
      // and the round ends at offsets[a] + 32.
      const sim::LaneMask offset_lanes =
          nv + 1 >= sim::kWarpSize ? sim::kFullMask
                                   : ((1u << (nv + 1)) - 1u);
      w.SetActive(offset_lanes);
      const sim::LaneArray<graph::EdgeId> off =
          w.GatherContig(view.offsets, a);
      const graph::EdgeId base = w.ShflSync(off, 0)[0];
      const int num_edges =
          nv >= sim::kWarpSize
              ? sim::kWarpSize
              : static_cast<int>(w.ShflSync(off, nv)[0] - base);

      // Step 1: the lanes holding an edge; lane l holds edge base + l.
      sim::LaneArray<int> has_edge(0);
      sim::ForEachLane(sim::kFullMask,
                       [&](int l) { has_edge[l] = l < num_edges; });
      w.SetActive(sim::kFullMask);
      w.CountInstr();
      const sim::LaneMask edge_lanes = w.BallotSync(has_edge);

      // Lane l's vertex is the last one whose list starts at or before l: a
      // 5-step binary search over the starts held by the vertex lanes, one
      // shuffle, one add and one compare-select per step. The lanes of a
      // vertex are then one contiguous run, so the simulator walks the
      // starts once to fill in each lane's vertex and run mask, and charges
      // the search's shuffles.
      sim::LaneArray<int> pos(sim::kUninit);
      sim::LaneArray<sim::LaneMask> run(sim::kUninit);
      for (int i = 0; i < nv; ++i) {
        const int first = static_cast<int>(off[i] - base);
        const int last = i + 1 < nv ? static_cast<int>(off[i + 1] - base)
                                    : num_edges;
        const sim::LaneMask lanes_of_i =
            (last >= sim::kWarpSize ? sim::kFullMask
                                    : ((1u << last) - 1u)) &
            ~((1u << first) - 1u);
        for (int l = first; l < last; ++l) {
          pos[l] = i;
          run[l] = lanes_of_i;
        }
      }
      w.CountInstr();  // each vertex lane's start, off[l] - base
      w.stats()->intrinsic_ops += 5;
      w.CountInstr(3 * 5);
      sim::LaneMask active = edge_lanes;
      if (view.marks_in != nullptr) {
        // A vertex's lanes are all marked or all not.
        active = 0;
        sim::ForEachLane(edge_lanes, [&](int l) {
          if (sim::LaneActive(marked, pos[l])) active |= sim::LaneBit(l);
        });
        w.CountInstr();
      }
      w.SetActive(active);
      sim::LaneArray<graph::VertexId> vid;
      sim::ForEachLane(active, [&](int l) { vid[l] = a + pos[l]; });
      w.CountInstr();

      // Step 2: __match_any_sync on the vertex ids groups the lanes by
      // vertex: each vertex's run of lanes, less its unmarked ones.
      w.stats()->intrinsic_ops += 1;
      w.CountInstr();
      sim::LaneArray<sim::LaneMask> vmask(0);
      sim::ForEachLane(active, [&](int l) { vmask[l] = run[l] & active; });

      // Load the assigned neighbor (one contiguous range) and its label.
      const sim::LaneArray<graph::VertexId> nbr =
          w.GatherContig(view.neighbors, base);
      sim::LaneArray<int64_t> lidx;
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
