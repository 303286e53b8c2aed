// Warp-per-vertex LabelPropagation kernel with a warp-private shared-memory
// hash table — GLP's mid-degree path (32 <= degree <= 128), where the whole
// neighborhood's label set fits comfortably in shared memory.
//
// A block takes one vertex per warp from a bin list the engine keeps in id
// order. One loader warp reads the block's entries, their list bounds and,
// under the frontier, their marks (one request each) and stages them in
// shared memory; after one __syncthreads each warp clears its HT slice,
// lockstep-inserts all neighbor labels (coalesced neighbor-id reads,
// scattered label gathers — the irreducible traffic), scans the HT for the
// argmax and stages the winner. After one more __syncthreads the loader
// commits the block's vertices as one warp: the own-label and overwritten
// Lnext gathers, the Lnext store and the counter atomics are one request per
// block, over ascending ids. A pusher's warp then pushes its marks from the
// neighbor ids it still holds.

#pragma once

#include <utility>
#include <vector>

#include "glp/kernels/common.h"
#include "sim/block.h"
#include "sim/launch.h"

namespace glp::lp {

/// Shared memory one block of the kernel below allocates: a key and a count
/// per slot of each warp's table, each warp's staged entry and winner, and
/// the commit's pusher mask.
inline int64_t WarpPerVertexSmemBytes(int threads_per_block, int ht_capacity) {
  const int64_t warps = threads_per_block / sim::kWarpSize;
  return warps * ht_capacity * (sizeof(graph::Label) + sizeof(float)) +
         StagedEntryBytes(warps) + warps * sizeof(graph::Label) +
         sizeof(uint32_t);
}

/// How the warp-per-vertex kernel's warps commit their vertices.
enum class WarpCommit {
  /// GLP: a loader warp reads each block's entries (one request each for
  /// the entries, their list bounds and their marks), and commits the
  /// block's winners as one warp behind a __syncthreads.
  kBlock,
  /// The G-Hash baseline [2]: each warp takes its entry from the bin list
  /// itself, uncharged, and stores its own vertex's label. Its recorded
  /// counts predate block commits, and it has no frontier.
  kPerWarp,
};

/// One warp's argmax over vertex v's list [begin, begin + degree) (at least
/// one entry): clear the warp's HT slice, lockstep-insert every neighbour
/// label, then scan the table for the best-scoring label.
template <typename Variant>
Candidate WarpVertexArgMax(sim::Warp& w, const DeviceView<Variant>& view,
                           sim::SharedSpan<graph::Label> ht_keys,
                           sim::SharedSpan<float> ht_counts, int ht_capacity,
                           graph::VertexId v, graph::EdgeId begin,
                           int64_t degree) {
  auto lanes_mask = [](int64_t lanes) {
    return lanes >= sim::kWarpSize ? sim::kFullMask
                                   : ((1u << lanes) - 1u);
  };
  // Clear the warp's HT slice.
  const sim::LaneArray<graph::Label> inv(graph::kInvalidLabel);
  const sim::LaneArray<float> zero(0.0f);
  for (int base = 0; base < ht_capacity; base += sim::kWarpSize) {
    w.SetActive(lanes_mask(ht_capacity - base));
    w.SharedStoreContig(ht_keys, base, inv);
    w.SharedStoreContig(ht_counts, base, zero);
  }

  // Insert all neighbor labels.
  for (int64_t base = 0; base < degree; base += sim::kWarpSize) {
    w.SetActive(lanes_mask(degree - base));
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
    w.SetActive(lanes_mask(ht_capacity - base));
    const sim::LaneArray<graph::Label> k = w.SharedLoadContig(ht_keys, base);
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
  w.SetActive(sim::kFullMask);
  return best;
}

/// Runs one LabelPropagation pass over `vertices`, one warp per vertex;
/// under kBlock, ascending ids make the loads and the commit of a block's
/// vertices coalesce. `ht_capacity` is the per-warp table size (slots);
/// callers size it at twice the largest degree in the bin. The commit's
/// change count (CommitLabels) is charged to `commit_stats` when set.
template <typename Variant>
sim::KernelStats RunWarpPerVertexSmemKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, int ht_capacity,
    int threads_per_block, sim::KernelStats* commit_stats = nullptr,
    WarpCommit commit = WarpCommit::kBlock) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (num_vertices + warps_per_block - 1) / warps_per_block;
  if (cfg.num_blocks == 0) return sim::KernelStats{};
  const graph::VertexId* vlist = vertices.data();
  auto slice = [&](sim::SharedSpan<graph::Label> keys,
                   sim::SharedSpan<float> counts, int warp) {
    const size_t at = static_cast<size_t>(warp) * ht_capacity;
    return std::pair(SubSpan(keys, at, ht_capacity),
                     SubSpan(counts, at, ht_capacity));
  };

  if (commit == WarpCommit::kPerWarp) {
    return sim::Launch(props, cfg, pool, [&, vlist](sim::Block& blk) {
      auto keys = blk.shared().Alloc<graph::Label>(
          static_cast<size_t>(warps_per_block) * ht_capacity);
      auto counts = blk.shared().Alloc<float>(
          static_cast<size_t>(warps_per_block) * ht_capacity);
      blk.ForEachWarp([&](sim::Warp& w) {
        const int64_t vi = blk.block_idx() * warps_per_block + w.warp_id();
        if (vi >= num_vertices) return;
        const graph::VertexId v = vlist[vi];
        const graph::EdgeId begin = view.offsets[v];
        const int64_t degree = view.offsets[v + 1] - begin;
        sim::LaneArray<graph::Label> val(graph::kInvalidLabel);
        if (degree > 0) {
          auto [ht_keys, ht_counts] = slice(keys, counts, w.warp_id());
          val.Fill(WarpVertexArgMax(w, view, ht_keys, ht_counts,
                                    ht_capacity, v, begin, degree)
                       .label);
        }
        w.SetActive(sim::LaneBit(0));
        CommitLabels(w, blk.epilogue_stats(), view,
                     sim::LaneArray<int64_t>(v), val,
                     sim::LaneArray<uint32_t>(static_cast<uint32_t>(degree)));
        w.SetActive(sim::kFullMask);
      });
    }, commit_stats);
  }

  return sim::Launch(props, cfg, pool, [&, vlist](sim::Block& blk) {
    const int64_t first = blk.block_idx() * warps_per_block;
    const int n = static_cast<int>(
        std::min<int64_t>(warps_per_block, num_vertices - first));
    const sim::LaneMask lanes =
        n >= sim::kWarpSize ? sim::kFullMask : ((1u << n) - 1u);
    // Lane i of the loader holds entry i until it commits.
    sim::Warp loader(0, lanes, blk.stats());
    const BinEntries entries = LoadBinEntries(loader, view, vlist, first);
    if (entries.live == 0) return;
    loader.SetActive(lanes);
    StagedEntries staged(blk, loader, entries, n);
    auto winners = blk.shared().Alloc<graph::Label>(warps_per_block);
    auto pusher_mask = blk.shared().Alloc<uint32_t>(1);
    auto keys = blk.shared().Alloc<graph::Label>(
        static_cast<size_t>(warps_per_block) * ht_capacity);
    auto counts = blk.shared().Alloc<float>(
        static_cast<size_t>(warps_per_block) * ht_capacity);
    blk.Sync();

    blk.ForEachWarp([&](sim::Warp& w) {
      if (w.warp_id() >= n) return;
      graph::VertexId v;
      graph::EdgeId begin = 0;
      int64_t degree = 0;
      if (!staged.Read(w, w.warp_id(), &v, &begin, &degree)) return;
      // An isolated vertex (the low bin in mode kSmem) keeps its label.
      graph::Label best = graph::kInvalidLabel;
      if (degree > 0) {
        auto [ht_keys, ht_counts] = slice(keys, counts, w.warp_id());
        best = WarpVertexArgMax(w, view, ht_keys, ht_counts, ht_capacity, v,
                                begin, degree)
                   .label;
      }
      // Lane 0 stages the winner for the block's commit.
      w.SetActive(sim::LaneBit(0));
      w.SharedStore(winners, sim::LaneArray<int>(w.warp_id()),
                    sim::LaneArray<graph::Label>(best));
      w.SetActive(sim::kFullMask);
    });
    blk.Sync();

    // The loader commits the block's live vertices as one warp.
    loader.SetActive(entries.live);
    const sim::LaneArray<graph::Label> chosen =
        loader.SharedLoadContig(winners, 0);
    sim::LaneArray<int64_t> idx;
    sim::ForEachLane(entries.live,
                     [&](int l) { idx[l] = entries.vertex[l]; });
    const sim::LaneMask pushers = CommitLabels(
        loader, blk.epilogue_stats(), view, idx, chosen, entries.degree);
    if (pushers == 0) return;
    // The pusher mask goes to the block behind one more barrier; each
    // pusher's warp pushes its marks from the neighbor ids it still holds.
    sim::KernelStats* const epilogue = blk.epilogue_stats();
    sim::Warp cw(0, sim::LaneBit(0), epilogue);
    cw.SharedStore(pusher_mask, sim::LaneArray<int>(0),
                   sim::LaneArray<uint32_t>(pushers));
    epilogue->block_syncs += 1;
    for (int i = 0; i < n; ++i) {
      sim::Warp pw(i, sim::kFullMask, epilogue);
      pw.SharedLoad(pusher_mask, sim::LaneArray<int>(0));
      pw.CountInstr();  // test its own bit
      if (!sim::LaneActive(pushers, i)) continue;
      PushMarks(pw, view, entries.begin[i], entries.degree[i], 0,
                sim::kWarpSize, /*ids_held=*/true);
    }
  }, commit_stats);
}

}  // namespace glp::lp
