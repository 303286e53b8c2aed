// Block-per-vertex LabelPropagation kernel for high-degree vertices —
// Procedure SharedMemBigNodes of the paper (§4.1).
//
// One thread block scans the (large) neighbor list once. Labels are counted
// in a bounded shared-memory hash table; labels that fail to claim a slot
// spill into a shared-memory Count-Min Sketch. Because LabelScore is
// monotone in frequency and CMS only overestimates, the block can commit the
// HT winner whenever s(HT) >= s(CMS); otherwise it falls back to an exact
// recount through a global-memory hash table (rare — Theorem 1 bounds the
// probability by m*2^-d + e^-h).

#pragma once

#include <atomic>
#include <vector>

#include "glp/kernels/common.h"
#include "glp/run.h"
#include "sim/block.h"
#include "sim/launch.h"
#include "util/hash.h"

namespace glp::lp {

/// Per-row CMS seeds are fixed so results are reproducible.
inline constexpr uint64_t kCmsSeedBase = 0xc3a5c85c97cb3127ULL;

/// Shared memory one block of the kernel below allocates: its staged entry,
/// the HT's keys and counts plus the d x w CMS.
inline int64_t HighDegreeSmemBytes(const GlpOptions& opts) {
  return StagedEntryBytes(1) +
         static_cast<int64_t>(opts.ht_capacity) *
             (sizeof(graph::Label) + sizeof(float)) +
         static_cast<int64_t>(opts.cms_depth) * opts.cms_width * sizeof(float);
}

/// Runs one LabelPropagation pass over `vertices`, one block per vertex,
/// using the CMS+HT shared-memory strategy. `fallback_count`, if non-null,
/// accumulates how many vertices needed the global-memory path (the
/// quantity Theorem 1 bounds). The commit's change count (CommitLabels) is
/// charged to `commit_stats` when set.
template <typename Variant>
sim::KernelStats RunHighDegreeBlockKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool,
    const DeviceView<Variant>& view,
    const std::vector<graph::VertexId>& vertices, const GlpOptions& opts,
    std::atomic<uint64_t>* fallback_count = nullptr,
    sim::KernelStats* commit_stats = nullptr) {
  const int64_t num_vertices = static_cast<int64_t>(vertices.size());
  if (num_vertices == 0) return sim::KernelStats{};
  sim::LaunchConfig cfg;
  cfg.threads_per_block = opts.threads_per_block;
  cfg.num_blocks = num_vertices;
  const graph::VertexId* vlist = vertices.data();
  const int h = opts.ht_capacity;
  const int d = opts.cms_depth;
  const int cw = opts.cms_width;
  // Probe budget before an insert is declared unsuccessful and routed to the
  // CMS: a fraction of the table keeps worst-case probing bounded.
  const int max_probes = std::max(8, h / 16);

  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    // The leader lane reads the block's entry, its mark under the frontier
    // and its list bounds, and stages them for the block's warps.
    sim::Warp leader(0, sim::LaneBit(0), blk.stats());
    const BinEntries entry =
        LoadBinEntries(leader, view, vlist, blk.block_idx());
    if (entry.live == 0) return;
    StagedEntries staged(blk, leader, entry, 1);
    const graph::VertexId v = entry.vertex[0];
    const graph::EdgeId begin = entry.begin[0];
    const int64_t degree = entry.degree[0];
    const int threads = blk.num_threads();

    auto ht_keys = blk.shared().Alloc<graph::Label>(h);
    auto ht_counts = blk.shared().Alloc<float>(h);
    auto cms = blk.shared().Alloc<float>(static_cast<size_t>(d) * cw);

    // Zero-fill HT keys cooperatively (counts/CMS arrive zeroed from Alloc,
    // but a real kernel would memset; charge the stores).
    const sim::LaneArray<graph::Label> inv(graph::kInvalidLabel);
    blk.ForEachWarp([&](sim::Warp& w) {
      for (int base = w.warp_id() * sim::kWarpSize; base < h;
           base += threads) {
        const int lanes = std::min(sim::kWarpSize, h - base);
        w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                            : ((1u << lanes) - 1u));
        w.SharedStoreContig(ht_keys, base, inv);
      }
    });
    blk.Sync();
    // Each warp reads the staged entry behind the clear's barrier; the
    // values are the leader's v, begin and degree used below.
    blk.ForEachWarp([&](sim::Warp& w) {
      graph::VertexId sv;
      graph::EdgeId sb;
      int64_t sd;
      staged.Read(w, 0, &sv, &sb, &sd);
    });

    // --- Phase 1: single scan of the neighbor list (Procedure 1, lines
    // 1-10), threads strided across the list. ---
    std::vector<Candidate> ht_cand(threads);
    std::vector<Candidate> cm_cand(threads);

    blk.ForEachWarp([&](sim::Warp& w) {
      for (int64_t base = static_cast<int64_t>(w.warp_id()) * sim::kWarpSize;
           base < degree; base += threads) {
        const int lanes =
            static_cast<int>(std::min<int64_t>(sim::kWarpSize, degree - base));
        const sim::LaneMask mask =
            lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
        w.SetActive(mask);

        const sim::LaneArray<graph::VertexId> nbr =
            w.GatherContig(view.neighbors, begin + base);
        sim::LaneArray<int64_t> lidx(sim::kUninit);
        sim::ForEachLane(mask, [&](int l) { lidx[l] = nbr[l]; });
        const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
        sim::LaneArray<float> wgt(sim::kUninit);
        sim::ForEachLane(mask, [&](int l) {
          wgt[l] = static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
        });
        w.CountInstr();
        ApplyEdgeWeightsContig(w, view, begin + base, &wgt);

        // HT insert (atomicAdd on success).
        sim::LaneArray<float> post(sim::kUninit);
        const sim::LaneMask ok = SharedHtInsert(
            w, ht_keys, ht_counts, h, max_probes, lbl, wgt, &post);

        // Successful lanes score through the HT count.
        if (ok != 0) {
          w.SetActive(ok);
          const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
          sim::ForEachLane(ok, [&](int l) {
            const int tid = w.warp_id() * sim::kWarpSize + l;
            const double score =
                view.variant->Score(v, lbl[l], post[l], aux[l]);
            ht_cand[tid].Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }

        // Unsuccessful lanes spill to the CMS.
        const sim::LaneMask spill = mask & ~ok;
        if (spill != 0) {
          sim::LaneArray<float> est(std::numeric_limits<float>::max());
          for (int r = 0; r < d; ++r) {
            sim::LaneArray<int> bucket(sim::kUninit);
            sim::ForEachLane(spill, [&](int l) {
              bucket[l] = r * cw +
                          static_cast<int>(glp::HashToBucket(
                              glp::HashSeeded(lbl[l], kCmsSeedBase + r),
                              static_cast<uint32_t>(cw)));
            });
            w.SetActive(spill);
            const sim::LaneArray<float> after =
                w.SharedAtomicAdd(cms, bucket, wgt);
            sim::ForEachLane(spill, [&](int l) {
              est[l] = std::min(est[l], after[l]);
            });
          }
          w.SetActive(spill);
          const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
          sim::ForEachLane(spill, [&](int l) {
            const int tid = w.warp_id() * sim::kWarpSize + l;
            const double score = view.variant->Score(v, lbl[l], est[l], aux[l]);
            cm_cand[tid].Merge(Candidate{score, lbl[l]});
          });
          w.CountInstr();
        }
        w.SetActive(sim::kFullMask);
      }
    });

    // --- Phase 2: block reductions (lines 11-12). ---
    const Candidate s_ht = BlockArgMax(blk, ht_cand);
    const Candidate s_cm = BlockArgMax(blk, cm_cand);

    Candidate winner = s_ht;
    // The paper commits the HT winner when s(HT) >= s(CMS); with the
    // repository-wide smaller-label tie-break the equality case must go
    // through the exact path too (the true winner could be an equal-scoring
    // spilled label with a smaller id), so commit only on strict dominance.
    if (degree > 0 && s_ht.score <= s_cm.score) {
      // --- Fallback: exact recount via the global hash table (lines
      // 16-24). Rare by Theorem 1. ---
      if (fallback_count != nullptr) {
        fallback_count->fetch_add(1, std::memory_order_relaxed);
      }
      int ghtc = 64;
      while (ghtc < 2 * degree) ghtc <<= 1;
      thread_local std::vector<graph::Label> ght_keys;
      thread_local std::vector<float> ght_counts;
      ght_keys.assign(ghtc, graph::kInvalidLabel);
      ght_counts.assign(ghtc, 0.0f);
      // Charge the GHT memset a real kernel would issue.
      blk.stats()->global_transactions +=
          (static_cast<uint64_t>(ghtc) * 8 + 31) / 32;
      blk.stats()->global_bytes_requested += static_cast<uint64_t>(ghtc) * 8;

      std::vector<Candidate> gt_cand(threads);
      blk.ForEachWarp([&](sim::Warp& w) {
        for (int64_t base =
                 static_cast<int64_t>(w.warp_id()) * sim::kWarpSize;
             base < degree; base += threads) {
          const int lanes = static_cast<int>(
              std::min<int64_t>(sim::kWarpSize, degree - base));
          const sim::LaneMask mask =
              lanes >= sim::kWarpSize ? sim::kFullMask : ((1u << lanes) - 1u);
          w.SetActive(mask);
          const sim::LaneArray<graph::VertexId> nbr =
              w.GatherContig(view.neighbors, begin + base);
          sim::LaneArray<int64_t> lidx(sim::kUninit);
          sim::ForEachLane(mask, [&](int l) { lidx[l] = nbr[l]; });
          const sim::LaneArray<graph::Label> lbl = w.Gather(view.labels, lidx);
          sim::LaneArray<float> wgt(sim::kUninit);
          sim::ForEachLane(mask, [&](int l) {
            wgt[l] =
                static_cast<float>(view.variant->NeighborWeight(v, nbr[l]));
          });
          w.CountInstr();
          ApplyEdgeWeightsContig(w, view, begin + base, &wgt);

          // Labels resident in the HT are already exact — skip them (their
          // scores are merged through s_ht below).
          sim::LaneArray<float> ht_count;
          const sim::LaneMask in_ht = SharedHtLookup(
              w, ht_keys, ht_counts, h, max_probes, lbl, &ht_count);
          const sim::LaneMask miss = mask & ~in_ht;
          if (miss != 0) {
            w.SetActive(miss);
            sim::LaneArray<float> post(sim::kUninit);
            GlobalHtInsert(w, ght_keys.data(), ght_counts.data(),
                           /*region=*/0, ghtc, lbl, wgt, &post);
            const sim::LaneArray<double> aux = GatherAux(w, view, lbl);
            sim::ForEachLane(miss, [&](int l) {
              const int tid = w.warp_id() * sim::kWarpSize + l;
              const double score =
                  view.variant->Score(v, lbl[l], post[l], aux[l]);
              gt_cand[tid].Merge(Candidate{score, lbl[l]});
            });
            w.CountInstr();
          }
          w.SetActive(sim::kFullMask);
        }
      });
      const Candidate s_gt = BlockArgMax(blk, gt_cand);
      winner.Merge(s_gt);
    }

    if (degree == 0) winner.label = graph::kInvalidLabel;

    // Leader thread commits Lnext[v]; the block pushes the marks.
    sim::LaneArray<int64_t> idx(0);
    sim::LaneArray<graph::Label> val(winner.label);
    idx[0] = v;
    const sim::LaneArray<uint32_t> edges(static_cast<uint32_t>(degree));
    if (CommitLabels(leader, blk.epilogue_stats(), view, idx, val, edges) !=
        0) {
      for (int wi = 0; wi < blk.num_warps(); ++wi) {
        sim::Warp pw(wi, sim::kFullMask, blk.epilogue_stats());
        PushMarks(pw, view, begin, degree, int64_t{wi} * sim::kWarpSize,
                  threads);
      }
    }
  }, commit_stats);
}

}  // namespace glp::lp
