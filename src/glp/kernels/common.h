// Shared vocabulary for the LabelPropagation kernels: the device-side view
// of a variant's state, score candidates with the repository-wide tie-break,
// and the lockstep shared-memory hash-table insert used by both the
// warp-per-vertex and the high-degree (CMS+HT) kernels.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "glp/run.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "sim/block.h"
#include "sim/lane.h"
#include "sim/launch.h"
#include "sim/shared_memory.h"
#include "sim/warp.h"
#include "util/hash.h"

namespace glp::lp {

/// Raw pointers a kernel needs from the variant — what cudaMemcpy'd state
/// would look like on a real device.
template <typename Variant>
struct DeviceView {
  const graph::EdgeId* offsets = nullptr;
  const graph::VertexId* neighbors = nullptr;
  /// Edge weights parallel to `neighbors` (nullptr for unweighted graphs).
  const float* edge_weights = nullptr;
  const graph::Label* labels = nullptr;
  graph::Label* next = nullptr;
  const float* aux = nullptr;  ///< per-label auxiliary array (LLP volumes)
  const Variant* variant = nullptr;
  /// Device change counters the kernels' commit adds to (CommitLabels);
  /// null when the kernels do not count.
  uint32_t* counters = nullptr;
  /// counters[changed_slot] += vertices whose committed label differs from
  /// their own label.
  int64_t changed_slot = 0;
  /// counters[two_back_slot] += vertices whose committed label differs from
  /// the Lnext value it overwrites; < 0 skips this count. Under the frontier
  /// these vertices are the pushers, which pushed_slot counts by their edges
  /// on every commit but the last.
  int64_t two_back_slot = -1;
  /// Period-2 frontier (GlpOptions::use_frontier). With `pushed_slot` >= 0
  /// the commit counts its pushers, the vertices whose committed label
  /// differs from the Lnext value it overwrites (from their own label on the
  /// run's first commit, stamp 0, which has nothing two commits back), and
  /// adds their edges to counters[pushed_slot]. The engine reads that count
  /// at the barrier opening the next iteration: it sets `marks_out` there
  /// only when the count predicts that the pushes cost less than the
  /// recompute they let the iteration after skip, and it exits when the
  /// count is 0, because every later iteration then repeats a period-2
  /// cycle. With `marks_out` set, every pusher stores stamp + 1 at
  /// marks_out[u] for each neighbour u. With `marks_in` set (the last
  /// iteration pushed) only the vertices v with marks_in[v] == stamp
  /// recompute; the rest keep the Lnext value, their label from two commits
  /// back, and the commit counts changes as a delta on the previous
  /// iteration's count, which the engine adds once.
  const uint32_t* marks_in = nullptr;
  uint32_t* marks_out = nullptr;
  uint32_t stamp = 0;
  int64_t pushed_slot = -1;

  static DeviceView Of(const graph::Graph& g, Variant& variant) {
    DeviceView view;
    view.offsets = g.offsets_data();
    view.neighbors = g.neighbors_data();
    view.edge_weights = g.weights_data();
    view.labels = variant.labels().data();
    view.next = variant.next_labels().data();
    if constexpr (Variant::kNeedsLabelAux) {
      view.aux = variant.label_aux().data();
    }
    view.variant = &variant;
    return view;
  }

  /// Evaluates LabelScore for (v, l, freq), gathering the aux value from
  /// device memory when the variant requires it (the gather is charged by
  /// the caller, which batches aux lookups warp-wide).
  double ScoreNoAux(graph::VertexId v, graph::Label l, double freq,
                    double aux_value) const {
    return variant->Score(v, l, freq, aux_value);
  }
};

/// A scored label candidate. Ordering: higher score wins; equal scores break
/// toward the smaller label — identical in every engine so results match
/// exactly.
struct Candidate {
  double score = -std::numeric_limits<double>::infinity();
  graph::Label label = graph::kInvalidLabel;

  bool BeatenBy(const Candidate& o) const {
    return o.score > score || (o.score == score && o.label < label);
  }

  void Merge(const Candidate& o) {
    if (BeatenBy(o)) *this = o;
  }
};

/// Warp-wide argmax of per-lane candidates over `group` lanes; charged as a
/// butterfly shuffle reduction (5 steps). Returns the winning candidate.
inline Candidate WarpArgMax(sim::Warp& w, sim::LaneMask group,
                            const sim::LaneArray<double>& scores,
                            const sim::LaneArray<graph::Label>& labels) {
  w.stats()->intrinsic_ops += 5;
  w.CountInstr(5);
  Candidate best;
  sim::ForEachLane(group, [&](int lane) {
    best.Merge(Candidate{scores[lane], labels[lane]});
  });
  return best;
}

/// Gathers aux[l] for the active lanes when the variant needs it; otherwise
/// free. Returns per-lane aux values (0 when unused).
template <typename Variant>
sim::LaneArray<double> GatherAux(sim::Warp& w, const DeviceView<Variant>& view,
                                 const sim::LaneArray<graph::Label>& labels) {
  sim::LaneArray<double> aux(0.0);
  if constexpr (Variant::kNeedsLabelAux) {
    sim::LaneArray<int64_t> idx;
    sim::ForEachLane(w.active(), [&](int lane) { idx[lane] = labels[lane]; });
    const sim::LaneArray<float> vals = w.Gather(view.aux, idx);
    sim::ForEachLane(w.active(),
                     [&](int lane) { aux[lane] = vals[lane]; });
  }
  return aux;
}

/// Multiplies the edge weights of a contiguous CSR range into the per-lane
/// weights (lane l covers edge base + l). Free for unweighted graphs; for
/// weighted graphs the (coalesced) weight gather is charged.
template <typename Variant>
inline void ApplyEdgeWeightsContig(sim::Warp& w,
                                   const DeviceView<Variant>& view,
                                   graph::EdgeId base,
                                   sim::LaneArray<float>* wgt) {
  if (view.edge_weights == nullptr) return;
  const sim::LaneArray<float> ew = w.GatherContig(view.edge_weights, base);
  sim::ForEachLane(w.active(), [&](int l) { (*wgt)[l] *= ew[l]; });
  w.CountInstr();
}

/// The first active lane of `w` atomically adds `value` to counters[slot]
/// (skipped when it is 0; a negative delta wraps).
inline void LeaderAtomicAdd(sim::Warp& w, uint32_t* counters, int64_t slot,
                            uint32_t value) {
  if (value == 0) return;
  const sim::LaneMask entry = w.active();
  w.SetActive(sim::LaneBit(sim::FirstLane(entry)));
  w.AtomicAddGlobal(counters, sim::LaneArray<int64_t>(slot),
                    sim::LaneArray<uint32_t>(value));
  w.SetActive(entry);
}

/// Warp-aggregated count: __ballot_sync over `pred`, __popc, and one lane
/// atomically adds the popcount to counters[slot] (skipped when it is 0).
/// Returns the ballot.
inline sim::LaneMask WarpAggregatedCount(sim::Warp& w, uint32_t* counters,
                                         int64_t slot,
                                         const sim::LaneArray<int>& pred) {
  const sim::LaneMask hits = w.BallotSync(pred);
  w.stats()->intrinsic_ops += 1;  // __popc
  w.CountInstr();
  LeaderAtomicAdd(w, counters, slot, static_cast<uint32_t>(sim::Popc(hits)));
  return hits;
}

/// The period-2 frontier's test (view.marks_in set): the lanes of `w`'s
/// active set whose vertex vid[l] is marked for this iteration.
template <typename Variant, typename Index>
sim::LaneMask MarkedLanes(sim::Warp& w, const DeviceView<Variant>& view,
                          const sim::LaneArray<Index>& vid) {
  const sim::LaneArray<uint32_t> mark = w.Gather(view.marks_in, vid);
  sim::LaneArray<int> pred(0);
  sim::ForEachLane(w.active(),
                   [&](int l) { pred[l] = mark[l] == view.stamp; });
  w.CountInstr();
  return w.BallotSync(pred);
}

/// Pushes the next iteration's marks from a vertex whose list starts at
/// `begin`: `w` covers list positions [first, degree) in 32-lane chunks
/// `stride` apart, loading each chunk's neighbour ids and storing the next
/// stamp at their marks. With `ids_held` the warp still holds the ids in
/// registers from its scan of the list, so only the stores are charged.
template <typename Variant>
void PushMarks(sim::Warp& w, const DeviceView<Variant>& view,
               graph::EdgeId begin, int64_t degree, int64_t first,
               int64_t stride, bool ids_held = false) {
  const sim::LaneArray<uint32_t> next_stamp(view.stamp + 1);
  for (int64_t base = first; base < degree; base += stride) {
    const int lanes =
        static_cast<int>(std::min<int64_t>(sim::kWarpSize, degree - base));
    w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                        : ((1u << lanes) - 1u));
    sim::LaneArray<graph::VertexId> nbr(sim::kUninit);
    if (ids_held) {
      sim::ForEachLane(w.active(), [&](int l) {
        nbr[l] = view.neighbors[begin + base + l];
      });
    } else {
      nbr = w.GatherContig(view.neighbors, begin + base);
    }
    w.ScatterRelaxed(view.marks_out, nbr, next_stamp);
  }
}

/// The bin entries a block of the warp- or block-per-vertex kernels takes,
/// as one loader warp holds them: lane i has entry i's vertex, its list's
/// start and its degree. `live` is the entries that recompute this
/// iteration (the marked ones under the frontier, else all).
struct BinEntries {
  sim::LaneArray<graph::VertexId> vertex;
  sim::LaneArray<graph::EdgeId> begin;
  sim::LaneArray<uint32_t> degree;
  sim::LaneMask live = 0;
};

/// Reads the entries vlist[first, first + n) into the active lanes [0, n)
/// of `w`: one request for the entries, under the frontier one for their
/// marks (a block with no marked entry stops there), and one each for the
/// live entries' list starts and ends.
template <typename Variant>
BinEntries LoadBinEntries(sim::Warp& w, const DeviceView<Variant>& view,
                          const graph::VertexId* vlist, int64_t first) {
  BinEntries e;
  e.vertex = w.GatherContig(vlist, first);
  e.live = w.active();
  if (view.marks_in != nullptr) {
    e.live = MarkedLanes(w, view, e.vertex);
    if (e.live == 0) return e;
    w.SetActive(e.live);
  }
  sim::LaneArray<int64_t> next;
  sim::ForEachLane(e.live,
                   [&](int l) { next[l] = int64_t{e.vertex[l]} + 1; });
  w.CountInstr();
  e.begin = w.Gather(view.offsets, e.vertex);
  const sim::LaneArray<graph::EdgeId> end = w.Gather(view.offsets, next);
  sim::ForEachLane(e.live, [&](int l) {
    e.degree[l] = static_cast<uint32_t>(end[l] - e.begin[l]);
  });
  w.CountInstr();
  return e;
}

/// Shared-memory bytes that StagedEntries takes for `n` entries.
inline int64_t StagedEntryBytes(int64_t n) {
  return n * static_cast<int64_t>(sizeof(graph::EdgeId) +
                                  sizeof(graph::VertexId) + sizeof(uint32_t));
}

/// A block's BinEntries staged in shared memory, so that each of its warps
/// can read its own after the block's next __syncthreads. A non-live entry
/// is staged as kInvalidVertex. Allocate it first in the block, so the
/// 8-byte starts need no padding.
struct StagedEntries {
  sim::SharedSpan<graph::EdgeId> begin;
  sim::SharedSpan<graph::VertexId> vertex;
  sim::SharedSpan<uint32_t> degree;

  /// `loader` (lanes [0, n) active, n the entry count) stores `e`: one
  /// shared store per field.
  StagedEntries(sim::Block& blk, sim::Warp& loader, const BinEntries& e,
                int n)
      : begin(blk.shared().Alloc<graph::EdgeId>(n)),
        vertex(blk.shared().Alloc<graph::VertexId>(n)),
        degree(blk.shared().Alloc<uint32_t>(n)) {
    const sim::LaneMask lanes = loader.active();
    sim::LaneArray<int> at(sim::kUninit);
    sim::LaneArray<graph::VertexId> v(sim::kUninit);
    sim::ForEachLane(lanes, [&](int l) {
      at[l] = l;
      v[l] = sim::LaneActive(e.live, l) ? e.vertex[l] : graph::kInvalidVertex;
    });
    loader.CountInstr();
    loader.SharedStore(vertex, at, v);
    loader.SetActive(e.live);
    loader.SharedStore(begin, at, e.begin);
    loader.SharedStore(degree, at, e.degree);
    loader.SetActive(lanes);
  }

  /// Entry i as warp `w` reads it (one broadcast load for the vertex, and
  /// two more when it is live). Returns false for a non-live entry.
  bool Read(sim::Warp& w, int i, graph::VertexId* v, graph::EdgeId* b,
            int64_t* deg) {
    const sim::LaneArray<int> at(i);
    *v = w.SharedLoad(vertex, at)[sim::FirstLane(w.active())];
    if (*v == graph::kInvalidVertex) return false;
    *b = w.SharedLoad(begin, at)[sim::FirstLane(w.active())];
    *deg = w.SharedLoad(degree, at)[sim::FirstLane(w.active())];
    return true;
  }
};

/// \brief Commit epilogue of the LabelPropagation kernels: lane l of `w`'s
/// active set writes chosen[l] (kInvalidLabel: no neighbors, keep the
/// current label) to Lnext[vid[l]]; edges[l] is that vertex's degree.
///
/// When the view carries counters, the epilogue also counts what the commit
/// changes, charged to `count_stats`: it gathers each vertex's own label,
/// compares, ballots, popcs and issues one warp-aggregated atomicAdd. With
/// a two-back slot it does the same against the Lnext value it overwrites;
/// under ping-pong buffering that is the labeling two commits back, so the
/// count is the device half of StabilityTracker.
///
/// Under the period-2 frontier (a pushed slot) the epilogue also sums the
/// pushers' edges (a shuffle reduction when several lanes commit) and adds
/// them with one atomicAdd. With marks in, it adds changed lanes minus
/// lanes that changed in the last commit (own label vs overwritten),
/// because the skipped vertices carry the last commit's changes. Returns
/// the pushers when marks_out is set (the caller pushes their marks), else
/// 0.
template <typename Variant>
sim::LaneMask CommitLabels(sim::Warp& w, sim::KernelStats* count_stats,
                           const DeviceView<Variant>& view,
                           const sim::LaneArray<int64_t>& vid,
                           const sim::LaneArray<graph::Label>& chosen,
                           const sim::LaneArray<uint32_t>& edges) {
  if (view.counters == nullptr) {
    w.Scatter(view.next, vid, chosen);
    return 0;
  }
  const sim::LaneMask lanes = w.active();
  sim::Warp cw(w.warp_id(), lanes, count_stats);
  const sim::LaneArray<graph::Label> own = cw.Gather(view.labels, vid);
  const bool two_back = view.two_back_slot >= 0;
  const bool pushers = view.pushed_slot >= 0;
  // Whether the value two commits back is needed; on the first commit the
  // pushers are the changed lanes.
  const bool overwrites =
      two_back || view.marks_in != nullptr || (pushers && view.stamp > 0);
  sim::LaneArray<graph::Label> overwritten;
  if (overwrites) overwritten = cw.Gather(view.next, vid);
  w.Scatter(view.next, vid, chosen);
  sim::LaneArray<int> changed, differs, changed_before;
  sim::ForEachLane(lanes, [&](int l) {
    const graph::Label now =
        chosen[l] == graph::kInvalidLabel ? own[l] : chosen[l];
    changed[l] = now != own[l];
    differs[l] = now != overwritten[l];
    changed_before[l] = own[l] != overwritten[l];
  });
  cw.CountInstr((overwrites ? 2 : 1) + (view.marks_in != nullptr ? 1 : 0));
  sim::LaneMask changed_lanes = 0;
  if (view.marks_in != nullptr) {
    const sim::LaneMask now = cw.BallotSync(changed);
    const sim::LaneMask before = cw.BallotSync(changed_before);
    cw.stats()->intrinsic_ops += 2;  // two __popc
    cw.CountInstr(2);                // and their difference
    LeaderAtomicAdd(cw, view.counters, view.changed_slot,
                    static_cast<uint32_t>(sim::Popc(now)) -
                        static_cast<uint32_t>(sim::Popc(before)));
  } else {
    changed_lanes =
        WarpAggregatedCount(cw, view.counters, view.changed_slot, changed);
  }
  sim::LaneMask differing = 0;
  if (two_back) {
    differing =
        WarpAggregatedCount(cw, view.counters, view.two_back_slot, differs);
  } else if (pushers) {
    differing = overwrites ? cw.BallotSync(differs) : changed_lanes;
  }
  if (pushers && differing != 0) {
    uint32_t pushed = 0;
    sim::ForEachLane(differing, [&](int l) { pushed += edges[l]; });
    if (sim::Popc(lanes) > 1) {
      cw.stats()->intrinsic_ops += 5;  // butterfly sum over the warp
      cw.CountInstr(5);
    }
    LeaderAtomicAdd(cw, view.counters, view.pushed_slot, pushed);
  }
  return view.marks_out != nullptr ? differing : 0;
}

/// Counts the vertices whose chosen label next[v] is set and differs from
/// prev[v] into counters[slot]: a warp per 32 vertices gathers both,
/// compares, and adds its ballot's popcount (WarpAggregatedCount). The
/// vertices are list[0, count), or [0, count) when `list` is null.
inline sim::KernelStats RunChangeCountKernel(
    const sim::DeviceProps& props, glp::ThreadPool* pool, int64_t count,
    const graph::VertexId* list, const graph::Label* next,
    const graph::Label* prev, uint32_t* counters, int64_t slot,
    int threads_per_block) {
  const int warps_per_block = threads_per_block / sim::kWarpSize;
  const int64_t per_block =
      static_cast<int64_t>(warps_per_block) * sim::kWarpSize;
  sim::LaunchConfig cfg;
  cfg.threads_per_block = threads_per_block;
  cfg.num_blocks = (count + per_block - 1) / per_block;
  if (cfg.num_blocks == 0) return sim::KernelStats{};
  return sim::Launch(props, cfg, pool, [=](sim::Block& blk) {
    blk.ForEachWarp([&](sim::Warp& w) {
      const int64_t base =
          (blk.block_idx() * warps_per_block + w.warp_id()) * sim::kWarpSize;
      if (base >= count) return;
      const int lanes =
          static_cast<int>(std::min<int64_t>(sim::kWarpSize, count - base));
      w.SetActive(lanes >= sim::kWarpSize ? sim::kFullMask
                                          : ((1u << lanes) - 1u));
      sim::LaneArray<int64_t> idx(sim::kUninit);
      if (list != nullptr) {
        const sim::LaneArray<graph::VertexId> v = w.GatherContig(list, base);
        sim::ForEachLane(w.active(), [&](int l) { idx[l] = v[l]; });
      } else {
        sim::ForEachLane(w.active(), [&](int l) { idx[l] = base + l; });
        w.CountInstr();
      }
      const sim::LaneArray<graph::Label> now = w.Gather(next, idx);
      const sim::LaneArray<graph::Label> before = w.Gather(prev, idx);
      sim::LaneArray<int> pred;
      sim::ForEachLane(w.active(), [&](int l) {
        pred[l] = now[l] != graph::kInvalidLabel && now[l] != before[l];
      });
      w.CountInstr(2);
      WarpAggregatedCount(w, counters, slot, pred);
    });
  });
}

/// Linear-probe successor of `slot` in a table of `capacity` slots: a
/// compare instead of `% capacity` on the probe path.
template <typename I>
inline I NextSlot(I slot, int capacity) {
  return slot + 1 == capacity ? 0 : slot + 1;
}

/// \brief Lockstep insert of per-lane (label, weight) pairs into a
/// shared-memory hash table (parallel CUDA-style open addressing:
/// atomicCAS-claim the key slot, atomicAdd the count).
///
/// `max_probes` bounds the probe sequence; lanes that exhaust it report
/// failure (the "unsuccessful insertion" that routes a label to the CMS in
/// Procedure SharedMemBigNodes). On success, post_count[lane] holds the
/// count *after* this lane's add.
///
/// Returns the mask of lanes whose insert succeeded.
inline sim::LaneMask SharedHtInsert(
    sim::Warp& w, sim::SharedSpan<graph::Label>& keys,
    sim::SharedSpan<float>& counts, int capacity, int max_probes,
    const sim::LaneArray<graph::Label>& labels,
    const sim::LaneArray<float>& weights, sim::LaneArray<float>* post_count) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneMask succeeded = 0;
  sim::LaneArray<int> slot(sim::kUninit);
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  const sim::LaneArray<graph::Label> expected(graph::kInvalidLabel);
  for (int probe = 0; probe < max_probes && pending != 0; ++probe) {
    w.SetActive(pending);
    const sim::LaneArray<graph::Label> observed =
        w.SharedAtomicCas(keys, slot, expected, labels);
    sim::LaneMask hit = 0;
    sim::ForEachLane(pending, [&](int lane) {
      // Claimed the slot (observed empty) or found our label.
      if (observed[lane] == graph::kInvalidLabel ||
          observed[lane] == labels[lane]) {
        hit |= sim::LaneBit(lane);
      } else {
        slot[lane] = NextSlot(slot[lane], capacity);
      }
    });
    if (hit != 0) {
      w.SetActive(hit);
      const sim::LaneArray<float> after =
          w.SharedAtomicAdd(counts, slot, weights);
      sim::ForEachLane(hit, [&](int lane) {
        (*post_count)[lane] = after[lane];
      });
      succeeded |= hit;
      pending &= ~hit;
    }
  }
  w.SetActive(entry);
  return succeeded;
}

/// Lockstep lookup: for each active lane, finds labels[lane] in the table.
/// found mask marks hits; count[lane] is the stored count for hits.
inline sim::LaneMask SharedHtLookup(sim::Warp& w,
                                    sim::SharedSpan<graph::Label>& keys,
                                    sim::SharedSpan<float>& counts,
                                    int capacity, int max_probes,
                                    const sim::LaneArray<graph::Label>& labels,
                                    sim::LaneArray<float>* count) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneMask found = 0;
  sim::LaneArray<int> slot(sim::kUninit);
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  for (int probe = 0; probe < max_probes && pending != 0; ++probe) {
    w.SetActive(pending);
    const sim::LaneArray<graph::Label> stored = w.SharedLoad(keys, slot);
    sim::LaneMask hit = 0;
    sim::LaneMask miss = 0;
    sim::ForEachLane(pending, [&](int lane) {
      if (stored[lane] == labels[lane]) {
        hit |= sim::LaneBit(lane);
      } else if (stored[lane] == graph::kInvalidLabel) {
        miss |= sim::LaneBit(lane);  // definitive miss
      } else {
        slot[lane] = NextSlot(slot[lane], capacity);
      }
    });
    if (hit != 0) {
      w.SetActive(hit);
      const sim::LaneArray<float> vals = w.SharedLoad(counts, slot);
      sim::ForEachLane(hit, [&](int lane) { (*count)[lane] = vals[lane]; });
      found |= hit;
    }
    pending &= ~(hit | miss);
  }
  w.SetActive(entry);
  return found;
}

/// \brief Lockstep insert into a *global-memory* hash table (atomicCAS key
/// claim + atomicAdd count through the memory partitions — the traffic
/// pattern the CMS+HT design exists to avoid).
///
/// The table is the zero-initialized slot range [region, region + capacity)
/// of the device arrays `keys`/`counts`; accesses name the array bases plus
/// `region + slot`, so they are charged at their offsets within the arrays.
/// post_count[lane] receives the count after this lane's add. The probe
/// sequence is unbounded (capacity slots), matching a table sized at 2x the
/// key population.
inline void GlobalHtInsert(sim::Warp& w, graph::Label* keys, float* counts,
                           int64_t region, int capacity,
                           const sim::LaneArray<graph::Label>& labels,
                           const sim::LaneArray<float>& weights,
                           sim::LaneArray<float>* post_count) {
  const sim::LaneMask entry = w.active();
  sim::LaneMask pending = entry;
  sim::LaneArray<int64_t> slot;
  sim::ForEachLane(entry, [&](int lane) {
    slot[lane] = static_cast<int64_t>(glp::HashToBucket(
        glp::HashMix64(labels[lane]), static_cast<uint32_t>(capacity)));
  });

  while (pending != 0) {
    w.SetActive(pending);
    sim::LaneArray<int64_t> at;
    sim::ForEachLane(pending,
                     [&](int lane) { at[lane] = region + slot[lane]; });
    sim::LaneArray<graph::Label> expected(graph::kInvalidLabel);
    const sim::LaneArray<graph::Label> observed =
        w.AtomicCasGlobal(keys, at, expected, labels);
    sim::LaneMask hit = 0;
    sim::ForEachLane(pending, [&](int lane) {
      if (observed[lane] == graph::kInvalidLabel ||
          observed[lane] == labels[lane]) {
        hit |= sim::LaneBit(lane);
      } else {
        slot[lane] = NextSlot(slot[lane], capacity);
      }
    });
    if (hit != 0) {
      w.SetActive(hit);
      const sim::LaneArray<float> before =
          w.AtomicAddGlobal(counts, at, weights);
      sim::ForEachLane(hit, [&](int lane) {
        (*post_count)[lane] = before[lane] + weights[lane];
      });
      pending &= ~hit;
    }
  }
  w.SetActive(entry);
}

/// Block-wide argmax over one candidate per thread, charged as a tree
/// reduction (BlockReduce in the paper's Procedure 1).
inline Candidate BlockArgMax(sim::Block& blk,
                             const std::vector<Candidate>& per_thread) {
  blk.stats()->block_reduces += 1;
  blk.stats()->block_syncs += 1;
  Candidate best;
  for (const Candidate& c : per_thread) best.Merge(c);
  return best;
}

/// Carves a warp-private sub-span out of a block-level shared array.
template <typename T>
sim::SharedSpan<T> SubSpan(const sim::SharedSpan<T>& s, size_t offset,
                           size_t len) {
  return sim::SharedSpan<T>{s.data + offset, len,
                            s.byte_offset + offset * sizeof(T)};
}

}  // namespace glp::lp
