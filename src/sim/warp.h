// Warp execution context: lockstep lane operations, warp intrinsics, and the
// instrumented memory interfaces.
//
// Kernel code receives a Warp& per warp phase and expresses divergence via
// the active mask. Every warp-wide operation updates KernelStats:
//   - one warp instruction and 32 lane slots (active lanes counted for the
//     utilization metric the low-degree optimization improves),
//   - global accesses grouped into 32-byte sectors (the coalescing model),
//   - shared accesses charged with bank-conflict replays,
//   - atomics charged with intra-warp address-conflict serialization.
//
// Device address model: every array a kernel touches in global memory is
// its own cudaMalloc allocation, which CUDA aligns to 256 bytes. A global
// access names the array's base pointer and a per-lane element index, so a
// lane's sector is (index * sizeof(T)) / 32 within that allocation and its
// atomic address is the index itself. One warp access never spans two
// arrays, so these offsets are as good as a full virtual address space, and
// the counts never depend on where the host heap placed the array.
//
// The charge path counts distinct sectors, words and addresses without
// sorting: a single pass when the lanes' keys are monotone (contiguous and
// strided scans), a 64-slot open-addressed set otherwise.
//
// The intrinsics mirror the CUDA primitives the paper's §4.2 warp-centric
// scheduling uses: __ballot_sync, __match_any_sync, __shfl_sync, __popc.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "sim/lane.h"
#include "sim/shared_memory.h"
#include "sim/stats.h"

namespace glp::sim {

/// Execution context of one 32-lane warp.
class Warp {
 public:
  Warp(int warp_id, LaneMask active, KernelStats* stats)
      : warp_id_(warp_id),
        active_(active),
        active_lanes_(Popc(active)),
        stats_(stats) {}
  ~Warp() { FlushInstr(); }
  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  int warp_id() const { return warp_id_; }
  LaneMask active() const { return active_; }
  void SetActive(LaneMask m) {
    active_ = m;
    active_lanes_ = Popc(m);
  }
  /// The stats this warp charges, with its pending instruction counts
  /// folded in.
  KernelStats* stats() {
    FlushInstr();
    return stats_;
  }

  /// Charges `n` warp-wide ALU instructions under the current active mask.
  /// Kernels call this for untracked per-lane arithmetic so the compute pipe
  /// sees a faithful instruction count. The counts collect in the warp and
  /// reach KernelStats when stats() is read or the warp phase ends.
  void CountInstr(int n = 1) {
    instr_ += static_cast<uint64_t>(n);
    active_lane_instr_ +=
        static_cast<uint64_t>(n) * static_cast<uint64_t>(active_lanes_);
  }

  // ------------------------------------------------------------------
  // Warp intrinsics
  // ------------------------------------------------------------------

  /// __ballot_sync: mask of active lanes whose predicate is non-zero.
  LaneMask BallotSync(const LaneArray<int>& pred) {
    CountIntrinsic();
    LaneMask out = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      out |= static_cast<LaneMask>(pred[lane] != 0) << lane;
    }
    return out & active_;
  }

  /// __match_any_sync: for each active lane, the mask of active lanes holding
  /// an equal value. Inactive lanes get 0.
  template <typename T>
  LaneArray<LaneMask> MatchAnySync(const LaneArray<T>& v) {
    return MatchAnySync(v, active_);
  }

  /// __match_any_sync restricted to a sub-mask (peers within `group`).
  template <typename T>
  LaneArray<LaneMask> MatchAnySync(const LaneArray<T>& v, LaneMask group) {
    static_assert(std::is_integral_v<T> && sizeof(T) <= 8,
                  "MatchAnySync groups integer values");
    CountIntrinsic();
    // One pass files each lane under its value in a hash set; each set slot
    // accumulates its peer mask. O(n) instead of comparing all lane pairs.
    DistinctSet values;
    LaneMask peers[DistinctSet::kSlots] = {};
    uint8_t slot_of[kWarpSize] = {};
    ForEachLane(group, [&](int lane) {
      const int slot = values.Find(
          static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(v[lane])));
      peers[slot] |= LaneBit(lane);
      slot_of[lane] = static_cast<uint8_t>(slot);
    });
    LaneArray<LaneMask> out(0);
    ForEachLane(group, [&](int lane) { out[lane] = peers[slot_of[lane]]; });
    return out;
  }

  /// __shfl_sync: every active lane reads lane `src_lane`'s value.
  template <typename T>
  LaneArray<T> ShflSync(const LaneArray<T>& v, int src_lane) {
    CountIntrinsic();
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = v[src_lane]; });
    return out;
  }

  /// __shfl_sync with a per-lane source index.
  template <typename T>
  LaneArray<T> ShflIdxSync(const LaneArray<T>& v, const LaneArray<int>& src) {
    CountIntrinsic();
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = v[src[lane]]; });
    return out;
  }

  /// Warp-wide max reduction over active lanes (butterfly shuffles, 5 steps).
  template <typename T>
  T ReduceMax(const LaneArray<T>& v, T identity) {
    stats_->intrinsic_ops += 5;
    CountInstr(5);
    T best = identity;
    ForEachLane(active_, [&](int lane) { best = std::max(best, v[lane]); });
    return best;
  }

  /// Warp-wide sum reduction over active lanes.
  template <typename T>
  T ReduceSum(const LaneArray<T>& v) {
    stats_->intrinsic_ops += 5;
    CountInstr(5);
    T sum = T{};
    ForEachLane(active_, [&](int lane) { sum += v[lane]; });
    return sum;
  }

  // ------------------------------------------------------------------
  // Global memory (instrumented, coalescing-aware)
  // ------------------------------------------------------------------

  /// Per-lane gather: out[lane] = base[idx[lane]] for active lanes.
  template <typename T, typename Index>
  LaneArray<T> Gather(const T* base, const LaneArray<Index>& idx) {
    LaneArray<T> out{};
    uint64_t offs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      out[lane] = base[idx[lane]];
      offs[n++] = static_cast<uint64_t>(idx[lane]) * sizeof(T);
    });
    ChargeGlobalAccess(offs, n, sizeof(T));
    return out;
  }

  /// Per-lane scatter: base[idx[lane]] = val[lane] for active lanes.
  template <typename T, typename Index>
  void Scatter(T* base, const LaneArray<Index>& idx, const LaneArray<T>& val) {
    uint64_t offs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      base[idx[lane]] = val[lane];
      offs[n++] = static_cast<uint64_t>(idx[lane]) * sizeof(T);
    });
    ChargeGlobalAccess(offs, n, sizeof(T));
  }

  /// Scatter to words other blocks may store to in the same phase: a benign
  /// race on hardware when they all store one value, as frontier marks do.
  /// Charged as Scatter; each store goes through std::atomic_ref so the
  /// host threads that simulate concurrent blocks do not race.
  template <typename T, typename Index>
  void ScatterRelaxed(T* base, const LaneArray<Index>& idx,
                      const LaneArray<T>& val) {
    uint64_t offs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      std::atomic_ref<T>(base[idx[lane]])
          .store(val[lane], std::memory_order_relaxed);
      offs[n++] = static_cast<uint64_t>(idx[lane]) * sizeof(T);
    });
    ChargeGlobalAccess(offs, n, sizeof(T));
  }

  /// Contiguous gather: out[lane] = base[start + lane]; the fully-coalesced
  /// fast path for neighbor-list scans.
  template <typename T>
  LaneArray<T> GatherContig(const T* base, int64_t start) {
    static_assert(sizeof(T) <= 32, "a lane's element must fit one sector");
    LaneArray<T> out{};
    if (active_ == 0) {
      CountInstr();
      return out;
    }
    // The usual mask is one run of lanes [first, last] (a full or tail
    // warp): consecutive elements of at most a sector each touch every
    // sector between the first and the last lane's, so no per-lane work.
    const int first = std::countr_zero(active_);
    const int last = kWarpSize - 1 - std::countl_zero(active_);
    if (active_ == (kFullMask >> (kWarpSize - 1 - last + first)) << first) {
      for (int lane = first; lane <= last; ++lane) {
        out[lane] = base[start + lane];
      }
      const auto first_sector =
          static_cast<uint64_t>(start + first) * sizeof(T) / 32;
      const auto last_sector =
          static_cast<uint64_t>(start + last) * sizeof(T) / 32;
      CountInstr();
      stats_->global_transactions += last_sector - first_sector + 1;
      stats_->global_bytes_requested +=
          static_cast<uint64_t>(active_lanes_) * sizeof(T);
      return out;
    }
    uint64_t offs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      out[lane] = base[start + lane];
      offs[n++] = static_cast<uint64_t>(start + lane) * sizeof(T);
    });
    ChargeGlobalAccess(offs, n, sizeof(T));
    return out;
  }

  /// Per-lane atomic add on global memory; returns the pre-add values.
  /// Safe under concurrent blocks (host threads) via std::atomic_ref.
  template <typename T, typename Index>
  LaneArray<T> AtomicAddGlobal(T* base, const LaneArray<Index>& idx,
                               const LaneArray<T>& val) {
    LaneArray<T> out{};
    uint64_t addrs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      std::atomic_ref<T> ref(base[idx[lane]]);
      out[lane] = ref.fetch_add(val[lane], std::memory_order_relaxed);
      addrs[n++] = static_cast<uint64_t>(idx[lane]);
    });
    ChargeGlobalAtomic(addrs, n);
    CountInstr();
    return out;
  }

  /// Per-lane atomic compare-and-swap on global memory; returns the observed
  /// values (== expected on success).
  template <typename T, typename Index>
  LaneArray<T> AtomicCasGlobal(T* base, const LaneArray<Index>& idx,
                               const LaneArray<T>& expected,
                               const LaneArray<T>& desired) {
    LaneArray<T> out{};
    uint64_t addrs[kWarpSize];
    int n = 0;
    ForEachLane(active_, [&](int lane) {
      std::atomic_ref<T> ref(base[idx[lane]]);
      T exp = expected[lane];
      ref.compare_exchange_strong(exp, desired[lane],
                                  std::memory_order_relaxed);
      out[lane] = exp;
      addrs[n++] = static_cast<uint64_t>(idx[lane]);
    });
    ChargeGlobalAtomic(addrs, n);
    CountInstr();
    return out;
  }

  // ------------------------------------------------------------------
  // Shared memory (instrumented, bank-conflict-aware)
  // ------------------------------------------------------------------

  /// Per-lane load from a shared array.
  template <typename T, typename Index>
  LaneArray<T> SharedLoad(const SharedSpan<T>& s, const LaneArray<Index>& idx) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = s.data[idx[lane]]; });
    ChargeSharedAccess(s, idx, sizeof(T));
    return out;
  }

  /// Per-lane store to a shared array: s[idx[lane]] = val[lane] for active
  /// lanes, charged like SharedLoad.
  template <typename T, typename Index>
  void SharedStore(SharedSpan<T>& s, const LaneArray<Index>& idx,
                   const LaneArray<T>& val) {
    ForEachLane(active_, [&](int lane) { s.data[idx[lane]] = val[lane]; });
    ChargeSharedAccess(s, idx, sizeof(T));
  }

  /// Contiguous load: out[lane] = s[start + lane] for active lanes (table
  /// clears and scans).
  template <typename T>
  LaneArray<T> SharedLoadContig(const SharedSpan<T>& s, int start) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) { out[lane] = s.data[start + lane]; });
    ChargeSharedContig<T>();
    return out;
  }

  /// Contiguous store: s[start + lane] = val[lane] for active lanes.
  template <typename T>
  void SharedStoreContig(SharedSpan<T>& s, int start, const LaneArray<T>& val) {
    ForEachLane(active_, [&](int lane) { s.data[start + lane] = val[lane]; });
    ChargeSharedContig<T>();
  }

  /// Per-lane atomic add on a shared array (warps in a block run serially, so
  /// plain arithmetic is correct; the cost of serialization is charged).
  /// Returns the post-add values, matching CUDA's atomicAdd + operand usage
  /// pattern in the paper's Procedure SharedMemBigNodes (freq after insert).
  template <typename T, typename Index>
  LaneArray<T> SharedAtomicAdd(SharedSpan<T>& s, const LaneArray<Index>& idx,
                               const LaneArray<T>& val) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) {
      s.data[idx[lane]] += val[lane];
      out[lane] = s.data[idx[lane]];
    });
    stats_->shared_atomics += static_cast<uint64_t>(active_lanes_);
    CountInstr();
    return out;
  }

  /// Per-lane atomic CAS on a shared array; lanes apply in lane order (the
  /// hardware serializes conflicting atomics in unspecified order; lane order
  /// keeps the simulation deterministic). Returns observed values.
  template <typename T, typename Index>
  LaneArray<T> SharedAtomicCas(SharedSpan<T>& s, const LaneArray<Index>& idx,
                               const LaneArray<T>& expected,
                               const LaneArray<T>& desired) {
    LaneArray<T> out{};
    ForEachLane(active_, [&](int lane) {
      T& slot = s.data[idx[lane]];
      out[lane] = slot;
      if (slot == expected[lane]) slot = desired[lane];
    });
    stats_->shared_atomics += static_cast<uint64_t>(active_lanes_);
    CountInstr();
    return out;
  }

 private:
  void CountIntrinsic() {
    stats_->intrinsic_ops += 1;
    CountInstr();
  }

  /// Coalescing: one transaction per distinct 32-byte sector the active
  /// lanes touch. `offs` holds each active lane's byte offset within the
  /// (256-byte-aligned) array.
  void ChargeGlobalAccess(uint64_t* offs, int n, size_t elem_bytes) {
    CountInstr();
    if (n == 0) return;
    for (int i = 0; i < n; ++i) offs[i] >>= 5;  // sector id
    stats_->global_transactions += CountDistinct(offs, n);
    stats_->global_bytes_requested += static_cast<uint64_t>(n) * elem_bytes;
  }

  /// Atomics: distinct addresses proceed in parallel; duplicates serialize.
  void ChargeGlobalAtomic(const uint64_t* addrs, int n) {
    if (n == 0) return;
    const uint64_t distinct = CountDistinct(addrs, n);
    stats_->global_atomics += distinct;
    stats_->global_atomic_conflicts += static_cast<uint64_t>(n) - distinct;
  }

  /// Bank conflicts: 32 four-byte banks; lanes hitting different words in the
  /// same bank replay. Same-word accesses broadcast (no conflict).
  template <typename T, typename Index>
  void ChargeSharedAccess(const SharedSpan<T>& s, const LaneArray<Index>& idx,
                          size_t elem_bytes) {
    CountInstr();
    stats_->shared_accesses += 1;
    uint64_t words[kWarpSize];
    int n = 0;
    uint32_t banks = 0;
    bool broadcast = true;
    ForEachLane(active_, [&](int lane) {
      const uint64_t byte =
          s.byte_offset + static_cast<uint64_t>(idx[lane]) * elem_bytes;
      words[n] = byte / 4;
      banks |= 1u << (words[n] % kWarpSize);
      broadcast &= words[n] == words[0];
      ++n;
    });
    // Every lane in its own bank, or every lane on one word: no replay.
    if (Popc(banks) == n || broadcast) return;
    // Otherwise the replay count is the largest number of distinct words
    // mapped to one bank, minus the first pass.
    DistinctSet seen;
    uint8_t per_bank[kWarpSize] = {};
    int max_mult = 1;
    for (int i = 0; i < n; ++i) {
      if (!seen.Insert(words[i])) continue;  // broadcast
      const int bank = static_cast<int>(words[i] % kWarpSize);
      max_mult = std::max(max_mult, static_cast<int>(++per_bank[bank]));
    }
    stats_->shared_bank_conflicts += static_cast<uint64_t>(max_mult - 1);
  }

  /// ChargeSharedAccess for lanes at s[start + lane]. Elements of at most
  /// four bytes put consecutive lanes in consecutive (or shared) words, and
  /// 32 consecutive words cover 32 distinct banks: never a replay.
  template <typename T>
  void ChargeSharedContig() {
    static_assert(sizeof(T) <= 4, "wider elements can conflict on banks");
    CountInstr();
    stats_->shared_accesses += 1;
  }

  /// A set of at most kWarpSize keys: 64 open-addressed slots (load factor
  /// <= 1/2) with an occupancy bitmap, so it needs no clearing.
  class DistinctSet {
   public:
    static constexpr int kSlots = 64;

    /// Slot holding `key`, adding the key if it is absent.
    int Find(uint64_t key) {
      unsigned h = static_cast<unsigned>((key * 0x9e3779b97f4a7c15ULL) >> 58);
      while ((used_ >> h) & 1u) {
        if (slots_[h] == key) return static_cast<int>(h);
        h = (h + 1) & (kSlots - 1);
      }
      slots_[h] = key;
      used_ |= uint64_t{1} << h;
      return static_cast<int>(h);
    }

    /// Adds `key`; returns true if it was not present.
    bool Insert(uint64_t key) {
      const uint64_t before = used_;
      Find(key);
      return used_ != before;
    }

   private:
    uint64_t used_ = 0;
    uint64_t slots_[kSlots] = {};
  };

  /// Number of distinct values among keys[0, n), 1 <= n <= kWarpSize.
  static uint64_t CountDistinct(const uint64_t* keys, int n) {
    // Monotone keys (in either direction) keep equal values adjacent, so
    // counting value changes suffices.
    bool ascending = true;
    bool descending = true;
    uint64_t changes = 0;
    for (int i = 1; i < n; ++i) {
      ascending &= keys[i] >= keys[i - 1];
      descending &= keys[i] <= keys[i - 1];
      changes += keys[i] != keys[i - 1];
    }
    if (ascending || descending) return changes + 1;
    DistinctSet seen;
    uint64_t distinct = 1;
    seen.Insert(keys[0]);
    for (int i = 1; i < n; ++i) {
      if (keys[i] != keys[i - 1] && seen.Insert(keys[i])) ++distinct;
    }
    return distinct;
  }

  void FlushInstr() {
    stats_->instructions += instr_;
    stats_->total_lane_cycles += instr_ * kWarpSize;
    stats_->active_lane_cycles += active_lane_instr_;
    instr_ = 0;
    active_lane_instr_ = 0;
  }

  int warp_id_;
  LaneMask active_;
  int active_lanes_;  ///< Popc(active_)
  KernelStats* stats_;
  /// Instructions, and their active lanes, not yet added to *stats_.
  uint64_t instr_ = 0;
  uint64_t active_lane_instr_ = 0;
};

}  // namespace glp::sim
