// Unit tests for the SIMT simulator: lane primitives, warp intrinsics,
// coalescing / bank-conflict accounting, block execution, launch, cost
// model, segmented sort, transfers.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::sim {
namespace {

TEST(LaneTest, PopcAndFirstLane) {
  EXPECT_EQ(Popc(0u), 0);
  EXPECT_EQ(Popc(kFullMask), 32);
  EXPECT_EQ(Popc(0b1011u), 3);
  EXPECT_EQ(FirstLane(0u), -1);
  EXPECT_EQ(FirstLane(0b1000u), 3);
  EXPECT_EQ(FirstLane(kFullMask), 0);
}

TEST(LaneTest, ForEachLaneVisitsInOrder) {
  std::vector<int> seen;
  ForEachLane(0b10101u, [&](int lane) { seen.push_back(lane); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 4}));
}

TEST(WarpTest, BallotSyncMatchesPredicates) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> pred(0);
  pred[3] = 1;
  pred[17] = 1;
  EXPECT_EQ(w.BallotSync(pred), LaneBit(3) | LaneBit(17));
  EXPECT_EQ(stats.intrinsic_ops, 1u);
}

TEST(WarpTest, BallotRespectsActiveMask) {
  KernelStats stats;
  Warp w(0, 0b0111u, &stats);
  LaneArray<int> pred(1);  // all lanes claim true
  EXPECT_EQ(w.BallotSync(pred), 0b0111u);  // only active lanes counted
}

TEST(WarpTest, MatchAnyGroupsEqualValues) {
  KernelStats stats;
  Warp w(0, 0b11111u, &stats);
  LaneArray<uint32_t> v(0);
  v[0] = 7;
  v[1] = 7;
  v[2] = 9;
  v[3] = 7;
  v[4] = 9;
  auto m = w.MatchAnySync(v);
  const LaneMask sevens = LaneBit(0) | LaneBit(1) | LaneBit(3);
  const LaneMask nines = LaneBit(2) | LaneBit(4);
  EXPECT_EQ(m[0], sevens);
  EXPECT_EQ(m[1], sevens);
  EXPECT_EQ(m[3], sevens);
  EXPECT_EQ(m[2], nines);
  EXPECT_EQ(m[4], nines);
}

TEST(WarpTest, MatchAnyWithSubgroupIgnoresOutsiders) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<uint32_t> v(5);  // every lane holds 5
  auto m = w.MatchAnySync(v, 0b110u);
  EXPECT_EQ(m[1], 0b110u);
  EXPECT_EQ(m[2], 0b110u);
  EXPECT_EQ(m[0], 0u);  // outside the group
}

TEST(WarpTest, ShflBroadcasts) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> v;
  for (int i = 0; i < kWarpSize; ++i) v[i] = i * 10;
  auto out = w.ShflSync(v, 5);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(out[i], 50);
}

TEST(WarpTest, ShflIdxSyncPermutes) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> v;
  LaneArray<int> src;
  for (int i = 0; i < kWarpSize; ++i) {
    v[i] = i * 3;
    src[i] = (i + 1) % kWarpSize;  // rotate left
  }
  auto out = w.ShflIdxSync(v, src);
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(out[i], ((i + 1) % kWarpSize) * 3);
  }
}

TEST(WarpTest, ReduceMaxOverActiveLanesOnly) {
  KernelStats stats;
  Warp w(0, 0b0011u, &stats);
  LaneArray<double> v(0.0);
  v[0] = 1.5;
  v[1] = 2.5;
  v[9] = 99.0;  // inactive lane must be ignored
  EXPECT_DOUBLE_EQ(w.ReduceMax(v, -1.0), 2.5);
}

TEST(WarpTest, ReduceSumOverActiveLanes) {
  KernelStats stats;
  Warp w(0, 0b0111u, &stats);
  LaneArray<int> v(0);
  v[0] = 1;
  v[1] = 2;
  v[2] = 3;
  v[3] = 1000;  // inactive
  EXPECT_EQ(w.ReduceSum(v), 6);
}

TEST(WarpMemoryTest, ContiguousGatherIsCoalesced) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(64);
  std::iota(data.begin(), data.end(), 0u);
  auto out = w.GatherContig(data.data(), 8);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(out[i], 8u + i);
  // 32 lanes x 4B from byte offset 32 of a 256B-aligned allocation:
  // bytes [32, 160) = sectors 1..4.
  EXPECT_EQ(stats.global_transactions, 4u);
  EXPECT_EQ(stats.global_bytes_requested, 32u * 4);
}

TEST(WarpMemoryTest, ScatteredGatherCostsOneSectorPerLane) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(32 * 64);
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i * 64;  // 256B apart
  w.Gather(data.data(), idx);
  EXPECT_EQ(stats.global_transactions, 32u);
}

TEST(WarpMemoryTest, DuplicateAddressesCoalesceToOneSector) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(32, 5);
  LaneArray<int64_t> idx(int64_t{3});  // all lanes read data[3]
  auto out = w.Gather(data.data(), idx);
  EXPECT_EQ(out[31], 5u);
  EXPECT_EQ(stats.global_transactions, 1u);
}

TEST(WarpMemoryTest, ScatterWritesActiveLanesOnly) {
  KernelStats stats;
  Warp w(0, 0b101u, &stats);
  std::vector<uint32_t> data(8, 0);
  LaneArray<int64_t> idx;
  idx[0] = 1;
  idx[2] = 3;
  LaneArray<uint32_t> val;
  val[0] = 11;
  val[2] = 22;
  w.Scatter(data.data(), idx, val);
  EXPECT_EQ(data[1], 11u);
  EXPECT_EQ(data[3], 22u);
  EXPECT_EQ(data[0], 0u);
}

TEST(WarpMemoryTest, AtomicAddGlobalAccumulatesAndCountsConflicts) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(4, 0);
  LaneArray<int64_t> idx(int64_t{2});  // all 32 lanes hit data[2]
  LaneArray<uint32_t> val(1u);
  w.AtomicAddGlobal(data.data(), idx, val);
  EXPECT_EQ(data[2], 32u);
  EXPECT_EQ(stats.global_atomics, 1u);
  EXPECT_EQ(stats.global_atomic_conflicts, 31u);
}

TEST(WarpMemoryTest, AtomicCasGlobalClaimsOnce) {
  KernelStats stats;
  Warp w(0, 0b11u, &stats);
  std::vector<uint32_t> slot(1, 0xffffffffu);
  LaneArray<int64_t> idx(int64_t{0});
  LaneArray<uint32_t> expected(0xffffffffu);
  LaneArray<uint32_t> desired;
  desired[0] = 100;
  desired[1] = 200;
  auto observed = w.AtomicCasGlobal(slot.data(), idx, expected, desired);
  // Lane 0 wins (lane order); lane 1 observes lane 0's value.
  EXPECT_EQ(observed[0], 0xffffffffu);
  EXPECT_EQ(observed[1], 100u);
  EXPECT_EQ(slot[0], 100u);
}

TEST(WarpMemoryTest, ScatteredNonMonotoneLanesWithDuplicates) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(1024, 1);
  // Sectors hold 8 four-byte elements. Lanes revisit sectors out of order:
  // lane i reads element 8 * ((i * 7) % 5) + (i % 3), so the 32 lanes touch
  // sectors {0, 1, 2, 3, 4} in a scrambled order, with repeated elements.
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = 8 * ((i * 7) % 5) + (i % 3);
  w.Gather(data.data(), idx);
  EXPECT_EQ(stats.global_transactions, 5u);
  EXPECT_EQ(stats.global_bytes_requested, 32u * 4);
  // A descending pattern that leaves and re-enters a sector.
  LaneArray<int64_t> back;
  for (int i = 0; i < kWarpSize; ++i) back[i] = (i % 2 == 0) ? 500 - i : i;
  w.Gather(data.data(), back);
  // Odd lanes: elements 1..31 -> sectors 0..3. Even lanes: 500..470 ->
  // sectors 58..62.
  EXPECT_EQ(stats.global_transactions, 5u + 4u + 5u);
}

TEST(WarpMemoryTest, PartialActiveMaskChargesActiveLanesOnly) {
  KernelStats stats;
  // Every other group of four lanes: lanes 0-3, 8-11, 16-19, 24-27.
  Warp w(0, 0x0f0f0f0fu, &stats);
  std::vector<uint32_t> data(64);
  std::iota(data.begin(), data.end(), 0u);
  auto out = w.GatherContig(data.data(), 0);
  EXPECT_EQ(out[8], 8u);
  EXPECT_EQ(out[4], 0u);  // inactive lanes are not loaded
  // Active lanes read bytes [0,16), [32,48), [64,80), [96,112): four
  // sectors, one per group.
  EXPECT_EQ(stats.global_transactions, 4u);
  EXPECT_EQ(stats.global_bytes_requested, 16u * 4);
  EXPECT_EQ(w.stats()->instructions, 1u);
  EXPECT_EQ(stats.active_lane_cycles, 16u);
  EXPECT_EQ(stats.total_lane_cycles, 32u);

  // Lanes 0 and 31 only: two far-apart sectors.
  w.SetActive(LaneBit(0) | LaneBit(31));
  w.GatherContig(data.data(), 0);
  EXPECT_EQ(stats.global_transactions, 4u + 2u);
  // An empty mask issues the instruction but moves no sector.
  w.SetActive(0);
  w.GatherContig(data.data(), 0);
  EXPECT_EQ(stats.global_transactions, 6u);
  EXPECT_EQ(w.stats()->instructions, 3u);
}

TEST(WarpMemoryTest, EightByteGathersSpanTwiceTheSectors) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<int64_t> offsets(128);  // graph::EdgeId is 8 bytes
  std::iota(offsets.begin(), offsets.end(), int64_t{0});
  // 32 lanes x 8B from element 0: bytes [0, 256) = 8 sectors.
  auto out = w.GatherContig(offsets.data(), 0);
  EXPECT_EQ(out[31], 31);
  EXPECT_EQ(stats.global_transactions, 8u);
  EXPECT_EQ(stats.global_bytes_requested, 256u);
  // From element 2: bytes [16, 272) straddle a ninth sector.
  w.GatherContig(offsets.data(), 2);
  EXPECT_EQ(stats.global_transactions, 8u + 9u);
  // Scattered 8-byte lanes, two per sector: elements 4k and 4k+1.
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = 4 * (i / 2) + (i % 2);
  w.Gather(offsets.data(), idx);
  EXPECT_EQ(stats.global_transactions, 8u + 9u + 16u);
}

TEST(WarpMemoryTest, InteriorRegionIsChargedAtItsArrayOffset) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(256);
  // A region starting at element 3 (byte 12, not a multiple of 8): 32
  // lanes cover bytes [12, 140) = sectors 0..4 of the allocation.
  w.GatherContig(data.data(), 3);
  EXPECT_EQ(stats.global_transactions, 5u);
  // The same region as per-lane indices costs the same.
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = 3 + i;
  w.Gather(data.data(), idx);
  EXPECT_EQ(stats.global_transactions, 10u);
  // Sector-aligned region start (element 8): exactly 4 sectors.
  w.GatherContig(data.data(), 8);
  EXPECT_EQ(stats.global_transactions, 14u);
}

TEST(WarpMemoryTest, AtomicsSerializeDuplicateAddressesOnly) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(64, 0);
  LaneArray<int64_t> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = (i * 3) % 5;  // 5 addresses
  LaneArray<uint32_t> one(1u);
  w.AtomicAddGlobal(data.data(), idx, one);
  EXPECT_EQ(stats.global_atomics, 5u);
  EXPECT_EQ(stats.global_atomic_conflicts, 27u);
  EXPECT_EQ(data[0] + data[1] + data[2] + data[3] + data[4], 32u);
  // Adjacent elements of one sector are still distinct addresses.
  LaneArray<int64_t> adj;
  for (int i = 0; i < kWarpSize; ++i) adj[i] = 8 + i % 8;
  w.SetActive(0x0000ffffu);  // 16 lanes over 8 addresses
  w.AtomicAddGlobal(data.data(), adj, one);
  EXPECT_EQ(stats.global_atomics, 5u + 8u);
  EXPECT_EQ(stats.global_atomic_conflicts, 27u + 8u);
  // CAS is charged the same way.
  LaneArray<uint32_t> expected(0u);
  LaneArray<uint32_t> desired(7u);
  w.SetActive(kFullMask);
  LaneArray<int64_t> pairs;
  for (int i = 0; i < kWarpSize; ++i) pairs[i] = 32 + i / 2;  // 16 pairs
  w.AtomicCasGlobal(data.data(), pairs, expected, desired);
  EXPECT_EQ(stats.global_atomics, 5u + 8u + 16u);
  EXPECT_EQ(stats.global_atomic_conflicts, 27u + 8u + 16u);
  EXPECT_EQ(data[32], 7u);
}

// Reference accounting written for clarity rather than speed: collect the
// active lanes' keys, sort, and count distinct values.
uint64_t RefDistinct(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<uint64_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

uint64_t RefBankReplays(std::vector<uint64_t> words) {
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  int per_bank[kWarpSize] = {0};
  int worst = words.empty() ? 1 : 0;
  for (uint64_t word : words) {
    worst = std::max(worst, ++per_bank[word % kWarpSize]);
  }
  return static_cast<uint64_t>(std::max(worst, 1) - 1);
}

/// Per-lane indices drawn from the access shapes kernels produce:
/// contiguous, strided, descending, clustered with duplicates, scattered.
LaneArray<int64_t> RandomIndices(Rng& rng, int64_t limit) {
  LaneArray<int64_t> idx;
  const int64_t start = static_cast<int64_t>(rng.Bounded(limit / 2));
  const int shape = static_cast<int>(rng.Bounded(5));
  for (int i = 0; i < kWarpSize; ++i) {
    switch (shape) {
      case 0: idx[i] = start + i; break;
      case 1: idx[i] = start + i * static_cast<int64_t>(1 + rng.Bounded(9));
        break;
      case 2: idx[i] = start + kWarpSize - i; break;
      case 3: idx[i] = start + static_cast<int64_t>(rng.Bounded(40)); break;
      default: idx[i] = static_cast<int64_t>(rng.Bounded(limit)); break;
    }
    idx[i] = std::min(idx[i], limit - 1);
  }
  return idx;
}

LaneMask RandomMask(Rng& rng) {
  switch (rng.Bounded(5)) {
    case 0: return kFullMask;
    case 1: return LaneBit(static_cast<int>(rng.Bounded(kWarpSize)));
    case 3: {  // one run of lanes, like a tail warp
      const int first = static_cast<int>(rng.Bounded(kWarpSize));
      const int len = 1 + static_cast<int>(rng.Bounded(kWarpSize - first));
      return (kFullMask >> (kWarpSize - len)) << first;
    }
    case 2:  // sparse
      return static_cast<LaneMask>(rng.Next() & rng.Next());
    default: return static_cast<LaneMask>(rng.Next());
  }
}

TEST(WarpAccountingTest, MatchesReferenceCountsOnRandomWarps) {
  Rng rng(20240601);
  std::vector<uint32_t> words(4096, 1);
  std::vector<int64_t> wide(4096, 1);
  for (int trial = 0; trial < 20000; ++trial) {
    const LaneMask mask = RandomMask(rng);
    const LaneArray<int64_t> idx = RandomIndices(rng, 4096);
    std::vector<uint64_t> lane_idx;
    ForEachLane(mask, [&](int l) {
      lane_idx.push_back(static_cast<uint64_t>(idx[l]));
    });
    auto sectors = [&](uint64_t elem_bytes) {
      std::vector<uint64_t> s;
      for (uint64_t i : lane_idx) s.push_back(i * elem_bytes / 32);
      return RefDistinct(s);
    };

    KernelStats stats;
    Warp w(0, mask, &stats);
    w.Gather(words.data(), idx);
    ASSERT_EQ(stats.global_transactions, sectors(4)) << "trial " << trial;
    w.Gather(wide.data(), idx);
    ASSERT_EQ(stats.global_transactions, sectors(4) + sectors(8))
        << "trial " << trial;

    // Contiguous gathers from the first index, over the same mask.
    KernelStats contig_stats;
    Warp c(0, mask, &contig_stats);
    const int64_t start = std::min<int64_t>(idx[0], 4096 - kWarpSize);
    std::vector<uint64_t> narrow_sectors, wide_sectors;
    ForEachLane(mask, [&](int l) {
      narrow_sectors.push_back(static_cast<uint64_t>(start + l) * 4 / 32);
      wide_sectors.push_back(static_cast<uint64_t>(start + l) * 8 / 32);
    });
    c.GatherContig(words.data(), start);
    c.GatherContig(wide.data(), start);
    const uint64_t want_contig =
        lane_idx.empty()
            ? 0
            : RefDistinct(narrow_sectors) + RefDistinct(wide_sectors);
    ASSERT_EQ(contig_stats.global_transactions, want_contig)
        << "trial " << trial;
    ASSERT_EQ(contig_stats.global_bytes_requested, 12 * lane_idx.size());

    KernelStats atomic_stats;
    Warp a(0, mask, &atomic_stats);
    LaneArray<uint32_t> zero(0u);
    a.AtomicAddGlobal(words.data(), idx, zero);
    const uint64_t distinct = lane_idx.empty() ? 0 : RefDistinct(lane_idx);
    ASSERT_EQ(atomic_stats.global_atomics, distinct) << "trial " << trial;
    ASSERT_EQ(atomic_stats.global_atomic_conflicts,
              lane_idx.size() - distinct)
        << "trial " << trial;

    SharedMemory smem(8192);
    smem.Alloc<uint32_t>(rng.Bounded(40));  // shifts the span's banks
    auto span = smem.Alloc<uint32_t>(1024);
    LaneArray<int> sidx;
    for (int l = 0; l < kWarpSize; ++l) {
      sidx[l] = static_cast<int>(idx[l] % 1024);
    }
    std::vector<uint64_t> bank_words;
    ForEachLane(mask, [&](int l) {
      bank_words.push_back((span.byte_offset + 4u * sidx[l]) / 4);
    });
    KernelStats shared_stats;
    Warp s(0, mask, &shared_stats);
    s.SharedLoad(span, sidx);
    ASSERT_EQ(shared_stats.shared_bank_conflicts, RefBankReplays(bank_words))
        << "trial " << trial;
  }
}

TEST(SharedMemoryTest, AllocAndOverflow) {
  SharedMemory smem(1024);
  auto a = smem.Alloc<uint32_t>(100);
  EXPECT_EQ(a.size, 100u);
  EXPECT_TRUE(smem.Fits<uint32_t>(156));
  EXPECT_FALSE(smem.Fits<uint32_t>(157));
  smem.Reset();
  EXPECT_EQ(smem.used(), 0u);
  EXPECT_TRUE(smem.Fits<uint32_t>(256));
}

TEST(SharedMemoryTest, AllocZeroInitializes) {
  SharedMemory smem(256);
  auto a = smem.Alloc<float>(16);
  for (size_t i = 0; i < a.size; ++i) EXPECT_EQ(a[i], 0.0f);
}

TEST(SharedMemoryDeathTest, OverflowAborts) {
  SharedMemory smem(64);
  EXPECT_DEATH(smem.Alloc<uint64_t>(100), "shared memory overflow");
}

TEST(SharedAccessTest, StrideOneHasNoBankConflicts) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i;
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 0u);
}

TEST(SharedAccessTest, StrideTwoHasTwoWayConflicts) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  for (int i = 0; i < kWarpSize; ++i) idx[i] = 2 * i;
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 1u);  // 2-way -> 1 replay
}

TEST(SharedAccessTest, SameWordBroadcastsWithoutConflict) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(64);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx(7);  // all lanes read word 7
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 0u);
}

TEST(SharedAccessTest, BroadcastMixedWithSameBankDifferentWords) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<uint32_t>(256);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  // Lanes 0-15 broadcast word 0; lanes 16-23 read word 32 and lanes 24-31
  // word 64, both also in bank 0: three distinct words in one bank.
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = i < 16 ? 0 : (i < 24 ? 32 : 64);
  }
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 2u);
  // Distinct banks plus one broadcast word: no replay.
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i < 2 ? 5 : i;
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 2u);
  // Two banks with two distinct words each, others single: one replay.
  for (int i = 0; i < kWarpSize; ++i) idx[i] = i;
  idx[30] = 35;  // bank 3 holds words 3 and 35
  idx[31] = 39;  // bank 7 holds words 7 and 39
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 3u);
  EXPECT_EQ(stats.shared_accesses, 3u);
}

TEST(SharedAccessTest, SpanOffsetShiftsBanks) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto pad = smem.Alloc<uint32_t>(3);
  auto arr = smem.Alloc<uint32_t>(128);
  ASSERT_EQ(arr.byte_offset, 12u);
  (void)pad;
  Warp w(0, 0x3u, &stats);
  LaneArray<int> idx;
  idx[0] = 29;  // word 32 -> bank 0
  idx[1] = 61;  // word 64 -> bank 0
  w.SharedLoad(arr, idx);
  EXPECT_EQ(stats.shared_bank_conflicts, 1u);
}

TEST(SharedAccessTest, SharedAtomicAddReturnsPostValue) {
  KernelStats stats;
  SharedMemory smem(4096);
  auto arr = smem.Alloc<float>(8);
  Warp w(0, 0b111u, &stats);
  LaneArray<int> idx(3);  // three lanes hit slot 3
  LaneArray<float> val(1.0f);
  auto post = w.SharedAtomicAdd(arr, idx, val);
  EXPECT_EQ(arr[3], 3.0f);
  // Lane-order serialization: post values are 1, 2, 3.
  EXPECT_EQ(post[0], 1.0f);
  EXPECT_EQ(post[1], 2.0f);
  EXPECT_EQ(post[2], 3.0f);
  EXPECT_EQ(stats.shared_atomics, 3u);
}

TEST(BlockTest, ForEachWarpSplitsThreads) {
  KernelStats stats;
  SharedMemory smem(1024);
  Block blk(0, 80, &smem, &stats);  // 2.5 warps
  std::vector<std::pair<int, int>> seen;  // (warp_id, active_count)
  blk.ForEachWarp([&](Warp& w) {
    seen.push_back({w.warp_id(), Popc(w.active())});
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, int>{0, 32}));
  EXPECT_EQ(seen[1], (std::pair<int, int>{1, 32}));
  EXPECT_EQ(seen[2], (std::pair<int, int>{2, 16}));
}

TEST(BlockTest, ReduceMaxChargesAndComputes) {
  KernelStats stats;
  SharedMemory smem(1024);
  Block blk(0, 4, &smem, &stats);
  std::vector<double> vals{1.0, 9.0, 3.0, -2.0};
  EXPECT_DOUBLE_EQ(blk.ReduceMax(vals, -100.0), 9.0);
  EXPECT_EQ(stats.block_reduces, 1u);
}

TEST(BlockTest, ReduceSumAddsAll) {
  KernelStats stats;
  SharedMemory smem(256);
  Block blk(0, 5, &smem, &stats);
  std::vector<int> vals{1, 2, 3, 4, 5};
  EXPECT_EQ(blk.ReduceSum(vals), 15);
  EXPECT_EQ(stats.block_reduces, 1u);
}

TEST(SegmentedSortTest, EmptyAndSingletonSegments) {
  std::vector<uint32_t> keys{9, 3};
  std::vector<int64_t> offsets{0, 0, 1, 1, 2};  // empty, {9}, empty, {3}
  auto stats = DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets,
                                   nullptr);
  EXPECT_EQ(keys, (std::vector<uint32_t>{9, 3}));
  EXPECT_EQ(stats.kernel_launches, 1u);
}

TEST(LaunchTest, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  LaunchConfig cfg{10, 32};
  Launch(DeviceProps::TitanV(), cfg, nullptr,
         [&](Block& blk) { hits[blk.block_idx()] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(LaunchTest, RunsAllBlocks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  LaunchConfig cfg{100, 64};
  auto stats = Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    hits[blk.block_idx()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stats.kernel_launches, 1u);
  EXPECT_EQ(stats.blocks_executed, 100u);
}

TEST(LaunchTest, StatsAggregateAcrossBlocks) {
  ThreadPool pool(4);
  std::vector<uint32_t> data(32 * 10);
  LaunchConfig cfg{10, 32};
  auto stats = Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    blk.ForEachWarp([&](Warp& w) {
      w.GatherContig(data.data(), blk.block_idx() * 32);
    });
  });
  EXPECT_EQ(stats.global_bytes_requested, 10u * 32 * 4);
}

TEST(LaunchTest, DeterministicResultsUnderConcurrency) {
  ThreadPool pool(8);
  std::vector<uint32_t> counter(1, 0);
  LaunchConfig cfg{1000, 32};
  Launch(DeviceProps::TitanV(), cfg, &pool, [&](Block& blk) {
    blk.ForEachWarp([&](Warp& w) {
      LaneArray<int64_t> idx(int64_t{0});
      LaneArray<uint32_t> val(1u);
      w.AtomicAddGlobal(counter.data(), idx, val);
    });
  });
  EXPECT_EQ(counter[0], 32u * 1000);
}

TEST(CostModelTest, MemoryBoundKernelPricedByBandwidth) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats s;
  s.kernel_launches = 1;
  s.global_transactions = 1000000;  // 32 MB
  const KernelTime t = cost.KernelCost(s);
  const double expected = 32e6 / (652e9 * 0.8);
  EXPECT_NEAR(t.mem_s, expected, expected * 0.01);
  EXPECT_GT(t.total_s, t.mem_s);  // launch overhead added
}

TEST(CostModelTest, ComputeBoundKernelPricedByIssueRate) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats s;
  s.kernel_launches = 1;
  s.instructions = 1000000000;
  const KernelTime t = cost.KernelCost(s);
  EXPECT_GT(t.compute_s, t.mem_s);
  EXPECT_NEAR(t.total_s, t.compute_s + t.launch_s, 1e-12);
}

TEST(CostModelTest, MonotoneInWork) {
  CostModel cost(DeviceProps::TitanV());
  KernelStats base;
  base.kernel_launches = 1;
  base.global_transactions = 1000;
  base.instructions = 1000;
  const double t0 = cost.KernelCost(base).total_s;

  KernelStats more_mem = base;
  more_mem.global_transactions *= 10;
  EXPECT_GE(cost.KernelCost(more_mem).total_s, t0);

  KernelStats more_compute = base;
  more_compute.instructions += 1000000;
  more_compute.shared_atomics += 1000;
  EXPECT_GE(cost.KernelCost(more_compute).total_s, t0);

  KernelStats more_launches = base;
  more_launches.kernel_launches = 5;
  EXPECT_GT(cost.KernelCost(more_launches).total_s, t0);
}

TEST(CostModelTest, GridSyncsPricedPerBarrierOnTopOfThePipelines) {
  DeviceProps props = DeviceProps::TitanV();
  props.grid_sync_s = 1.5e-6;
  CostModel cost(props);
  KernelStats work;
  work.global_transactions = 100000;
  work.instructions = 100000;
  const KernelTime t0 = cost.KernelCost(work);
  EXPECT_EQ(t0.sync_s, 0.0);

  KernelStats synced = work;
  synced.grid_syncs = 3;
  const KernelTime t = cost.KernelCost(synced);
  // A barrier stalls the whole grid: it never hides under memory or compute.
  EXPECT_EQ(t.mem_s, t0.mem_s);
  EXPECT_EQ(t.compute_s, t0.compute_s);
  EXPECT_NEAR(t.sync_s, 3 * 1.5e-6, 1e-18);
  EXPECT_NEAR(t.total_s, t0.total_s + 3 * 1.5e-6, 1e-15);

  // One persistent launch with T - 1 barriers undercuts T launches only
  // because a barrier is cheaper than a launch.
  KernelStats launched = work;
  launched.kernel_launches = 10;
  KernelStats persistent = work;
  persistent.kernel_launches = 1;
  persistent.grid_syncs = 9;
  EXPECT_NEAR(cost.KernelCost(launched).total_s -
                  cost.KernelCost(persistent).total_s,
              9 * (props.kernel_launch_overhead_s - props.grid_sync_s), 1e-15);
}

TEST(LaunchTest, ResidentGridBoundedByThreadsAndSharedMemory) {
  const DeviceProps p = DeviceProps::TitanV();
  const int64_t threads_per_sm = int64_t{p.resident_warps_per_sm} * kWarpSize;
  // Thread-bound: no shared memory.
  EXPECT_EQ(ResidentGridBlocks(p, 256, 0), threads_per_sm / 256 * p.num_sms);
  // Shared-memory-bound: 40 KB blocks, two per 96 KB SM.
  EXPECT_EQ(ResidentGridBlocks(p, 256, 40 * 1024), 2 * p.num_sms);
  // A block that fills the SM still gets one slot per SM.
  EXPECT_EQ(ResidentGridBlocks(p, 1024, p.shared_mem_per_sm), p.num_sms);
}

TEST(LaunchTest, EpilogueChargesAreSplitOff) {
  KernelStats epilogue;
  const KernelStats main = Launch(
      DeviceProps::TitanV(), LaunchConfig{4, 64}, nullptr,
      [](Block& blk) {
        blk.ForEachWarp([&](Warp& w) {
          w.CountInstr(2);
          Warp side(w.warp_id(), w.active(), blk.epilogue_stats());
          side.CountInstr(1);
        });
      },
      &epilogue);
  EXPECT_EQ(main.instructions, 4u * 2 * 2);
  EXPECT_EQ(epilogue.instructions, 4u * 2);
  EXPECT_EQ(epilogue.kernel_launches, 0u);
}

TEST(CostModelTest, AtomicsPricedCheaperThanSectors) {
  // Global atomics resolve in L2 (8B RMW), not full DRAM sectors.
  CostModel cost(DeviceProps::TitanV());
  KernelStats atomics, sectors;
  atomics.global_atomics = 1000000;
  sectors.global_transactions = 1000000;
  EXPECT_LT(cost.KernelCost(atomics).mem_s, cost.KernelCost(sectors).mem_s);
}

TEST(CostModelTest, TransfersScaleWithBytes) {
  CostModel cost(DeviceProps::TitanV());
  const double t1 = cost.TransferCost(12ull * 1000 * 1000 * 1000);
  EXPECT_NEAR(t1, 1.0, 0.01);  // 12 GB over 12 GB/s
  EXPECT_LT(cost.PeerTransferCost(1000000), cost.TransferCost(1000000));
}

TEST(SegmentedSortTest, SortsEachSegment) {
  std::vector<uint32_t> keys{5, 3, 1, 9, 7, 2, 2, 8};
  std::vector<int64_t> offsets{0, 3, 3, 8};
  auto stats = DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets,
                                   nullptr);
  EXPECT_EQ(keys, (std::vector<uint32_t>{1, 3, 5, 2, 2, 7, 8, 9}));
  EXPECT_GT(stats.global_transactions, 0u);
}

TEST(SegmentedSortTest, LargeSegmentCostsMoreThanBlockSorted) {
  // A >2048 segment triggers the radix path, whose traffic is ~8x.
  std::vector<uint32_t> small(2048), big(4096);
  for (size_t i = 0; i < small.size(); ++i) small[i] = 2048 - i;
  for (size_t i = 0; i < big.size(); ++i) big[i] = 4096 - i;
  std::vector<int64_t> so{0, 2048}, bo{0, 4096};
  auto s1 = DeviceSegmentedSort(DeviceProps::TitanV(), small, so, nullptr);
  auto s2 = DeviceSegmentedSort(DeviceProps::TitanV(), big, bo, nullptr);
  EXPECT_GT(s2.global_transactions, 4 * s1.global_transactions);
  EXPECT_TRUE(std::is_sorted(big.begin(), big.end()));
}

TEST(TransferLedgerTest, AccumulatesVolumeAndTime) {
  CostModel cost(DeviceProps::TitanV());
  TransferLedger ledger(&cost);
  ledger.HostToDevice(1000);
  ledger.DeviceToHost(2000);
  ledger.PeerToPeer(500);
  ledger.OverlappedHostToDevice(1 << 20);
  EXPECT_EQ(ledger.h2d_bytes(), 1000u + (1 << 20));
  EXPECT_EQ(ledger.d2h_bytes(), 2000u);
  EXPECT_EQ(ledger.p2p_bytes(), 500u);
  EXPECT_GT(ledger.seconds(), 0.0);
}

TEST(KernelStatsTest, UtilizationAndCoalescing) {
  KernelStats s;
  s.active_lane_cycles = 50;
  s.total_lane_cycles = 100;
  EXPECT_DOUBLE_EQ(s.LaneUtilization(), 0.5);
  s.global_transactions = 10;  // 320 B moved
  s.global_bytes_requested = 160;
  EXPECT_DOUBLE_EQ(s.CoalescingEfficiency(), 0.5);
}

TEST(KernelStatsTest, AccumulationAddsAllFields) {
  KernelStats a, b;
  a.instructions = 5;
  a.global_atomics = 2;
  b.instructions = 7;
  b.shared_accesses = 3;
  a += b;
  EXPECT_EQ(a.instructions, 12u);
  EXPECT_EQ(a.global_atomics, 2u);
  EXPECT_EQ(a.shared_accesses, 3u);
}

}  // namespace
}  // namespace glp::sim
