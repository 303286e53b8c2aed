// Microbenchmarks (google-benchmark) for the SIMT simulator primitives:
// intrinsics, instrumented gathers, shared-memory accesses, the kernels'
// shared hash-table probe loop, and the segmented-sort building block.
// These measure *simulator host throughput* (how fast experiments run), not
// simulated device time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "glp/kernels/common.h"
#include "sim/sim.h"
#include "util/rng.h"

namespace {

using namespace glp::sim;

void BM_MatchAnySync(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<uint32_t> v;
  glp::Rng rng(1);
  for (int i = 0; i < kWarpSize; ++i) {
    v[i] = static_cast<uint32_t>(rng.Bounded(state.range(0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.MatchAnySync(v));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_MatchAnySync)->Arg(2)->Arg(8)->Arg(32);

void BM_BallotSync(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  LaneArray<int> pred;
  for (int i = 0; i < kWarpSize; ++i) pred[i] = i & 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.BallotSync(pred));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_BallotSync);

void BM_GatherContiguous(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(1 << 16);
  std::iota(data.begin(), data.end(), 0u);
  int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.GatherContig(data.data(), (off += 32) & 0xffff & ~31));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_GatherContiguous);

void BM_GatherScattered(benchmark::State& state) {
  KernelStats stats;
  Warp w(0, kFullMask, &stats);
  std::vector<uint32_t> data(1 << 16);
  LaneArray<int64_t> idx;
  glp::Rng rng(2);
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = static_cast<int64_t>(rng.Bounded(1 << 16));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Gather(data.data(), idx));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_GatherScattered);

void BM_SharedAtomicAdd(benchmark::State& state) {
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto arr = smem.Alloc<float>(1024);
  Warp w(0, kFullMask, &stats);
  LaneArray<int> idx;
  glp::Rng rng(3);
  for (int i = 0; i < kWarpSize; ++i) {
    idx[i] = static_cast<int>(rng.Bounded(state.range(0)));
  }
  LaneArray<float> val(1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SharedAtomicAdd(arr, idx, val));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_SharedAtomicAdd)->Arg(4)->Arg(1024);

void BM_SharedLoadScattered(benchmark::State& state) {
  // Hash-probe lookups: each lane reads a random slot of a 1024-slot table
  // drawn from the first `range(0)` slots, so lanes broadcast on shared words
  // and collide on banks.
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto arr = smem.Alloc<uint32_t>(1024);
  Warp w(0, kFullMask, &stats);
  glp::Rng rng(6);
  std::vector<LaneArray<int>> patterns(64);
  for (auto& idx : patterns) {
    for (int i = 0; i < kWarpSize; ++i) {
      idx[i] = static_cast<int>(rng.Bounded(state.range(0)));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.SharedLoad(arr, patterns[next++ & 63]));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_SharedLoadScattered)->Arg(32)->Arg(1024);

void BM_SharedHtInsert(benchmark::State& state) {
  // The mid-degree kernel's probe loop: a 256-slot table (twice a degree of
  // 128) is cleared, then takes four rounds of 32 neighbor labels drawn
  // from `range(0)` distinct labels.
  using glp::graph::Label;
  KernelStats stats;
  SharedMemory smem(1 << 16);
  auto keys = smem.Alloc<Label>(256);
  auto counts = smem.Alloc<float>(256);
  Warp w(0, kFullMask, &stats);
  glp::Rng rng(5);
  std::vector<LaneArray<Label>> rounds(64);
  for (auto& labels : rounds) {
    for (int i = 0; i < kWarpSize; ++i) {
      labels[i] = static_cast<Label>(rng.Bounded(state.range(0)));
    }
  }
  const LaneArray<float> one(1.0f);
  LaneArray<float> post;
  size_t next = 0;
  for (auto _ : state) {
    std::fill(keys.data, keys.data + keys.size, glp::graph::kInvalidLabel);
    std::fill(counts.data, counts.data + counts.size, 0.0f);
    for (int r = 0; r < 4; ++r) {
      benchmark::DoNotOptimize(glp::lp::SharedHtInsert(
          w, keys, counts, 256, 256, rounds[next++ & 63], one, &post));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4 * kWarpSize);
}
BENCHMARK(BM_SharedHtInsert)->Arg(16)->Arg(128);

void BM_DeviceSegmentedSort(benchmark::State& state) {
  const int64_t segments = 256;
  const int64_t seg_len = state.range(0);
  glp::Rng rng(4);
  std::vector<uint32_t> keys(segments * seg_len);
  std::vector<int64_t> offsets(segments + 1);
  for (int64_t s = 0; s <= segments; ++s) offsets[s] = s * seg_len;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& k : keys) k = static_cast<uint32_t>(rng.Next());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        DeviceSegmentedSort(DeviceProps::TitanV(), keys, offsets, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_DeviceSegmentedSort)->Arg(32)->Arg(512);

void BM_KernelLaunchOverhead(benchmark::State& state) {
  glp::ThreadPool pool(4);
  LaunchConfig cfg{static_cast<int64_t>(state.range(0)), 256};
  for (auto _ : state) {
    auto stats = Launch(DeviceProps::TitanV(), cfg, &pool,
                        [](Block& blk) { (void)blk; });
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelLaunchOverhead)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
