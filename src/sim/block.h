// Thread-block execution context.
//
// Warps within a block run to completion sequentially (warp 0 first) on one
// host thread, which makes block-level phases deterministic; block-wide
// synchronization and reduction therefore need no real barrier but are still
// *charged* to the compute pipeline. Per-thread "registers" that must live
// across phases are modeled as host vectors indexed by thread id.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/device.h"
#include "sim/shared_memory.h"
#include "sim/warp.h"

namespace glp::sim {

/// Execution context of one thread block.
class Block {
 public:
  /// `shared` is an arena owned by the runner and reused across blocks; the
  /// block Reset()s it on construction. `epilogue` receives the charges of
  /// a fused epilogue the caller attributes apart (null: `stats`).
  Block(int64_t block_idx, int num_threads, SharedMemory* shared,
        KernelStats* stats, KernelStats* epilogue = nullptr)
      : block_idx_(block_idx),
        num_threads_(num_threads),
        shared_(shared),
        stats_(stats),
        epilogue_(epilogue != nullptr ? epilogue : stats) {
    shared_->Reset();
  }

  int64_t block_idx() const { return block_idx_; }
  int num_threads() const { return num_threads_; }
  int num_warps() const { return (num_threads_ + kWarpSize - 1) / kWarpSize; }
  SharedMemory& shared() { return *shared_; }
  KernelStats* stats() { return stats_; }
  /// Where the block's fused epilogue (e.g. the LP kernels' change count)
  /// charges its work; the main stats unless the launch split it off.
  KernelStats* epilogue_stats() { return epilogue_; }

  /// Runs `fn(Warp&)` once per warp of the block, in warp order. The active
  /// mask of the last warp excludes thread slots beyond num_threads().
  template <typename Fn>
  void ForEachWarp(Fn&& fn) {
    for (int w = 0; w < num_warps(); ++w) {
      const int lanes = std::min(kWarpSize, num_threads_ - w * kWarpSize);
      const LaneMask mask =
          lanes >= kWarpSize ? kFullMask : ((1u << lanes) - 1u);
      Warp warp(w, mask, stats_);
      fn(warp);
    }
  }

  /// __syncthreads.
  void Sync() { stats_->block_syncs += 1; }

  /// Block-wide max over one value per thread (e.g. the per-thread scores in
  /// Procedure SharedMemBigNodes). Charged as a tree reduction + barrier.
  template <typename T>
  T ReduceMax(const std::vector<T>& per_thread, T identity) const {
    stats_->block_reduces += 1;
    stats_->block_syncs += 1;
    T best = identity;
    for (const T& v : per_thread) best = std::max(best, v);
    return best;
  }

  /// Block-wide sum over one value per thread.
  template <typename T>
  T ReduceSum(const std::vector<T>& per_thread) const {
    stats_->block_reduces += 1;
    stats_->block_syncs += 1;
    T sum = T{};
    for (const T& v : per_thread) sum += v;
    return sum;
  }

 private:
  int64_t block_idx_;
  int num_threads_;
  SharedMemory* shared_;
  KernelStats* stats_;
  KernelStats* epilogue_;
};

}  // namespace glp::sim
