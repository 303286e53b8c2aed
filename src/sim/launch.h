// Kernel launch: runs a grid of blocks across a host thread pool.
//
// Blocks are independent (as on hardware); global-memory atomics go through
// std::atomic_ref so concurrent blocks are race-free. Stats are accumulated
// per worker chunk and merged, so counting never contends. Stats do not
// depend on the pool size or on block interleaving: a block's charges are a
// function of its own accesses (sectors and atomic addresses are offsets
// within each array, see warp.h; hash tables are block-private), and the
// merge is integer addition, which is order-independent. Results are
// deterministic for kernels whose blocks write disjoint outputs, as every
// LP kernel's do.

#pragma once

#include <cstdint>
#include <mutex>

#include "sim/block.h"
#include "sim/device.h"
#include "sim/stats.h"
#include "util/thread_pool.h"

namespace glp::sim {

/// Grid geometry for one launch.
struct LaunchConfig {
  int64_t num_blocks = 1;
  int threads_per_block = 256;
};

/// Executes `kernel(Block&)` for every block in the grid and returns the
/// accumulated stats (kernel_launches == 1). `pool == nullptr` runs on the
/// calling thread only.
template <typename KernelFn>
KernelStats Launch(const DeviceProps& props, const LaunchConfig& cfg,
                   glp::ThreadPool* pool, KernelFn&& kernel) {
  GLP_CHECK_GT(cfg.threads_per_block, 0);
  GLP_CHECK_LE(cfg.threads_per_block, props.max_threads_per_block);

  KernelStats total;
  total.kernel_launches = 1;
  total.blocks_executed = static_cast<uint64_t>(cfg.num_blocks);
  std::mutex merge_mu;

  auto run_range = [&](int64_t lo, int64_t hi) {
    KernelStats local;
    SharedMemory shared(props.shared_mem_per_block);
    for (int64_t b = lo; b < hi; ++b) {
      Block blk(b, cfg.threads_per_block, &shared, &local);
      kernel(blk);
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    total += local;
  };

  if (pool == nullptr || cfg.num_blocks <= 1) {
    run_range(0, cfg.num_blocks);
  } else {
    pool->ParallelFor(0, cfg.num_blocks, run_range);
  }
  return total;
}

}  // namespace glp::sim
