// Execution counters collected while simulating a kernel.
//
// Every instrumented operation (global gather/scatter, shared-memory access,
// atomic, warp intrinsic, block reduce, sync) bumps these counters; the cost
// model (cost_model.h) converts them into simulated elapsed time. The two
// optimizations the paper proposes are visible directly here: fewer
// global_transactions (CMS+HT keeps high-degree counting in shared memory)
// and higher lane utilization (warp-centric low-degree scheduling).

#pragma once

#include <cstdint>
#include <string>

namespace glp::sim {

/// Counters for one kernel launch (or an accumulation over several).
struct KernelStats {
  // --- Global memory ---
  /// 32-byte-sector transactions issued to device global memory.
  uint64_t global_transactions = 0;
  /// Bytes actually requested by lanes (<= transactions * sector size; the
  /// gap measures coalescing waste).
  uint64_t global_bytes_requested = 0;
  /// Atomic operations on global memory.
  uint64_t global_atomics = 0;
  /// Extra serialization steps caused by intra-warp atomic address conflicts.
  uint64_t global_atomic_conflicts = 0;

  // --- Shared memory ---
  /// Warp-level shared-memory access instructions.
  uint64_t shared_accesses = 0;
  /// Extra serialized passes caused by bank conflicts.
  uint64_t shared_bank_conflicts = 0;
  /// Atomic operations on shared memory.
  uint64_t shared_atomics = 0;

  // --- Compute ---
  /// Warp-level instructions (each warp-wide op counts once).
  uint64_t instructions = 0;
  /// Warp intrinsic operations (ballot / match_any / shfl / popc).
  uint64_t intrinsic_ops = 0;
  /// Block-wide reductions.
  uint64_t block_reduces = 0;
  /// __syncthreads barriers.
  uint64_t block_syncs = 0;

  // --- Utilization ---
  /// Sum over executed warp instructions of the number of active lanes.
  uint64_t active_lane_cycles = 0;
  /// Executed warp instructions * kWarpSize (the available lane slots).
  uint64_t total_lane_cycles = 0;

  // --- Launches ---
  /// Number of kernel launches folded into this accumulation.
  uint64_t kernel_launches = 0;
  /// Number of thread blocks executed (the virtual blocks of a persistent
  /// launch, which stride over its resident grid).
  uint64_t blocks_executed = 0;
  /// Grid-wide barriers (cooperative-groups grid.sync()) inside persistent
  /// launches: each stands where a launch boundary would otherwise be.
  uint64_t grid_syncs = 0;

  KernelStats& operator+=(const KernelStats& o);

  /// Fraction of lane slots doing useful work in [0, 1]; 1.0 when no warp
  /// instruction was executed.
  double LaneUtilization() const;

  /// Fraction of transferred global bytes that were requested by lanes
  /// (coalescing efficiency), in [0, 1].
  double CoalescingEfficiency() const;

  /// Multi-line human-readable dump.
  std::string ToString() const;
};

}  // namespace glp::sim
