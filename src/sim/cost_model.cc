#include "sim/cost_model.h"

#include <algorithm>

namespace glp::sim {

KernelTime CostModel::KernelCost(const KernelStats& s) const {
  KernelTime t;

  // --- Memory pipeline ---
  const double bw = props_.mem_bandwidth_gbps * 1e9 * props_.mem_efficiency;
  const double bytes_moved =
      static_cast<double>(s.global_transactions) * props_.sector_bytes;
  double mem_s = bytes_moved / bw;
  // Global atomics resolve in the L2 slices (the "built-in caching
  // mechanism" [2] relies on): price each as an 8-byte L2 read-modify-write
  // rather than a full DRAM sector; conflicting addresses within a warp
  // serialize into extra operations.
  const double atomic_ops =
      static_cast<double>(s.global_atomics + s.global_atomic_conflicts);
  mem_s += atomic_ops * 8.0 / bw;
  t.mem_s = mem_s;

  // --- Compute pipeline ---
  // Cycles retired through the SM issue pipes. Shared accesses replay once
  // per extra bank conflict; shared atomics cost a few cycles each; warp
  // intrinsics are single-cycle; a block reduce is ~log2(1024) steps.
  const double cycles =
      static_cast<double>(s.instructions) +
      static_cast<double>(s.shared_accesses) +
      static_cast<double>(s.shared_bank_conflicts) +
      4.0 * static_cast<double>(s.shared_atomics) +
      static_cast<double>(s.intrinsic_ops) +
      10.0 * static_cast<double>(s.block_reduces) +
      2.0 * static_cast<double>(s.block_syncs);
  const double issue_rate =
      static_cast<double>(props_.num_sms) * props_.clock_ghz * 1e9 *
      props_.warp_ipc;
  t.compute_s = cycles / issue_rate;

  t.launch_s =
      static_cast<double>(s.kernel_launches) * props_.kernel_launch_overhead_s;
  t.sync_s = static_cast<double>(s.grid_syncs) * props_.grid_sync_s;
  t.total_s = std::max(t.mem_s, t.compute_s) + t.launch_s + t.sync_s;
  return t;
}

}  // namespace glp::sim
