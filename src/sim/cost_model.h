// Converts KernelStats into simulated elapsed time on a DeviceProps.
//
// Model: a kernel is limited by whichever of its memory pipeline or compute
// pipeline is slower (classic roofline), plus a fixed launch overhead and,
// inside a persistent kernel, a fixed latency per grid-wide barrier:
//
//   t_mem     = transactions * sector / (BW * efficiency)
//             + atomic serialization penalty
//   t_compute = warp_instruction_cycles / (SMs * clock * IPC)
//     where shared-memory accesses and their bank-conflict replays, warp
//     intrinsics, and block reductions all retire through the compute pipe.
//   t_kernel  = max(t_mem, t_compute) + launches * launch_overhead
//             + grid_syncs * grid_sync
//
// The model intentionally prices the exact quantities the paper's
// optimizations reduce, so GLP's advantage over G-Sort / G-Hash emerges from
// counted work rather than from tuned constants.

#pragma once

#include "sim/device.h"
#include "sim/stats.h"

namespace glp::sim {

/// Breakdown of one kernel's simulated time.
struct KernelTime {
  double mem_s = 0;
  double compute_s = 0;
  double launch_s = 0;
  double sync_s = 0;
  double total_s = 0;
};

/// Prices kernels and transfers on a fixed device.
class CostModel {
 public:
  explicit CostModel(DeviceProps props) : props_(props) {}

  const DeviceProps& props() const { return props_; }

  /// Simulated execution time of a kernel described by `stats`. The number of
  /// launches folded into `stats` each pay the launch overhead, and every
  /// grid barrier its latency; neither overlaps the pipelines.
  KernelTime KernelCost(const KernelStats& stats) const;

  /// Host<->device transfer time for `bytes` over PCIe.
  double TransferCost(uint64_t bytes) const {
    return props_.pcie_latency_s +
           static_cast<double>(bytes) / (props_.pcie_bandwidth_gbps * 1e9);
  }

  /// GPU<->GPU peer transfer time for `bytes`.
  double PeerTransferCost(uint64_t bytes) const {
    return props_.pcie_latency_s +
           static_cast<double>(bytes) / (props_.p2p_bandwidth_gbps * 1e9);
  }

 private:
  DeviceProps props_;
};

}  // namespace glp::sim
