// Simulated device descriptions.
//
// The cost model is parameterized by these properties; the default matches
// the NVIDIA Titan V used in the paper's evaluation (§5.1), with the memory
// *capacity* left configurable so the CPU–GPU hybrid-mode experiment (§5.4)
// can be exercised at reduced graph scale.

#pragma once

#include <cstdint>
#include <string>

namespace glp::sim {

/// Static properties of a simulated GPU.
struct DeviceProps {
  std::string name = "SimTitanV";

  /// Streaming multiprocessors.
  int num_sms = 80;
  /// Core clock in GHz.
  double clock_ghz = 1.455;
  /// Peak global-memory bandwidth in GB/s (HBM2 on Titan V).
  double mem_bandwidth_gbps = 652.0;
  /// Achievable fraction of peak bandwidth for streaming access.
  double mem_efficiency = 0.80;
  /// Global-memory transaction sector size in bytes.
  int sector_bytes = 32;

  /// Shared memory available to one thread block, in bytes.
  int shared_mem_per_block = 96 * 1024;
  /// Shared memory of one SM, split among its resident blocks.
  int shared_mem_per_sm = 96 * 1024;
  /// Shared-memory banks (4-byte wide).
  int shared_banks = 32;

  int max_threads_per_block = 1024;

  /// Warp instructions retired per SM per cycle (issue throughput).
  double warp_ipc = 2.0;
  /// Resident warps per SM assumed for latency hiding (occupancy model).
  int resident_warps_per_sm = 32;

  /// Fixed host-side overhead per kernel launch, seconds.
  double kernel_launch_overhead_s = 5e-6;
  /// Latency of one grid-wide barrier (cooperative-groups grid.sync()) in a
  /// persistent kernel, seconds: the V100 measurement of Zhang et al.,
  /// IPDPS 2020 (DESIGN.md §1).
  double grid_sync_s = 2e-6;

  /// Host<->device interconnect bandwidth in GB/s (PCIe 3.0 x16 effective).
  double pcie_bandwidth_gbps = 12.0;
  /// One-way transfer latency, seconds.
  double pcie_latency_s = 10e-6;
  /// Peer-to-peer (GPU<->GPU) bandwidth in GB/s (NVLink on Titan V).
  double p2p_bandwidth_gbps = 40.0;

  /// Device global-memory capacity in bytes. Titan V has 12 GB; experiments
  /// at reduced graph scale shrink this proportionally so the hybrid-mode
  /// crossover still occurs (see DESIGN.md §1).
  uint64_t mem_capacity_bytes = 12ull * 1024 * 1024 * 1024;

  /// The Titan V configuration used throughout the benchmarks.
  static DeviceProps TitanV() { return DeviceProps{}; }

  /// Titan V with a scaled-down memory capacity (for hybrid-mode tests).
  static DeviceProps TitanVWithCapacity(uint64_t capacity_bytes) {
    DeviceProps p;
    p.mem_capacity_bytes = capacity_bytes;
    return p;
  }
};

}  // namespace glp::sim
