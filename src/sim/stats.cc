#include "sim/stats.h"

#include <sstream>

namespace glp::sim {

KernelStats& KernelStats::operator+=(const KernelStats& o) {
  global_transactions += o.global_transactions;
  global_bytes_requested += o.global_bytes_requested;
  global_atomics += o.global_atomics;
  global_atomic_conflicts += o.global_atomic_conflicts;
  shared_accesses += o.shared_accesses;
  shared_bank_conflicts += o.shared_bank_conflicts;
  shared_atomics += o.shared_atomics;
  instructions += o.instructions;
  intrinsic_ops += o.intrinsic_ops;
  block_reduces += o.block_reduces;
  block_syncs += o.block_syncs;
  active_lane_cycles += o.active_lane_cycles;
  total_lane_cycles += o.total_lane_cycles;
  kernel_launches += o.kernel_launches;
  blocks_executed += o.blocks_executed;
  grid_syncs += o.grid_syncs;
  return *this;
}

double KernelStats::LaneUtilization() const {
  if (total_lane_cycles == 0) return 1.0;
  return static_cast<double>(active_lane_cycles) /
         static_cast<double>(total_lane_cycles);
}

double KernelStats::CoalescingEfficiency() const {
  if (global_transactions == 0) return 1.0;
  const double transferred = static_cast<double>(global_transactions) * 32.0;
  const double requested = static_cast<double>(global_bytes_requested);
  return requested >= transferred ? 1.0 : requested / transferred;
}

std::string KernelStats::ToString() const {
  std::ostringstream os;
  os << "KernelStats{\n"
     << "  global_transactions=" << global_transactions
     << " (bytes_requested=" << global_bytes_requested
     << ", coalescing=" << CoalescingEfficiency() << ")\n"
     << "  global_atomics=" << global_atomics
     << " (conflicts=" << global_atomic_conflicts << ")\n"
     << "  shared_accesses=" << shared_accesses
     << " (bank_conflicts=" << shared_bank_conflicts
     << ", atomics=" << shared_atomics << ")\n"
     << "  instructions=" << instructions << " intrinsics=" << intrinsic_ops
     << " block_reduces=" << block_reduces << " syncs=" << block_syncs << "\n"
     << "  lane_utilization=" << LaneUtilization()
     << " launches=" << kernel_launches << " blocks=" << blocks_executed
     << " grid_syncs=" << grid_syncs << "\n"
     << "}";
  return os.str();
}

}  // namespace glp::sim
