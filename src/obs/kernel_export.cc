#include "obs/kernel_export.h"

namespace glp::obs {

void ExportKernelStats(MetricRegistry* registry, const std::string& engine,
                       const std::string& kernel,
                       const sim::KernelStats& stats) {
  const Labels labels = {{"engine", engine}, {"kernel", kernel}};
  const auto count = [&](const char* name, const char* help, uint64_t v) {
    if (v > 0) registry->GetCounter(name, help, labels)->Increment(v);
  };
  count("glp_sim_global_transactions_total",
        "32-byte global-memory transactions issued by simulated kernels",
        stats.global_transactions);
  count("glp_sim_global_bytes_requested_total",
        "Bytes requested by lanes from global memory",
        stats.global_bytes_requested);
  count("glp_sim_global_atomics_total", "Global-memory atomic operations",
        stats.global_atomics);
  count("glp_sim_global_atomic_conflicts_total",
        "Serialization steps from intra-warp atomic address conflicts",
        stats.global_atomic_conflicts);
  count("glp_sim_shared_accesses_total",
        "Warp-level shared-memory access instructions", stats.shared_accesses);
  count("glp_sim_shared_bank_conflicts_total",
        "Serialized passes caused by shared-memory bank conflicts",
        stats.shared_bank_conflicts);
  count("glp_sim_shared_atomics_total", "Shared-memory atomic operations",
        stats.shared_atomics);
  count("glp_sim_instructions_total", "Warp-level instructions executed",
        stats.instructions);
  count("glp_sim_intrinsic_ops_total",
        "Warp intrinsic operations (ballot/match/shfl/popc)",
        stats.intrinsic_ops);
  count("glp_sim_kernel_launches_total", "Simulated kernel launches",
        stats.kernel_launches);
  count("glp_sim_blocks_executed_total", "Thread blocks executed",
        stats.blocks_executed);
  count("glp_sim_grid_syncs_total",
        "Grid-wide barriers inside persistent simulated kernels",
        stats.grid_syncs);
  registry
      ->GetGauge("glp_sim_lane_utilization",
                 "Fraction of lane slots doing useful work (latest run)",
                 labels)
      ->Set(stats.LaneUtilization());
  registry
      ->GetGauge("glp_sim_coalescing_efficiency",
                 "Requested/transferred global byte ratio (latest run)",
                 labels)
      ->Set(stats.CoalescingEfficiency());
}

void ExportPhaseBreakdown(MetricRegistry* registry, const std::string& engine,
                          const prof::PhaseBreakdown& breakdown) {
  if (!breakdown.enabled) return;
  for (int i = 0; i < prof::kNumPhases; ++i) {
    const prof::PhaseStats& s = breakdown.phases[i];
    if (s.launches == 0 && s.seconds == 0) continue;
    const Labels labels = {
        {"engine", engine},
        {"kernel", prof::PhaseName(static_cast<prof::Phase>(i))}};
    const auto count = [&](const char* name, const char* help, uint64_t v) {
      if (v > 0) registry->GetCounter(name, help, labels)->Increment(v);
    };
    count("glp_sim_kernel_launches_total", "Simulated kernel launches",
          s.launches);
    count("glp_sim_global_transactions_total",
          "32-byte global-memory transactions issued by simulated kernels",
          s.global_transactions);
    count("glp_sim_global_bytes_requested_total",
          "Bytes requested by lanes from global memory", s.global_bytes);
    registry
        ->GetGauge("glp_sim_kernel_seconds_total",
                   "Accumulated simulated seconds per kernel phase", labels)
        ->Add(s.seconds);
    registry
        ->GetGauge("glp_sim_lane_utilization",
                   "Fraction of lane slots doing useful work (latest run)",
                   labels)
        ->Set(s.LaneUtilization());
  }
}

}  // namespace glp::obs
