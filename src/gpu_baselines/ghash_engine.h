// G-Hash baseline [2]: hash-table label counting on the GPU. Small
// neighborhoods count in per-warp shared-memory tables; neighborhoods that
// do not fit fall back to per-vertex tables in global memory (with the
// O(|E|)-sized arena and per-iteration re-zeroing that entails). No
// warp-centric packing for tiny vertices and no CMS pruning for huge ones —
// the two gaps GLP's §4 optimizations close.

#pragma once

#include "glp/kernels/accounting.h"
#include "glp/kernels/common.h"
#include "glp/kernels/global_ht.h"
#include "glp/kernels/warp_per_vertex.h"
#include "glp/run.h"
#include "graph/binning.h"
#include "sim/cost_model.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace glp::lp {

/// G-Hash over any variant policy.
template <typename Variant>
class GHashEngine : public Engine {
 public:
  GHashEngine(const VariantParams& params = {},
              glp::ThreadPool* pool = nullptr,
              sim::DeviceProps device = sim::DeviceProps::TitanV())
      : params_(params),
        pool_(pool != nullptr ? pool : glp::ThreadPool::Default()),
        device_(device),
        cost_(device) {}

  std::string name() const override { return "G-Hash"; }

  using Engine::Run;
  Result<RunResult> Run(const graph::Graph& g, const RunConfig& config,
                        const RunContext& ctx) override {
    if (!config.initial_labels.empty() &&
        config.initial_labels.size() != g.num_vertices()) {
      return Status::InvalidArgument("initial_labels size mismatch");
    }
    glp::Timer timer;
    glp::ThreadPool* const pool = ctx.pool != nullptr ? ctx.pool : pool_;
    Variant variant(params_);
    variant.Init(g, config);
    const graph::VertexId n = g.num_vertices();
    const uint64_t nu = n;

    // Shared-memory tables cover degrees <= 128; beyond that, global arena.
    graph::BinningConfig bin_cfg;
    bin_cfg.low_degree_max = 31;
    bin_cfg.high_degree_min = 129;
    const graph::DegreeBins bins = graph::ComputeDegreeBins(g, bin_cfg);
    GlobalHtArena arena;
    arena.Build(g, bins.high);

    uint64_t device_bytes = g.bytes() + 2 * nu * sizeof(graph::Label);
    if constexpr (Variant::kNeedsLabelAux) device_bytes += nu * sizeof(float);
    device_bytes += nu * variant.memory_bytes_per_vertex();
    device_bytes += arena.bytes();

    prof::PhaseProfiler* const profiler = ctx.profiler;
    if (profiler != nullptr) profiler->BeginRun(name(), 1);
    ConvergenceRecorder recorder(ctx.metrics, name());
    GpuRunAccumulator acc(&cost_, profiler);
    RunResult result;
    const double initial_transfer = cost_.TransferCost(device_bytes);
    StabilityTracker stability;
    const bool track_cycles =
        config.stop_when_stable && !variant.needs_pick_kernel();
    if (track_cycles) stability.Reset(variant.labels());

    for (int iter = 0; iter < config.max_iterations; ++iter) {
      if (ctx.StopRequested()) return Status::Cancelled("G-Hash run cancelled");
      if (profiler != nullptr) profiler->BeginIteration(iter);
      variant.BeginIteration(iter);
      const DeviceView<Variant> view = DeviceView<Variant>::Of(g, variant);

      if (variant.needs_pick_kernel()) {
        acc.AddLaunch(MapKernelStats(
                          nu, nu * variant.memory_bytes_per_vertex(), nu * 4),
                      prof::Phase::kPick);
      }

      // One warp per vertex regardless of degree — tiny vertices waste lanes.
      if (!bins.low.empty()) {
        acc.AddLaunch(RunWarpPerVertexSmemKernel(device_, pool, view,
                                                 bins.low, 64, 256, nullptr,
                                                 WarpCommit::kPerWarp),
                      prof::Phase::kLowBin);
      }
      if (!bins.mid.empty()) {
        acc.AddLaunch(RunWarpPerVertexSmemKernel(device_, pool, view,
                                                 bins.mid, 256, 256, nullptr,
                                                 WarpCommit::kPerWarp),
                      prof::Phase::kMidBin);
      }
      if (!bins.high.empty()) {
        arena.Reset();
        acc.AddLaunch(MapKernelStats(0, 0, arena.bytes()),  // device memset
                      prof::Phase::kHighBin);
        acc.AddLaunch(
            RunGlobalHtKernel(device_, pool, view, bins.high, &arena, 256),
            prof::Phase::kHighBin);
      }

      acc.AddLaunch(MapKernelStats(nu, 8 * nu, 4), prof::Phase::kCommit);
      if (variant.needs_pick_kernel()) {
        const uint64_t mem = nu * variant.memory_bytes_per_vertex();
        acc.AddLaunch(MapKernelStats(nu, nu * 4 + mem, mem),
                      prof::Phase::kCommit);
      }
      if constexpr (Variant::kNeedsLabelAux) {
        acc.AddLaunch(MapKernelStats(0, 0, nu * 4), prof::Phase::kCommit);
        acc.AddLaunch(HistogramKernelStats(nu), prof::Phase::kCommit);
      }

      const int changed = variant.EndIteration(iter);
      const double iter_s = acc.TakeSeconds();
      if (profiler != nullptr) profiler->EndIteration(iter_s);
      recorder.RecordIteration(static_cast<uint64_t>(changed), nu, iter_s);
      result.iteration_seconds.push_back(iter_s);
      ++result.iterations;
      if (config.stop_when_stable &&
          (changed == 0 ||
           (track_cycles && stability.Cycled(variant.labels())))) {
        break;
      }
    }

    result.labels = variant.FinalLabels();
    result.wall_seconds = timer.Seconds();
    result.stats = acc.total();
    result.setup_seconds = initial_transfer;
    double total = 0;
    for (double s : result.iteration_seconds) total += s;
    result.simulated_seconds = total;
    result.device_bytes = device_bytes;
    if (profiler != nullptr) result.phase_breakdown = profiler->breakdown();
    return result;
  }

 private:
  VariantParams params_;
  glp::ThreadPool* pool_;
  sim::DeviceProps device_;
  sim::CostModel cost_;
};

}  // namespace glp::lp
