// Figure 7 — GLP vs TaoBao's in-house distributed solution: average elapsed
// time for one LP iteration on each sliding-window workload of Table 4, for
//   (a) the in-house 32-machine BSP solution (cluster cost model),
//   (b) GLP on one simulated Titan V,
//   (c) GLP on two simulated Titan Vs.
// The simulated GPU memory capacity is scaled with the workload so the
// larger windows exceed it and GLP switches to the CPU-GPU hybrid mode, as
// in the paper (§5.4); the exposed transfer overhead is reported and should
// stay under ~10%. Also prints the §5.4 summary lines: average speedup,
// 2-GPU scaling, and the dollar-cost comparison.
// Flags: --scale, --iters (default 8), --seed.

#include "bench/bench_common.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "graph/sliding_window.h"
#include "pipeline/distributed.h"

int main(int argc, char** argv) {
  using namespace glp;
  auto flags = bench::BenchFlags::Parse(argc, argv);
  if (flags.iterations == 20) flags.iterations = 8;  // per-iteration metric

  const auto cfg = bench::TaobaoStreamConfig(flags.scale, flags.seed);
  auto stream = pipeline::GenerateTransactions(cfg);
  graph::SlidingWindow window(stream.edges);

  // Probe the largest window to scale the device capacity so that windows
  // of >= ~60 days overflow into hybrid mode (mirrors 12 GB vs Table 4).
  const auto largest = window.Snapshot(0, cfg.days);
  const uint64_t capacity =
      static_cast<uint64_t>(static_cast<double>(largest.graph.bytes()) * 0.62);

  std::printf("=== Figure 7: GLP vs in-house distributed (avg time per LP "
              "iteration; %d iters; scale=%.2f) ===\n",
              flags.iterations, flags.scale);
  std::printf("(simulated GPU capacity: %s; windows that exceed it run in "
              "CPU-GPU hybrid mode)\n\n",
              bench::Count(static_cast<double>(capacity)).c_str());
  bench::PrintHeader({"Window", "|E|(CSR)", "InHouse", "GLP-1GPU",
                      "GLP-2GPU", "speedup", "2GPUgain", "hybrid",
                      "xfer%"},
                     11);

  double sum_speedup = 0, sum_gain = 0, worst_xfer = 0;
  int rows = 0;
  for (int days = 10; days <= 100; days += 10) {
    const auto snap = window.Snapshot(cfg.days - days, cfg.days);
    const graph::Graph& g = snap.graph;

    lp::RunConfig run;
    run.max_iterations = flags.iterations;
    run.seed = flags.seed;

    pipeline::ClusterConfig cluster;
    // Scale the fixed BSP barrier with the ~1/2000 stream scale (see
    // bench::ScaledDevice's rationale for fixed overheads under scaling).
    cluster.barrier_latency_s =
        std::max(1e-7, cluster.barrier_latency_s * flags.scale / 2000.0);
    pipeline::DistributedLpEngine inhouse(cluster);
    auto r_inhouse = inhouse.Run(g, run);
    GLP_CHECK(r_inhouse.ok());

    auto device = sim::DeviceProps::TitanVWithCapacity(capacity);
    device.kernel_launch_overhead_s =
        std::max(2e-8, device.kernel_launch_overhead_s * flags.scale / 2000.0);
    device.grid_sync_s =
        std::max(2e-8, device.grid_sync_s * flags.scale / 2000.0);
    device.pcie_latency_s =
        std::max(2e-8, device.pcie_latency_s * flags.scale / 2000.0);
    lp::GlpOptions one, two;
    two.num_gpus = 2;
    lp::GlpEngine<lp::ClassicVariant> glp1({}, one, nullptr, device);
    lp::GlpEngine<lp::ClassicVariant> glp2({}, two, nullptr, device);
    auto r1 = glp1.Run(g, run);
    auto r2 = glp2.Run(g, run);
    GLP_CHECK(r1.ok());
    GLP_CHECK(r2.ok());
    GLP_CHECK(r1.value().labels == r_inhouse.value().labels);

    const double t_inhouse = r_inhouse.value().AvgIterationSeconds();
    const double t1 = r1.value().AvgIterationSeconds();
    const double t2 = r2.value().AvgIterationSeconds();
    const bool hybrid = r1.value().transfer_seconds > 0;
    const double xfer_pct =
        100.0 * r1.value().transfer_seconds / r1.value().simulated_seconds;

    char wname[16];
    std::snprintf(wname, sizeof(wname), "%ddays", days);
    std::printf("%-11s%-11s%-11s%-11s%-11s%-11s%-11s%-11s%-11.1f\n", wname,
                bench::Count(static_cast<double>(g.num_edges())).c_str(),
                bench::Duration(t_inhouse).c_str(),
                bench::Duration(t1).c_str(), bench::Duration(t2).c_str(),
                bench::Speedup(t_inhouse, t1).c_str(),
                bench::Speedup(t1, t2).c_str(), hybrid ? "yes" : "no",
                xfer_pct);
    sum_speedup += t_inhouse / t1;
    sum_gain += t1 / t2;
    worst_xfer = std::max(worst_xfer, xfer_pct);
    ++rows;
  }

  pipeline::ClusterConfig cluster;
  const double glp_dollars = 617.0 + 2999.0;
  std::printf("\n--- §5.4 summary ---\n");
  std::printf("Average GLP (1 GPU) speedup over in-house: %.1fx "
              "(paper: 8.2x)\n",
              sum_speedup / rows);
  std::printf("Average additional speedup with 2 GPUs:    %.2fx "
              "(paper: 1.8x)\n",
              sum_gain / rows);
  std::printf("Worst exposed transfer overhead (hybrid):  %.1f%% "
              "(paper: <10%%)\n",
              worst_xfer);
  std::printf("Hardware cost: in-house $%.0f (32 x 4 x $5890) vs GLP "
              "$%.0f ($617 CPU + $2999 GPU) -> %.0fx cheaper\n",
              cluster.TotalDollars(), glp_dollars,
              cluster.TotalDollars() / glp_dollars);
  return 0;
}
