// Shared helpers for the figure/table benchmark binaries: flag parsing and
// fixed-width table printing in the style of the paper's evaluation section.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "glp/factory.h"
#include "glp/run.h"
#include "graph/datasets.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"
#include "util/logging.h"

namespace glp::bench {

/// Command-line options common to the figure benches.
struct BenchFlags {
  double scale = 1.0;   ///< dataset scale multiplier (see graph/datasets.h)
  int iterations = 20;  ///< LP iterations (paper: 20)
  uint64_t seed = 1;
  bool full = false;     ///< run the full parameter sweep where applicable
  bool profile = false;  ///< dump a per-phase GLP breakdown per dataset

  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags flags;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* name) -> const char* {
        GLP_CHECK_LT(i + 1, argc) << "missing value for " << name;
        return argv[++i];
      };
      if (std::strcmp(argv[i], "--scale") == 0) {
        flags.scale = std::atof(next("--scale"));
      } else if (std::strcmp(argv[i], "--iters") == 0) {
        flags.iterations = std::atoi(next("--iters"));
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        flags.seed = std::strtoull(next("--seed"), nullptr, 10);
      } else if (std::strcmp(argv[i], "--full") == 0) {
        flags.full = true;
      } else if (std::strcmp(argv[i], "--profile") == 0) {
        flags.profile = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf(
            "flags: --scale <f> --iters <n> --seed <n> --full --profile\n");
        std::exit(0);
      } else {
        GLP_LOG(Warning) << "unknown flag " << argv[i];
      }
    }
    return flags;
  }
};

/// Prints a header row followed by a separator.
inline void PrintHeader(const std::vector<std::string>& cols, int width = 12) {
  for (const auto& c : cols) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < cols.size() * width; ++i) std::printf("-");
  std::printf("\n");
}

/// "12.3x" style speedup cell.
inline std::string Speedup(double base, double t) {
  char buf[32];
  if (t <= 0) return "-";
  std::snprintf(buf, sizeof(buf), "%.2fx", base / t);
  return buf;
}

/// "1.23ms" style duration cell.
inline std::string Duration(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  }
  return buf;
}

/// Human count: 1.5M, 23.4K.
inline std::string Count(double x) {
  char buf[32];
  if (x >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fB", x / 1e9);
  } else if (x >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", x / 1e6);
  } else if (x >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", x / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", x);
  }
  return buf;
}

/// Device used by the figure benches: a Titan V whose *fixed* overheads
/// (kernel launch latency, grid barrier latency, PCIe latency) are scaled
/// down with the dataset scale. The
/// datasets run at ~1/128 the paper's size (x the --scale flag); keeping
/// full-size launch latency against 128x-smaller kernels would make every
/// small-graph iteration launch-bound, which the paper's full-size runs are
/// not. Scaling the fixed overheads restores the full-size time *ratios*.
inline sim::DeviceProps ScaledDevice(double scale) {
  sim::DeviceProps d = sim::DeviceProps::TitanV();
  d.kernel_launch_overhead_s =
      std::max(2e-8, d.kernel_launch_overhead_s * scale / 128.0);
  d.grid_sync_s = std::max(2e-8, d.grid_sync_s * scale / 128.0);
  d.pcie_latency_s = std::max(2e-8, d.pcie_latency_s * scale / 128.0);
  return d;
}

/// The scaled TaoBao transaction stream shared by the Table 4 and Figure 7
/// benches (~1/2000 linear scale of the production stream; see DESIGN.md).
inline pipeline::TransactionConfig TaobaoStreamConfig(double scale,
                                                      uint64_t seed) {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = static_cast<uint32_t>(260000 * scale);
  cfg.num_items = static_cast<uint32_t>(70000 * scale);
  cfg.days = 100;
  cfg.purchases_per_buyer_per_day = 0.10;
  cfg.item_skew = 0.9;
  cfg.num_rings = static_cast<int>(200 * scale);
  cfg.ring_buyers = 12;
  cfg.ring_items = 6;
  cfg.ring_purchases_per_day = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// Shared driver for Figures 4-6: runs each engine over every Table 2
/// dataset (summing over a parameter sweep, e.g. LLP's γ values) and prints
/// per-dataset speedups normalized to the OMP baseline, exactly as the
/// paper's bar charts report.
inline void RunSpeedupFigure(const char* title, lp::VariantKind variant,
                             const std::vector<lp::VariantParams>& sweep,
                             const BenchFlags& flags,
                             const std::vector<lp::EngineKind>& engines) {
  std::printf("=== %s (speedup over OMP; %d iterations x %zu configs; "
              "scale=%.2f) ===\n\n",
              title, flags.iterations, sweep.size(), flags.scale);
  std::vector<std::string> cols = {"Dataset"};
  for (lp::EngineKind e : engines) cols.push_back(lp::EngineKindName(e));
  cols.push_back("GLP-iter");
  PrintHeader(cols, 12);

  for (const auto& spec : graph::Table2Specs()) {
    auto result = graph::MakeDataset(spec.name, flags.scale, flags.seed);
    GLP_CHECK(result.ok()) << result.status().ToString();
    const graph::Graph g = std::move(result).value();

    lp::RunConfig run;
    run.max_iterations = flags.iterations;
    run.seed = flags.seed;

    // Small graphs finish in sub-millisecond wall time where scheduler noise
    // dominates the CPU engines; repeat and keep the best run.
    const int reps = g.num_edges() < 500000 ? 3 : 1;
    const sim::DeviceProps device = ScaledDevice(flags.scale);
    auto timed_run = [&](lp::EngineKind kind, const lp::VariantParams& params,
                         int* iters) {
      double best = 0;
      for (int rep = 0; rep < reps; ++rep) {
        auto r = lp::MakeEngine(kind, variant, params, {}, nullptr, device)
                     ->Run(g, run);
        GLP_CHECK(r.ok()) << r.status().ToString();
        if (rep == 0 || r.value().simulated_seconds < best) {
          best = r.value().simulated_seconds;
        }
        if (iters != nullptr) *iters = r.value().iterations;
      }
      return best;
    };

    // Baseline: OMP summed over the sweep.
    double omp_time = 0;
    for (const auto& params : sweep) {
      omp_time += timed_run(lp::EngineKind::kOmp, params, nullptr);
    }

    std::printf("%-12s", spec.name.c_str());
    double glp_avg_iter = 0;
    for (lp::EngineKind kind : engines) {
      double t = 0;
      int iters = 0;
      for (const auto& params : sweep) {
        int ran = 0;
        t += timed_run(kind, params, &ran);
        iters += ran;
      }
      if (kind == lp::EngineKind::kGlp) glp_avg_iter = t / iters;
      std::printf("%-12s", Speedup(omp_time, t).c_str());
    }
    std::printf("%-12s\n", Duration(glp_avg_iter).c_str());

    // --profile: one extra instrumented GLP run (first sweep config) so the
    // figure can be decomposed into its per-phase costs. The timing columns
    // above are untouched — this run is separate.
    if (flags.profile && !sweep.empty()) {
      prof::PhaseProfiler profiler;
      lp::RunContext prof_ctx;
      prof_ctx.profiler = &profiler;
      auto r = lp::MakeEngine(lp::EngineKind::kGlp, variant, sweep.front(), {},
                              nullptr, device)
                   ->Run(g, run, prof_ctx);
      GLP_CHECK(r.ok()) << r.status().ToString();
      std::printf("\n%s phase breakdown (GLP, first sweep config):\n%s\n",
                  spec.name.c_str(),
                  r.value().phase_breakdown.ToString().c_str());
    }
  }
  std::printf("\n(GLP-iter = GLP simulated time per LP iteration. GPU engine "
              "times are cost-model\n seconds on a simulated Titan V; CPU "
              "engine times are wall-clock. See EXPERIMENTS.md.)\n");
}

}  // namespace glp::bench
