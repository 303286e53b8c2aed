// Frontier-mode ablation: per-iteration simulated time of full GLP vs
// GLP+frontier (the period-2 rule), with the share of vertices and of edges
// each frontier iteration recomputes, whether it pushed marks for the next
// one (the direction switch) and whether it ran on the device at all (the
// iterations after an exit are filled in), on two workloads:
//   - a converging planted partition, where the affected set collapses as
//     communities settle;
//   - an organic-shaped transaction window (buyers x items, so bipartite),
//     where labels oscillate with period 2 and a one-back rule would skip
//     nothing.
// Labels must be identical to the full passes, and the frontier run must
// not be priced above them; the bench aborts otherwise.
// Flags: --scale, --iters, --seed.

#include "bench/bench_common.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "graph/generators.h"
#include "graph/sliding_window.h"
#include "pipeline/transactions.h"

using namespace glp;

namespace {

void Ablate(const char* name, const graph::Graph& g,
            const bench::BenchFlags& flags) {
  std::printf("=== Frontier ablation: %s, %s ===\n\n", name,
              g.ToString().c_str());
  const auto device = bench::ScaledDevice(flags.scale);
  lp::RunConfig run;
  run.max_iterations = flags.iterations;
  run.seed = flags.seed;

  lp::GlpOptions frontier_opts;
  frontier_opts.use_frontier = true;
  lp::GlpEngine<lp::ClassicVariant> full({}, {}, nullptr, device);
  lp::GlpEngine<lp::ClassicVariant> frontier({}, frontier_opts, nullptr,
                                             device);
  auto a = full.Run(g, run);
  auto b = frontier.Run(g, run);
  GLP_CHECK(a.ok());
  GLP_CHECK(b.ok());
  GLP_CHECK(a.value().labels == b.value().labels);

  bench::PrintHeader({"iter", "full", "frontier", "affected", "vfrac", "efrac",
                      "pushed", "ran"},
                     12);
  const auto& vertices = frontier.last_affected_counts();
  const auto& edges = frontier.last_affected_edges();
  const double nv = static_cast<double>(g.num_vertices());
  const double ne = static_cast<double>(g.num_edges());
  double edge_work = 0;
  for (int i = 0; i < a.value().iterations; ++i) {
    edge_work += static_cast<double>(edges[i]);
    std::printf("%-12d%-12s%-12s%-12s%-12.3f%-12.3f%-12s%-12s\n", i,
                bench::Duration(a.value().iteration_seconds[i]).c_str(),
                bench::Duration(b.value().iteration_seconds[i]).c_str(),
                bench::Count(static_cast<double>(vertices[i])).c_str(),
                static_cast<double>(vertices[i]) / nv,
                static_cast<double>(edges[i]) / ne,
                frontier.last_pushed(i) ? "yes" : "no",
                i < frontier.last_iterations_ran() ? "yes" : "no");
  }
  std::printf(
      "\ntotal: full %s vs frontier %s -> %s overall; edge-iterations "
      "recomputed %.3f\n\n",
      bench::Duration(a.value().simulated_seconds).c_str(),
      bench::Duration(b.value().simulated_seconds).c_str(),
      bench::Speedup(a.value().simulated_seconds, b.value().simulated_seconds)
          .c_str(),
      edge_work / (ne * a.value().iterations));
  std::fflush(stdout);  // the table stays readable when the check aborts
  GLP_CHECK(b.value().simulated_seconds <= a.value().simulated_seconds)
      << name << ": the frontier run is priced above full passes";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::BenchFlags::Parse(argc, argv);

  graph::PlantedPartitionParams p;
  p.num_communities = static_cast<int>(120 * flags.scale) + 2;
  p.community_size = 250;
  p.intra_degree = 14;
  p.inter_degree = 0.6;
  p.seed = flags.seed;
  Ablate("planted partition", graph::GeneratePlantedPartition(p), flags);

  // The organic_glp serving workload's window shape: 2000 buyers and 500
  // items per unit scale over a 14-day window.
  pipeline::TransactionConfig tc;
  tc.num_buyers = static_cast<uint32_t>(20000 * flags.scale) + 100;
  tc.num_items = static_cast<uint32_t>(5000 * flags.scale) + 25;
  tc.num_rings = static_cast<int>(140 * flags.scale) + 1;
  tc.days = 28;
  tc.min_ring_active_days = tc.days;
  tc.seed = flags.seed;
  const pipeline::TransactionStream stream = pipeline::GenerateTransactions(tc);
  Ablate("transaction window",
         graph::SlidingWindow(stream.edges).Snapshot(14.0, 28.0).graph, flags);
  return 0;
}
