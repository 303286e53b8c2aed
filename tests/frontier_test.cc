// Tests for GLP's frontier (incremental recomputation) mode.

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/metrics.h"

namespace glp::lp {
namespace {

using graph::Graph;

GlpOptions FrontierOpts() {
  GlpOptions o;
  o.use_frontier = true;
  return o;
}

TEST(FrontierTest, ExactOnClassic) {
  for (const char* name : {"dblp", "ljournal", "aligraph"}) {
    auto g = std::move(graph::MakeDataset(name, 0.03, 7)).ValueOrDie();
    RunConfig run;
    run.max_iterations = 8;
    cpu::SeqEngine<ClassicVariant> seq;
    GlpEngine<ClassicVariant> frontier({}, FrontierOpts());
    EXPECT_EQ(seq.Run(g, run).value().labels,
              frontier.Run(g, run).value().labels)
        << name;
  }
}

TEST(FrontierTest, ExactOnSlp) {
  auto g = std::move(graph::MakeDataset("dblp", 0.03, 9)).ValueOrDie();
  RunConfig run;
  run.max_iterations = 6;
  run.seed = 17;
  cpu::SeqEngine<SlpVariant> seq;
  GlpEngine<SlpVariant> frontier({}, FrontierOpts());
  EXPECT_EQ(seq.Run(g, run).value().labels,
            frontier.Run(g, run).value().labels);
}

TEST(FrontierTest, ExactOnLlpByFallingBackToFullPasses) {
  auto g = std::move(graph::MakeDataset("youtube", 0.05, 3)).ValueOrDie();
  RunConfig run;
  run.max_iterations = 6;
  VariantParams params;
  params.llp_gamma = 2.0;
  cpu::SeqEngine<LlpVariant> seq(params);
  GlpEngine<LlpVariant> frontier(params, FrontierOpts());
  auto r = frontier.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(seq.Run(g, run).value().labels, r.value().labels);
  // Aux-dependent variants must not prune: every pass is full.
  for (uint64_t count : frontier.last_affected_counts()) {
    EXPECT_EQ(count, g.num_vertices());
  }
}

TEST(FrontierTest, AffectedSetShrinksAsLabelsConverge) {
  graph::PlantedPartitionParams p;
  p.num_communities = 12;
  p.community_size = 80;
  p.intra_degree = 10;
  p.inter_degree = 0.3;
  p.seed = 21;
  Graph g = graph::GeneratePlantedPartition(p);
  GlpEngine<ClassicVariant> frontier({}, FrontierOpts());
  RunConfig run;
  run.max_iterations = 12;
  auto r = frontier.Run(g, run);
  ASSERT_TRUE(r.ok());
  const auto& counts = frontier.last_affected_counts();
  ASSERT_EQ(counts.size(), 12u);
  EXPECT_EQ(counts[0], g.num_vertices());  // first pass is full
  // Communities settle: the tail iterations touch a small fraction.
  EXPECT_LT(counts.back(), g.num_vertices() / 4);
}

TEST(FrontierTest, LateIterationsCheaper) {
  graph::PlantedPartitionParams p;
  p.num_communities = 12;
  p.community_size = 80;
  p.intra_degree = 10;
  p.inter_degree = 0.3;
  p.seed = 21;
  Graph g = graph::GeneratePlantedPartition(p);
  // Minimal fixed overheads (launches and grid barriers) so kernel work
  // dominates on this small graph.
  sim::DeviceProps device = sim::DeviceProps::TitanV();
  device.kernel_launch_overhead_s = 2e-8;
  device.grid_sync_s = 2e-8;
  GlpEngine<ClassicVariant> full({}, {}, nullptr, device);
  GlpEngine<ClassicVariant> frontier({}, FrontierOpts(), nullptr, device);
  RunConfig run;
  run.max_iterations = 12;
  auto a = full.Run(g, run);
  auto b = frontier.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  // The last frontier iteration costs a fraction of the full-pass one.
  EXPECT_LT(b.value().iteration_seconds.back(),
            0.5 * a.value().iteration_seconds.back());
}

TEST(FrontierTest, ComposesWithMultiGpu) {
  auto g = std::move(graph::MakeDataset("ljournal", 0.03, 5)).ValueOrDie();
  RunConfig run;
  run.max_iterations = 6;
  GlpOptions opts = FrontierOpts();
  opts.num_gpus = 2;
  cpu::SeqEngine<ClassicVariant> seq;
  GlpEngine<ClassicVariant> frontier({}, opts);
  EXPECT_EQ(seq.Run(g, run).value().labels,
            frontier.Run(g, run).value().labels);
}

TEST(FrontierTest, MultiGpuFrontierMatchesFullPassSingleGpu) {
  // Incremental recomputation composed with vertex partitioning must land on
  // exactly the labels of the unpartitioned full-pass engine.
  auto g = std::move(graph::MakeDataset("dblp", 0.05, 11)).ValueOrDie();
  RunConfig run;
  run.max_iterations = 8;
  GlpOptions opts = FrontierOpts();
  opts.num_gpus = 4;
  GlpEngine<ClassicVariant> frontier({}, opts);
  GlpEngine<ClassicVariant> full;  // single GPU, full passes
  auto a = frontier.Run(g, run);
  auto b = full.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  // Affected-count sanity: the first pass is always full, no pass can touch
  // more than every vertex, and one count is recorded per iteration run.
  const auto& counts = frontier.last_affected_counts();
  ASSERT_EQ(counts.size(),
            static_cast<size_t>(a.value().iterations));
  EXPECT_EQ(counts[0], g.num_vertices());
  for (uint64_t c : counts) EXPECT_LE(c, g.num_vertices());
}

// After an exit the filled iterations recompute no vertex, so the
// convergence metrics record them with frontier 0 and the last-frontier
// gauge reads 0.
TEST(FrontierTest, ConvergenceMetricsShowTheExit) {
  const Graph g = graph::GenerateGrid2d(12, 12);
  obs::MetricRegistry registry;
  RunContext ctx;
  ctx.metrics = &registry;
  GlpEngine<ClassicVariant> frontier({}, FrontierOpts());
  RunConfig run;
  run.max_iterations = 40;
  auto r = frontier.Run(g, run, ctx);
  ASSERT_TRUE(r.ok());
  const int ran = frontier.last_iterations_ran();
  ASSERT_LT(ran, run.max_iterations);
  const obs::Labels labels = {{"engine", frontier.name()}};
  const obs::Histogram* size =
      registry.GetHistogram("glp_lp_frontier_size", "", labels);
  EXPECT_EQ(size->TotalCount(), 40u);
  EXPECT_EQ(size->bucket_count(0), static_cast<uint64_t>(40 - ran));
  EXPECT_EQ(registry.GetGauge("glp_lp_last_frontier_size", "", labels)->Value(),
            0);
  EXPECT_EQ(registry.GetCounter("glp_lp_iterations_total", "", labels)->Value(),
            40u);
  // The cycle changes the same labels on every filled iteration.
  EXPECT_EQ(
      registry.GetGauge("glp_lp_last_changed_labels", "", labels)->Value(),
      frontier.last_changed(ran - 1));
}

TEST(FrontierTest, NameReflectsMode) {
  GlpEngine<ClassicVariant> frontier({}, FrontierOpts());
  EXPECT_EQ(frontier.name(), "GLP+frontier");
}

}  // namespace
}  // namespace glp::lp
