// Unit tests for the GLP engine and its kernels: the low-degree packing
// plan, the warp-centric kernel, the CMS+HT high-degree kernel (including
// the Theorem-1 fallback path), mode dispatch, and cost accounting.

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/glp_engine.h"
#include "glp/kernels/low_degree.h"
#include "glp/variants/classic.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace glp::lp {
namespace {

using graph::BuildGraph;
using graph::Edge;
using graph::Graph;
using graph::VertexId;

/// Checks the plan's invariants on `g` for `low`: every round is a run of
/// consecutive non-isolated low-bin ids whose degrees fit a warp; the
/// kernel's lane search over a round's offsets (lane l takes the last vertex
/// whose list starts at or before l) covers every low-bin edge exactly once.
void CheckPlan(const Graph& g, const std::vector<VertexId>& low,
               const LowDegreePlan& plan) {
  std::vector<char> in_low(g.num_vertices(), 0);
  for (VertexId v : low) in_low[v] = 1;
  std::vector<int> edge_seen(g.num_edges(), 0);
  std::vector<int> vertex_rounds(g.num_vertices(), 0);
  for (const LowDegreeRound& r : plan.rounds) {
    ASSERT_LT(r.begin, r.end);
    ASSERT_LE(r.end - r.begin, static_cast<VertexId>(sim::kWarpSize));
    for (VertexId v = r.begin; v < r.end; ++v) {
      ASSERT_TRUE(in_low[v]) << "vertex " << v << " is not in the low bin";
      ASSERT_GT(g.degree(v), 0) << "isolated vertex " << v << " in a round";
      ++vertex_rounds[v];
    }
    const graph::EdgeId base = g.offset(r.begin);
    const int64_t edges = g.offset(r.end - 1) + g.degree(r.end - 1) - base;
    ASSERT_LE(edges, sim::kWarpSize);
    for (int lane = 0; lane < edges; ++lane) {
      VertexId v = r.begin;
      while (v + 1 < r.end && g.offset(v + 1) - base <= lane) ++v;
      ASSERT_LT(lane, g.offset(v) - base + g.degree(v));
      edge_seen[base + lane]++;
    }
  }
  int64_t expected = 0;
  for (VertexId v : low) {
    expected += g.degree(v);
    EXPECT_EQ(vertex_rounds[v], g.degree(v) > 0 ? 1 : 0) << "vertex " << v;
  }
  int64_t covered = 0;
  for (int c : edge_seen) {
    EXPECT_LE(c, 1);
    covered += c;
  }
  EXPECT_EQ(covered, expected);
  EXPECT_EQ(plan.device_bytes(), plan.rounds.size() * sizeof(LowDegreeRound));
}

TEST(LowDegreePlanTest, PacksMultipleVerticesPerRound) {
  // 8 consecutive vertices of degree 8 -> 64 slots -> 2 full rounds.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 16; ++v) {
    for (VertexId k = 0; k < 4; ++k) {
      edges.push_back({v, static_cast<VertexId>(16 + (v * 4 + k) % 8)});
    }
  }
  Graph g = BuildGraph(24, edges, /*symmetrize=*/false, /*dedupe=*/false);
  std::vector<VertexId> low;
  for (VertexId v = 16; v < 24; ++v) low.push_back(v);  // in-degree 8 each
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  ASSERT_EQ(plan.rounds.size(), 2u);
  EXPECT_EQ(plan.rounds[0].begin, 16u);
  EXPECT_EQ(plan.rounds[0].end, 20u);
  EXPECT_EQ(plan.rounds[1].begin, 20u);
  EXPECT_EQ(plan.rounds[1].end, 24u);
  EXPECT_DOUBLE_EQ(plan.occupancy, 1.0);
  EXPECT_TRUE(plan.isolated.empty());
  CheckPlan(g, low, plan);
}

TEST(LowDegreePlanTest, VerticesNeverStraddleRounds) {
  // Each non-isolated low vertex lies in exactly one round, a run of
  // consecutive low-bin ids (CheckPlan).
  Graph g = graph::GenerateChungLu(
      {.num_vertices = 512, .num_edges = 2048, .exponent = 2.1, .seed = 6});
  graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  ASSERT_FALSE(bins.mid.empty());  // the low bin has id gaps
  CheckPlan(g, bins.low, BuildLowDegreePlan(g, bins.low));
}

TEST(LowDegreePlanTest, IdGapsCloseRounds) {
  // Low vertices 0, 1, 3, 4 (2 is left out of the bin): two rounds, though
  // all four lists fit one warp.
  Graph g = BuildGraph(6, {{0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}});
  const std::vector<VertexId> low = {4, 0, 3, 1};
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  ASSERT_EQ(plan.rounds.size(), 2u);
  EXPECT_EQ(plan.rounds[0].begin, 0u);
  EXPECT_EQ(plan.rounds[0].end, 2u);
  EXPECT_EQ(plan.rounds[1].begin, 3u);
  EXPECT_EQ(plan.rounds[1].end, 5u);
  CheckPlan(g, low, plan);
}

TEST(LowDegreePlanTest, IsolatedVerticesSeparated) {
  Graph g = BuildGraph(5, {{0, 1}, {3, 4}});  // 2 isolated, between rounds
  const std::vector<VertexId> low = {0, 1, 2, 3, 4};
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  EXPECT_EQ(plan.isolated, std::vector<VertexId>{2});
  ASSERT_EQ(plan.rounds.size(), 2u);
  EXPECT_EQ(plan.rounds[0].end, 2u);
  EXPECT_EQ(plan.rounds[1].begin, 3u);
  CheckPlan(g, low, plan);
}

TEST(LowDegreePlanTest, PlanCoversEveryEdgeExactlyOnce) {
  Graph g = graph::GenerateGrid2d(12, 12);
  graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  CheckPlan(g, bins.low, BuildLowDegreePlan(g, bins.low));
}

TEST(LowDegreePlanTest, ThirtyOneVertexRoundMatchesReference) {
  // 30 vertices of degree 1 and one of degree 2 fill the 32 lanes with 31
  // vertices, whose 32 offsets fill the lanes too.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 30; ++v) edges.push_back({v, 40 + v});
  edges.push_back({30, 31});
  edges.push_back({30, 32});
  Graph g = BuildGraph(70, edges);
  std::vector<VertexId> low;
  for (VertexId v = 0; v < 70; ++v) low.push_back(v);
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  ASSERT_FALSE(plan.rounds.empty());
  EXPECT_EQ(plan.rounds[0].begin, 0u);
  EXPECT_EQ(plan.rounds[0].end, 31u);
  CheckPlan(g, low, plan);

  ClassicVariant variant;
  variant.Init(g, RunConfig{});
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunLowDegreeWarpKernel(sim::DeviceProps::TitanV(), nullptr, view, plan,
                         256);
  for (VertexId v = 0; v < 30; ++v) {
    EXPECT_EQ(variant.next_labels()[v], 40 + v) << "vertex " << v;
  }
  EXPECT_EQ(variant.next_labels()[30], 31u);
}

TEST(LowDegreePlanTest, ThirtyTwoVertexRoundMatchesReference) {
  // A perfect matching: 64 degree-1 vertices pack into two rounds of 32
  // vertices, each with 33 offsets, of which the lanes read 32.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 64; v += 2) edges.push_back({v, v + 1});
  Graph g = BuildGraph(64, edges);
  std::vector<VertexId> low(64);
  for (VertexId v = 0; v < 64; ++v) low[v] = v;
  LowDegreePlan plan = BuildLowDegreePlan(g, low);
  ASSERT_EQ(plan.rounds.size(), 2u);
  EXPECT_EQ(plan.rounds[0].end - plan.rounds[0].begin, 32u);
  EXPECT_EQ(plan.rounds[1].end - plan.rounds[1].begin, 32u);
  CheckPlan(g, low, plan);

  ClassicVariant variant;
  variant.Init(g, RunConfig{});
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunLowDegreeWarpKernel(sim::DeviceProps::TitanV(), nullptr, view, plan,
                         256);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(variant.next_labels()[v], v ^ 1u) << "vertex " << v;
  }
}

TEST(GlpEngineTest, MatchesSeqOnAllVariants) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 512, .num_edges = 4096, .seed = 13});
  RunConfig run;
  run.max_iterations = 5;
  run.seed = 7;

  {
    cpu::SeqEngine<ClassicVariant> seq;
    GlpEngine<ClassicVariant> glp;
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
  {
    VariantParams p;
    p.llp_gamma = 4.0;
    cpu::SeqEngine<LlpVariant> seq(p);
    GlpEngine<LlpVariant> glp(p);
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
  {
    cpu::SeqEngine<SlpVariant> seq;
    GlpEngine<SlpVariant> glp;
    EXPECT_EQ(seq.Run(g, run).value().labels, glp.Run(g, run).value().labels);
  }
}

TEST(GlpEngineTest, HighDegreeStarCorrect) {
  // Star with 1000 leaves: center is a high-degree vertex; after one
  // iteration the center takes the smallest leaf label and every leaf takes
  // the center's.
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 1000; ++i) edges.push_back({0, i});
  Graph g = BuildGraph(1001, edges);
  RunConfig run;
  run.max_iterations = 1;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().labels[0], 1u);
  for (VertexId i = 1; i <= 1000; ++i) EXPECT_EQ(r.value().labels[i], 0u);
}

TEST(GlpEngineTest, FallbackRareAfterConvergence) {
  // A dense community graph whose degrees exceed the shared HT capacity:
  // iteration 1 spills (all labels distinct), but labels consolidate and
  // the CMS+HT path stops falling back to global memory.
  graph::PlantedPartitionParams p;
  p.num_communities = 3;
  p.community_size = 700;
  p.intra_degree = 400;
  p.inter_degree = 2;
  p.seed = 17;
  Graph g = graph::GeneratePlantedPartition(p);
  GlpOptions opts;
  opts.ht_capacity = 256;  // force early-iteration spills
  GlpEngine<ClassicVariant> glp({}, opts);
  RunConfig run;
  run.max_iterations = 8;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  const graph::DegreeBins bins = graph::ComputeDegreeBins(g);
  ASSERT_GT(bins.high.size(), 0u);
  const uint64_t high_slots = bins.high.size() * run.max_iterations;
  // Iteration 1 may fall back on most high-degree vertices; amortized over
  // the run the rate stays a small fraction.
  EXPECT_LT(glp.last_fallback_count(), high_slots / 3)
      << "fallbacks: " << glp.last_fallback_count() << " of " << high_slots;
  // The kernel did exercise the CMS+HT structures correctly vs Seq.
  cpu::SeqEngine<ClassicVariant> seq;
  EXPECT_EQ(seq.Run(g, run).value().labels, r.value().labels);
}

TEST(GlpEngineTest, SmemBeatsGlobalOnHighDegreeGraph) {
  auto g = graph::GenerateBipartite(
      {.num_left = 500, .num_right = 300, .num_edges = 200000,
       .zipf_skew = 0.7, .seed = 2});
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions global_opts, smem_opts;
  global_opts.mode = GlpOptions::Mode::kGlobal;
  smem_opts.mode = GlpOptions::Mode::kSmem;
  GlpEngine<ClassicVariant> glob({}, global_opts);
  GlpEngine<ClassicVariant> smem({}, smem_opts);
  auto a = glob.Run(g, run);
  auto b = smem.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  EXPECT_LT(b.value().simulated_seconds, a.value().simulated_seconds);
  // The point of the optimization: far fewer global transactions.
  EXPECT_LT(b.value().stats.global_transactions,
            a.value().stats.global_transactions);
}

TEST(GlpEngineTest, WarpPackingBeatsWarpPerVertexOnRoadNet) {
  Graph g = graph::GenerateGrid2d(120, 120);
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions smem_opts, full_opts;
  smem_opts.mode = GlpOptions::Mode::kSmem;
  full_opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<ClassicVariant> smem({}, smem_opts);
  GlpEngine<ClassicVariant> full({}, full_opts);
  auto a = smem.Run(g, run);
  auto b = full.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  EXPECT_LT(b.value().simulated_seconds, a.value().simulated_seconds);
  // Packing raises lane utilization.
  EXPECT_GT(b.value().stats.LaneUtilization(),
            a.value().stats.LaneUtilization());
  EXPECT_GT(full.last_plan_occupancy(), 0.8);
}

TEST(GlpEngineTest, DeviceBytesStayNearGraphSize) {
  // GLP's memory overhead is O(V) (plan + bins), not O(E) like G-Sort/G-Hash.
  Graph g = graph::GenerateRmat(
      {.num_vertices = 1024, .num_edges = 16384, .seed = 4});
  RunConfig run;
  run.max_iterations = 1;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  const uint64_t labels_bytes = 2ull * g.num_vertices() * 4;
  // Plan is ~12B per low-bin edge; bound generously by 2x graph size.
  EXPECT_LT(r.value().device_bytes, 2 * g.bytes() + labels_bytes + (1 << 20));
}

TEST(GlpEngineTest, StopWhenStableEndsEarly) {
  // Two cliques converge fast.
  std::vector<Edge> edges;
  for (VertexId base : {0u, 6u}) {
    for (VertexId i = 0; i < 6; ++i) {
      for (VertexId j = i + 1; j < 6; ++j) edges.push_back({base + i, base + j});
    }
  }
  Graph g = BuildGraph(12, edges);
  GlpEngine<ClassicVariant> glp;
  RunConfig run;
  run.max_iterations = 30;
  run.stop_when_stable = true;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().iterations, 10);
}

TEST(GlpEngineTest, NameReflectsMode) {
  GlpOptions o;
  o.mode = GlpOptions::Mode::kGlobal;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP-global");
  o.mode = GlpOptions::Mode::kSmem;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP-smem");
  o.mode = GlpOptions::Mode::kSmemWarp;
  EXPECT_EQ((GlpEngine<ClassicVariant>({}, o).name()), "GLP");
}

TEST(GlpEngineTest, IsolatedVerticesKeepLabelsUnderWarpPack) {
  // Regression: the warp-pack low-bin path used to commit kInvalidLabel for
  // degree-0 vertices (they have no plan slots), clobbering their labels.
  // They must carry their current label through every iteration instead.
  Graph g = BuildGraph(8, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});  // 4..7 isolated
  RunConfig run;
  run.max_iterations = 5;
  GlpOptions opts;
  opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<ClassicVariant> glp({}, opts);
  cpu::SeqEngine<ClassicVariant> seq;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  for (graph::Label l : r.value().labels) {
    EXPECT_NE(l, graph::kInvalidLabel);
  }
  const auto seq_labels = seq.Run(g, run).value().labels;
  EXPECT_EQ(r.value().labels, seq_labels);
  // Isolated vertices never hear a neighbor: their label is their seed.
  for (VertexId v = 4; v < 8; ++v) {
    EXPECT_EQ(r.value().labels[v], seq_labels[v]) << v;
  }
}

TEST(GlpEngineTest, IsolatedVerticesKeepLabelsUnderWarpPackSlp) {
  // SLP's EndIteration does not remap kInvalidLabel, so the same regression
  // is observable directly through the variant that skips the safety net.
  Graph g = BuildGraph(8, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  RunConfig run;
  run.max_iterations = 5;
  run.seed = 99;
  GlpOptions opts;
  opts.mode = GlpOptions::Mode::kSmemWarp;
  GlpEngine<SlpVariant> glp({}, opts);
  cpu::SeqEngine<SlpVariant> seq;
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  for (graph::Label l : r.value().labels) {
    EXPECT_NE(l, graph::kInvalidLabel);
  }
  EXPECT_EQ(r.value().labels, seq.Run(g, run).value().labels);
}

TEST(GlpEngineTest, CustomDeviceCapacityTriggersHybrid) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 1024, .num_edges = 8192, .seed = 3});
  RunConfig run;
  run.max_iterations = 2;
  // Capacity below the graph size -> hybrid engaged automatically.
  auto device = sim::DeviceProps::TitanVWithCapacity(g.bytes() / 2);
  GlpEngine<ClassicVariant> glp({}, {}, nullptr, device);
  auto r = glp.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().transfer_seconds, 0.0);
}

}  // namespace
}  // namespace glp::lp
