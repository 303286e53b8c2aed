// Unit tests for the GPU baseline engines (G-Sort, G-Hash) and the shared
// kernel helpers in glp/kernels/common.h.

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/kernels/common.h"
#include "glp/variants/classic.h"
#include "glp/variants/llp.h"
#include "gpu_baselines/ghash_engine.h"
#include "gpu_baselines/gsort_engine.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace glp::lp {
namespace {

using graph::BuildGraph;
using graph::Graph;
using graph::Label;

TEST(CandidateTest, OrderingAndTieBreak) {
  Candidate a{5.0, 10};
  EXPECT_TRUE(a.BeatenBy({6.0, 99}));       // higher score wins
  EXPECT_TRUE(a.BeatenBy({5.0, 3}));        // tie -> smaller label wins
  EXPECT_FALSE(a.BeatenBy({5.0, 11}));      // tie, larger label loses
  EXPECT_FALSE(a.BeatenBy({4.0, 0}));       // lower score loses
  a.Merge({5.0, 3});
  EXPECT_EQ(a.label, 3u);
}

TEST(SharedHtInsertTest, LockstepInsertCountsCorrectly) {
  sim::KernelStats stats;
  sim::SharedMemory smem(16384);
  auto keys = smem.Alloc<Label>(64);
  auto counts = smem.Alloc<float>(64);
  for (size_t i = 0; i < keys.size; ++i) keys[i] = graph::kInvalidLabel;
  sim::Warp w(0, sim::kFullMask, &stats);

  // 32 lanes insert labels 0..7 repeated (each label 4 times).
  sim::LaneArray<Label> lbl;
  sim::LaneArray<float> wgt(1.0f);
  for (int i = 0; i < sim::kWarpSize; ++i) lbl[i] = i % 8;
  sim::LaneArray<float> post;
  const sim::LaneMask ok =
      SharedHtInsert(w, keys, counts, 64, 64, lbl, wgt, &post);
  EXPECT_EQ(ok, sim::kFullMask);

  // The last lane of each label saw the full count 4.
  sim::LaneArray<float> lookup_count;
  const sim::LaneMask found =
      SharedHtLookup(w, keys, counts, 64, 64, lbl, &lookup_count);
  EXPECT_EQ(found, sim::kFullMask);
  for (int i = 0; i < sim::kWarpSize; ++i) {
    EXPECT_EQ(lookup_count[i], 4.0f) << "lane " << i;
  }
}

TEST(SharedHtInsertTest, BoundedProbesReportFailure) {
  sim::KernelStats stats;
  sim::SharedMemory smem(16384);
  auto keys = smem.Alloc<Label>(4);
  auto counts = smem.Alloc<float>(4);
  for (size_t i = 0; i < keys.size; ++i) keys[i] = graph::kInvalidLabel;
  sim::Warp w(0, sim::kFullMask, &stats);
  sim::LaneArray<Label> lbl;
  for (int i = 0; i < sim::kWarpSize; ++i) lbl[i] = i;  // 32 distinct labels
  sim::LaneArray<float> wgt(1.0f);
  sim::LaneArray<float> post;
  const sim::LaneMask ok = SharedHtInsert(w, keys, counts, 4, 4, lbl, wgt,
                                          &post);
  EXPECT_EQ(sim::Popc(ok), 4);  // table holds exactly 4 labels
}

TEST(GlobalHtInsertTest, ExactCountsUnderContention) {
  sim::KernelStats stats;
  sim::Warp w(0, sim::kFullMask, &stats);
  std::vector<Label> keys(64, graph::kInvalidLabel);
  std::vector<float> counts(64, 0.0f);
  sim::LaneArray<Label> lbl;
  for (int i = 0; i < sim::kWarpSize; ++i) lbl[i] = i % 2;  // heavy conflict
  sim::LaneArray<float> wgt(1.0f);
  sim::LaneArray<float> post;
  GlobalHtInsert(w, keys.data(), counts.data(), /*region=*/0, 64, lbl, wgt,
                 &post);
  float max_post_0 = 0, max_post_1 = 0;
  for (int i = 0; i < sim::kWarpSize; ++i) {
    if (lbl[i] == 0) max_post_0 = std::max(max_post_0, post[i]);
    if (lbl[i] == 1) max_post_1 = std::max(max_post_1, post[i]);
  }
  EXPECT_EQ(max_post_0, 16.0f);
  EXPECT_EQ(max_post_1, 16.0f);
  EXPECT_GT(stats.global_atomics, 0u);
}

TEST(GSortEngineTest, MatchesSeqAndReportsDeviceCosts) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 256, .num_edges = 2048, .seed = 21});
  RunConfig run;
  run.max_iterations = 5;
  cpu::SeqEngine<ClassicVariant> seq;
  GSortEngine<ClassicVariant> gsort;
  auto a = seq.Run(g, run);
  auto b = gsort.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
  EXPECT_GT(b.value().simulated_seconds, 0.0);
  EXPECT_GT(b.value().stats.global_transactions, 0u);
  EXPECT_EQ(b.value().iteration_seconds.size(), 5u);
}

TEST(GSortEngineTest, DeviceBytesIncludeNlArrays) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 256, .num_edges = 2048, .seed = 21});
  RunConfig run;
  run.max_iterations = 1;
  GSortEngine<ClassicVariant> gsort;
  auto r = gsort.Run(g, run);
  ASSERT_TRUE(r.ok());
  // NL + double buffer = 8 bytes per CSR entry on top of the graph.
  EXPECT_GE(r.value().device_bytes,
            g.bytes() + 8 * static_cast<uint64_t>(g.num_edges()));
}

TEST(GHashEngineTest, MatchesSeqOnSkewedGraph) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 512, .num_edges = 8192, .a = 0.65, .b = 0.15,
       .c = 0.15, .d = 0.05, .seed = 8});
  RunConfig run;
  run.max_iterations = 4;
  cpu::SeqEngine<ClassicVariant> seq;
  GHashEngine<ClassicVariant> ghash;
  auto a = seq.Run(g, run);
  auto b = ghash.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels, b.value().labels);
}

TEST(GHashEngineTest, LlpAuxGathersChargeTraffic) {
  Graph g = graph::GenerateRmat(
      {.num_vertices = 256, .num_edges = 2048, .seed = 5});
  RunConfig run;
  run.max_iterations = 2;
  VariantParams params;
  params.llp_gamma = 1.0;
  GHashEngine<ClassicVariant> classic;
  GHashEngine<LlpVariant> llp(params);
  auto a = classic.Run(g, run);
  auto b = llp.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // LLP gathers the volume array per candidate label: strictly more traffic.
  EXPECT_GT(b.value().stats.global_transactions,
            a.value().stats.global_transactions);
}

TEST(GpuEngineTest, LaneUtilizationTrackedOnTinyDegrees) {
  // Grid graph: all degree <= 4; one-warp-per-vertex engines waste lanes.
  Graph g = graph::GenerateGrid2d(30, 30);
  RunConfig run;
  run.max_iterations = 2;
  GHashEngine<ClassicVariant> ghash;
  auto r = ghash.Run(g, run);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().stats.LaneUtilization(), 0.6);
}

TEST(GpuEngineTest, EmptyAndIsolatedVerticesHandled) {
  Graph g = BuildGraph(5, {{0, 1}});  // vertices 2..4 isolated
  RunConfig run;
  run.max_iterations = 2;
  GSortEngine<ClassicVariant> gsort;
  GHashEngine<ClassicVariant> ghash;
  auto a = gsort.Run(g, run);
  auto b = ghash.Run(g, run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().labels[4], 4u);
  EXPECT_EQ(b.value().labels[4], 4u);
}

}  // namespace
}  // namespace glp::lp
