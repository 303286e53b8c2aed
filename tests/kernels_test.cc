// Direct tests of the LabelPropagation kernels against the sequential
// reference, one pass at a time — finer-grained than the engine-level
// integration tests, covering each kernel's dispatch shape in isolation.

#include <gtest/gtest.h>

#include "cpu/mfl.h"
#include "graph/builder.h"
#include "glp/kernels/accounting.h"
#include "glp/kernels/global_ht.h"
#include "glp/kernels/high_degree.h"
#include "glp/kernels/low_degree.h"
#include "glp/kernels/thread_per_vertex.h"
#include "glp/kernels/warp_per_vertex.h"
#include "glp/variants/classic.h"
#include "glp/variants/llp.h"
#include "graph/binning.h"
#include "graph/generators.h"

namespace glp::lp {
namespace {

using graph::Graph;
using graph::Label;
using graph::VertexId;

/// Expected Lnext for one synchronous pass over `vertices`.
template <typename Variant>
std::vector<Label> ReferencePass(const Graph& g, Variant& variant,
                                 const std::vector<VertexId>& vertices) {
  std::vector<Label> expected(g.num_vertices(), graph::kInvalidLabel);
  cpu::LabelCounter counter;
  for (VertexId v : vertices) {
    expected[v] = cpu::ComputeMfl(g, variant, v, &counter);
  }
  return expected;
}

template <typename Variant>
void CheckAgainstReference(const Graph& g,
                           const std::vector<VertexId>& vertices,
                           const std::vector<Label>& next,
                           Variant& variant) {
  const auto expected = ReferencePass(g, variant, vertices);
  for (VertexId v : vertices) {
    ASSERT_EQ(next[v], expected[v]) << "vertex " << v;
  }
}

class KernelSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelSeedTest, WarpPerVertexMatchesReference) {
  Graph g = graph::GenerateRmat({.num_vertices = 256,
                                 .num_edges = 2048,
                                 .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  int64_t maxd = 1;
  for (VertexId v : all) maxd = std::max(maxd, g.degree(v));
  int cap = 8;
  while (cap < 2 * maxd) cap <<= 1;

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunWarpPerVertexSmemKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                             cap, 256);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, LowDegreeWarpKernelMatchesReference) {
  Graph g = graph::GenerateChungLu({.num_vertices = 512,
                                    .num_edges = 2048,
                                    .exponent = 2.4,
                                    .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  const auto bins = graph::ComputeDegreeBins(g);
  const LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunLowDegreeWarpKernel(sim::DeviceProps::TitanV(), nullptr, view, plan, 256);
  // The kernel covers non-isolated low-bin vertices.
  std::vector<VertexId> covered;
  for (VertexId v : bins.low) {
    if (g.degree(v) > 0) covered.push_back(v);
  }
  CheckAgainstReference(g, covered, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, LowDegreeWarpKernelSkipsUnmarkedVertices) {
  Graph g = graph::GenerateChungLu({.num_vertices = 512,
                                    .num_edges = 2048,
                                    .exponent = 2.4,
                                    .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  const Label kUntouched = 1u << 20;
  std::fill(variant.next_labels().begin(), variant.next_labels().end(),
            kUntouched);
  const auto bins = graph::ComputeDegreeBins(g);
  const LowDegreePlan plan = BuildLowDegreePlan(g, bins.low);
  std::vector<uint32_t> marks_in(g.num_vertices(), 0);
  std::vector<uint32_t> counters(3, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    marks_in[v] = (v * 2654435761u >> 7) % 3 == 0 ? 4 : 3;
  }
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  view.counters = counters.data();
  view.stamp = 4;
  view.marks_in = marks_in.data();
  RunLowDegreeWarpKernel(sim::DeviceProps::TitanV(), nullptr, view, plan, 256);
  std::vector<VertexId> covered;
  for (VertexId v : bins.low) {
    if (g.degree(v) == 0) continue;
    if (marks_in[v] == 4) {
      covered.push_back(v);
    } else {
      EXPECT_EQ(variant.next_labels()[v], kUntouched) << "vertex " << v;
    }
  }
  CheckAgainstReference(g, covered, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, ThreadPerVertexMatchesReference) {
  Graph g = graph::GenerateChungLu({.num_vertices = 256,
                                    .num_edges = 1024,
                                    .exponent = 2.4,
                                    .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  const auto bins = graph::ComputeDegreeBins(g);

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunThreadPerVertexKernel(sim::DeviceProps::TitanV(), nullptr, view,
                           bins.low, 256);
  CheckAgainstReference(g, bins.low, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, GlobalHtKernelMatchesReference) {
  Graph g = graph::GenerateRmat({.num_vertices = 256,
                                 .num_edges = 4096,
                                 .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  GlobalHtArena arena;
  arena.Build(g, all);
  arena.Reset();

  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunGlobalHtKernel(sim::DeviceProps::TitanV(), nullptr, view, all, &arena,
                    256);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST_P(KernelSeedTest, HighDegreeBlockKernelMatchesReference) {
  // Dense bipartite: degrees well above the HT capacity, exercising both
  // the CMS spill path and (on ties in iteration one) the fallback.
  Graph g = graph::GenerateBipartite({.num_left = 100,
                                      .num_right = 60,
                                      .num_edges = 30000,
                                      .zipf_skew = 0.7,
                                      .seed = static_cast<uint64_t>(GetParam())});
  ClassicVariant variant;
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;

  GlpOptions opts;
  opts.ht_capacity = 128;  // force spills
  opts.cms_depth = 4;
  opts.cms_width = 512;
  std::atomic<uint64_t> fallbacks{0};
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                           opts, &fallbacks);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST(HighDegreeKernelTest, FallbackTriggersWhenMflSpills) {
  // Adversarial construction: a 200-neighbor vertex whose first 64 distinct
  // labels fill a 32-slot HT and whose dominant label (frequency 136)
  // arrives only afterwards — it must spill to the CMS, whose estimate
  // (>= 136) exceeds every HT score (1), forcing the exact global fallback,
  // which must still return the dominant label.
  graph::GraphBuilder b(201);
  for (VertexId s = 1; s <= 200; ++s) b.AddEdgeUnchecked(s, 0);
  Graph g = b.Build(/*symmetrize=*/false, /*dedupe=*/false);
  RunConfig cfg;
  cfg.initial_labels.resize(201);
  for (VertexId v = 0; v <= 200; ++v) {
    cfg.initial_labels[v] = v <= 64 ? v : 999;
  }
  ClassicVariant variant;
  variant.Init(g, cfg);

  GlpOptions opts;
  opts.ht_capacity = 32;
  opts.cms_depth = 4;
  opts.cms_width = 256;
  std::atomic<uint64_t> fallbacks{0};
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, {0},
                           opts, &fallbacks);
  EXPECT_EQ(fallbacks.load(), 1u);
  EXPECT_EQ(variant.next_labels()[0], 999u);
}

TEST_P(KernelSeedTest, HighDegreeKernelWithLlpAux) {
  Graph g = graph::GenerateBipartite({.num_left = 80,
                                      .num_right = 40,
                                      .num_edges = 20000,
                                      .zipf_skew = 0.6,
                                      .seed = static_cast<uint64_t>(GetParam())});
  VariantParams params;
  params.llp_gamma = 2.0;
  LlpVariant variant(params);
  RunConfig cfg;
  variant.Init(g, cfg);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;

  GlpOptions opts;
  opts.ht_capacity = 128;
  auto view = DeviceView<LlpVariant>::Of(g, variant);
  RunHighDegreeBlockKernel(sim::DeviceProps::TitanV(), nullptr, view, all,
                           opts, nullptr);
  CheckAgainstReference(g, all, variant.next_labels(), variant);
}

TEST(WarpPerVertexKernelTest, BatchedCommitMixesMarkedAndUnmarked) {
  // 64 vertices of degree 40 (a circulant graph), eight to a block: every
  // block holds marked and unmarked vertices. The block's one commit warp
  // stores the reference label for the marked ones only, and their warps
  // push marks to every neighbour from the ids they hold.
  const VertexId n = 64;
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId k = 1; k <= 20; ++k) edges.push_back({v, (v + k) % n});
  }
  const Graph g = graph::BuildGraph(n, edges);
  RunConfig cfg;
  cfg.initial_labels.resize(n);
  for (VertexId v = 0; v < n; ++v) cfg.initial_labels[v] = (v * 7) % 5;
  ClassicVariant variant;
  variant.Init(g, cfg);
  const Label kUntouched = 1000;
  std::fill(variant.next_labels().begin(), variant.next_labels().end(),
            kUntouched);
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;

  std::vector<uint32_t> marks_in(n, 0);
  std::vector<uint32_t> marks_out(n, 0);
  std::vector<uint32_t> counters(3, 0);
  auto marked = [](VertexId v) { return v % 3 != 1; };
  for (VertexId v = 0; v < n; ++v) marks_in[v] = marked(v) ? 2 : 0;
  auto view = DeviceView<ClassicVariant>::Of(g, variant);
  view.counters = counters.data();
  view.changed_slot = 0;
  view.pushed_slot = 2;
  view.stamp = 2;
  view.marks_in = marks_in.data();
  view.marks_out = marks_out.data();
  const sim::KernelStats s = RunWarpPerVertexSmemKernel(
      sim::DeviceProps::TitanV(), nullptr, view, all, 128, 256);

  const auto expected = ReferencePass(g, variant, all);
  std::vector<uint32_t> want_marks(n, 0);
  uint32_t pushed = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!marked(v)) {
      EXPECT_EQ(variant.next_labels()[v], kUntouched) << "vertex " << v;
      continue;
    }
    EXPECT_EQ(variant.next_labels()[v], expected[v]) << "vertex " << v;
    // Every marked vertex differs from the Lnext it overwrites: it pushes.
    pushed += static_cast<uint32_t>(g.degree(v));
    for (VertexId u : g.neighbors(v)) want_marks[u] = 3;
  }
  EXPECT_EQ(marks_out, want_marks);
  EXPECT_EQ(counters[2], pushed);
  // Per block: the barrier after staging, the one after the winners, and
  // the one that hands the pusher mask to the warps.
  EXPECT_EQ(s.block_syncs, 3u * (n / 8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSeedTest, ::testing::Range(1, 6));

TEST(KernelAccountingTest, MapKernelStatsShape) {
  const auto s = MapKernelStats(1024, 4096, 4096);
  EXPECT_EQ(s.kernel_launches, 1u);
  EXPECT_EQ(s.global_transactions, 2u * 128);
  EXPECT_EQ(s.global_bytes_requested, 8192u);
  EXPECT_EQ(s.instructions, 2u * 32);
  EXPECT_DOUBLE_EQ(s.LaneUtilization(), 1.0);
}

TEST(KernelAccountingTest, HistogramChargesAtomics) {
  const auto s = HistogramKernelStats(1000);
  EXPECT_EQ(s.global_atomics, 1000u);
  EXPECT_GT(s.global_transactions, 1000u);
}

TEST(KernelAccountingTest, AccumulatorConcurrentVsSequential) {
  sim::CostModel cost(sim::DeviceProps::TitanV());
  GpuRunAccumulator a(&cost), b(&cost);
  sim::KernelStats s = MapKernelStats(1 << 20, 1 << 22, 1 << 22);
  // Sequential: times add. Concurrent: caller takes the max.
  a.AddLaunch(s);
  a.AddLaunch(s);
  const double t1 = b.AddLaunchConcurrent(s);
  const double t2 = b.AddLaunchConcurrent(s);
  b.AddSeconds(std::max(t1, t2));
  EXPECT_NEAR(a.seconds(), 2 * b.seconds(), 1e-12);
  EXPECT_EQ(a.total().global_transactions, b.total().global_transactions);
}

TEST(ThreadPerVertexTest, QuadraticCostVisibleInStats) {
  // Same total edges, different degree: higher degree -> superlinear local
  // traffic for thread-per-vertex.
  ClassicVariant variant;
  RunConfig cfg;

  auto run_with_degree = [&](int degree) {
    graph::GraphBuilder b(64 + degree);
    for (VertexId v = 0; v < 64; ++v) {
      for (int i = 0; i < degree; ++i) {
        b.AddEdgeUnchecked(64 + ((v + i) % degree), v);
      }
    }
    Graph g = b.Build(/*symmetrize=*/false, /*dedupe=*/false);
    variant.Init(g, cfg);
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < 64; ++v) targets.push_back(v);
    auto view = DeviceView<ClassicVariant>::Of(g, variant);
    return RunThreadPerVertexKernel(sim::DeviceProps::TitanV(), nullptr, view,
                                    targets, 256);
  };

  const auto s8 = run_with_degree(8);
  const auto s24 = run_with_degree(24);
  // 3x the degree -> superlinear transactions and clearly quadratic
  // requested bytes (the O(d^2) local-memory rescans dominate).
  EXPECT_GT(s24.global_transactions, 3 * s8.global_transactions);
  EXPECT_GT(s24.global_bytes_requested, 5 * s8.global_bytes_requested);
}

}  // namespace
}  // namespace glp::lp
