// Randomized cross-engine differential tests ("fuzzing" in the deterministic,
// seeded sense): random graphs from every generator family x every variant,
// all engines must agree with the sequential reference bit-for-bit.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "glp/factory.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sliding_window.h"
#include "util/rng.h"

namespace glp::lp {
namespace {

using graph::Graph;
using graph::VertexId;

/// A random graph from a randomly chosen family.
Graph RandomGraph(glp::Rng* rng) {
  switch (rng->Bounded(5)) {
    case 0:
      return graph::GenerateRmat(
          {.num_vertices = static_cast<VertexId>(64 + rng->Bounded(1024)),
           .num_edges = static_cast<graph::EdgeId>(128 + rng->Bounded(8192)),
           .seed = rng->Next()});
    case 1:
      return graph::GenerateGrid2d(2 + static_cast<int>(rng->Bounded(30)),
                                   2 + static_cast<int>(rng->Bounded(30)));
    case 2: {
      graph::PlantedPartitionParams p;
      p.num_communities = 2 + static_cast<int>(rng->Bounded(8));
      p.community_size = 8 + static_cast<int>(rng->Bounded(64));
      p.intra_degree = 2 + rng->NextDouble() * 10;
      p.inter_degree = rng->NextDouble() * 2;
      p.seed = rng->Next();
      return graph::GeneratePlantedPartition(p);
    }
    case 3:
      return graph::GenerateChungLu(
          {.num_vertices = static_cast<VertexId>(64 + rng->Bounded(1024)),
           .num_edges = static_cast<graph::EdgeId>(128 + rng->Bounded(4096)),
           .exponent = 2.05 + rng->NextDouble(),
           .seed = rng->Next()});
    default:
      return graph::GenerateBipartite(
          {.num_left = static_cast<VertexId>(16 + rng->Bounded(128)),
           .num_right = static_cast<VertexId>(8 + rng->Bounded(64)),
           .num_edges = static_cast<graph::EdgeId>(256 + rng->Bounded(8192)),
           .zipf_skew = rng->NextDouble(),
           .seed = rng->Next()});
  }
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, AllEnginesAgreeOnRandomWorkloads) {
  glp::Rng rng(0xf022 + GetParam());
  const Graph g = RandomGraph(&rng);
  const VariantKind variant = static_cast<VariantKind>(rng.Bounded(3));

  VariantParams params;
  params.llp_gamma = std::pow(2.0, static_cast<double>(rng.Bounded(10)));
  params.slp_max_labels = 3 + static_cast<int>(rng.Bounded(5));

  RunConfig run;
  run.max_iterations = 1 + static_cast<int>(rng.Bounded(6));
  run.seed = rng.Next();
  if (rng.NextBool(0.3) && g.num_vertices() > 0) {
    run.initial_labels.resize(g.num_vertices());
    const VertexId groups = 1 + static_cast<VertexId>(rng.Bounded(16));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      run.initial_labels[v] = v % groups;
    }
  }

  auto reference = MakeEngine(EngineKind::kSeq, variant, params)->Run(g, run);
  ASSERT_TRUE(reference.ok());

  // Random GLP configuration (modes, structures, GPUs) — all must be exact.
  GlpOptions opts;
  opts.mode = static_cast<GlpOptions::Mode>(rng.Bounded(3));
  opts.ht_capacity = 64 << rng.Bounded(5);
  opts.cms_depth = 1 + static_cast<int>(rng.Bounded(6));
  opts.cms_width = 128 << rng.Bounded(5);
  opts.num_gpus = 1 + static_cast<int>(rng.Bounded(4));
  opts.force_hybrid = rng.NextBool(0.25);
  opts.threads_per_block = 64 << rng.Bounded(3);

  for (EngineKind kind : {EngineKind::kOmp, EngineKind::kLigra,
                          EngineKind::kTg, EngineKind::kGSort,
                          EngineKind::kGHash, EngineKind::kGlp}) {
    auto r = MakeEngine(kind, variant, params, opts)->Run(g, run);
    ASSERT_TRUE(r.ok()) << EngineKindName(kind);
    ASSERT_EQ(r.value().labels, reference.value().labels)
        << EngineKindName(kind) << " on " << g.ToString() << " variant "
        << static_cast<int>(variant) << " iters " << run.max_iterations
        << " mode " << static_cast<int>(opts.mode) << " ht "
        << opts.ht_capacity << " gpus " << opts.num_gpus;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 24));

/// Streaming-window differential test: a window built by incremental
/// Append (random batch sizes, occasionally shuffled out of order) plus
/// cursor advancement must produce snapshots identical — same local-id
/// assignment, same CSR — to a from-scratch SlidingWindow over the whole
/// stream. This is what makes the serving layer's one-shot equivalence
/// guarantee sound.
class WindowFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowFuzzTest, IncrementalCursorMatchesFromScratchSnapshots) {
  glp::Rng rng(0x51d0 + GetParam());
  const VertexId entities = 16 + static_cast<VertexId>(rng.Bounded(200));
  const int num_edges = 64 + static_cast<int>(rng.Bounded(2000));
  const double horizon = 5.0 + rng.NextDouble() * 20.0;

  std::vector<graph::TimedEdge> edges;
  edges.reserve(num_edges);
  for (int i = 0; i < num_edges; ++i) {
    edges.push_back({static_cast<VertexId>(rng.Bounded(entities)),
                     static_cast<VertexId>(rng.Bounded(entities)),
                     rng.NextDouble() * horizon});
  }

  const graph::SlidingWindow full(edges);

  // Incremental stream: mostly time-ordered batches, sometimes a batch
  // arrives late/shuffled to exercise the inplace_merge path.
  std::vector<graph::TimedEdge> ordered = edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  graph::SlidingWindow inc;
  size_t pos = 0;
  while (pos < ordered.size()) {
    const size_t batch_size =
        std::min(ordered.size() - pos, size_t{1} + rng.Bounded(64));
    std::vector<graph::TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + batch_size));
    if (rng.NextBool(0.25)) {  // scramble: Append must sort + merge
      for (size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[rng.Bounded(i)]);
      }
    }
    inc.Append(std::move(batch));
    pos += batch_size;
  }
  ASSERT_EQ(inc.num_stream_edges(), full.num_stream_edges());

  const bool collapse = rng.NextBool(0.5);
  const double window_len = 1.0 + rng.NextDouble() * horizon;
  graph::SlidingWindowCursor cursor(&inc, window_len, collapse);
  graph::SlidingWindow::Scratch scratch;
  for (double end = window_len * 0.5; end < horizon + window_len;
       end += 0.3 + rng.NextDouble() * 2.0) {
    const graph::WindowSnapshot& got = cursor.AdvanceTo(end);
    const graph::WindowSnapshot want =
        full.Snapshot(end - window_len, end, &scratch, collapse);
    ASSERT_EQ(got.local_to_global, want.local_to_global) << "end=" << end;
    ASSERT_EQ(got.graph.offsets(), want.graph.offsets()) << "end=" << end;
    ASSERT_EQ(got.graph.neighbor_array(), want.graph.neighbor_array())
        << "end=" << end;
    ASSERT_EQ(got.graph.weight_array(), want.graph.weight_array())
        << "end=" << end;
  }
}

TEST_P(WindowFuzzTest, GloballyShuffledBatchesConvergeToCanonicalStream) {
  // Arrival order is adversarial here: batches are cut from the raw
  // *unsorted* generation order, so every batch is internally shuffled AND
  // batches arrive out of order relative to each other. Append must sort
  // each batch (the sort-if-needed path) and inplace_merge it arbitrarily
  // deep into the stream; the final edge array must still be the canonical
  // (time, src, dst) sequence a one-shot construction produces.
  glp::Rng rng(0xa3f1 + GetParam());
  const VertexId entities = 16 + static_cast<VertexId>(rng.Bounded(150));
  const int num_edges = 64 + static_cast<int>(rng.Bounded(1500));
  const double horizon = 5.0 + rng.NextDouble() * 15.0;

  std::vector<graph::TimedEdge> edges;
  edges.reserve(num_edges);
  for (int i = 0; i < num_edges; ++i) {
    edges.push_back({static_cast<VertexId>(rng.Bounded(entities)),
                     static_cast<VertexId>(rng.Bounded(entities)),
                     rng.NextDouble() * horizon});
  }

  const graph::SlidingWindow full(edges);

  graph::SlidingWindow inc;
  size_t pos = 0;
  while (pos < edges.size()) {
    const size_t batch_size =
        std::min(edges.size() - pos, size_t{1} + rng.Bounded(48));
    inc.Append({edges.begin() + static_cast<ptrdiff_t>(pos),
                edges.begin() + static_cast<ptrdiff_t>(pos + batch_size)});
    pos += batch_size;
  }

  ASSERT_EQ(inc.num_stream_edges(), full.num_stream_edges());
  for (size_t i = 0; i < full.edges().size(); ++i) {
    ASSERT_EQ(inc.edges()[i].src, full.edges()[i].src) << "i=" << i;
    ASSERT_EQ(inc.edges()[i].dst, full.edges()[i].dst) << "i=" << i;
    ASSERT_EQ(inc.edges()[i].time, full.edges()[i].time) << "i=" << i;
  }

  graph::SlidingWindow::Scratch sa, sb;
  const double window_len = 1.0 + rng.NextDouble() * horizon;
  for (double end = window_len; end < horizon + window_len;
       end += horizon / 3.0) {
    const graph::WindowSnapshot got =
        inc.Snapshot(end - window_len, end, &sa);
    const graph::WindowSnapshot want =
        full.Snapshot(end - window_len, end, &sb);
    ASSERT_EQ(got.local_to_global, want.local_to_global) << "end=" << end;
    ASSERT_EQ(got.graph.offsets(), want.graph.offsets()) << "end=" << end;
    ASSERT_EQ(got.graph.neighbor_array(), want.graph.neighbor_array())
        << "end=" << end;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowFuzzTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace glp::lp
