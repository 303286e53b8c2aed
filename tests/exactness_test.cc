// Exactness of the paths that save LP work, as tables of cases that one
// differential oracle can absorb later. Two halves:
//
//   Engine level  GLP with the period-2 frontier (GlpOptions::use_frontier)
//                 equals GLP in full passes — labels, iteration counts, and
//                 the device change and two-back counters, which must also
//                 equal the host's on every iteration — over variant x
//                 kernel mode x stop_when_stable x T x pool size x launch
//                 structure, on a bipartite transaction window (labels
//                 oscillate with period 2) and a planted partition (labels
//                 converge), and for runs that exit early once the
//                 frontier is empty, at odd and even remaining budgets.
//   Serve level   with the pipeline default (frontier on), incremental ticks
//                 equal a cold full-pass detection of the same window at
//                 every tick — labels, clusters and confirmations — on 1, 3
//                 and 4 shards, across a kill/restore, a live resize, and a
//                 restore from a v3 checkpoint, whose incremental anchors
//                 predate entity-ordered window ids and must be dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "glp/variants/degree_weighted.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sliding_window.h"
#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace glp {
namespace {

using graph::Graph;
using graph::TimedEdge;
using lp::GlpOptions;

// ---------------------------------------------------------------------------
// Engine level
// ---------------------------------------------------------------------------

/// What the host computes per commit: the variant's EndIteration return and
/// the labels that differ from two commits back.
struct HostCounts {
  std::vector<uint32_t> changed;
  std::vector<uint32_t> two_back;
};
HostCounts* host_counts = nullptr;  // the sink of the running Recorded

template <typename Base>
class Recorded : public Base {
 public:
  using Base::Base;

  void Init(const Graph& g, const lp::RunConfig& config) {
    Base::Init(g, config);
    history_.assign(1, this->labels());
  }

  int EndIteration(int iter) {
    const int changed = Base::EndIteration(iter);
    const std::vector<graph::Label>& now = this->labels();
    uint32_t differs = 0;
    if (history_.size() >= 2) {
      const std::vector<graph::Label>& back2 = history_[history_.size() - 2];
      for (size_t v = 0; v < now.size(); ++v) differs += now[v] != back2[v];
    }
    host_counts->changed.push_back(static_cast<uint32_t>(changed));
    host_counts->two_back.push_back(differs);
    history_.push_back(now);
    return changed;
  }

 private:
  std::vector<std::vector<graph::Label>> history_;
};

struct EngineRun {
  lp::RunResult result;
  std::vector<uint32_t> changed, two_back;  // device counters per iteration
  HostCounts host;
  std::vector<uint64_t> affected;  // vertices recomputed per iteration
  std::vector<bool> pushed;        // iterations that pushed frontier marks
  int ran = 0;                     // iterations run before a frontier exit
};

template <typename V>
EngineRun RunGlp(const Graph& g, const GlpOptions& opts, int iterations,
                 bool stable, ThreadPool* pool) {
  EngineRun out;
  host_counts = &out.host;
  lp::GlpEngine<Recorded<V>> engine({}, opts);
  lp::RunConfig run;
  run.max_iterations = iterations;
  run.stop_when_stable = stable;
  lp::RunContext ctx;
  ctx.pool = pool;
  auto r = engine.Run(g, run, ctx);
  host_counts = nullptr;
  GLP_CHECK(r.ok()) << r.status().ToString();
  out.result = std::move(r).value();
  for (int it = 0; it < out.result.iterations; ++it) {
    out.changed.push_back(engine.last_changed(it));
    out.two_back.push_back(engine.last_two_back(it));
    out.pushed.push_back(engine.last_pushed(it));
  }
  out.affected = engine.last_affected_counts();
  out.ran = engine.last_iterations_ran();
  return out;
}

/// The device counters equal the host's: the change count on every
/// iteration, the two-back count wherever the engine tracks cycles.
template <typename V>
void ExpectCountersMatchHost(const EngineRun& r, bool stable) {
  const bool tracks_cycles = stable && !V().needs_pick_kernel();
  ASSERT_EQ(r.host.changed.size(), r.changed.size());
  for (size_t it = 0; it < r.changed.size(); ++it) {
    EXPECT_EQ(r.changed[it], r.host.changed[it]) << "iteration " << it;
    EXPECT_EQ(r.two_back[it],
              tracks_cycles && it > 0 ? r.host.two_back[it] : 0u)
        << "iteration " << it;
  }
}

/// An organic-shaped transaction window: buyers x items, so the graph is
/// bipartite and classic LP oscillates with period 2.
Graph OrganicWindow() {
  pipeline::TransactionConfig tc;
  tc.num_buyers = 600;
  tc.num_items = 150;
  tc.num_rings = 6;
  tc.days = 14;
  tc.seed = 3;
  const pipeline::TransactionStream stream = pipeline::GenerateTransactions(tc);
  return graph::SlidingWindow(stream.edges).Snapshot(7.0, 14.0).graph;
}

Graph PlantedPartition() {
  return graph::GeneratePlantedPartition({.num_communities = 12,
                                          .community_size = 40,
                                          .intra_degree = 8.0,
                                          .inter_degree = 0.5,
                                          .seed = 21});
}

/// Launch structures: one persistent launch, two GPUs, hybrid.
std::vector<std::pair<const char*, GlpOptions>> Launches(
    GlpOptions::Mode mode) {
  GlpOptions one;
  one.mode = mode;
  one.use_frontier = true;
  GlpOptions two = one;
  two.num_gpus = 2;
  GlpOptions hybrid = one;
  hybrid.force_hybrid = true;
  return {{"one", one}, {"gpus2", two}, {"hybrid", hybrid}};
}

/// Frontier-on runs of every (mode, stop_when_stable, T, pool, launch)
/// equal the frontier-off run on one GPU. Returns whether any frontier run
/// skipped a vertex.
template <typename V>
bool ExpectFrontierMatchesFullPasses(const Graph& g) {
  ThreadPool pool1(1), pool4(4);
  bool skipped = false;
  for (const GlpOptions::Mode mode :
       {GlpOptions::Mode::kSmem, GlpOptions::Mode::kSmemWarp}) {
    for (const bool stable : {false, true}) {
      for (const int t : {1, 2, 3, 4, 9, 10}) {
        GlpOptions full;
        full.mode = mode;
        const EngineRun want = RunGlp<V>(g, full, t, stable, &pool1);
        {
          SCOPED_TRACE(::testing::Message() << "full pass mode="
                                            << static_cast<int>(mode)
                                            << " stable=" << stable
                                            << " T=" << t);
          ExpectCountersMatchHost<V>(want, stable);
        }
        for (ThreadPool* pool : {&pool1, &pool4}) {
          for (const auto& [launch, opts] : Launches(mode)) {
            SCOPED_TRACE(::testing::Message()
                         << "mode=" << static_cast<int>(mode)
                         << " stable=" << stable << " T=" << t
                         << " pool=" << pool->num_threads()
                         << " launch=" << launch);
            const EngineRun got = RunGlp<V>(g, opts, t, stable, pool);
            EXPECT_EQ(got.result.labels, want.result.labels);
            EXPECT_EQ(got.result.iterations, want.result.iterations);
            EXPECT_EQ(got.changed, want.changed);
            EXPECT_EQ(got.two_back, want.two_back);
            ExpectCountersMatchHost<V>(got, stable);
            for (const uint64_t a : got.affected) {
              skipped |= a < g.num_vertices();
            }
          }
        }
      }
    }
  }
  return skipped;
}

struct EngineCase {
  std::string name;
  std::function<Graph()> graph;
  /// Runs the table on the graph; returns whether the frontier skipped.
  std::function<bool(const Graph&)> check;
  bool skips;  ///< whether the variant runs the frontier at all
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

std::vector<EngineCase> EngineCases() {
  std::vector<EngineCase> cases;
  for (const auto& [gname, gfn] :
       std::vector<std::pair<std::string, std::function<Graph()>>>{
           {"OrganicWindow", OrganicWindow},
           {"PlantedPartition", PlantedPartition}}) {
    cases.push_back({"Classic" + gname, gfn,
                     ExpectFrontierMatchesFullPasses<lp::ClassicVariant>,
                     true});
    cases.push_back(
        {"DegreeWeighted" + gname, gfn,
         ExpectFrontierMatchesFullPasses<lp::DegreeWeightedVariant>, true});
    // LLP reads global label volumes and SLP redraws its speakers every
    // iteration: both keep full passes.
    cases.push_back({"Llp" + gname, gfn,
                     ExpectFrontierMatchesFullPasses<lp::LlpVariant>, false});
    cases.push_back({"Slp" + gname, gfn,
                     ExpectFrontierMatchesFullPasses<lp::SlpVariant>, false});
  }
  return cases;
}

class FrontierExactnessTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(FrontierExactnessTest, EqualsFullPasses) {
  const EngineCase& c = GetParam();
  const Graph g = c.graph();
  EXPECT_EQ(c.check(g), c.skips);
}

INSTANTIATE_TEST_SUITE_P(Variants, FrontierExactnessTest,
                         ::testing::ValuesIn(EngineCases()),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return info.param.name;
                         });

// On the bipartite window the one-back rule (recompute where a neighbour
// changed last iteration) skips nothing, because every label oscillates;
// the period-2 rule skips where the oscillation has settled.
TEST(FrontierExactnessTest, OscillatingWindowSkipsWork) {
  const Graph g = OrganicWindow();
  GlpOptions opts;
  opts.use_frontier = true;
  lp::GlpEngine<lp::ClassicVariant> engine({}, opts);
  lp::RunConfig run;
  run.max_iterations = 10;
  ASSERT_TRUE(engine.Run(g, run).ok());
  const std::vector<uint64_t>& vertices = engine.last_affected_counts();
  const std::vector<uint64_t>& edges = engine.last_affected_edges();
  ASSERT_EQ(vertices.size(), 10u);
  ASSERT_EQ(edges.size(), 10u);
  EXPECT_EQ(vertices[0], g.num_vertices());
  EXPECT_EQ(vertices[1], g.num_vertices());
  EXPECT_LT(vertices.back(), g.num_vertices() / 2);
  EXPECT_LT(edges.back(), static_cast<uint64_t>(g.num_edges()) / 2);
}

// Once a commit has no pusher (it equals the commit two back), every later
// iteration repeats that period-2 cycle, so the frontier run exits and
// fills in the rest of its budget.

/// K_{4,4} beside K_{3,5}. Classic LP swaps each side's smallest id across
/// the cut, so the third commit equals the first. The second differs from
/// two back on three of four vertices per side, more than half the edges,
/// so no iteration pushes: the third runs in full, and its commit has no
/// pusher.
Graph CompleteBipartitePair() {
  graph::GraphBuilder b(16);
  for (graph::VertexId a = 0; a < 4; ++a) {
    for (graph::VertexId c = 4; c < 8; ++c) b.AddEdge(a, c);
  }
  for (graph::VertexId a = 8; a < 11; ++a) {
    for (graph::VertexId c = 11; c < 16; ++c) b.AddEdge(a, c);
  }
  return b.Build();
}

/// Frontier runs at budget `t` on every launch structure and kernel mode
/// equal the full-pass run: labels, iteration counts and both counter
/// vectors. Every one runs as many iterations on the device; returns the
/// first.
EngineRun ExpectExitEqualsFullPasses(const Graph& g, int t, bool stable) {
  ThreadPool pool(2);
  std::vector<EngineRun> runs;
  for (const GlpOptions::Mode mode :
       {GlpOptions::Mode::kSmem, GlpOptions::Mode::kSmemWarp}) {
    GlpOptions full;
    full.mode = mode;
    const EngineRun want = RunGlp<lp::ClassicVariant>(g, full, t, stable,
                                                      &pool);
    for (const auto& [launch, opts] : Launches(mode)) {
      SCOPED_TRACE(::testing::Message()
                   << "mode=" << static_cast<int>(mode) << " stable="
                   << stable << " T=" << t << " launch=" << launch);
      runs.push_back(RunGlp<lp::ClassicVariant>(g, opts, t, stable, &pool));
      const EngineRun& got = runs.back();
      EXPECT_EQ(got.result.labels, want.result.labels);
      EXPECT_EQ(got.result.iterations, want.result.iterations);
      EXPECT_EQ(got.changed, want.changed);
      EXPECT_EQ(got.two_back, want.two_back);
      ExpectCountersMatchHost<lp::ClassicVariant>(got, stable);
      EXPECT_EQ(got.ran, runs.front().ran);
    }
  }
  return runs.front();
}

struct GraphCase {
  const char* name;
  Graph (*graph)();
};

// By name: the default printer would list the pointers, which differ from
// build to build, in the discovered test names.
void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

class FrontierExitTest : public ::testing::TestWithParam<GraphCase> {};

// Odd and even remaining budgets pick the cycle's two phases; with
// stop_when_stable the filled iterations stop where full passes stop.
TEST_P(FrontierExitTest, EqualsFullPassesAtOddAndEvenRemainders) {
  const Graph g = GetParam().graph();
  const EngineRun probe = ExpectExitEqualsFullPasses(g, 30, false);
  ASSERT_LT(probe.ran, 30);
  for (int remainder = 1; remainder <= 4; ++remainder) {
    const int t = probe.ran + remainder;
    const EngineRun plain = ExpectExitEqualsFullPasses(g, t, false);
    EXPECT_EQ(plain.ran, probe.ran);
    EXPECT_EQ(plain.result.iterations, t);
    for (int k = plain.ran; k < t; ++k) {
      EXPECT_EQ(plain.affected[k], 0u);
      EXPECT_EQ(plain.result.iteration_seconds[k], 0);
    }
    const EngineRun stable = ExpectExitEqualsFullPasses(g, t, true);
    EXPECT_LE(stable.ran, stable.result.iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, FrontierExitTest,
    ::testing::Values(GraphCase{"OrganicWindow", OrganicWindow},
                      GraphCase{"PlantedPartition", PlantedPartition},
                      GraphCase{"CompleteBipartitePair",
                                CompleteBipartitePair}),
    [](const auto& info) { return std::string(info.param.name); });

// The exit follows a full pass that did not push: no iteration pushes on
// this graph, and the third iteration's commit has no pusher. With
// stop_when_stable the exit comes at an even commit count, so one filled
// iteration completes the cycle the full passes stop on.
TEST(FrontierExitTest, UnpushedFullPassThenEmptyFrontier) {
  const Graph g = CompleteBipartitePair();
  for (const int t : {4, 5, 10}) {
    for (const bool stable : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "T=" << t << " stable=" << stable);
      const EngineRun got = ExpectExitEqualsFullPasses(g, t, stable);
      EXPECT_EQ(got.ran, 3);
      EXPECT_EQ(got.result.iterations, stable ? 4 : t);
      for (int k = 0; k < got.result.iterations; ++k) {
        EXPECT_FALSE(got.pushed[k]) << k;
        EXPECT_EQ(got.affected[k], k < 3 ? g.num_vertices() : 0u) << k;
      }
      EXPECT_EQ(got.changed[2], g.num_vertices());
      EXPECT_EQ(got.changed[3], g.num_vertices());
    }
  }
}

// ---------------------------------------------------------------------------
// Serve level
// ---------------------------------------------------------------------------

pipeline::TransactionConfig StreamConfig() {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = 1200;
  cfg.num_items = 300;
  cfg.days = 40;
  cfg.num_rings = 8;
  cfg.ring_buyers = 8;
  cfg.ring_items = 4;
  cfg.seed = 91;
  return cfg;
}

/// A sparse stream: most components are small and stay clean from one
/// tick to the next, so their labels come from the carried anchors.
pipeline::TransactionConfig SparseStreamConfig() {
  pipeline::TransactionConfig cfg = StreamConfig();
  cfg.num_items = 3000;
  cfg.purchases_per_buyer_per_day = 0.02;
  cfg.item_skew = 0.1;
  return cfg;
}

std::vector<std::vector<TimedEdge>> Batches(const std::vector<TimedEdge>& ordered,
                                            size_t begin = 0) {
  std::vector<std::vector<TimedEdge>> out;
  for (size_t pos = begin; pos < ordered.size(); pos += 1000) {
    const size_t n = std::min<size_t>(1000, ordered.size() - pos);
    out.emplace_back(ordered.begin() + static_cast<ptrdiff_t>(pos),
                     ordered.begin() + static_cast<ptrdiff_t>(pos + n));
  }
  return out;
}

/// Everything a tick publishes that cold detection must reproduce.
struct Detection {
  std::vector<graph::Label> labels;
  std::vector<pipeline::SuspiciousCluster> clusters;
  graph::VertexId vertices = 0;
  graph::EdgeId edges = 0;
};

Detection DetectionOf(const pipeline::PipelineResult& r) {
  return {r.lp.labels, r.clusters, r.window_vertices, r.window_edges};
}

void ExpectSame(const Detection& got, const Detection& want,
                double window_end) {
  SCOPED_TRACE(::testing::Message() << "window end " << window_end);
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.labels, want.labels);
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t i = 0; i < got.clusters.size(); ++i) {
    const pipeline::SuspiciousCluster& a = got.clusters[i];
    const pipeline::SuspiciousCluster& b = want.clusters[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.num_seeds, b.num_seeds);
    EXPECT_EQ(a.internal_edges, b.internal_edges);
    EXPECT_EQ(a.confirmed, b.confirmed);
  }
}

class ServeExactnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::FailpointRegistry::Global().ResetToEnv();
    UseStream(StreamConfig());
  }

  void UseStream(const pipeline::TransactionConfig& tc) {
    stream_ = pipeline::GenerateTransactions(tc);
    ordered_ = stream_.edges;
    std::sort(ordered_.begin(), ordered_.end(), graph::CanonicalEdgeLess);
    cfg_.detect.window_days = 15;
    cfg_.detect.engine = lp::EngineKind::kGlp;
    cfg_.detect.lp.max_iterations = 10;
    cfg_.detect.lp.stop_when_stable = false;
    cfg_.seeds = stream_.seeds;
    cfg_.ground_truth = &stream_;
    cfg_.tick.every_days = 5.0;
    cfg_.tick.incremental = true;
  }
  void TearDown() override {
    fail::FailpointRegistry::Global().ResetToEnv();
    for (const std::string& d : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }

  std::string MakeTempDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "glp_exactness_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  /// Cold, full-pass detection of the window a tick covered.
  Detection Cold(double start, double end) const {
    pipeline::PipelineConfig cold = cfg_.detect;
    cold.glp_options.use_frontier = false;
    ThreadPool one(1);
    lp::RunContext ctx;
    ctx.pool = &one;
    const graph::SlidingWindow window(stream_.edges);
    auto r = pipeline::DetectOnSnapshot(window.Snapshot(start, end), cold, ctx,
                                        stream_.seeds, &stream_, start, end);
    GLP_CHECK(r.ok()) << r.status().ToString();
    return DetectionOf(r.value());
  }

  /// Subscribes a check of every tick against cold detection, counting the
  /// ticks checked in `*ticks`.
  void CheckEveryTick(serve::StreamServer* server, int* ticks) {
    server->Subscribe([this, ticks](const serve::TickResult& t) {
      ExpectSame(DetectionOf(t.detection), Cold(t.window_start, t.window_end),
                 t.window_end);
      ++*ticks;
    });
  }

  /// Replays the stream from edge `begin` on, resizing the live fleet to
  /// `resize_to` a third of the way in when set.
  void Feed(serve::StreamServer* server, size_t begin = 0,
            int resize_to = 0) {
    auto batches = Batches(ordered_, begin);
    for (size_t i = 0; i < batches.size(); ++i) {
      if (resize_to > 0 && i == batches.size() / 3) {
        ASSERT_TRUE(server->Resize(resize_to).ok());
      }
      ASSERT_TRUE(server->Ingest(std::move(batches[i])));
    }
    server->Flush();
  }

  /// Runs a checkpointing server over the first half of the stream.
  void CheckpointFirstHalf(const std::string& dir, int shards) {
    serve::ServerConfig cfg = cfg_;
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.every_ticks = 1;
    cfg.checkpoint.keep = 4;
    serve::StreamServer server(cfg, shards);
    ASSERT_TRUE(server.Start().ok());
    auto batches = Batches(ordered_);
    for (size_t i = 0; i < batches.size() / 2; ++i) {
      ASSERT_TRUE(server.Ingest(std::move(batches[i])));
    }
    server.Flush();
    server.Stop();
    ASSERT_GE(server.stats().checkpoints_written, 1);
  }

  /// Restores `dir` into a `shards`-shard server, replays the rest of the
  /// stream and checks every tick; returns the post-restore stats.
  serve::ServerStats RestoreAndCheck(const std::string& dir, int shards) {
    serve::StreamServer server(cfg_, shards);
    int ticks = 0;
    CheckEveryTick(&server, &ticks);
    auto restored = server.RestoreFromCheckpoint(dir);
    GLP_CHECK(restored.ok()) << restored.status().ToString();
    GLP_CHECK(server.Start().ok());
    Feed(&server, static_cast<size_t>(restored.value().num_edges));
    const serve::ServerStats stats = server.stats();
    server.Stop();
    EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
    EXPECT_GE(ticks, 3);
    return stats;
  }

  pipeline::TransactionStream stream_;
  std::vector<TimedEdge> ordered_;
  serve::ServerConfig cfg_;
  std::vector<std::string> dirs_;
};

/// Rewrites a checkpoint file's format version, re-sealing its checksum
/// (FNV-1a over everything before the 8-byte trailer).
void RewriteVersion(const std::string& path, uint32_t version) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 20u);
  std::memcpy(bytes.data() + sizeof(uint64_t), &version, sizeof(version));
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof(uint64_t) < bytes.size(); ++i) {
    sum = (sum ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - sizeof(sum), &sum, sizeof(sum));
  std::ofstream(path, std::ios::binary).write(bytes.data(),
                                              static_cast<std::streamsize>(
                                                  bytes.size()));
}

TEST_F(ServeExactnessTest, PipelineRunsTheFrontierByDefault) {
  EXPECT_TRUE(pipeline::PipelineConfig{}.glp_options.use_frontier);
  EXPECT_FALSE(GlpOptions{}.use_frontier);
}

TEST_F(ServeExactnessTest, IncrementalTicksEqualColdDetection) {
  for (const int shards : {1, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    serve::StreamServer server(cfg_, shards);
    int ticks = 0;
    CheckEveryTick(&server, &ticks);
    ASSERT_TRUE(server.Start().ok());
    Feed(&server);
    const serve::ServerStats stats = server.stats();
    server.Stop();
    ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
    EXPECT_GE(ticks, 6);
    EXPECT_EQ(stats.ticks_failed, 0);
    // Clean components were reused, so the delta path ran.
    EXPECT_EQ(stats.incremental_rebuilds, 1);
  }
}

TEST_F(ServeExactnessTest, OwnerCsrRunsLikeTheSnapshot) {
  // A one-shard cold server builds each tick's CSR from its interned edges;
  // both it and SlidingWindow::Snapshot list neighbours in ascending id
  // order, so the same detection config counts the same device work on
  // both, bit for bit.
  cfg_.tick.incremental = false;
  serve::StreamServer server(cfg_, 1);
  int ticks = 0;
  server.Subscribe([&](const serve::TickResult& t) {
    SCOPED_TRACE(::testing::Message() << "window end " << t.window_end);
    ThreadPool one(1);
    lp::RunContext ctx;
    ctx.pool = &one;
    const graph::SlidingWindow window(stream_.edges);
    auto r = pipeline::DetectOnSnapshot(
        window.Snapshot(t.window_start, t.window_end), cfg_.detect, ctx,
        stream_.seeds, &stream_, t.window_start, t.window_end);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const lp::RunResult& want = r.value().lp;
    const lp::RunResult& got = t.detection.lp;
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.simulated_seconds, want.simulated_seconds);
    EXPECT_EQ(0, std::memcmp(&got.stats, &want.stats, sizeof(got.stats)));
    ++ticks;
  });
  ASSERT_TRUE(server.Start().ok());
  Feed(&server);
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  EXPECT_GE(ticks, 6);
}

TEST_F(ServeExactnessTest, LiveResizeEqualsColdDetection) {
  serve::StreamServer server(cfg_, 1);
  int ticks = 0;
  CheckEveryTick(&server, &ticks);
  ASSERT_TRUE(server.Start().ok());
  Feed(&server, 0, /*resize_to=*/3);
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  EXPECT_EQ(server.num_shards(), 3);
  EXPECT_GE(ticks, 6);
}

TEST_F(ServeExactnessTest, KillRestoreEqualsColdDetection) {
  const std::string dir = MakeTempDir("restore");
  CheckpointFirstHalf(dir, 3);
  // Same shape: the checkpointed anchors are reused; another shape too.
  const serve::ServerStats stats = RestoreAndCheck(dir, 3);
  EXPECT_EQ(stats.incremental_rebuilds, 0);
  RestoreAndCheck(dir, 4);
}

TEST_F(ServeExactnessTest, V3CheckpointDropsItsAnchors) {
  UseStream(SparseStreamConfig());
  cfg_.tick.every_days = 1.0;
  const std::string dir = MakeTempDir("v3");
  CheckpointFirstHalf(dir, 1);
  auto latest = serve::LatestShardedCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  const std::string coord = dir + "/" + latest.value().manifest.coord_file;
  // Anchors that name each entity's own label cannot match last tick's
  // labels: reused, they would publish singleton labels for every clean
  // component.
  serve::CheckpointData data = latest.value().coord;
  ASSERT_TRUE(data.has_incremental);
  data.inc_anchors = data.inc_entities;
  ASSERT_TRUE(serve::SaveCheckpoint(coord, data).ok());

  // Control: as a v4 file the anchors are reused on the first tick.
  {
    serve::StreamServer server(cfg_, 1);
    bool differs = false;
    server.Subscribe([&](const serve::TickResult& t) {
      differs |= t.detection.lp.labels !=
                 Cold(t.window_start, t.window_end).labels;
    });
    auto restored = server.RestoreFromCheckpoint(dir);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(server.Start().ok());
    Feed(&server, static_cast<size_t>(restored.value().num_edges));
    server.Stop();
    EXPECT_TRUE(differs);
  }

  RewriteVersion(coord, 3);
  auto loaded = serve::LoadCheckpoint(coord);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_incremental);
  EXPECT_TRUE(loaded.value().inc_anchors.empty());
  // The first tick re-runs every component, and every tick equals cold.
  const serve::ServerStats stats = RestoreAndCheck(dir, 1);
  EXPECT_EQ(stats.incremental_rebuilds, 1);
}

}  // namespace
}  // namespace glp
