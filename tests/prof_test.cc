// Tests for glp::prof: per-phase breakdowns across every engine, the
// sum(phase seconds) == simulated_seconds invariant, the zero-cost disabled
// path (byte-identical results), and the chrome://tracing emitter.

#include <gtest/gtest.h>

#include <string>

#include "cpu/ligra_engine.h"
#include "cpu/parallel_engine.h"
#include "cpu/seq_engine.h"
#include "cpu/tg_engine.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "glp/variants/slp.h"
#include "gpu_baselines/ghash_engine.h"
#include "gpu_baselines/gsort_engine.h"
#include "graph/datasets.h"
#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"
#include "prof/trace.h"

namespace glp::lp {
namespace {

using graph::Graph;

Graph TestGraph(double scale = 0.05, uint64_t seed = 13) {
  return std::move(graph::MakeDataset("dblp", scale, seed)).ValueOrDie();
}

RunContext Ctx(prof::PhaseProfiler* profiler) {
  RunContext ctx;
  ctx.profiler = profiler;
  return ctx;
}

TEST(ProfTest, GlpPhaseSecondsSumToSimulatedSeconds) {
  Graph g = TestGraph();
  prof::PhaseProfiler profiler;
  RunConfig run;
  run.max_iterations = 6;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run, Ctx(&profiler));
  ASSERT_TRUE(r.ok());
  const prof::PhaseBreakdown& b = r.value().phase_breakdown;
  ASSERT_TRUE(b.enabled);
  EXPECT_GT(r.value().simulated_seconds, 0);
  // The acceptance bound is 1%; the attribution is exact by construction,
  // so hold it to fp rounding.
  EXPECT_NEAR(b.SumSeconds(), r.value().simulated_seconds,
              1e-9 * r.value().simulated_seconds + 1e-15);
  EXPECT_NEAR(b.total_seconds, r.value().simulated_seconds,
              1e-9 * r.value().simulated_seconds + 1e-15);
  // The standard phases of a binned single-GPU run all appear. (Classic has
  // no pick kernel; SLP coverage below.) The commit is the LP kernels'
  // change-count epilogue: priced, but no launch of its own. The run is one
  // persistent launch whose iterations meet at grid barriers.
  EXPECT_EQ(b[prof::Phase::kCommit].launches, 0u);
  EXPECT_GT(b[prof::Phase::kCommit].seconds, 0);
  EXPECT_GT(b[prof::Phase::kGridSync].seconds, 0);
  EXPECT_GT(b[prof::Phase::kLowBin].seconds + b[prof::Phase::kMidBin].seconds +
                b[prof::Phase::kHighBin].seconds,
            0);
  EXPECT_GT(b[prof::Phase::kCommit].global_transactions, 0u);
}

TEST(ProfTest, PickKernelAttributedForPerVertexStateVariants) {
  Graph g = TestGraph();
  prof::PhaseProfiler profiler;
  RunConfig run;
  run.max_iterations = 4;
  GlpEngine<SlpVariant> glp;  // SLP picks a speaker per vertex per iteration
  auto r = glp.Run(g, run, Ctx(&profiler));
  ASSERT_TRUE(r.ok());
  const prof::PhaseBreakdown& b = r.value().phase_breakdown;
  ASSERT_TRUE(b.enabled);
  EXPECT_GT(b[prof::Phase::kPick].launches, 0u);
  EXPECT_GT(b[prof::Phase::kPick].seconds, 0);
  EXPECT_NEAR(b.SumSeconds(), r.value().simulated_seconds,
              1e-9 * r.value().simulated_seconds + 1e-15);
}

TEST(ProfTest, DisabledProfilerIsByteIdentical) {
  Graph g = TestGraph();
  RunConfig plain;
  plain.max_iterations = 6;
  prof::PhaseProfiler profiler;
  GlpEngine<ClassicVariant> a, b;
  auto ra = a.Run(g, plain);
  auto rb = b.Run(g, plain, Ctx(&profiler));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().labels, rb.value().labels);
  // Simulated pricing is deterministic: profiling must not perturb it.
  EXPECT_EQ(ra.value().simulated_seconds, rb.value().simulated_seconds);
  EXPECT_EQ(ra.value().iteration_seconds, rb.value().iteration_seconds);
  EXPECT_FALSE(ra.value().phase_breakdown.enabled);
  EXPECT_TRUE(rb.value().phase_breakdown.enabled);
}

TEST(ProfTest, MultiGpuRunAttributesAllGather) {
  Graph g = TestGraph();
  prof::PhaseProfiler profiler;
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions opts;
  opts.num_gpus = 2;
  GlpEngine<ClassicVariant> glp({}, opts);
  auto r = glp.Run(g, run, Ctx(&profiler));
  ASSERT_TRUE(r.ok());
  const prof::PhaseBreakdown& b = r.value().phase_breakdown;
  ASSERT_TRUE(b.enabled);
  EXPECT_GT(b[prof::Phase::kAllGather].seconds, 0);
  EXPECT_NEAR(b.SumSeconds(), r.value().simulated_seconds,
              1e-9 * r.value().simulated_seconds + 1e-15);
}

TEST(ProfTest, FrontierRunAddsNoPhaseOrBarrier) {
  Graph g = TestGraph();
  RunConfig run;
  run.max_iterations = 6;
  GlpOptions opts;
  opts.use_frontier = true;
  prof::PhaseProfiler with, without;
  GlpEngine<ClassicVariant> frontier({}, opts);
  auto r = frontier.Run(g, run, Ctx(&with));
  auto full = GlpEngine<ClassicVariant>().Run(g, run, Ctx(&without));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(full.ok());
  const prof::PhaseBreakdown& b = r.value().phase_breakdown;
  ASSERT_TRUE(b.enabled);
  // The marks are read by the LP kernels and pushed by their commit, so
  // the run books no frontier phase. It runs all six iterations on this
  // graph, so it pays a full run's five barriers; at each, the blocks also
  // read the last pushed-edge count, one word per read.
  EXPECT_EQ(b[prof::Phase::kFrontier].launches, 0u);
  EXPECT_EQ(b[prof::Phase::kFrontier].seconds, 0);
  ASSERT_EQ(frontier.last_iterations_ran(), run.max_iterations);
  EXPECT_EQ(r.value().stats.grid_syncs, 5u);
  EXPECT_EQ(full.value().stats.grid_syncs, 5u);
  const prof::PhaseStats& sync = b[prof::Phase::kGridSync];
  EXPECT_EQ(
      full.value().phase_breakdown[prof::Phase::kGridSync].global_transactions,
      0u);
  EXPECT_GT(sync.global_transactions, 0u);
  EXPECT_EQ(sync.global_transactions % 5, 0u);
  EXPECT_EQ(sync.global_bytes, sync.global_transactions * sizeof(uint32_t));
  EXPECT_GT(b[prof::Phase::kCommit].seconds, 0);
  EXPECT_NEAR(b.SumSeconds(), r.value().simulated_seconds,
              1e-9 * r.value().simulated_seconds + 1e-15);
}

TEST(ProfTest, CpuEnginesProduceWallClockBreakdowns) {
  Graph g = TestGraph(0.03);
  RunConfig run;
  run.max_iterations = 4;
  auto check = [&](Engine&& engine) {
    prof::PhaseProfiler profiler;
    auto r = engine.Run(g, run, Ctx(&profiler));
    ASSERT_TRUE(r.ok()) << engine.name();
    const prof::PhaseBreakdown& b = r.value().phase_breakdown;
    ASSERT_TRUE(b.enabled) << engine.name();
    EXPECT_GT(b[prof::Phase::kCompute].seconds, 0) << engine.name();
    // CPU wall-clock phases undercount the iteration slightly (loop
    // scaffolding between the spans); they must still cover nearly all of
    // the reconciled total, which equals the summed iteration time.
    double iter_total = 0;
    for (double s : r.value().iteration_seconds) iter_total += s;
    EXPECT_NEAR(b.total_seconds, iter_total, 1e-12) << engine.name();
    EXPECT_NEAR(b.SumSeconds(), b.total_seconds, 1e-12 + 1e-9 * iter_total)
        << engine.name();
  };
  check(cpu::SeqEngine<ClassicVariant>());
  check(cpu::ParallelEngine<ClassicVariant>());
  check(cpu::TgEngine<ClassicVariant>());
  check(cpu::LigraEngine<ClassicVariant>());
}

TEST(ProfTest, GpuBaselinesProduceBreakdowns) {
  Graph g = TestGraph(0.03);
  RunConfig run;
  run.max_iterations = 4;
  auto check = [&](Engine&& engine) {
    prof::PhaseProfiler profiler;
    auto r = engine.Run(g, run, Ctx(&profiler));
    ASSERT_TRUE(r.ok()) << engine.name();
    const prof::PhaseBreakdown& b = r.value().phase_breakdown;
    ASSERT_TRUE(b.enabled) << engine.name();
    EXPECT_GT(b[prof::Phase::kCommit].launches, 0u) << engine.name();
    EXPECT_NEAR(b.SumSeconds(), r.value().simulated_seconds,
                1e-9 * r.value().simulated_seconds + 1e-15)
        << engine.name();
  };
  check(GHashEngine<ClassicVariant>());
  check(GSortEngine<ClassicVariant>());
}

TEST(ProfTest, TraceJsonIsWellFormedAndCoversPhases) {
  Graph g = TestGraph();
  prof::PhaseProfiler profiler;
  prof::TraceRecorder trace;
  profiler.AttachTrace(&trace);
  RunConfig run;
  run.max_iterations = 4;
  GlpOptions opts;
  opts.num_gpus = 2;
  GlpEngine<ClassicVariant> glp({}, opts);
  auto r = glp.Run(g, run, Ctx(&profiler));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(trace.num_events(), 0u);
  trace.SetCounters(r.value().phase_breakdown.ToJson());
  const std::string json = trace.ToJson();
  // Structure: a traceEvents array plus the counter payload.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the root
  EXPECT_NE(json.find("\"glpCounters\""), std::string::npos);
  // Track metadata: one thread per simulated GPU plus the host track.
  EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  // Phase slices carry the stable phase names and "X" complete events.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("commit"), std::string::npos);
  EXPECT_NE(json.find("allgather"), std::string::npos);
  // Braces and brackets balance (no truncated emission).
  int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ProfTest, BreakdownToStringAndJson) {
  Graph g = TestGraph();
  prof::PhaseProfiler profiler;
  RunConfig run;
  run.max_iterations = 3;
  GlpEngine<ClassicVariant> glp;
  auto r = glp.Run(g, run, Ctx(&profiler));
  ASSERT_TRUE(r.ok());
  const std::string table = r.value().phase_breakdown.ToString();
  EXPECT_NE(table.find("commit"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  const std::string json = r.value().phase_breakdown.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"commit\""), std::string::npos);
}

TEST(ProfTest, PipelineMeasuresLpShareAndHostEvents) {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = 3000;
  cfg.num_items = 800;
  cfg.days = 60;
  cfg.num_rings = 10;
  cfg.ring_buyers = 10;
  cfg.ring_items = 5;
  cfg.seed = 42;
  auto stream = pipeline::GenerateTransactions(cfg);
  pipeline::FraudDetectionPipeline pl(&stream);
  prof::PhaseProfiler profiler;
  prof::TraceRecorder trace;
  profiler.AttachTrace(&trace);
  pipeline::PipelineConfig pc;
  pc.lp.max_iterations = 5;
  lp::RunContext pctx;
  pctx.profiler = &profiler;
  auto r = pl.Run(pc, pctx);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().lp_wall_seconds, 0);
  EXPECT_GT(r.value().MeasuredLpFraction(), 0);
  EXPECT_LE(r.value().MeasuredLpFraction(), 1.0);
  EXPECT_TRUE(r.value().lp.phase_breakdown.enabled);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("window-build"), std::string::npos);
  EXPECT_NE(json.find("lp-clustering"), std::string::npos);
  EXPECT_NE(json.find("cluster-extract"), std::string::npos);
}

}  // namespace
}  // namespace glp::lp
