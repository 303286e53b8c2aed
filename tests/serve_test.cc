// glp::serve streaming-server tests: one-shot equivalence (the CI
// acceptance gate), warm-start reproducibility, ingest backpressure, and
// cooperative cancellation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/seq_engine.h"
#include "glp/variants/classic.h"
#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"
#include "serve/server.h"

namespace glp::serve {
namespace {

using graph::TimedEdge;
using graph::VertexId;

pipeline::TransactionConfig SmallStreamConfig() {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = 1500;
  cfg.num_items = 400;
  cfg.days = 40;
  cfg.num_rings = 8;
  cfg.ring_buyers = 8;
  cfg.ring_items = 4;
  cfg.seed = 77;
  return cfg;
}

/// Splits the stream's edges (canonical order) into fixed-size batches.
std::vector<std::vector<TimedEdge>> BatchStream(
    const pipeline::TransactionStream& stream, size_t batch_size) {
  std::vector<TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  std::vector<std::vector<TimedEdge>> batches;
  for (size_t pos = 0; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    batches.emplace_back(ordered.begin() + static_cast<ptrdiff_t>(pos),
                         ordered.begin() + static_cast<ptrdiff_t>(pos + n));
  }
  return batches;
}

void ExpectSameClusters(const std::vector<pipeline::SuspiciousCluster>& got,
                        const std::vector<pipeline::SuspiciousCluster>& want,
                        double tick_end) {
  ASSERT_EQ(got.size(), want.size()) << "tick end " << tick_end;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << "tick end " << tick_end;
    EXPECT_EQ(got[i].members, want[i].members) << "tick end " << tick_end;
    EXPECT_EQ(got[i].confirmed, want[i].confirmed) << "tick end " << tick_end;
    EXPECT_EQ(got[i].internal_edges, want[i].internal_edges)
        << "tick end " << tick_end;
  }
}

TEST(ServeTest, ColdServerMatchesOneShotPipeline) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 5.0;
  cfg.tick.warm_start = false;

  std::vector<TickResult> ticks;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) { ticks.push_back(t); });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchStream(stream, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  ASSERT_GE(ticks.size(), 4u);

  // Every tick must reproduce an equivalent one-shot pipeline run exactly.
  pipeline::FraudDetectionPipeline one_shot(&stream);
  for (const TickResult& t : ticks) {
    EXPECT_FALSE(t.warm);
    pipeline::PipelineConfig pc = cfg.detect;
    pc.end_day = t.window_end;
    auto want = one_shot.Run(pc);
    if (t.detection.window_vertices == 0) continue;
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(t.detection.window_vertices, want.value().window_vertices);
    EXPECT_EQ(t.detection.window_edges, want.value().window_edges);
    EXPECT_EQ(t.detection.lp.labels, want.value().lp.labels);
    ExpectSameClusters(t.detection.clusters, want.value().clusters,
                       t.window_end);
    EXPECT_EQ(t.detection.confirmed_metrics.true_positives,
              want.value().confirmed_metrics.true_positives);
  }
}

TEST(ServeTest, WarmTicksMatchWarmReplayedOneShot) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.stop_when_stable = true;
  cfg.detect.lp.max_iterations = 50;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 5.0;
  cfg.tick.warm_start = true;
  cfg.record_warm_labels = true;

  std::vector<TickResult> ticks;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) { ticks.push_back(t); });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchStream(stream, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  ASSERT_GE(ticks.size(), 4u);
  EXPECT_TRUE(std::any_of(ticks.begin(), ticks.end(),
                          [](const TickResult& t) { return t.warm; }));

  // Replaying each tick's warm-start labels through a one-shot pipeline run
  // (the unified config exposes initial_labels) must reproduce the server's
  // output exactly — the acceptance equivalence for warm mode.
  pipeline::FraudDetectionPipeline one_shot(&stream);
  for (const TickResult& t : ticks) {
    if (t.detection.window_vertices == 0) continue;
    pipeline::PipelineConfig pc = cfg.detect;
    pc.end_day = t.window_end;
    pc.lp.initial_labels = t.warm_labels;
    auto want = one_shot.Run(pc);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(t.detection.lp.labels, want.value().lp.labels)
        << "tick end " << t.window_end;
    EXPECT_EQ(t.detection.lp.iterations, want.value().lp.iterations);
    ExpectSameClusters(t.detection.clusters, want.value().clusters,
                       t.window_end);
  }
}

TEST(ServeTest, WarmRestartOnUnchangedWindowIsIdenticalAndFast) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  graph::SlidingWindow window(stream.edges);
  const auto snap = window.Snapshot(10, 30);
  ASSERT_GT(snap.graph.num_vertices(), 0u);

  cpu::SeqEngine<lp::ClassicVariant> engine;
  lp::RunConfig cold;
  cold.max_iterations = 100;
  cold.stop_when_stable = true;
  auto cold_run = engine.Run(snap.graph, cold);
  ASSERT_TRUE(cold_run.ok());
  // The cycle detector must terminate the cold run well under the budget
  // (bipartite windows never reach changed == 0 under synchronous LP).
  ASSERT_LT(cold_run.value().iterations, 100);

  // Warm restart from the converged labels: byte-identical fixed point (or
  // oscillation orbit) re-detected within two iterations.
  lp::RunConfig warm = cold;
  warm.initial_labels = cold_run.value().labels;
  auto warm_run = engine.Run(snap.graph, warm);
  ASSERT_TRUE(warm_run.ok());
  EXPECT_EQ(warm_run.value().labels, cold_run.value().labels);
  EXPECT_LE(warm_run.value().iterations, 2);
}

TEST(ServeTest, BackpressureBoundsIngestQueue) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 5;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.max_iterations = 5;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 0.25;  // nearly every batch crosses a boundary
  cfg.tick.warm_start = true;
  cfg.max_queue_batches = 2;

  StreamServer server(cfg);
  server.Subscribe([](const TickResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchStream(stream, 200)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();

  EXPECT_LE(stats.queue_peak, 2u);
  EXPECT_GE(stats.ingest_blocked, 1);
  EXPECT_GT(stats.ticks, 10);
  EXPECT_GT(stats.tick_p99_seconds, 0);
  EXPECT_GE(stats.tick_p99_seconds, stats.tick_p50_seconds);
}

TEST(ServeTest, ConfirmedClusterDiffsReplayToCurrentSet) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 5.0;

  std::vector<TickResult> ticks;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) { ticks.push_back(t); });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchStream(stream, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_FALSE(ticks.empty());

  // Applying each tick's new/expired diff to a running set must always
  // reproduce that tick's full confirmed-cluster set.
  std::set<std::vector<VertexId>> state;
  bool saw_confirmed = false;
  for (const TickResult& t : ticks) {
    for (const auto& members : t.expired_confirmed) {
      ASSERT_EQ(state.erase(members), 1u);
    }
    for (const auto& members : t.new_confirmed) {
      ASSERT_TRUE(state.insert(members).second);
    }
    std::set<std::vector<VertexId>> confirmed_now;
    for (const auto& c : t.detection.clusters) {
      if (c.confirmed) confirmed_now.insert(c.members);
    }
    saw_confirmed = saw_confirmed || !confirmed_now.empty();
    EXPECT_EQ(state, confirmed_now) << "tick end " << t.window_end;
  }
  EXPECT_TRUE(saw_confirmed);
}

TEST(ServeTest, StopTokenCancelsEngineRun) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  graph::SlidingWindow window(stream.edges);
  const auto snap = window.Snapshot(0, 40);

  cpu::SeqEngine<lp::ClassicVariant> engine;
  lp::RunConfig run;
  run.max_iterations = 20;
  std::atomic<bool> stop{true};
  lp::RunContext ctx;
  ctx.stop_token = &stop;
  auto r = engine.Run(snap.graph, run, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
}

TEST(ServeTest, HardStopWhileBusyShutsDownCleanly) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 0.5;
  cfg.max_queue_batches = 4;

  StreamServer server(cfg);
  ASSERT_TRUE(server.Start().ok());
  auto batches = BatchStream(stream, 500);
  // Ingest from a separate producer thread and pull the rug mid-stream:
  // Stop() must cancel any in-flight LP run and unblock the producer.
  std::thread producer([&] {
    for (auto& batch : batches) {
      if (!server.Ingest(std::move(batch))) break;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Stop();
  producer.join();
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  // Stopped server rejects further ingest.
  EXPECT_FALSE(server.Ingest({{0, 1, 0.5}}));
}

TEST(ServeTest, IngestValidationRejectsMalformedBatches) {
  ServerConfig cfg;
  cfg.detect.window_days = 5;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.resilience.entity_id_limit = 1000;

  StreamServer server(cfg);
  ASSERT_TRUE(server.Start().ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A bad edge anywhere rejects the whole batch.
  EXPECT_FALSE(server.Ingest({{1, 2, 0.5}, {3, 4, nan}}));
  EXPECT_FALSE(server.Ingest({{1, 2, -0.25}}));
  EXPECT_FALSE(server.Ingest({{graph::kInvalidVertex, 2, 0.5}}));
  EXPECT_FALSE(server.Ingest({{1, graph::kInvalidVertex, 0.5}}));
  EXPECT_FALSE(server.Ingest({{1, 1000, 0.5}}));  // at the id limit
  // Valid batches still flow.
  EXPECT_TRUE(server.Ingest({{1, 2, 0.5}, {999, 3, 0.75}}));
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();

  EXPECT_EQ(stats.batches_rejected, 5);
  EXPECT_EQ(stats.batches_ingested, 1);
  EXPECT_TRUE(server.last_error().ok());
}

TEST(ServeTest, ShuffledBatchesMatchCanonicalOrderIngest) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 5.0;
  cfg.tick.warm_start = false;

  // Baseline: canonical within-batch order.
  std::vector<TickResult> want;
  {
    StreamServer server(cfg);
    server.Subscribe([&](const TickResult& t) { want.push_back(t); });
    ASSERT_TRUE(server.Start().ok());
    for (auto& batch : BatchStream(stream, 1000)) {
      ASSERT_TRUE(server.Ingest(std::move(batch)));
    }
    server.Flush();
    server.Stop();
    ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  }
  ASSERT_GE(want.size(), 4u);

  // Same batches, each internally shuffled: Ingest must accept them (the
  // window sorts unsorted appends) and every tick must match the canonical
  // run exactly — within-batch order is not part of the replay contract.
  std::vector<TickResult> got;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) { got.push_back(t); });
  ASSERT_TRUE(server.Start().ok());
  std::mt19937 rng(123);
  for (auto& batch : BatchStream(stream, 1000)) {
    std::shuffle(batch.begin(), batch.end(), rng);
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window_end, want[i].window_end);
    EXPECT_EQ(got[i].detection.window_vertices,
              want[i].detection.window_vertices);
    EXPECT_EQ(got[i].detection.window_edges, want[i].detection.window_edges);
    EXPECT_EQ(got[i].detection.lp.labels, want[i].detection.lp.labels);
    ExpectSameClusters(got[i].detection.clusters, want[i].detection.clusters,
                       got[i].window_end);
  }
}

TEST(ServeTest, StopRacesBlockedIngestWithoutDeadlock) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 10;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 0.25;
  cfg.max_queue_batches = 1;  // producers block almost immediately

  StreamServer server(cfg);
  // A slow subscriber keeps the detection thread busy so the queue stays
  // full and producers park on the backpressure wait.
  server.Subscribe([](const TickResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  ASSERT_TRUE(server.Start().ok());

  auto batches = BatchStream(stream, 100);
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> producers;
  const size_t per_producer = batches.size() / 3 + 1;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      const size_t lo = static_cast<size_t>(p) * per_producer;
      const size_t hi = std::min(batches.size(), lo + per_producer);
      for (size_t i = lo; i < hi; ++i) {
        if (!server.Ingest(std::move(batches[i]))) return;
        accepted.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Stop while producers are (very likely) blocked on the full queue: they
  // must be woken with Ingest() == false, not left waiting forever.
  server.Stop();
  for (auto& t : producers) t.join();
  EXPECT_FALSE(server.running());
  EXPECT_LT(accepted.load(), batches.size());
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
}

TEST(ServeTest, FlushRacesMidTickStop) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());

  ServerConfig cfg;
  cfg.detect.window_days = 10;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 0.5;
  cfg.max_queue_batches = 4;

  StreamServer server(cfg);
  ASSERT_TRUE(server.Start().ok());
  auto batches = BatchStream(stream, 300);

  std::thread producer([&] {
    for (auto& batch : batches) {
      if (!server.Ingest(std::move(batch))) return;
    }
  });
  // Flush concurrently with in-flight ticks, then Stop while a Flush may
  // still be parked: stopping_ must release it.
  std::thread flusher([&] {
    for (int i = 0; i < 8; ++i) {
      server.Flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Stop();
  producer.join();
  flusher.join();
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
}

// ---------------------------------------------------------------------------
// Incremental serving (DESIGN.md §4.10)
// ---------------------------------------------------------------------------

/// Cold-equivalent configuration for incremental mode: even iteration
/// budget under stop_when_stable, synchronous classic LP.
ServerConfig IncrementalBaseConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.stop_when_stable = true;
  cfg.detect.lp.max_iterations = 50;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 2.0;
  cfg.tick.warm_start = false;
  return cfg;
}

std::vector<TickResult> ReplayAll(const ServerConfig& cfg,
                                  const std::vector<TimedEdge>& ordered,
                                  ServerStats* stats_out = nullptr) {
  std::vector<TickResult> ticks;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) { ticks.push_back(t); });
  EXPECT_TRUE(server.Start().ok());
  for (size_t pos = 0; pos < ordered.size(); pos += 1000) {
    const size_t n = std::min<size_t>(1000, ordered.size() - pos);
    std::vector<TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + n));
    EXPECT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  if (stats_out != nullptr) *stats_out = server.stats();
  server.Stop();
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  return ticks;
}

// The §4.10 acceptance bar: an incremental replay is byte-identical to the
// cold replay at every tick — labels, clusters, and confirmed metrics.
TEST(ServeTest, IncrementalReplayMatchesColdReplay) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  std::vector<TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);

  const ServerConfig cold = IncrementalBaseConfig(stream);
  ServerConfig inc = cold;
  inc.tick.incremental = true;

  const auto want = ReplayAll(cold, ordered);
  ASSERT_GE(want.size(), 8u);
  ServerStats stats;
  const auto got = ReplayAll(inc, ordered, &stats);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detection.lp.labels, want[i].detection.lp.labels)
        << "tick end " << got[i].window_end;
    ExpectSameClusters(got[i].detection.clusters, want[i].detection.clusters,
                       got[i].window_end);
    EXPECT_EQ(got[i].detection.confirmed_metrics.true_positives,
              want[i].detection.confirmed_metrics.true_positives);
    EXPECT_EQ(got[i].new_confirmed, want[i].new_confirmed);
    EXPECT_EQ(got[i].expired_confirmed, want[i].expired_confirmed);
  }
  // The delta path actually ran: only the first tick (inexact first delta)
  // fell back to a full rebuild.
  EXPECT_EQ(stats.incremental_rebuilds, 1);
  EXPECT_EQ(stats.ticks_failed, 0);
}

/// A stream of disjoint dense bipartite islands with staggered activity
/// bursts: at most one island changes per tick, so clean islands' clusters
/// must be reused verbatim rather than re-extracted.
pipeline::TransactionStream IslandStream(int islands) {
  pipeline::TransactionStream stream;
  for (int k = 0; k < islands; ++k) {
    const VertexId base = static_cast<VertexId>(k) * 10;
    const double burst = 2.0 * k + 0.25;
    for (VertexId b = 0; b < 3; ++b) {
      for (VertexId i = 3; i < 5; ++i) {
        // Two purchases per pair: density > 1 pre-cap, always confirmed.
        stream.edges.push_back({base + b, base + i, burst});
        stream.edges.push_back({base + b, base + i, burst + 0.25});
      }
    }
    stream.seeds.push_back(base);
  }
  // A lone trailing edge keeps ticks coming until every island expired.
  const VertexId tail = static_cast<VertexId>(islands) * 10;
  stream.edges.push_back({tail, tail + 1, 2.0 * islands + 12.0});
  std::sort(stream.edges.begin(), stream.edges.end(),
            graph::CanonicalEdgeLess);
  return stream;
}

TEST(ServeTest, IncrementalReusesCleanIslandClusters) {
  const auto stream = IslandStream(8);

  ServerConfig cold;
  cold.detect.window_days = 10;
  cold.detect.engine = lp::EngineKind::kSeq;
  cold.detect.lp.stop_when_stable = true;
  cold.detect.lp.max_iterations = 20;
  cold.seeds = stream.seeds;
  cold.tick.every_days = 1.0;
  cold.tick.warm_start = false;
  ServerConfig inc = cold;
  inc.tick.incremental = true;

  const auto want = ReplayAll(cold, stream.edges);
  ASSERT_GE(want.size(), 20u);
  ServerStats stats;
  const auto got = ReplayAll(inc, stream.edges, &stats);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detection.lp.labels, want[i].detection.lp.labels)
        << "tick end " << got[i].window_end;
    ExpectSameClusters(got[i].detection.clusters, want[i].detection.clusters,
                       got[i].window_end);
  }
  // Quiet islands' clusters carried over without re-extraction.
  EXPECT_GT(stats.reused_clusters, 0);
  EXPECT_EQ(stats.incremental_rebuilds, 1);
}

TEST(ServeTest, IncrementalStartEnforcesExactnessPreconditions) {
  ServerConfig cfg;
  cfg.tick.incremental = true;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.stop_when_stable = true;
  cfg.detect.lp.max_iterations = 7;  // odd budget can stop mid-oscillation
  EXPECT_FALSE(StreamServer(cfg).Start().ok());

  cfg.detect.lp.max_iterations = 8;
  cfg.detect.variant = lp::VariantKind::kSlp;  // hashes raw vertex ids
  EXPECT_FALSE(StreamServer(cfg).Start().ok());

  cfg.detect.variant = lp::VariantKind::kClassic;
  cfg.detect.lp.synchronous = false;  // order-dependent updates
  EXPECT_FALSE(StreamServer(cfg).Start().ok());

  cfg.detect.lp.synchronous = true;
  StreamServer ok(cfg);
  EXPECT_TRUE(ok.Start().ok());
  ok.Stop();
}

// A non-positive shard count is a caller bug (miscomputed fleet size,
// unparsed flag): MakeServer fails loudly with nullptr instead of silently
// serving one shard.
TEST(ServeTest, MakeServerRejectsNonPositiveShardCounts) {
  ServerConfig cfg;
  EXPECT_EQ(MakeServer(cfg, 0), nullptr);
  EXPECT_EQ(MakeServer(cfg, -3), nullptr);
  auto one = MakeServer(cfg, 1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->num_shards(), 1);
}

// ServerConfig::profiler receives the LP engines' phase breakdown whatever
// the shard count: owners detect one after another when a profiler is
// attached, so the single-threaded PhaseProfiler is never shared.
TEST(ServeTest, ProfilerRecordsLpPhasesForEveryShardCount) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    prof::PhaseProfiler profiler;
    ServerConfig cfg;
    cfg.detect.window_days = 15;
    cfg.detect.engine = lp::EngineKind::kSeq;
    cfg.seeds = stream.seeds;
    cfg.tick.every_days = 5.0;
    cfg.profiler = &profiler;
    std::unique_ptr<Server> server = MakeServer(cfg, shards);
    int64_t ticks = 0;
    server->Subscribe([&](const TickResult& t) {
      ticks += t.detection.window_vertices > 0;
    });
    ASSERT_TRUE(server->Start().ok());
    for (auto& batch : BatchStream(stream, 1000)) {
      ASSERT_TRUE(server->Ingest(std::move(batch)));
    }
    server->Flush();
    server->Stop();
    ASSERT_TRUE(server->last_error().ok()) << server->last_error().ToString();
    ASSERT_GT(ticks, 0);
    const prof::PhaseBreakdown& breakdown = profiler.breakdown();
    EXPECT_TRUE(breakdown.enabled);
    EXPECT_GT(breakdown[prof::Phase::kCompute].seconds, 0.0);
    EXPECT_GT(breakdown.SumSeconds(), 0.0);
  }
}

}  // namespace
}  // namespace glp::serve
