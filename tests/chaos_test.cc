// Chaos harness for the resilience layer (DESIGN.md §4.8): failpoint
// schedules injected into the streaming server must never deadlock it,
// transient faults must be absorbed by retries without output divergence,
// persistent engine faults must fall back to the CPU path, overload must
// shed ticks boundedly (and visibly, in metrics), and a kill + checkpoint
// restore + replay must reproduce the uninterrupted run exactly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "util/failpoint.h"
#include "util/rng.h"

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

/// The stream's edges in canonical order — the replay contract's indexing.
std::vector<TimedEdge> CanonicalEdges(
    const pipeline::TransactionStream& stream) {
  std::vector<TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  return ordered;
}

std::vector<std::vector<TimedEdge>> BatchEdges(
    const std::vector<TimedEdge>& ordered, size_t batch_size,
    size_t begin_idx = 0) {
  std::vector<std::vector<TimedEdge>> batches;
  for (size_t pos = begin_idx; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    batches.emplace_back(ordered.begin() + static_cast<ptrdiff_t>(pos),
                         ordered.begin() + static_cast<ptrdiff_t>(pos + n));
  }
  return batches;
}

ServerConfig BaseServerConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.stop_when_stable = true;
  cfg.detect.lp.max_iterations = 50;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 5.0;
  cfg.resilience.retry_backoff_ms = 0.1;  // keep chaos tests fast
  cfg.resilience.max_retry_backoff_ms = 1.0;
  return cfg;
}

/// Integer tick key — window ends live on the absolute cadence grid, but
/// comparing doubles as map keys is asking for trouble.
int64_t TickKey(double window_end) {
  return static_cast<int64_t>(std::llround(window_end * 4));
}

struct TickObservation {
  std::vector<graph::Label> labels;
  std::set<std::vector<VertexId>> confirmed;
};

/// A tick's labels (one per window vertex — never vacuously empty) and
/// confirmed-cluster sets.
TickObservation ObservationOf(const TickResult& t) {
  TickObservation obs;
  obs.labels = t.detection.lp.labels;
  EXPECT_EQ(obs.labels.size(), t.detection.window_vertices)
      << "tick end " << t.window_end;
  for (const auto& c : t.detection.clusters) {
    if (c.confirmed) obs.confirmed.insert(c.members);
  }
  return obs;
}

/// Runs a full-stream server and records per-window-end labels and
/// confirmed-cluster sets.
std::map<int64_t, TickObservation> RunAndObserve(const ServerConfig& cfg,
                                                 const std::vector<TimedEdge>&
                                                     ordered) {
  std::map<int64_t, TickObservation> out;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) {
    out[TickKey(t.window_end)] = ObservationOf(t);
  });
  EXPECT_TRUE(server.Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    EXPECT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  return out;
}

/// Every chaos test starts and ends with only the ambient (env-armed)
/// failpoint configuration — the CI chaos job injects latency through the
/// environment, and tests must neither see each other's schedules nor
/// erase the ambient one.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FailpointRegistry::Global().ResetToEnv(); }
  void TearDown() override { fail::FailpointRegistry::Global().ResetToEnv(); }

  /// Unique scratch directory, wiped on teardown.
  std::string MakeTempDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "glp_chaos_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  std::vector<std::string> dirs_;

  ~ChaosTest() override {
    for (const auto& d : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

TEST_F(ChaosTest, TransientFaultsAreRetriedWithoutOutputDivergence) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = BaseServerConfig(stream);

  // Baseline BEFORE arming anything: the failure-free output.
  const auto want = RunAndObserve(cfg, ordered);
  ASSERT_GE(want.size(), 4u);

  // Deterministic transient faults on the LP dispatch stage: every 3rd
  // evaluation returns IoError. The retry re-evaluates the point (hit
  // count advances past the firing multiple), so each faulted tick
  // succeeds on the next attempt with identical configuration.
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("pipeline.lp_dispatch=error(io)@every3").ok());

  std::map<int64_t, TickObservation> got;
  ServerStats stats;
  {
    StreamServer server(cfg);
    server.Subscribe([&](const TickResult& t) {
      got[TickKey(t.window_end)] = ObservationOf(t);
    });
    ASSERT_TRUE(server.Start().ok());
    for (auto& batch : BatchEdges(ordered, 1000)) {
      ASSERT_TRUE(server.Ingest(std::move(batch)));
    }
    server.Flush();
    stats = server.stats();
    server.Stop();
    // Transient faults absorbed by retries are not recorded as errors.
    EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  }

  EXPECT_GE(stats.tick_retries, 1);
  EXPECT_EQ(stats.ticks_failed, 0);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, obs] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    EXPECT_EQ(got[key].labels, obs.labels) << "tick " << key;
    EXPECT_EQ(got[key].confirmed, obs.confirmed) << "tick " << key;
  }
}

TEST_F(ChaosTest, PersistentEngineFaultFallsBackToCpu) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = BaseServerConfig(stream);
  cfg.detect.engine = lp::EngineKind::kGlp;  // simulated-GPU engine
  cfg.resilience.enable_engine_fallback = true;
  cfg.resilience.fallback_engine = lp::EngineKind::kSeq;

  // The GPU engine faults on every dispatch; only the final retry attempt
  // (which switches to the CPU fallback engine) can succeed.
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("lp.engine.glp=error(internal)").ok());

  int ticks_seen = 0;
  StreamServer server(cfg);
  server.Subscribe([&](const TickResult& t) {
    if (t.detection.window_vertices > 0) ++ticks_seen;
  });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();

  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  EXPECT_GE(ticks_seen, 4);
  EXPECT_EQ(stats.ticks_failed, 0);
  // Every non-empty tick burned its non-fallback attempts, then succeeded
  // on the CPU engine.
  EXPECT_GE(stats.engine_fallbacks, ticks_seen);
  EXPECT_GE(stats.tick_retries, ticks_seen);
}

TEST_F(ChaosTest, FatalFaultWakesBlockedProducersAndKillsServer) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = BaseServerConfig(stream);
  cfg.max_queue_batches = 1;  // producers block quickly once the loop dies

  // InvalidArgument is not transient: the first tick is fatal, the
  // detection thread records the error, wakes every parked producer with
  // Ingest() == false, and exits.
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.tick=error(invalid)").ok());

  StreamServer server(cfg);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> rejected{false};
  std::vector<std::thread> producers;
  auto batches = BatchEdges(ordered, 200);
  const size_t per_producer = batches.size() / 3 + 1;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      const size_t lo = static_cast<size_t>(p) * per_producer;
      const size_t hi = std::min(batches.size(), lo + per_producer);
      for (size_t i = lo; i < hi; ++i) {
        if (!server.Ingest(std::move(batches[i]))) {
          rejected.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  // Flush must not hang on a dead loop either.
  server.Flush();

  EXPECT_TRUE(rejected.load());
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.last_error().code(), StatusCode::kInvalidArgument)
      << server.last_error().ToString();
  EXPECT_FALSE(server.Ingest({{1, 2, 0.5}}));
  server.Stop();
}

TEST_F(ChaosTest, OverloadShedsOverdueTicksBoundedly) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = BaseServerConfig(stream);
  cfg.tick.every_days = 0.5;            // ~80 boundaries over the stream
  cfg.resilience.tick_deadline_seconds = 1e-7;     // every real tick overruns
  cfg.resilience.degraded_iteration_cap = 2;

  std::vector<double> tick_ends;
  StreamServer server(cfg);
  server.Subscribe(
      [&](const TickResult& t) { tick_ends.push_back(t.window_end); });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchEdges(ordered, 2000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  ASSERT_FALSE(tick_ends.empty());

  // Under overload the server sheds (visibly) instead of queueing ticks
  // without bound...
  EXPECT_GE(stats.deadline_overruns, 1);
  EXPECT_GE(stats.ticks_shed, 1);
  EXPECT_GE(stats.degraded_ticks, 1);
  // ...ticks + shed boundaries account for every boundary the stream
  // crossed (nothing silently dropped)...
  const double total_boundaries =
      std::floor(ordered.back().time / cfg.tick.every_days) -
      std::floor(ordered.front().time / cfg.tick.every_days);
  EXPECT_GE(stats.ticks + stats.ticks_shed,
            static_cast<int64_t>(total_boundaries));
  // ...and detection stays caught up: the last tick ends within one
  // cadence of the stream head (bounded lag, not an ever-growing backlog).
  EXPECT_GE(tick_ends.back(), ordered.back().time - cfg.tick.every_days);
}

TEST_F(ChaosTest, KillRestoreReplayMatchesUninterruptedRun) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const std::string dir = MakeTempDir("restore");

  ServerConfig cfg = BaseServerConfig(stream);
  // Incremental, so the checkpoint must carry the label anchors faithfully.
  cfg.tick.incremental = true;

  // Uninterrupted baseline.
  const auto want = RunAndObserve(cfg, ordered);
  ASSERT_GE(want.size(), 6u);

  // Run A: checkpoint every 2 ticks, kill (Stop + abandon) mid-stream.
  ServerConfig cfg_a = cfg;
  cfg_a.checkpoint.dir = dir;
  cfg_a.checkpoint.every_ticks = 2;
  int64_t a_ticks = 0;
  {
    StreamServer server(cfg_a);
    server.Subscribe([&](const TickResult&) { ++a_ticks; });
    ASSERT_TRUE(server.Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t half = batches.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(server.Ingest(std::move(batches[i])));
    }
    server.Flush();
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.checkpoints_written, 1);
    EXPECT_EQ(stats.checkpoint_failures, 0);
    server.Stop();  // "kill": everything after the last checkpoint is lost
  }
  ASSERT_GE(a_ticks, 2);

  // Run B: restore the newest checkpoint, replay the canonical stream from
  // the returned edge index, and compare every subsequent tick against the
  // uninterrupted baseline.
  ServerConfig cfg_b = cfg;  // no checkpointing on the restored run
  StreamServer server(cfg_b);
  std::map<int64_t, TickObservation> got;
  int64_t first_restored_tick = -1;
  server.Subscribe([&](const TickResult& t) {
    if (first_restored_tick < 0) first_restored_tick = t.tick;
    got[TickKey(t.window_end)] = ObservationOf(t);
  });
  auto restored = server.RestoreFromCheckpoint(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GE(restored.value().tick, 2);
  EXPECT_EQ(restored.value().tick % cfg_a.checkpoint.every_ticks, 0);
  ASSERT_LT(restored.value().num_edges, ordered.size());

  ASSERT_TRUE(server.Start().ok());
  for (auto& batch :
       BatchEdges(ordered, 1000,
                  static_cast<size_t>(restored.value().num_edges))) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  // Tick numbering resumes where the checkpoint left off.
  EXPECT_EQ(first_restored_tick, restored.value().tick);
  ASSERT_FALSE(got.empty());
  for (const auto& [key, obs] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    EXPECT_EQ(obs.labels, want.at(key).labels) << "tick " << key;
    EXPECT_EQ(obs.confirmed, want.at(key).confirmed) << "tick " << key;
  }
  // The restored run covers every baseline tick after the checkpoint.
  int64_t covered = 0;
  for (const auto& [key, obs] : want) covered += got.count(key);
  EXPECT_EQ(covered, static_cast<int64_t>(got.size()));
  EXPECT_EQ(static_cast<int64_t>(want.size()),
            restored.value().tick + static_cast<int64_t>(got.size()));
}

TEST_F(ChaosTest, IncrementalKillRestoreReplayMatchesUninterruptedRun) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const std::string dir = MakeTempDir("inc_restore");

  ServerConfig cold = BaseServerConfig(stream);
  ServerConfig inc = cold;
  inc.tick.incremental = true;

  // The incremental exactness bar survives kill/restore: a restored
  // incremental run must keep matching the uninterrupted COLD replay.
  const auto want = RunAndObserve(cold, ordered);
  ASSERT_GE(want.size(), 6u);

  // Run A: incremental with checkpoints, killed mid-stream.
  ServerConfig cfg_a = inc;
  cfg_a.checkpoint.dir = dir;
  cfg_a.checkpoint.every_ticks = 2;
  {
    StreamServer server(cfg_a);
    server.Subscribe([](const TickResult&) {});
    ASSERT_TRUE(server.Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t half = batches.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(server.Ingest(std::move(batches[i])));
    }
    server.Flush();
    EXPECT_GE(server.stats().checkpoints_written, 1);
    server.Stop();
  }

  // Run B: restore + replay the canonical tail, still incremental.
  StreamServer server(inc);
  std::map<int64_t, TickObservation> got;
  server.Subscribe([&](const TickResult& t) {
    got[TickKey(t.window_end)] = ObservationOf(t);
  });
  auto restored = server.RestoreFromCheckpoint(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_LT(restored.value().num_edges, ordered.size());
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch :
       BatchEdges(ordered, 1000,
                  static_cast<size_t>(restored.value().num_edges))) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  EXPECT_EQ(stats.ticks_failed, 0);
  ASSERT_FALSE(got.empty());
  for (const auto& [key, obs] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    EXPECT_EQ(obs.labels, want.at(key).labels) << "tick " << key;
    EXPECT_EQ(obs.confirmed, want.at(key).confirmed) << "tick " << key;
  }
}

TEST_F(ChaosTest, IncrementalRebuildFailpointKeepsOutputExact) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cold = BaseServerConfig(stream);

  // Baseline BEFORE arming anything: the failure-free cold output.
  const auto want = RunAndObserve(cold, ordered);
  ASSERT_GE(want.size(), 6u);

  // Every 3rd tick the incremental state is declared poisoned and the tick
  // must fall back to a full rebuild; every 4th LP dispatch throws a
  // transient IoError on top, exercising the retry ladder under
  // incremental mode. Neither may perturb the published output.
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.incremental_rebuild=error(internal)@every3;"
                        "pipeline.lp_dispatch=error(io)@every4")
                  .ok());

  ServerConfig inc = cold;
  inc.tick.incremental = true;
  std::map<int64_t, TickObservation> got;
  ServerStats stats;
  {
    StreamServer server(inc);
    server.Subscribe([&](const TickResult& t) {
      got[TickKey(t.window_end)] = ObservationOf(t);
    });
    ASSERT_TRUE(server.Start().ok());
    for (auto& batch : BatchEdges(ordered, 1000)) {
      ASSERT_TRUE(server.Ingest(std::move(batch)));
    }
    server.Flush();
    stats = server.stats();
    server.Stop();
    EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  }

  EXPECT_GE(stats.incremental_rebuilds, 2);
  EXPECT_GE(stats.tick_retries, 1);
  EXPECT_EQ(stats.ticks_failed, 0);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, obs] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    EXPECT_EQ(got[key].labels, obs.labels) << "tick " << key;
    EXPECT_EQ(got[key].confirmed, obs.confirmed) << "tick " << key;
  }
}

TEST_F(ChaosTest, RandomizedFailpointScheduleNeverDeadlocks) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);

  // A seeded random schedule over every serve/pipeline failpoint: transient
  // error codes and small delays only (fatal codes are covered separately).
  const char* points[] = {"serve.ingest", "serve.window_append", "serve.tick",
                          "pipeline.lp_dispatch", "pipeline.extract"};
  const char* codes[] = {"io", "capacity", "internal"};
  Rng rng(20260806);
  auto& reg = fail::FailpointRegistry::Global();
  reg.set_seed(rng.Next());
  std::string spec;
  for (const char* point : points) {
    if (!spec.empty()) spec += ";";
    spec += point;
    spec += "=";
    const uint32_t kind = rng.Bounded(3);
    if (kind == 0) {
      spec += "delay(1)";
    } else {
      spec += std::string("error(") + codes[rng.Bounded(3)] + ")";
      if (kind == 2) spec += "+delay(1)";
    }
    spec += "@1in" + std::to_string(2 + rng.Bounded(5));
  }
  SCOPED_TRACE(spec);
  ASSERT_TRUE(reg.Parse(spec).ok());

  ServerConfig cfg = BaseServerConfig(stream);
  cfg.tick.every_days = 2.0;
  cfg.max_queue_batches = 2;

  StreamServer server(cfg);
  std::atomic<int> ticks{0};
  server.Subscribe([&](const TickResult&) { ticks.fetch_add(1); });
  ASSERT_TRUE(server.Start().ok());
  size_t accepted = 0;
  for (auto& batch : BatchEdges(ordered, 500)) {
    // serve.ingest faults legitimately reject batches; the stream goes on.
    accepted += server.Ingest(std::move(batch)) ? 1 : 0;
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();

  // The chaos schedule may abandon ticks and drop batches — but the server
  // must drain, stop cleanly, and keep the books balanced.
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(ticks.load(), 1);
  EXPECT_EQ(stats.ticks, ticks.load());
  EXPECT_EQ(stats.batches_ingested, static_cast<int64_t>(accepted));
}

// ---------------------------------------------------------------------------
// Checkpoint file format
// ---------------------------------------------------------------------------

CheckpointData SampleCheckpoint() {
  CheckpointData data;
  data.tick = 7;
  data.tick_schedule_primed = true;
  data.next_tick_end = 35.0;
  data.ingested_max_time = 36.5;
  data.edges = {{1, 2, 0.5}, {2, 3, 1.25}, {1, 3, 2.0}};
  data.prev_confirmed = {{10, 20}, {30, 40, 50}};
  data.has_incremental = true;
  data.inc_entities = {1, 2, 3};
  data.inc_anchors = {1, 1, 3};
  return data;
}

TEST_F(ChaosTest, CheckpointRoundTripsExactly) {
  const std::string dir = MakeTempDir("roundtrip");
  const std::string path = dir + "/" + CheckpointFileName(7);
  const CheckpointData data = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(path, data).ok());

  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CheckpointData& got = loaded.value();
  EXPECT_EQ(got.tick, data.tick);
  EXPECT_EQ(got.tick_schedule_primed, data.tick_schedule_primed);
  EXPECT_EQ(got.next_tick_end, data.next_tick_end);
  EXPECT_EQ(got.ingested_max_time, data.ingested_max_time);
  ASSERT_EQ(got.edges.size(), data.edges.size());
  for (size_t i = 0; i < got.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].src, data.edges[i].src);
    EXPECT_EQ(got.edges[i].dst, data.edges[i].dst);
    EXPECT_EQ(got.edges[i].time, data.edges[i].time);
  }
  EXPECT_EQ(got.prev_confirmed, data.prev_confirmed);
  EXPECT_EQ(got.has_incremental, data.has_incremental);
  EXPECT_EQ(got.inc_entities, data.inc_entities);
  EXPECT_EQ(got.inc_anchors, data.inc_anchors);
}

// Files from builds that still ran warm-start ticks carry warm anchors in
// the two arrays after `edges` and set flag bit 2. Those fields are now
// reserved: such a file must load with every other field intact.
TEST_F(ChaosTest, CheckpointWithLegacyWarmAnchorsStillLoads) {
  const std::string dir = MakeTempDir("legacy_warm");
  const std::string path = dir + "/" + CheckpointFileName(7);
  const CheckpointData data = SampleCheckpoint();

  // Format v4, hand-encoded: magic, version, flags, header, edges, the two
  // warm arrays, confirmed clusters, incremental anchors, WAL position,
  // then an FNV-1a checksum over everything before it.
  std::string bytes;
  auto pod = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto vec = [&pod, &bytes](const auto& v) {
    pod(static_cast<uint64_t>(v.size()));
    bytes.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(v[0]));
  };
  pod(uint64_t{0x31544b5043504c47ULL});  // "GLPCPKT1"
  pod(uint32_t{4});
  pod(uint32_t{1u | 2u | 4u});  // primed, warm anchors, incremental
  pod(data.tick);
  pod(data.next_tick_end);
  pod(data.ingested_max_time);
  vec(data.edges);
  vec(std::vector<VertexId>{10, 20, 30});
  vec(std::vector<graph::Label>{0, 0, 2});
  pod(static_cast<uint64_t>(data.prev_confirmed.size()));
  for (const auto& members : data.prev_confirmed) vec(members);
  vec(data.inc_entities);
  vec(data.inc_anchors);
  pod(data.wal_seq);
  pod(data.wal_epoch);
  uint64_t sum = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    sum ^= static_cast<unsigned char>(c);
    sum *= 0x100000001b3ULL;
  }
  pod(sum);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CheckpointData& got = loaded.value();
  EXPECT_EQ(got.tick, data.tick);
  EXPECT_TRUE(got.tick_schedule_primed);
  EXPECT_EQ(got.next_tick_end, data.next_tick_end);
  EXPECT_EQ(got.edges.size(), data.edges.size());
  EXPECT_EQ(got.prev_confirmed, data.prev_confirmed);
  EXPECT_TRUE(got.has_incremental);
  EXPECT_EQ(got.inc_entities, data.inc_entities);
  EXPECT_EQ(got.inc_anchors, data.inc_anchors);
}

TEST_F(ChaosTest, CheckpointRejectsCorruption) {
  const std::string dir = MakeTempDir("corrupt");
  const std::string path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(SaveCheckpoint(path, SampleCheckpoint()).ok());

  // Flip one payload byte: the checksum trailer must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(40);
    f.write(&b, 1);
  }
  EXPECT_FALSE(LoadCheckpoint(path).ok());
}

TEST_F(ChaosTest, LatestCheckpointSkipsTornNewestFile) {
  const std::string dir = MakeTempDir("torn");
  const std::string older = dir + "/" + CheckpointFileName(2);
  const std::string newer = dir + "/" + CheckpointFileName(4);
  ASSERT_TRUE(SaveCheckpoint(older, SampleCheckpoint()).ok());
  ASSERT_TRUE(SaveCheckpoint(newer, SampleCheckpoint()).ok());
  // Truncate the newest file (a torn write that beat the rename trick by
  // dying after rename — e.g. a truncated filesystem journal).
  std::filesystem::resize_file(newer, 16);

  auto latest = LatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value(), older);
}

TEST_F(ChaosTest, CheckpointSaveHonorsFailpoint) {
  const std::string dir = MakeTempDir("savefp");
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.checkpoint=error(io)").ok());
  const std::string path = dir + "/" + CheckpointFileName(1);
  const Status st = SaveCheckpoint(path, SampleCheckpoint());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Checkpoint pruning edge cases
// ---------------------------------------------------------------------------

std::vector<std::string> CheckpointFilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// One durable WAL segment in `wal_dir` — the condition under which the
/// WAL-aware prune overload must retain a replay base.
void WriteWalSegment(const std::string& wal_dir) {
  auto wal = wal::Wal::Open(wal_dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(wal.value()->Append({{1, 2, 0.5}}, 1.0).ok());
}

/// A complete `num_shards`-shard fleet snapshot at `tick`: manifest, coord
/// file and one file per shard.
void WriteFleetSnapshot(const std::string& dir, int64_t tick,
                        int num_shards = 2) {
  ShardManifest m;
  m.tick = tick;
  m.num_shards = num_shards;
  m.coord_file = CoordCheckpointFileName(tick);
  ASSERT_TRUE(
      SaveCheckpoint(dir + "/" + m.coord_file, SampleCheckpoint()).ok());
  for (int s = 0; s < m.num_shards; ++s) {
    m.shard_files.push_back(ShardCheckpointFileName(s, tick));
    ASSERT_TRUE(
        SaveCheckpoint(dir + "/" + m.shard_files.back(), SampleCheckpoint())
            .ok());
  }
  ASSERT_TRUE(
      SaveShardManifest(dir + "/" + ShardManifestFileName(tick), m).ok());
}

/// Asserts `dir` holds exactly the files of the `num_shards`-shard
/// snapshot at `tick` (manifest + coord + one per shard).
void ExpectOnlySnapshot(const std::string& dir, int64_t tick,
                        int num_shards = 2) {
  const std::vector<std::string> kept = CheckpointFilesIn(dir);
  ASSERT_EQ(kept.size(), static_cast<size_t>(num_shards) + 2);
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%012lld",
                static_cast<long long>(tick));
  for (const std::string& name : kept) {
    EXPECT_NE(name.find(suffix), std::string::npos) << name;
  }
  auto latest = LatestShardedCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().manifest.tick, tick);
}

TEST_F(ChaosTest, PruneSkipsTornFilesWhenFillingKeepSlots) {
  const std::string dir = MakeTempDir("prune_torn_slots");
  for (const int64_t tick : {2, 4, 6}) WriteFleetSnapshot(dir, tick);
  // The newest manifest is torn: it must not occupy the single keep slot
  // (which would prune the only restorable state) — its snapshot gets
  // deleted and tick 4 is what survives.
  std::filesystem::resize_file(dir + "/" + ShardManifestFileName(6), 16);

  ASSERT_TRUE(PruneShardCheckpoints(dir, 1).ok());
  ExpectOnlySnapshot(dir, 4);
}

TEST_F(ChaosTest, PruneKeepZeroDeletesEveryCheckpoint) {
  const std::string dir = MakeTempDir("prune_keep0");
  for (const int64_t tick : {1, 2}) WriteFleetSnapshot(dir, tick);
  ASSERT_TRUE(PruneShardCheckpoints(dir, 0).ok());
  EXPECT_TRUE(CheckpointFilesIn(dir).empty());
  // Negative keep behaves like 0, and pruning an empty dir stays OK.
  ASSERT_TRUE(PruneShardCheckpoints(dir, -3).ok());
  EXPECT_TRUE(CheckpointFilesIn(dir).empty());
}

TEST_F(ChaosTest, PruneTornOnlyDirectoryConvergesToEmpty) {
  const std::string dir = MakeTempDir("prune_all_torn");
  for (const int64_t tick : {3, 5}) {
    WriteFleetSnapshot(dir, tick);
    std::filesystem::resize_file(dir + "/" + ShardCheckpointFileName(1, tick),
                                 16);
  }
  // Garbage never occupies keep slots: even with keep=2 the directory
  // converges to empty instead of shielding two unloadable snapshots.
  ASSERT_TRUE(PruneShardCheckpoints(dir, 2).ok());
  EXPECT_TRUE(CheckpointFilesIn(dir).empty());
}

TEST_F(ChaosTest, WalAwarePruneRetainsReplayBase) {
  // A one-shard server's snapshots: the prune must treat them like any
  // fleet's.
  const std::string dir = MakeTempDir("prune_walaware");
  const std::string wal_dir = MakeTempDir("prune_walaware_wal");
  const std::string empty_wal_dir = MakeTempDir("prune_walaware_nowal");
  WriteWalSegment(wal_dir);
  for (const int64_t tick : {2, 4}) WriteFleetSnapshot(dir, tick, 1);

  // Surviving WAL segments replay on top of the newest snapshot, so even
  // keep=0 retains it.
  ASSERT_TRUE(PruneShardCheckpoints(dir, 0, wal_dir).ok());
  ExpectOnlySnapshot(dir, 4, 1);

  // A WAL dir without segments imposes nothing: keep=0 now deletes it.
  ASSERT_TRUE(PruneShardCheckpoints(dir, 0, empty_wal_dir).ok());
  EXPECT_TRUE(CheckpointFilesIn(dir).empty());
}

TEST_F(ChaosTest, WalAwareShardPruneRetainsNewestManifest) {
  const std::string dir = MakeTempDir("prune_shard_wal");
  const std::string wal_dir = MakeTempDir("prune_shard_wal_wal");
  WriteWalSegment(wal_dir);
  for (const int64_t tick : {2, 4}) WriteFleetSnapshot(dir, tick);

  // keep=0 with live WAL segments: the newest manifest and its whole file
  // set survive (4 files: manifest + coord + 2 shards), tick 2's set goes.
  ASSERT_TRUE(PruneShardCheckpoints(dir, 0, wal_dir).ok());
  ExpectOnlySnapshot(dir, 4);

  // Without the WAL, keep=0 empties the directory.
  ASSERT_TRUE(PruneShardCheckpoints(dir, 0).ok());
  EXPECT_TRUE(CheckpointFilesIn(dir).empty());
}

}  // namespace
}  // namespace glp::serve
