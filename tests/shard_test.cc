// Sharded-fleet tests (DESIGN.md §4.9): an N-shard StreamServer must
// reproduce the 1-shard server's ticks exactly — clusters, labels and
// per-vertex labels alike — on cold canonical replay, stay equivalent under a
// transient-fault chaos schedule, restore atomically from per-shard
// checkpoints — including falling back to the previous complete snapshot
// when one shard file of the newest manifest is lost — and the sharded
// manifest format must round-trip and prune correctly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "util/failpoint.h"

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

/// Cold, fixed-iteration configuration: with a fixed synchronous iteration
/// count, per-component LP is order-isomorphic to the global run, so
/// shard-count equivalence is exact (see serve/server.h).
ServerConfig ColdServerConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.max_iterations = 20;
  cfg.detect.lp.stop_when_stable = false;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 5.0;
  cfg.resilience.retry_backoff_ms = 0.1;
  cfg.resilience.max_retry_backoff_ms = 1.0;
  return cfg;
}

int64_t TickKey(double window_end) {
  return static_cast<int64_t>(std::llround(window_end * 4));
}

/// Shard-count-independent view of one tick: cluster member sets (labels
/// are renumbered across shard counts, member sets are not), the confirmed
/// subset, and the aggregate window/metric counts.
struct TickView {
  std::set<std::vector<VertexId>> clusters;
  std::set<std::vector<VertexId>> confirmed;
  size_t window_vertices = 0;
  size_t window_edges = 0;
  int64_t confirmed_tp = 0;
};

TickView ViewOf(const TickResult& t) {
  TickView v;
  for (const auto& c : t.detection.clusters) {
    v.clusters.insert(c.members);
    if (c.confirmed) v.confirmed.insert(c.members);
  }
  v.window_vertices = t.detection.window_vertices;
  v.window_edges = t.detection.window_edges;
  v.confirmed_tp = t.detection.confirmed_metrics.true_positives;
  return v;
}

void ExpectSameView(const TickView& got, const TickView& want, int64_t key) {
  EXPECT_EQ(got.clusters, want.clusters) << "tick " << key;
  EXPECT_EQ(got.confirmed, want.confirmed) << "tick " << key;
  EXPECT_EQ(got.window_vertices, want.window_vertices) << "tick " << key;
  EXPECT_EQ(got.window_edges, want.window_edges) << "tick " << key;
  EXPECT_EQ(got.confirmed_tp, want.confirmed_tp) << "tick " << key;
}

/// Sum of the fleet's glp_serve_shard_components gauges: the connected
/// components of the last tick's window.
int64_t ComponentsOwned(StreamServer& server) {
  double sum = 0;
  for (int k = 0; k < server.num_shards(); ++k) {
    sum += server.metrics()
               ->GetGauge("glp_serve_shard_components", "",
                          {{"shard", std::to_string(k)}})
               ->Value();
  }
  return static_cast<int64_t>(sum);
}

/// Replays `batches` through an N-shard fleet. `stats_out` and
/// `components_out` (ComponentsOwned) are read at the end of the replay.
std::map<int64_t, TickView> Replay(
    const ServerConfig& cfg, int num_shards,
    std::vector<std::vector<TimedEdge>> batches,
    ServerStats* stats_out = nullptr, int64_t* components_out = nullptr) {
  std::map<int64_t, TickView> out;
  StreamServer server(cfg, num_shards);
  server.Subscribe(
      [&](const TickResult& t) { out[TickKey(t.window_end)] = ViewOf(t); });
  EXPECT_TRUE(server.Start().ok());
  for (auto& batch : batches) {
    EXPECT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  if (stats_out != nullptr) *stats_out = server.stats();
  if (components_out != nullptr) *components_out = ComponentsOwned(server);
  server.Stop();
  EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  return out;
}

/// Replays the canonical stream through a 1-shard StreamServer.
std::map<int64_t, TickView> RunSingle(const ServerConfig& cfg,
                                      const std::vector<TimedEdge>& ordered,
                                      int64_t* components_out = nullptr) {
  return Replay(cfg, 1, BatchEdges(ordered, 1000), nullptr, components_out);
}

/// Replays the canonical stream through an N-shard fleet.
std::map<int64_t, TickView> RunSharded(const ServerConfig& cfg,
                                       int num_shards,
                                       const std::vector<TimedEdge>& ordered,
                                       ServerStats* stats_out = nullptr,
                                       int64_t* components_out = nullptr) {
  return Replay(cfg, num_shards, BatchEdges(ordered, 1000), stats_out,
                components_out);
}

/// The canonical stream in 1000-edge batches, except that every seventh
/// edge of days [19, 20) is held back and delivered as one late batch once
/// the stream has passed day 26. The tick ending at day 25 has already
/// taken those days into its window range, so the late edges sort inside
/// the previous range: the next window advance is inexact.
std::vector<std::vector<TimedEdge>> LateBatchInput(
    const std::vector<TimedEdge>& ordered) {
  std::vector<TimedEdge> on_time, late;
  for (size_t i = 0; i < ordered.size(); ++i) {
    const TimedEdge& e = ordered[i];
    (e.time >= 19 && e.time < 20 && i % 7 == 0 ? late : on_time).push_back(e);
  }
  std::vector<std::vector<TimedEdge>> out;
  for (auto& batch : BatchEdges(on_time, 1000)) {
    out.push_back(std::move(batch));
    if (!late.empty() && out.back().back().time >= 26) {
      out.push_back(std::move(late));
      late.clear();
    }
  }
  return out;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FailpointRegistry::Global().ResetToEnv(); }
  void TearDown() override { fail::FailpointRegistry::Global().ResetToEnv(); }

  std::string MakeTempDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "glp_shard_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  std::vector<std::string> dirs_;

  ~ShardTest() override {
    for (const auto& d : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

// The acceptance invariant: an N-shard cold replay of the canonical stream
// produces exactly the 1-shard confirmed clusters (up to renumbering) at
// every tick — for both a power-of-two and an odd shard count. The fleet
// tracker gives the components in cold mode too, so the input also drives
// its rebuild path: a late batch that makes a window delta inexact, and an
// armed serve.incremental_rebuild failpoint on the N-shard side. The
// per-shard component gauges sum to the 1-shard count.
TEST_F(ShardTest, ColdShardedReplayMatchesSingleShardExactly) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);

  int64_t want_components = 0;
  const auto want = RunSingle(cfg, ordered, &want_components);
  ASSERT_GE(want.size(), 4u);
  EXPECT_GT(want_components, 0);

  auto expect_same = [&](const std::map<int64_t, TickView>& got,
                         const std::map<int64_t, TickView>& base) {
    ASSERT_EQ(got.size(), base.size());
    for (const auto& [key, view] : base) {
      ASSERT_TRUE(got.count(key)) << "missing tick " << key;
      ExpectSameView(got.at(key), view, key);
    }
  };
  for (const int shards : {4, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerStats stats;
    int64_t components = 0;
    const auto got = RunSharded(cfg, shards, ordered, &stats, &components);
    expect_same(got, want);
    EXPECT_EQ(stats.ticks, static_cast<int64_t>(got.size()));
    EXPECT_EQ(stats.ticks_failed, 0);
    EXPECT_EQ(components, want_components);
  }

  {
    SCOPED_TRACE("late batch");
    const auto late_want = Replay(cfg, 1, LateBatchInput(ordered));
    ASSERT_GE(late_want.size(), 4u);
    ServerStats stats;
    const auto got = Replay(cfg, 3, LateBatchInput(ordered), &stats);
    expect_same(got, late_want);
    // The first tick and the one after the late batch rebuild.
    EXPECT_GE(stats.incremental_rebuilds, 2);
    EXPECT_EQ(stats.ticks_failed, 0);
  }

  {
    SCOPED_TRACE("serve.incremental_rebuild armed");
    ASSERT_TRUE(fail::FailpointRegistry::Global()
                    .Parse("serve.incremental_rebuild=error(internal)@every2")
                    .ok());
    ServerStats stats;
    const auto got = RunSharded(cfg, 3, ordered, &stats);
    fail::FailpointRegistry::Global().ResetToEnv();
    expect_same(got, want);
    EXPECT_GE(stats.incremental_rebuilds, 2);
    EXPECT_EQ(stats.ticks_failed, 0);
  }
}

// Stitched ticks are expressed in the window's canonical local-id space:
// per-vertex labels and cluster labels (and so cluster order) of every
// N-shard tick equal the 1-shard tick's.
TEST_F(ShardTest, ShardedLabelsMatchSingleShard) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  struct Labels {
    std::vector<graph::Label> vertex;
    std::vector<std::pair<graph::Label, std::vector<VertexId>>> clusters;
  };
  auto run = [&](int num_shards, std::string* metrics_text) {
    std::map<int64_t, Labels> out;
    StreamServer server(cfg, num_shards);
    server.Subscribe([&](const TickResult& t) {
      Labels& l = out[TickKey(t.window_end)];
      l.vertex = t.detection.lp.labels;
      EXPECT_EQ(l.vertex.size(), t.detection.window_vertices);
      for (const auto& c : t.detection.clusters) {
        l.clusters.emplace_back(c.label, c.members);
      }
    });
    EXPECT_TRUE(server.Start().ok());
    for (auto& batch : BatchEdges(ordered, 1000)) {
      EXPECT_TRUE(server.Ingest(std::move(batch)));
    }
    server.Flush();
    server.Stop();
    EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
    if (metrics_text != nullptr) {
      *metrics_text = server.metrics()->PrometheusText();
    }
    return out;
  };

  const auto want = run(1, nullptr);
  ASSERT_GE(want.size(), 4u);
  int nonempty_ticks = 0;
  for (const auto& [key, l] : want) nonempty_ticks += !l.clusters.empty();
  EXPECT_GE(nonempty_ticks, 4);
  for (const int shards : {4, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::string text;
    const auto got = run(shards, &text);
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [key, l] : want) {
      ASSERT_TRUE(got.count(key)) << "missing tick " << key;
      EXPECT_EQ(got.at(key).vertex, l.vertex) << "tick " << key;
      EXPECT_EQ(got.at(key).clusters, l.clusters) << "tick " << key;
    }
    // Per-shard metric families are registered under the shard label.
    EXPECT_NE(text.find("glp_serve_shard_window_edges"), std::string::npos);
    EXPECT_NE(text.find("shard=\"" + std::to_string(shards - 1) + "\""),
              std::string::npos);
  }
}

// Confirmed-cluster diffs from the stitcher must replay to the current
// confirmed set, exactly as the 1-shard server's diffs do.
TEST_F(ShardTest, ShardedConfirmedDiffsReplayToCurrentSet) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);

  std::set<std::vector<VertexId>> state;
  bool saw_confirmed = false;
  StreamServer server(cfg, 4);
  server.Subscribe([&](const TickResult& t) {
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
  });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();
  EXPECT_TRUE(saw_confirmed);
}

// A server built from a default ServerConfig (no tick policy set: cold
// ticks on the default cadence and engine) publishes the same confirmed
// diffs, tick for tick, on 3 shards as on 1.
TEST_F(ShardTest, DefaultConfigShardedDiffsMatchSingleShard) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg;
  cfg.seeds = stream.seeds;
  using Diffs = std::pair<std::vector<std::vector<VertexId>>,
                          std::vector<std::vector<VertexId>>>;
  auto run = [&](int num_shards) {
    std::map<int64_t, Diffs> out;
    StreamServer server(cfg, num_shards);
    server.Subscribe([&](const TickResult& t) {
      out[TickKey(t.window_end)] = {t.new_confirmed, t.expired_confirmed};
    });
    EXPECT_TRUE(server.Start().ok());
    for (auto& batch : BatchEdges(ordered, 1000)) {
      EXPECT_TRUE(server.Ingest(std::move(batch)));
    }
    server.Flush();
    server.Stop();
    EXPECT_TRUE(server.last_error().ok()) << server.last_error().ToString();
    return out;
  };

  const auto want = run(1);
  ASSERT_GE(want.size(), 4u);
  size_t diffs = 0;
  for (const auto& [key, d] : want) diffs += d.first.size() + d.second.size();
  EXPECT_GT(diffs, 0u);
  EXPECT_EQ(run(3), want);
}

// Equivalence must survive chaos: transient faults on the per-owner tick
// and LP-dispatch paths plus injected append latency are absorbed by the
// per-shard retry ladder without output divergence. (Only schedules retries
// always absorb belong here — rejection faults and deadlines legitimately
// change output and are covered by the resilience tests.)
TEST_F(ShardTest, ChaosScheduleDoesNotDivergeShardedOutput) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);

  // Fault-free sharded baseline first.
  const auto want = RunSharded(cfg, 4, ordered);
  ASSERT_GE(want.size(), 4u);

  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.tick=error(io)@every4;"
                        "pipeline.lp_dispatch=error(internal)@every5;"
                        "serve.window_append=delay(1)@1in3")
                  .ok());

  ServerStats stats;
  const auto got = RunSharded(cfg, 4, ordered, &stats);
  EXPECT_GE(stats.tick_retries, 1);
  EXPECT_EQ(stats.ticks_failed, 0);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, view] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    ExpectSameView(got.at(key), view, key);
  }
}

// Kill the fleet mid-stream, lose one shard file of the newest snapshot,
// and restore: the fleet must fall back to the previous *complete*
// snapshot atomically (never a torn mix), and replaying the canonical
// stream from the returned edge index must reproduce the uninterrupted
// sharded run from that point on.
TEST_F(ShardTest, SingleShardKillRestoreFallsBackToCompleteSnapshot) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const std::string dir = MakeTempDir("restore");

  const ServerConfig cfg = ColdServerConfig(stream);

  // Uninterrupted sharded baseline.
  const auto want = RunSharded(cfg, 4, ordered);
  ASSERT_GE(want.size(), 6u);

  // Run A: checkpoint every tick, kill mid-stream.
  ServerConfig cfg_a = cfg;
  cfg_a.checkpoint.dir = dir;
  cfg_a.checkpoint.every_ticks = 1;
  cfg_a.checkpoint.keep = 8;
  {
    StreamServer server(cfg_a, 4);
    ASSERT_TRUE(server.Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t half = batches.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(server.Ingest(std::move(batches[i])));
    }
    server.Flush();
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.checkpoints_written, 2);
    EXPECT_EQ(stats.checkpoint_failures, 0);
    server.Stop();
  }

  auto newest = LatestShardedCheckpoint(dir);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  const int64_t newest_tick = newest.value().manifest.tick;
  ASSERT_GE(newest_tick, 2);

  // Truncate one shard file of the newest snapshot: that whole snapshot is
  // now unusable, and restore must fall back to the previous complete one.
  ASSERT_EQ(newest.value().manifest.shard_files.size(), 4u);
  std::filesystem::resize_file(dir + "/" + newest.value().manifest.shard_files[1],
                               16);

  // A different fleet size is no longer rejected: the snapshot is
  // shape-portable and a 2-shard server re-partitions it on load, falling
  // back past the torn snapshot the same way. (Full N->M output
  // equivalence is reshard_test's job.)
  {
    StreamServer other(cfg, 2);
    auto r = other.RestoreFromCheckpoint(dir);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tick, newest_tick - 1);
  }

  StreamServer server(cfg, 4);
  std::map<int64_t, TickView> got;
  int64_t first_restored_tick = -1;
  server.Subscribe([&](const TickResult& t) {
    if (first_restored_tick < 0) first_restored_tick = t.tick;
    got[TickKey(t.window_end)] = ViewOf(t);
  });
  auto restored = server.RestoreFromCheckpoint(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().tick, newest_tick - 1);
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

  EXPECT_EQ(first_restored_tick, restored.value().tick);
  ASSERT_FALSE(got.empty());
  for (const auto& [key, view] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    ExpectSameView(view, want.at(key), key);
  }
  // The restored run covers every baseline tick after the fallback point.
  EXPECT_EQ(static_cast<int64_t>(want.size()),
            restored.value().tick + static_cast<int64_t>(got.size()));
}

// Incremental mode composes with sharding: an N-shard incremental replay
// matches the 1-shard cold replay exactly at every tick, and the delta path
// actually engages (a single rebuild on the first, inexact tick).
TEST_F(ShardTest, IncrementalShardedReplayMatchesColdSingleShard) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cold = ColdServerConfig(stream);

  int64_t want_components = 0;
  const auto want = RunSingle(cold, ordered, &want_components);
  ASSERT_GE(want.size(), 4u);

  ServerConfig inc = cold;
  inc.tick.incremental = true;
  for (const int shards : {4, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerStats stats;
    int64_t components = 0;
    const auto got = RunSharded(inc, shards, ordered, &stats, &components);
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [key, view] : want) {
      ASSERT_TRUE(got.count(key)) << "missing tick " << key;
      ExpectSameView(got.at(key), view, key);
    }
    EXPECT_EQ(stats.ticks_failed, 0);
    EXPECT_EQ(stats.incremental_rebuilds, 1);
    // Delta ticks count components too, not only rebuild ticks.
    EXPECT_EQ(components, want_components);
  }
}

// Kill/restore on a sharded incremental fleet: the restored run re-primes
// the persistent union-find from the checkpointed anchors and keeps
// matching the uninterrupted incremental baseline tick for tick.
TEST_F(ShardTest, IncrementalShardedKillRestoreMatchesUninterrupted) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const std::string dir = MakeTempDir("inc_restore");

  ServerConfig inc = ColdServerConfig(stream);
  inc.tick.incremental = true;

  const auto want = RunSharded(inc, 4, ordered);
  ASSERT_GE(want.size(), 6u);

  // Run A: checkpoint every tick, kill mid-stream.
  ServerConfig cfg_a = inc;
  cfg_a.checkpoint.dir = dir;
  cfg_a.checkpoint.every_ticks = 1;
  cfg_a.checkpoint.keep = 8;
  {
    StreamServer server(cfg_a, 4);
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

  // Run B: restore and replay the canonical tail, still incremental.
  StreamServer server(inc, 4);
  std::map<int64_t, TickView> got;
  server.Subscribe(
      [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
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
  for (const auto& [key, view] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    ExpectSameView(view, want.at(key), key);
  }
  EXPECT_EQ(static_cast<int64_t>(want.size()),
            restored.value().tick + static_cast<int64_t>(got.size()));
}

// ---------------------------------------------------------------------------
// Sharded checkpoint file format
// ---------------------------------------------------------------------------

CheckpointData SampleShardData(int shard) {
  CheckpointData data;
  data.tick = 3;
  data.edges = {{static_cast<VertexId>(shard * 10 + 1),
                 static_cast<VertexId>(shard * 10 + 2), 0.5},
                {static_cast<VertexId>(shard * 10 + 2),
                 static_cast<VertexId>(shard * 10 + 3), 1.5}};
  return data;
}

/// Writes a complete fleet snapshot for `tick` into `dir`, manifest last.
ShardManifest WriteFleetSnapshot(const std::string& dir, int64_t tick,
                                 int num_shards) {
  ShardManifest m;
  m.tick = tick;
  m.num_shards = num_shards;
  m.coord_file = CoordCheckpointFileName(tick);
  CheckpointData coord;
  coord.tick = tick;
  coord.tick_schedule_primed = true;
  coord.next_tick_end = 5.0 * static_cast<double>(tick + 1);
  EXPECT_TRUE(SaveCheckpoint(dir + "/" + m.coord_file, coord).ok());
  for (int k = 0; k < num_shards; ++k) {
    m.shard_files.push_back(ShardCheckpointFileName(k, tick));
    EXPECT_TRUE(
        SaveCheckpoint(dir + "/" + m.shard_files.back(), SampleShardData(k))
            .ok());
  }
  EXPECT_TRUE(
      SaveShardManifest(dir + "/" + ShardManifestFileName(tick), m).ok());
  return m;
}

TEST_F(ShardTest, ShardManifestRoundTripsExactly) {
  const std::string dir = MakeTempDir("manifest");
  const ShardManifest m = WriteFleetSnapshot(dir, 7, 3);

  auto loaded = LoadShardManifest(dir + "/" + ShardManifestFileName(7));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tick, m.tick);
  EXPECT_EQ(loaded.value().num_shards, m.num_shards);
  EXPECT_EQ(loaded.value().coord_file, m.coord_file);
  EXPECT_EQ(loaded.value().shard_files, m.shard_files);

  auto full = LoadShardedCheckpoint(dir + "/" + ShardManifestFileName(7));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().coord.next_tick_end, 40.0);
  ASSERT_EQ(full.value().shards.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    const auto& got = full.value().shards[static_cast<size_t>(k)];
    const auto want = SampleShardData(k);
    ASSERT_EQ(got.edges.size(), want.edges.size());
    for (size_t i = 0; i < got.edges.size(); ++i) {
      EXPECT_EQ(got.edges[i].src, want.edges[i].src);
      EXPECT_EQ(got.edges[i].dst, want.edges[i].dst);
    }
  }
}

TEST_F(ShardTest, LatestShardedCheckpointSkipsIncompleteSnapshots) {
  const std::string dir = MakeTempDir("latest");
  WriteFleetSnapshot(dir, 2, 4);
  const ShardManifest newest = WriteFleetSnapshot(dir, 4, 4);

  // A missing shard file invalidates the whole newest snapshot.
  std::filesystem::remove(dir + "/" + newest.shard_files[2]);
  auto latest = LatestShardedCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().manifest.tick, 2);

  // With every snapshot incomplete, restore has nothing to offer.
  std::filesystem::remove(dir + "/" + CoordCheckpointFileName(2));
  auto none = LatestShardedCheckpoint(dir);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound)
      << none.status().ToString();
}

TEST_F(ShardTest, PruneShardCheckpointsRemovesWholeSnapshots) {
  const std::string dir = MakeTempDir("prune");
  const ShardManifest old_m = WriteFleetSnapshot(dir, 2, 2);
  const ShardManifest new_m = WriteFleetSnapshot(dir, 4, 2);

  ASSERT_TRUE(PruneShardCheckpoints(dir, 1).ok());

  // The pruned snapshot disappears whole: manifest, coord, and shard files.
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + ShardManifestFileName(2)));
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + old_m.coord_file));
  for (const auto& f : old_m.shard_files) {
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + f));
  }
  // The kept snapshot stays fully loadable.
  auto latest = LatestShardedCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().manifest.tick, 4);
  EXPECT_EQ(latest.value().manifest.shard_files, new_m.shard_files);
}

}  // namespace
}  // namespace glp::serve
