// Elastic resharding tests (DESIGN.md §4.14): checkpoints are portable
// across fleet sizes — an N-shard snapshot (or a flat single-file one)
// restores into an M-shard server — and a live fleet, one shard included,
// resizes without losing or duplicating an edge. The acceptance
// invariant mirrors shard_test's: after any resize, the confirmed-cluster
// stream is identical (up to renumbering) to an uninterrupted run, and the
// armed serve.reshard failpoint proves an aborted migration publishes
// nothing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/partition.h"
#include "pipeline/pipeline.h"
#include "pipeline/transactions.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "serve/server_iface.h"
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

/// Cold, fixed-iteration configuration — the same exactness regime
/// shard_test leans on, so output is shard-count independent by §4.9.
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

/// Shard-count-independent view of one tick (see shard_test.cc).
struct TickView {
  std::set<std::vector<VertexId>> clusters;
  std::set<std::vector<VertexId>> confirmed;
  size_t window_vertices = 0;
  size_t window_edges = 0;
};

TickView ViewOf(const TickResult& t) {
  TickView v;
  for (const auto& c : t.detection.clusters) {
    v.clusters.insert(c.members);
    if (c.confirmed) v.confirmed.insert(c.members);
  }
  v.window_vertices = t.detection.window_vertices;
  v.window_edges = t.detection.window_edges;
  return v;
}

void ExpectSameView(const TickView& got, const TickView& want, int64_t key) {
  EXPECT_EQ(got.clusters, want.clusters) << "tick " << key;
  EXPECT_EQ(got.confirmed, want.confirmed) << "tick " << key;
  EXPECT_EQ(got.window_vertices, want.window_vertices) << "tick " << key;
  EXPECT_EQ(got.window_edges, want.window_edges) << "tick " << key;
}

/// Uninterrupted N-shard replay through MakeServer.
std::map<int64_t, TickView> RunFleet(const ServerConfig& cfg, int num_shards,
                                     const std::vector<TimedEdge>& ordered) {
  std::map<int64_t, TickView> out;
  std::unique_ptr<Server> server = MakeServer(cfg, num_shards);
  server->Subscribe(
      [&](const TickResult& t) { out[TickKey(t.window_end)] = ViewOf(t); });
  EXPECT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    EXPECT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
  return out;
}

class ReshardTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FailpointRegistry::Global().ResetToEnv(); }
  void TearDown() override { fail::FailpointRegistry::Global().ResetToEnv(); }

  std::string MakeTempDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "glp_reshard_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  std::vector<std::string> dirs_;

  ~ReshardTest() override {
    for (const auto& d : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

// ---------------------------------------------------------------------------
// PartitionMap / PartitionOf units
// ---------------------------------------------------------------------------

TEST(PartitionMapTest, PartitionOfGuardsDegenerateCounts) {
  // num_parts <= 1 must return 0 — never evaluate v % 0 (UB).
  EXPECT_EQ(pipeline::PartitionOf(12345u, 0), 0);
  EXPECT_EQ(pipeline::PartitionOf(12345u, -3), 0);
  EXPECT_EQ(pipeline::PartitionOf(12345u, 1), 0);
  for (VertexId v : {0u, 1u, 7u, 1u << 20, 0xfffffffeu}) {
    const int p = pipeline::PartitionOf(v, 5);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
  }
}

TEST(PartitionMapTest, DefaultMapMatchesHashPartition) {
  const pipeline::PartitionMap map(4);
  EXPECT_EQ(map.num_parts(), 4);
  EXPECT_EQ(map.version(), 1u);
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_EQ(map.PartOf(v), pipeline::PartitionOf(v, 4));
  }
}

TEST(PartitionMapTest, OverridesAndRepartitioning) {
  pipeline::PartitionMap map(4);
  const VertexId v = 42;
  const int hashed = map.PartOf(v);
  map.SetOverride(v, (hashed + 1) % 4);
  EXPECT_EQ(map.PartOf(v), (hashed + 1) % 4);
  EXPECT_EQ(map.PartOf(v + 1), pipeline::PartitionOf(v + 1, 4));

  // Repartitioned: new count, bumped version, overrides dropped.
  const pipeline::PartitionMap next = map.Repartitioned(6);
  EXPECT_EQ(next.num_parts(), 6);
  EXPECT_EQ(next.version(), map.version() + 1);
  EXPECT_EQ(next.PartOf(v), pipeline::PartitionOf(v, 6));
  EXPECT_TRUE(next.override_keys().empty());
}

TEST_F(ReshardTest, ManifestV3RoundTripsPartitionMap) {
  const std::string dir = MakeTempDir("manifest");
  ShardManifest m;
  m.tick = 7;
  m.num_shards = 3;
  m.epoch = 2;
  m.coord_file = "coord-000000000007.ckpt";
  m.shard_files = {"a.ckpt", "b.ckpt", "c.ckpt"};
  m.map_version = 5;
  m.map_override_keys = {11, 42};
  m.map_override_parts = {2, 0};
  const std::string path = dir + "/manifest-000000000007.smf";
  ASSERT_TRUE(SaveShardManifest(path, m).ok());
  auto loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().map_version, 5u);
  EXPECT_EQ(loaded.value().map_override_keys, m.map_override_keys);
  EXPECT_EQ(loaded.value().map_override_parts, m.map_override_parts);
  const pipeline::PartitionMap map = loaded.value().PartitionMapOf();
  EXPECT_EQ(map.version(), 5u);
  EXPECT_EQ(map.PartOf(11), 2);
  EXPECT_EQ(map.PartOf(42), 0);
}

// ---------------------------------------------------------------------------
// Offline N -> M restore
// ---------------------------------------------------------------------------

// The tentpole acceptance matrix: checkpoint under N shards mid-stream,
// restore the directory into an M-shard server (N != M, both including one
// shard), replay the rest — every tick after the
// restore point must match the uninterrupted baseline exactly.
TEST_F(ReshardTest, OfflineResizeMatrixReproducesBaseline) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);

  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  for (const int n : {1, 2, 3, 4}) {
    for (const int m : {1, 2, 3, 4}) {
      if (n == m) continue;
      SCOPED_TRACE("resize " + std::to_string(n) + " -> " +
                   std::to_string(m));
      const std::string dir =
          MakeTempDir("mtx_" + std::to_string(n) + "_" + std::to_string(m));

      // Phase A: N shards, checkpoint every tick, stop mid-stream.
      ServerConfig cfg_a = cfg;
      cfg_a.checkpoint.dir = dir;
      cfg_a.checkpoint.every_ticks = 1;
      {
        std::unique_ptr<Server> server = MakeServer(cfg_a, n);
        ASSERT_TRUE(server->Start().ok());
        auto batches = BatchEdges(ordered, 1000);
        const size_t half = batches.size() / 2;
        for (size_t i = 0; i < half; ++i) {
          ASSERT_TRUE(server->Ingest(std::move(batches[i])));
        }
        server->Flush();
        server->Stop();
        ASSERT_TRUE(server->last_error().ok());
      }

      // Phase B: restore the same directory into M shards, replay the rest.
      std::map<int64_t, TickView> got;
      std::unique_ptr<Server> server = MakeServer(cfg_a, m);
      server->Subscribe(
          [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
      auto restored = server->RestoreFromCheckpoint(dir);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ASSERT_GE(restored.value().tick, 1);
      ASSERT_LT(restored.value().num_edges, ordered.size());
      ASSERT_TRUE(server->Start().ok());
      for (auto& batch :
           BatchEdges(ordered, 1000,
                      static_cast<size_t>(restored.value().num_edges))) {
        ASSERT_TRUE(server->Ingest(std::move(batch)));
      }
      server->Flush();
      server->Stop();
      ASSERT_TRUE(server->last_error().ok())
          << server->last_error().ToString();

      ASSERT_FALSE(got.empty());
      for (const auto& [key, view] : got) {
        ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
        ExpectSameView(view, want.at(key), key);
      }
      EXPECT_EQ(static_cast<int64_t>(want.size()),
                restored.value().tick + static_cast<int64_t>(got.size()));
    }
  }
}

// Flat single-file checkpoints are no longer written, but snapshots already
// on disk must still restore: re-express a fleet snapshot as a flat file,
// restore it into 1 and 3 shards, and replay the rest exactly.
TEST_F(ReshardTest, FlatCheckpointFilesStillRestore) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  const std::string fleet_dir = MakeTempDir("flat_src");
  ServerConfig cfg_a = cfg;
  cfg_a.checkpoint.dir = fleet_dir;
  cfg_a.checkpoint.every_ticks = 1;
  {
    std::unique_ptr<Server> server = MakeServer(cfg_a, 2);
    ASSERT_TRUE(server->Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    for (size_t i = 0; i < batches.size() / 2; ++i) {
      ASSERT_TRUE(server->Ingest(std::move(batches[i])));
    }
    server->Flush();
    server->Stop();
    ASSERT_TRUE(server->last_error().ok());
  }
  auto port = LoadPortableCheckpoint(fleet_dir);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  const std::string flat_dir = MakeTempDir("flat_dst");
  ASSERT_TRUE(SaveCheckpoint(
                  flat_dir + "/" + CheckpointFileName(port.value().data.tick),
                  port.value().data)
                  .ok());

  for (const int m : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(m));
    std::map<int64_t, TickView> got;
    std::unique_ptr<Server> server = MakeServer(cfg, m);
    server->Subscribe(
        [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
    auto restored = server->RestoreFromCheckpoint(flat_dir);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value().tick, port.value().data.tick);
    ASSERT_TRUE(server->Start().ok());
    for (auto& batch :
         BatchEdges(ordered, 1000,
                    static_cast<size_t>(restored.value().num_edges))) {
      ASSERT_TRUE(server->Ingest(std::move(batch)));
    }
    server->Flush();
    server->Stop();
    ASSERT_TRUE(server->last_error().ok()) << server->last_error().ToString();
    ASSERT_FALSE(got.empty());
    for (const auto& [key, view] : got) {
      ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
      ExpectSameView(view, want.at(key), key);
    }
    EXPECT_EQ(static_cast<int64_t>(want.size()),
              restored.value().tick + static_cast<int64_t>(got.size()));
  }
}

// Same cross-shape restore with the incremental (§4.10) configuration: the
// re-primed cursors and rebuilt fleet union-find must keep the delta path
// exact after a 3 -> 2 resize.
TEST_F(ReshardTest, OfflineResizeKeepsIncrementalModeExact) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  cfg.tick.incremental = true;
  const std::string dir = MakeTempDir("inc");
  ServerConfig cfg_a = cfg;
  cfg_a.checkpoint.dir = dir;
  cfg_a.checkpoint.every_ticks = 1;
  {
    std::unique_ptr<Server> server = MakeServer(cfg_a, 3);
    ASSERT_TRUE(server->Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t half = batches.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(server->Ingest(std::move(batches[i])));
    }
    server->Flush();
    server->Stop();
    ASSERT_TRUE(server->last_error().ok());
  }

  std::map<int64_t, TickView> got;
  ServerStats stats;
  std::unique_ptr<Server> server = MakeServer(cfg_a, 2);
  server->Subscribe(
      [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
  auto restored = server->RestoreFromCheckpoint(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(server->Start().ok());
  for (auto& batch :
       BatchEdges(ordered, 1000,
                  static_cast<size_t>(restored.value().num_edges))) {
    ASSERT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  stats = server->stats();
  server->Stop();
  ASSERT_TRUE(server->last_error().ok()) << server->last_error().ToString();

  ASSERT_FALSE(got.empty());
  for (const auto& [key, view] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    ExpectSameView(view, want.at(key), key);
  }
  // The delta path survived the resize: the re-primed tracker lets every
  // tick after (at most) the first post-restore one run incrementally.
  EXPECT_EQ(stats.ticks_failed, 0);
  EXPECT_LE(stats.incremental_rebuilds, 1);
}

// Kill the fleet with unsynced ticks still in the WAL, then restore into a
// DIFFERENT shard count: the WAL tail is re-routed under the new map, and
// the full diff stream still matches the uninterrupted baseline — no batch
// lost or duplicated across the re-route.
TEST_F(ReshardTest, WalTailReplayCrossesShardCounts) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  const std::string ckpt = MakeTempDir("walckpt");
  const std::string wal = MakeTempDir("waldir");
  ServerConfig cfg_a = cfg;
  cfg_a.checkpoint.dir = ckpt;
  cfg_a.checkpoint.every_ticks = 4;  // sparse: leaves a real WAL tail
  cfg_a.durability.dir = wal;
  {
    std::unique_ptr<Server> server = MakeServer(cfg_a, 3);
    ASSERT_TRUE(server->Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t cut = (batches.size() * 2) / 3;
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(server->Ingest(std::move(batches[i])));
    }
    server->Flush();
    server->Stop();  // "kill": WAL holds batches past the last checkpoint
    ASSERT_TRUE(server->last_error().ok());
  }

  std::map<int64_t, TickView> got;
  std::unique_ptr<Server> server = MakeServer(cfg_a, 2);
  server->Subscribe(
      [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
  auto restored = server->RestoreFromCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The WAL tail past the checkpoint was re-queued (counted in num_edges).
  ASSERT_GT(restored.value().wal_seq, 0u);
  ASSERT_TRUE(server->Start().ok());
  for (auto& batch :
       BatchEdges(ordered, 1000,
                  static_cast<size_t>(restored.value().num_edges))) {
    ASSERT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  server->Stop();
  ASSERT_TRUE(server->last_error().ok()) << server->last_error().ToString();

  ASSERT_FALSE(got.empty());
  for (const auto& [key, view] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    ExpectSameView(view, want.at(key), key);
  }
  EXPECT_EQ(static_cast<int64_t>(want.size()),
            restored.value().tick + static_cast<int64_t>(got.size()));
}

// A genuinely corrupt snapshot still fails cleanly: a directory holding
// only a garbage manifest (and no WAL) must refuse to restore, not succeed
// vacuously through the resharding path.
TEST_F(ReshardTest, CorruptManifestStillFailsCleanly) {
  const std::string dir = MakeTempDir("corrupt");
  {
    std::FILE* f =
        std::fopen((dir + "/manifest-000000000003.smf").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a manifest";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  ServerConfig cfg;
  StreamServer server(cfg, 2);
  auto r = server.RestoreFromCheckpoint(dir);
  ASSERT_FALSE(r.ok());
  // The torn manifest is skipped, leaving nothing loadable.
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Live resharding
// ---------------------------------------------------------------------------

// Grow 2 -> 4 and later shrink 4 -> 3 while the stream is flowing: every
// tick before, between, and after the migrations must match the
// uninterrupted baseline, and the subscriber diff stream stays unbroken.
TEST_F(ReshardTest, LiveResizeKeepsTickStreamIdentical) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  std::map<int64_t, TickView> got;
  std::set<std::vector<VertexId>> diff_state;
  StreamServer server(cfg, 2);
  server.Subscribe([&](const TickResult& t) {
    got[TickKey(t.window_end)] = ViewOf(t);
    // Replay the confirmed diff stream; a broken hand-off across the
    // migration would surface as a bad erase/insert here.
    for (const auto& members : t.expired_confirmed) {
      ASSERT_EQ(diff_state.erase(members), 1u);
    }
    for (const auto& members : t.new_confirmed) {
      ASSERT_TRUE(diff_state.insert(members).second);
    }
    std::set<std::vector<VertexId>> confirmed_now;
    for (const auto& c : t.detection.clusters) {
      if (c.confirmed) confirmed_now.insert(c.members);
    }
    EXPECT_EQ(diff_state, confirmed_now) << "tick end " << t.window_end;
  });
  ASSERT_TRUE(server.Start().ok());
  auto batches = BatchEdges(ordered, 1000);
  const size_t third = batches.size() / 3;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == third) {
      ASSERT_TRUE(server.Resize(4).ok());
      EXPECT_EQ(server.num_shards(), 4);
    } else if (i == 2 * third) {
      ASSERT_TRUE(server.Resize(3).ok());
      EXPECT_EQ(server.num_shards(), 3);
    }
    ASSERT_TRUE(server.Ingest(std::move(batches[i])));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, view] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    ExpectSameView(got.at(key), view, key);
  }
  EXPECT_EQ(stats.ticks_failed, 0);
}

// An armed serve.reshard failpoint aborts the migration before anything is
// published: the fleet keeps its shape, keeps serving exactly, and an
// immediate retry (failpoint cleared) succeeds.
TEST_F(ReshardTest, AbortedMigrationPublishesNothingAndRetries) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  std::map<int64_t, TickView> got;
  StreamServer server(cfg, 2);
  server.Subscribe(
      [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
  ASSERT_TRUE(server.Start().ok());
  auto batches = BatchEdges(ordered, 1000);
  const size_t half = batches.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(server.Ingest(std::move(batches[i])));
  }
  server.Flush();

  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.reshard=error(io)").ok());
  const Status aborted = server.Resize(4);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.code(), StatusCode::kIoError) << aborted.ToString();
  EXPECT_EQ(server.num_shards(), 2);  // old shape intact
  EXPECT_TRUE(server.running());

  reg.ResetToEnv();
  ASSERT_TRUE(server.Resize(4).ok());  // retry is always safe
  EXPECT_EQ(server.num_shards(), 4);

  for (size_t i = half; i < batches.size(); ++i) {
    ASSERT_TRUE(server.Ingest(std::move(batches[i])));
  }
  server.Flush();
  const ServerStats stats = server.stats();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, view] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    ExpectSameView(got.at(key), view, key);
  }
  EXPECT_EQ(stats.ticks_failed, 0);

  // The abort and the successful retry both landed in the metrics.
  const std::string text = server.metrics()->PrometheusText();
  EXPECT_NE(text.find("glp_serve_reshards_total{result=\"aborted\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("glp_serve_reshards_total{result=\"ok\"} 1"),
            std::string::npos);
}

// Heat-driven auto-rebalance: thresholds chosen so the growing window
// crosses the grow trigger mid-replay; the fleet grows on its own and the
// output still matches the uninterrupted baseline.
TEST_F(ReshardTest, AutoReshardGrowsFleetWithoutDivergence) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  ServerConfig cfg = ColdServerConfig(stream);
  const auto want = RunFleet(cfg, 1, ordered);
  ASSERT_GE(want.size(), 6u);

  cfg.reshard.auto_rebalance = true;
  cfg.reshard.grow_edges_per_shard = ordered.size() / 8;
  cfg.reshard.max_shards = 4;
  cfg.reshard.cooldown_ticks = 1;
  std::map<int64_t, TickView> got;
  StreamServer server(cfg, 2);
  server.Subscribe(
      [&](const TickResult& t) { got[TickKey(t.window_end)] = ViewOf(t); });
  ASSERT_TRUE(server.Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    ASSERT_TRUE(server.Ingest(std::move(batch)));
  }
  server.Flush();
  const int final_shards = server.num_shards();
  server.Stop();
  ASSERT_TRUE(server.last_error().ok()) << server.last_error().ToString();

  EXPECT_GT(final_shards, 2);  // the trigger actually fired
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, view] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    ExpectSameView(got.at(key), view, key);
  }
}

// A fleet that starts on one shard grows and shrinks back live: 1 -> 3 ->
// 1 mid-stream through the Server interface. The confirmed-diff stream,
// tick for tick, must equal an uninterrupted 1-shard run's.
TEST_F(ReshardTest, OneShardFleetResizesLiveAndBack) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const ServerConfig cfg = ColdServerConfig(stream);
  using Diff = std::tuple<int64_t, std::vector<std::vector<VertexId>>,
                          std::vector<std::vector<VertexId>>>;
  auto run = [&](bool resize) {
    std::vector<Diff> diffs;
    std::unique_ptr<Server> server = MakeServer(cfg, 1);
    server->Subscribe([&](const TickResult& t) {
      diffs.emplace_back(TickKey(t.window_end), t.new_confirmed,
                         t.expired_confirmed);
    });
    EXPECT_TRUE(server->Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    const size_t third = batches.size() / 3;
    for (size_t i = 0; i < batches.size(); ++i) {
      if (resize && i == third) {
        EXPECT_TRUE(server->Resize(3).ok());
        EXPECT_EQ(server->num_shards(), 3);
      } else if (resize && i == 2 * third) {
        EXPECT_TRUE(server->Resize(1).ok());
        EXPECT_EQ(server->num_shards(), 1);
      }
      EXPECT_TRUE(server->Ingest(std::move(batches[i])));
    }
    server->Flush();
    EXPECT_EQ(server->stats().ticks_failed, 0);
    server->Stop();
    EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
    return diffs;
  };
  const std::vector<Diff> want = run(/*resize=*/false);
  ASSERT_GE(want.size(), 6u);
  EXPECT_EQ(run(/*resize=*/true), want);
}

}  // namespace
}  // namespace glp::serve
