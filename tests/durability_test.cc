// Durability + replication tests (DESIGN.md §4.13): the WAL frame/segment
// format round-trips and self-heals torn tails, Server recovery
// (checkpoint + WAL replay) reproduces an uninterrupted run's output
// exactly — for 1 and 3 shards, under armed failpoints, and with no
// checkpoint at all — and a promoted hot standby continues the primary's
// diff stream byte-identically behind a fencing epoch that rejects the
// deposed primary's writes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/transactions.h"
#include "serve/checkpoint.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/replication.h"
#include "serve/server.h"
#include "serve/wal.h"
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

ServerConfig BaseServerConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 15;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.stop_when_stable = true;
  cfg.detect.lp.max_iterations = 50;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 5.0;
  cfg.resilience.retry_backoff_ms = 0.1;
  cfg.resilience.max_retry_backoff_ms = 1.0;
  return cfg;
}

int64_t TickKey(double window_end) {
  return static_cast<int64_t>(std::llround(window_end * 4));
}

struct TickObservation {
  std::vector<graph::Label> labels;
  std::set<std::vector<VertexId>> confirmed;
  std::set<std::vector<VertexId>> new_confirmed;
  std::set<std::vector<VertexId>> expired_confirmed;
};

void Observe(Server* server, std::map<int64_t, TickObservation>* out) {
  server->Subscribe([out](const TickResult& t) {
    TickObservation obs;
    obs.labels = t.detection.lp.labels;
    // One label per window vertex: the equality checks below must never
    // pass only because both sides are empty.
    EXPECT_EQ(obs.labels.size(), t.detection.window_vertices)
        << "tick end " << t.window_end;
    for (const auto& c : t.detection.clusters) {
      if (c.confirmed) obs.confirmed.insert(c.members);
    }
    obs.new_confirmed.insert(t.new_confirmed.begin(), t.new_confirmed.end());
    obs.expired_confirmed.insert(t.expired_confirmed.begin(),
                                 t.expired_confirmed.end());
    (*out)[TickKey(t.window_end)] = std::move(obs);
  });
}

/// Uninterrupted baseline over the full stream.
std::map<int64_t, TickObservation> RunAndObserve(
    const ServerConfig& cfg, int num_shards,
    const std::vector<TimedEdge>& ordered) {
  std::map<int64_t, TickObservation> out;
  std::unique_ptr<Server> server = MakeServer(cfg, num_shards);
  Observe(server.get(), &out);
  EXPECT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    EXPECT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
  return out;
}

/// The per-tick confirmed-diff stream must be byte-identical: compare
/// labels, confirmed sets, and the new/expired diffs for every tick key
/// the restored run produced.
void ExpectTicksMatch(const std::map<int64_t, TickObservation>& want,
                      const std::map<int64_t, TickObservation>& got) {
  ASSERT_FALSE(got.empty());
  for (const auto& [key, obs] : got) {
    ASSERT_TRUE(want.count(key)) << "unexpected tick " << key;
    const TickObservation& w = want.at(key);
    EXPECT_EQ(obs.labels, w.labels) << "tick " << key;
    EXPECT_EQ(obs.confirmed, w.confirmed) << "tick " << key;
    EXPECT_EQ(obs.new_confirmed, w.new_confirmed) << "tick " << key;
    EXPECT_EQ(obs.expired_confirmed, w.expired_confirmed) << "tick " << key;
  }
}

class DurabilityTest : public ::testing::Test {
 public:
  void SetUp() override { fail::FailpointRegistry::Global().ResetToEnv(); }
  void TearDown() override { fail::FailpointRegistry::Global().ResetToEnv(); }

  /// Unique scratch directory, wiped when the fixture dies. Public so the
  /// shared scenario helpers (free functions) can allocate dirs too.
  std::string MakeTempDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "glp_wal_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  std::vector<std::string> dirs_;

  ~DurabilityTest() override {
    for (const auto& d : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

std::vector<TimedEdge> SampleEdges(uint32_t base, size_t n) {
  std::vector<TimedEdge> edges;
  for (size_t i = 0; i < n; ++i) {
    edges.push_back({base + static_cast<VertexId>(i),
                     base + static_cast<VertexId>(i) + 1,
                     0.25 * static_cast<double>(i)});
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Frame + segment format
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, FrameRoundTripsAndDetectsCorruption) {
  wal::WalFrame frame;
  frame.seq = 42;
  frame.epoch = 3;
  frame.wall_seconds = 1754700000.5;
  frame.edges = SampleEdges(100, 5);

  const std::string buf = wal::EncodeFrame(frame);
  size_t pos = 0;
  wal::WalFrame got;
  ASSERT_EQ(wal::ParseFrame(buf, &pos, &got), wal::FrameParse::kFrame);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(got.seq, frame.seq);
  EXPECT_EQ(got.epoch, frame.epoch);
  EXPECT_EQ(got.wall_seconds, frame.wall_seconds);
  ASSERT_EQ(got.edges.size(), frame.edges.size());
  for (size_t i = 0; i < got.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].src, frame.edges[i].src);
    EXPECT_EQ(got.edges[i].dst, frame.edges[i].dst);
    EXPECT_EQ(got.edges[i].time, frame.edges[i].time);
  }
  pos = 0;
  ASSERT_EQ(wal::ParseFrame(buf, &pos, &got), wal::FrameParse::kFrame);
  EXPECT_EQ(wal::ParseFrame(buf, &pos, &got), wal::FrameParse::kEnd);

  // A flipped payload byte fails the checksum -> torn, *pos untouched.
  std::string corrupt = buf;
  corrupt[10] = static_cast<char>(corrupt[10] ^ 0x5a);
  pos = 0;
  EXPECT_EQ(wal::ParseFrame(corrupt, &pos, &got), wal::FrameParse::kTorn);
  EXPECT_EQ(pos, 0u);

  // A truncated buffer (crash mid-append) is torn, not an error.
  const std::string torn = buf.substr(0, buf.size() - 3);
  pos = 0;
  EXPECT_EQ(wal::ParseFrame(torn, &pos, &got), wal::FrameParse::kTorn);
}

TEST_F(DurabilityTest, SegmentFileNamesRoundTripInOrder) {
  uint64_t start = 0;
  EXPECT_TRUE(wal::ParseSegmentFileName(wal::SegmentFileName(1), &start));
  EXPECT_EQ(start, 1u);
  EXPECT_TRUE(
      wal::ParseSegmentFileName(wal::SegmentFileName(123456789), &start));
  EXPECT_EQ(start, 123456789u);
  // 20-digit zero padding: lexicographic order == numeric order.
  EXPECT_LT(wal::SegmentFileName(9), wal::SegmentFileName(10));
  EXPECT_FALSE(wal::ParseSegmentFileName("checkpoint-000007.bin", &start));
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-abc.seg", &start));
}

// ---------------------------------------------------------------------------
// Append / recover / torn tail
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, AppendAssignsContiguousSeqsAndReopenResumes) {
  const std::string dir = MakeTempDir("append");
  {
    auto wal = wal::Wal::Open(dir, wal::WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 1; i <= 5; ++i) {
      auto seq = wal.value()->Append(SampleEdges(10 * i, i), 100.0 + i);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_EQ(seq.value(), i);
    }
    EXPECT_EQ(wal.value()->last_seq(), 5u);
    EXPECT_EQ(wal.value()->epoch(), 1u);
  }
  // Reopen: recovery rebuilds seq/epoch from the segments.
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->last_seq(), 5u);
  auto frames = wal.value()->ReadFrom(1);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frames.value()[i].seq, i + 1);
    EXPECT_EQ(frames.value()[i].edges.size(), i + 1);
    EXPECT_EQ(frames.value()[i].wall_seconds, 101.0 + static_cast<double>(i));
  }
  // Partial reads: from the middle, and byte-capped to one frame.
  auto tail = wal.value()->ReadFrom(4);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().size(), 2u);
  EXPECT_EQ(tail.value()[0].seq, 4u);
  auto capped = wal.value()->ReadFrom(1, 1);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().size(), 1u);  // always at least one frame
  // The sequence resumes after recovery.
  auto seq = wal.value()->Append(SampleEdges(1, 1), 200.0);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 6u);
}

TEST_F(DurabilityTest, TornTailIsTruncatedOnOpen) {
  const std::string dir = MakeTempDir("torn");
  std::string segment;
  uintmax_t full_size = 0;
  {
    auto wal = wal::Wal::Open(dir, wal::WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleEdges(1, 3), 1.0).ok());
    ASSERT_TRUE(wal.value()->Append(SampleEdges(9, 4), 2.0).ok());
    segment = dir + "/" + wal::SegmentFileName(1);
    full_size = std::filesystem::file_size(segment);
  }
  // Chop into the final frame: a kill -9 mid-append.
  std::filesystem::resize_file(segment, full_size - 7);
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->last_seq(), 1u);
  EXPECT_GT(wal.value()->stats().truncated_bytes, 0u);
  // The torn frame's sequence number is re-used by the next append.
  auto seq = wal.value()->Append(SampleEdges(9, 4), 2.5);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 2u);
  auto frames = wal.value()->ReadFrom(1);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().size(), 2u);
  EXPECT_EQ(frames.value()[1].edges.size(), 4u);
}

TEST_F(DurabilityTest, RotationSplitsSegmentsAndPruneThroughDropsThem) {
  const std::string dir = MakeTempDir("rotate");
  wal::WalOptions opts;
  opts.segment_max_bytes = 256;  // a few appends per segment
  auto wal = wal::Wal::Open(dir, opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(wal.value()->Append(SampleEdges(i, 8), i).ok());
  }
  const uint64_t segments_before = wal.value()->stats().segments;
  ASSERT_GE(segments_before, 3u);

  // Prune through seq 6: every segment fully covered goes away, any
  // segment holding a frame > 6 (and the active one) survives.
  ASSERT_TRUE(wal.value()->PruneThrough(6).ok());
  const wal::WalStats stats = wal.value()->stats();
  EXPECT_LT(stats.segments, segments_before);
  EXPECT_EQ(stats.pruned_segments, segments_before - stats.segments);
  auto frames = wal.value()->ReadFrom(7);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().size(), 6u);
  EXPECT_EQ(frames.value().front().seq, 7u);

  // Pruning everything never deletes the active segment.
  ASSERT_TRUE(wal.value()->PruneThrough(12).ok());
  EXPECT_GE(wal.value()->stats().segments, 1u);
  EXPECT_EQ(wal.value()->last_seq(), 12u);
}

TEST_F(DurabilityTest, GroupCommitSyncsEveryNthAppend) {
  const std::string dir = MakeTempDir("fsync");
  wal::WalOptions opts;
  opts.fsync_every_batches = 4;
  auto wal = wal::Wal::Open(dir, opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal.value()->Append(SampleEdges(i, 2), i).ok());
  }
  // 8 appends at every-4 = exactly 2 group commits.
  EXPECT_EQ(wal.value()->stats().fsyncs, 2u);
  ASSERT_TRUE(wal.value()->Append(SampleEdges(0, 2), 9).ok());
  EXPECT_EQ(wal.value()->stats().fsyncs, 2u);  // 9th append: not yet due
  ASSERT_TRUE(wal.value()->Sync().ok());       // explicit sync flushes it
  EXPECT_EQ(wal.value()->stats().fsyncs, 3u);
}

TEST_F(DurabilityTest, ReadRawFromServesReparseableBytes) {
  const std::string dir = MakeTempDir("raw");
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(wal.value()->Append(SampleEdges(i, i), i).ok());
  }
  uint64_t last = 0;
  auto raw = wal.value()->ReadRawFrom(2, 1 << 20, &last);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(last, 3u);
  size_t pos = 0;
  wal::WalFrame f;
  ASSERT_EQ(wal::ParseFrame(raw.value(), &pos, &f), wal::FrameParse::kFrame);
  EXPECT_EQ(f.seq, 2u);
  ASSERT_EQ(wal::ParseFrame(raw.value(), &pos, &f), wal::FrameParse::kFrame);
  EXPECT_EQ(f.seq, 3u);
  EXPECT_EQ(wal::ParseFrame(raw.value(), &pos, &f), wal::FrameParse::kEnd);
}

// ---------------------------------------------------------------------------
// Epochs, duplicates, gaps, long-poll
// ---------------------------------------------------------------------------

TEST_F(DurabilityTest, BumpEpochRotatesStampsAndSurvivesReopen) {
  const std::string dir = MakeTempDir("epoch");
  {
    auto wal = wal::Wal::Open(dir, wal::WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleEdges(1, 2), 1.0).ok());
    auto epoch = wal.value()->BumpEpoch();
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(epoch.value(), 2u);
    ASSERT_TRUE(wal.value()->Append(SampleEdges(2, 2), 2.0).ok());
  }
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->epoch(), 2u);
  EXPECT_EQ(wal.value()->last_seq(), 2u);
  auto frames = wal.value()->ReadFrom(1);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().size(), 2u);
  EXPECT_EQ(frames.value()[0].epoch, 1u);
  EXPECT_EQ(frames.value()[1].epoch, 2u);
}

TEST_F(DurabilityTest, EmptySegmentEpochBumpNeverDuplicatesOrPrunesActive) {
  // Regression: bumping the epoch before any frame exists (a standby
  // promoted before replication delivered anything, or a restore whose
  // checkpoint epoch exceeds a fresh WAL's) used to re-register the same
  // empty segment, and PruneThrough would then unlink the live file —
  // losing every later append on restart.
  const std::string dir = MakeTempDir("emptybump");
  {
    auto wal = wal::Wal::Open(dir, wal::WalOptions{});
    ASSERT_TRUE(wal.ok());
    auto epoch = wal.value()->BumpEpoch();
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(epoch.value(), 2u);
    // A second bump on the still-empty log must not duplicate either.
    ASSERT_TRUE(wal.value()->EnsureEpochAtLeast(4).ok());
    EXPECT_EQ(wal.value()->stats().segments, 1u);
    ASSERT_TRUE(wal.value()->Append(SampleEdges(1, 3), 1.0).ok());
    ASSERT_TRUE(wal.value()->PruneThrough(1).ok());
    EXPECT_EQ(wal.value()->stats().segments, 1u);
    ASSERT_TRUE(wal.value()->Append(SampleEdges(5, 2), 2.0).ok());
  }
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->last_seq(), 2u);
  EXPECT_EQ(wal.value()->epoch(), 4u);
  auto frames = wal.value()->ReadFrom(1);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().size(), 2u);
  EXPECT_EQ(frames.value()[0].edges.size(), 3u);
  EXPECT_EQ(frames.value()[1].edges.size(), 2u);
  EXPECT_EQ(frames.value()[1].epoch, 4u);
}

TEST_F(DurabilityTest, AppendFrameDeduplicatesFencesAndRefusesGaps) {
  const std::string dir = MakeTempDir("applyframe");
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SampleEdges(1, 2), 1.0).ok());

  wal::WalFrame f;
  f.epoch = 1;
  f.edges = SampleEdges(5, 2);

  f.seq = 1;  // duplicate of an already-durable frame
  EXPECT_EQ(wal.value()->AppendFrame(f).code(), StatusCode::kAlreadyExists);
  f.seq = 3;  // would leave a hole at 2
  EXPECT_EQ(wal.value()->AppendFrame(f).code(),
            StatusCode::kInvalidArgument);
  f.seq = 2;  // contiguous: applies
  ASSERT_TRUE(wal.value()->AppendFrame(f).ok());
  EXPECT_EQ(wal.value()->last_seq(), 2u);

  // Promotion bumps the local epoch; a frame still stamped with the old
  // epoch is a deposed primary's write and must be fenced out.
  ASSERT_TRUE(wal.value()->BumpEpoch().ok());
  f.seq = 3;
  f.epoch = 1;
  EXPECT_EQ(wal.value()->AppendFrame(f).code(),
            StatusCode::kInvalidArgument);
  // A *newer* epoch is a legitimate new primary: adopt it.
  f.epoch = 5;
  ASSERT_TRUE(wal.value()->AppendFrame(f).ok());
  EXPECT_EQ(wal.value()->epoch(), 5u);
}

TEST_F(DurabilityTest, WaitForSeqWakesOnAppend) {
  const std::string dir = MakeTempDir("wait");
  auto wal = wal::Wal::Open(dir, wal::WalOptions{});
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal.value()->WaitForSeq(1, 0.01));  // times out, nothing yet
  std::thread appender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(wal.value()->Append(SampleEdges(1, 1), 1.0).ok());
  });
  EXPECT_TRUE(wal.value()->WaitForSeq(1, 5.0));
  appender.join();
  EXPECT_TRUE(wal.value()->WaitForSeq(1, 0.0));  // already satisfied
}

// ---------------------------------------------------------------------------
// Server recovery: checkpoint + WAL replay == uninterrupted run
// ---------------------------------------------------------------------------

/// Feeds batches with a retry loop: an armed serve.wal_fsync error rolls
/// the append back and rejects the batch — the producer re-sends, exactly
/// like a network client would, and exactness must survive it.
void IngestAllWithRetry(Server* server,
                        std::vector<std::vector<TimedEdge>> batches) {
  for (auto& batch : batches) {
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 100) << "batch never accepted";
      std::vector<TimedEdge> copy = batch;
      if (server->Ingest(std::move(copy))) break;
      ASSERT_TRUE(server->running()) << server->last_error().ToString();
    }
  }
}

void KillRestoreReplayIsExact(DurabilityTest* fixture, int num_shards,
                              bool with_checkpoints, bool arm_failpoints,
                              bool tear_tail, const std::string& tag) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);
  const std::string wal_dir = fixture->MakeTempDir(tag + "_wal");
  const std::string ckpt_dir =
      with_checkpoints ? fixture->MakeTempDir(tag + "_ckpt")
                       : fixture->MakeTempDir(tag + "_ckpt_unused");

  ServerConfig cfg = BaseServerConfig(stream);
  cfg.tick.warm_start = true;

  const auto want = RunAndObserve(cfg, num_shards, ordered);
  ASSERT_GE(want.size(), 6u);

  // Run A: durable, killed mid-stream (Stop + abandon in-memory state).
  ServerConfig cfg_a = cfg;
  cfg_a.durability.dir = wal_dir;
  cfg_a.durability.fsync_every_batches = 3;  // exercise group commit
  if (with_checkpoints) {
    cfg_a.checkpoint.dir = ckpt_dir;
    cfg_a.checkpoint.every_ticks = 2;
  }
  if (arm_failpoints) {
    // Checkpoint writes fail intermittently (tolerated: the WAL covers the
    // gap), fsyncs fail once in a while (the append rolls back and the
    // producer retries), appends see injected latency.
    ASSERT_TRUE(fail::FailpointRegistry::Global()
                    .Parse("serve.checkpoint=error(io)@1in3;"
                           "serve.wal_fsync=error(io)@1in5;"
                           "serve.wal_append=delay(1)@1in4")
                    .ok());
  }
  size_t half_edges = 0;
  {
    std::unique_ptr<Server> server = MakeServer(cfg_a, num_shards);
    ASSERT_TRUE(server->Start().ok());
    auto batches = BatchEdges(ordered, 1000);
    batches.resize(batches.size() / 2);
    for (const auto& b : batches) half_edges += b.size();
    IngestAllWithRetry(server.get(), std::move(batches));
    server->Flush();
    server->Stop();
  }
  fail::FailpointRegistry::Global().ResetToEnv();

  if (tear_tail) {
    // Model a kill -9 mid-append: chop bytes off the newest segment. The
    // torn frame's batch is "unacknowledged" — recovery drops it and the
    // producer re-sends from the recovered position.
    std::string newest;
    for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
      uint64_t start = 0;
      if (wal::ParseSegmentFileName(entry.path().filename().string(),
                                    &start) &&
          entry.path().string() > newest) {
        newest = entry.path().string();
      }
    }
    ASSERT_FALSE(newest.empty());
    const uintmax_t size = std::filesystem::file_size(newest);
    ASSERT_GT(size, 5u);
    std::filesystem::resize_file(newest, size - 5);
  }

  // Run B: recover (checkpoint if any + WAL replay), then feed the rest of
  // the canonical stream from the recovered edge index.
  ServerConfig cfg_b = cfg;
  cfg_b.durability.dir = wal_dir;
  std::unique_ptr<Server> server = MakeServer(cfg_b, num_shards);
  std::map<int64_t, TickObservation> got;
  Observe(server.get(), &got);
  auto restored =
      server->RestoreFromCheckpoint(with_checkpoints ? ckpt_dir : "");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(restored.value().wal_seq, 0u);
  if (tear_tail) {
    ASSERT_LT(restored.value().num_edges, half_edges);
  } else {
    ASSERT_EQ(restored.value().num_edges, half_edges);
  }
  ASSERT_TRUE(server->Start().ok());
  for (auto& batch :
       BatchEdges(ordered, 1000,
                  static_cast<size_t>(restored.value().num_edges))) {
    ASSERT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();
  server->Stop();
  ASSERT_TRUE(server->last_error().ok()) << server->last_error().ToString();

  ExpectTicksMatch(want, got);
  // Recovery covers every baseline tick: nothing between the kill point
  // and the stream head went missing.
  EXPECT_EQ(want.size(), got.size() + static_cast<size_t>(
                                          restored.value().tick));
}

TEST_F(DurabilityTest, WalOnlyRecoveryMatchesUninterruptedRun) {
  KillRestoreReplayIsExact(this, 1, /*with_checkpoints=*/false,
                           /*arm_failpoints=*/false, /*tear_tail=*/false,
                           "walonly");
}

TEST_F(DurabilityTest, KillRestoreWithWalAndCheckpointsMatches) {
  KillRestoreReplayIsExact(this, 1, /*with_checkpoints=*/true,
                           /*arm_failpoints=*/false, /*tear_tail=*/false,
                           "ckptwal");
}

TEST_F(DurabilityTest, KillRestoreUnderArmedFailpointsMatches) {
  KillRestoreReplayIsExact(this, 1, /*with_checkpoints=*/true,
                           /*arm_failpoints=*/true, /*tear_tail=*/false,
                           "chaos1");
}

TEST_F(DurabilityTest, TornTailKillRestoreMatches) {
  KillRestoreReplayIsExact(this, 1, /*with_checkpoints=*/true,
                           /*arm_failpoints=*/false, /*tear_tail=*/true,
                           "torn1");
}

TEST_F(DurabilityTest, ShardedKillRestoreWithWalMatches) {
  KillRestoreReplayIsExact(this, 3, /*with_checkpoints=*/true,
                           /*arm_failpoints=*/false, /*tear_tail=*/false,
                           "shard3");
}

TEST_F(DurabilityTest, ShardedKillRestoreUnderArmedFailpointsMatches) {
  KillRestoreReplayIsExact(this, 3, /*with_checkpoints=*/true,
                           /*arm_failpoints=*/true, /*tear_tail=*/true,
                           "shard3chaos");
}

// ---------------------------------------------------------------------------
// Replication: standby promotion continues the stream exactly
// ---------------------------------------------------------------------------

void PromotedStandbyContinuesExactly(DurabilityTest* fixture, int num_shards,
                                     const std::string& tag) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = CanonicalEdges(stream);

  ServerConfig cfg = BaseServerConfig(stream);
  const auto want = RunAndObserve(cfg, num_shards, ordered);
  ASSERT_GE(want.size(), 6u);

  // Primary: WAL on, replication routes registered on its ingest port.
  ServerConfig primary_cfg = cfg;
  primary_cfg.durability.dir = fixture->MakeTempDir(tag + "_primary_wal");
  std::unique_ptr<Server> primary = MakeServer(primary_cfg, num_shards);
  ASSERT_TRUE(primary->Start().ok());
  auto tenants = net::ParseTenantSpec("default:devtoken");
  ASSERT_TRUE(tenants.ok());
  net::IngestService primary_service(primary.get(), tenants.value());
  net::ReplicationService primary_repl(primary->wal(), nullptr);
  primary_repl.Register(primary_service.http());
  ASSERT_TRUE(primary_service.Start(0));

  // Standby: own WAL, own service (503 on ingest until promoted), tailing
  // the primary.
  ServerConfig standby_cfg = cfg;
  standby_cfg.durability.dir = fixture->MakeTempDir(tag + "_standby_wal");
  std::unique_ptr<Server> standby = MakeServer(standby_cfg, num_shards);
  std::map<int64_t, TickObservation> got;
  Observe(standby.get(), &got);
  ASSERT_TRUE(standby->Start().ok());
  net::IngestService standby_service(standby.get(), tenants.value());
  standby_service.SetStandby(true);
  net::WalTailer::Options topts;
  topts.primary_port = primary_service.port();
  topts.poll_wait_ms = 50;
  net::WalTailer tailer(standby.get(), topts);
  net::ReplicationService standby_repl(
      standby->wal(), [&]() -> Result<uint64_t> {
        tailer.Stop();
        auto epoch = standby->wal()->BumpEpoch();
        if (epoch.ok()) standby_service.SetStandby(false);
        return epoch;
      });
  standby_repl.Register(standby_service.http());
  ASSERT_TRUE(standby_service.Start(0));
  tailer.Start(standby->wal()->last_seq(), standby->wal()->epoch());

  // First half of the stream lands on the primary; the tailer replicates.
  auto batches = BatchEdges(ordered, 1000);
  const size_t half = batches.size() / 2;
  size_t half_edges = 0;
  for (size_t i = 0; i < half; ++i) {
    half_edges += batches[i].size();
    ASSERT_TRUE(primary->Ingest(std::move(batches[i])));
  }
  const uint64_t primary_seq = primary->wal()->last_seq();
  for (int spin = 0; tailer.last_applied_seq() < primary_seq; ++spin) {
    ASSERT_LT(spin, 2000) << "standby never caught up: "
                          << tailer.last_error().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(tailer.last_error().ok()) << tailer.last_error().ToString();

  // Standby ingest is fenced while following.
  net::HttpClient client;
  ASSERT_TRUE(client.Connect(standby_service.port()).ok());
  {
    auto resp = client.PostBatch(SampleEdges(1, 3), "devtoken");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().status, 503);
  }

  // Kill the primary, promote the standby over the wire.
  primary_service.Stop();
  primary->Stop();
  auto promoted = client.Request("POST", "/v1/promote", "", "", "");
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.value().status, 200) << promoted.value().body;
  EXPECT_NE(promoted.value().body.find("\"epoch\":2"), std::string::npos)
      << promoted.value().body;
  EXPECT_FALSE(tailer.running());
  EXPECT_EQ(standby->wal()->epoch(), 2u);

  // The deposed primary's writes (epoch 1) are now fenced out.
  {
    wal::WalFrame stale;
    stale.seq = standby->wal()->last_seq() + 1;
    stale.epoch = 1;
    stale.edges = SampleEdges(1, 1);
    EXPECT_EQ(standby->wal()->AppendFrame(stale).code(),
              StatusCode::kInvalidArgument);
  }

  // The remaining stream lands on the promoted standby; its tick output
  // must continue the uninterrupted run byte-identically.
  for (auto& batch : BatchEdges(ordered, 1000, half_edges)) {
    ASSERT_TRUE(standby->Ingest(std::move(batch)));
  }
  standby->Flush();
  standby_service.Stop();
  standby->Stop();
  ASSERT_TRUE(standby->last_error().ok())
      << standby->last_error().ToString();

  ASSERT_EQ(got.size(), want.size());
  ExpectTicksMatch(want, got);
}

TEST_F(DurabilityTest, PromotedStandbyContinuesStreamExactly) {
  PromotedStandbyContinuesExactly(this, 1, "promote1");
}

TEST_F(DurabilityTest, ShardedPromotedStandbyContinuesStreamExactly) {
  PromotedStandbyContinuesExactly(this, 3, "promote3");
}

TEST_F(DurabilityTest, WalRouteServesFramesWithEpochHeaders) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  ServerConfig cfg = BaseServerConfig(stream);
  cfg.durability.dir = MakeTempDir("walroute");
  std::unique_ptr<Server> server = MakeServer(cfg, 1);
  ASSERT_TRUE(server->Start().ok());
  auto tenants = net::ParseTenantSpec("default:devtoken");
  ASSERT_TRUE(tenants.ok());
  net::IngestService service(server.get(), tenants.value());
  net::ReplicationService repl(server->wal(), nullptr);
  repl.Register(service.http());
  ASSERT_TRUE(service.Start(0));

  ASSERT_TRUE(server->Ingest(SampleEdges(1, 4)));
  ASSERT_TRUE(server->Ingest(SampleEdges(9, 2)));

  net::HttpClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());
  auto resp = client.Get("/v1/wal?from=1");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().header("x-glp-wal-epoch"), "1");
  EXPECT_EQ(resp.value().header("x-glp-wal-last-seq"), "2");
  size_t pos = 0;
  wal::WalFrame f;
  ASSERT_EQ(wal::ParseFrame(resp.value().body, &pos, &f),
            wal::FrameParse::kFrame);
  EXPECT_EQ(f.seq, 1u);
  EXPECT_EQ(f.edges.size(), 4u);
  ASSERT_EQ(wal::ParseFrame(resp.value().body, &pos, &f),
            wal::FrameParse::kFrame);
  EXPECT_EQ(f.seq, 2u);
  EXPECT_EQ(wal::ParseFrame(resp.value().body, &pos, &f),
            wal::FrameParse::kEnd);

  // from= beyond the head with no wait: empty body, headers still present.
  auto empty = client.Get("/v1/wal?from=99");
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty.value().status, 200);
  EXPECT_TRUE(empty.value().body.empty());
  EXPECT_EQ(empty.value().header("x-glp-wal-last-seq"), "2");

  // Promotion is not wired on this service: 503, not a crash.
  auto promote = client.Request("POST", "/v1/promote", "", "", "");
  ASSERT_TRUE(promote.ok());
  EXPECT_EQ(promote.value().status, 503);

  service.Stop();
  server->Stop();
}

}  // namespace
}  // namespace glp::serve
