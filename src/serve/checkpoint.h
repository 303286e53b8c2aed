// Crash-consistent checkpoint/restore for the streaming server
// (DESIGN.md §4.8). A checkpoint captures everything the detection thread
// needs to resume a stream mid-flight with output identical to an
// uninterrupted run: the window's edge stream, the tick schedule and
// counters, and the previous tick's warm-start / confirmed-cluster state.
//
// Snapshots are atomic: the file is written to "<path>.tmp" and renamed
// into place, so a crash mid-save leaves the previous checkpoint intact.
// Every file carries a magic, a version, and a whole-payload checksum;
// Load rejects truncation and corruption with IoError, and
// LatestCheckpoint skips unreadable files so a torn newest checkpoint
// falls back to the one before it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/sliding_window.h"
#include "graph/types.h"
#include "pipeline/partition.h"
#include "util/status.h"

namespace glp::serve {

/// Complete detection-thread state at a tick boundary.
struct CheckpointData {
  /// Ticks executed so far (the next tick's TickResult::tick).
  int64_t tick = 0;
  /// Whether the absolute tick grid has been anchored, and the next due
  /// boundary when it has.
  bool tick_schedule_primed = false;
  double next_tick_end = 0;
  /// Newest timestamp the server had accepted — restored so ingest-lag
  /// accounting continues seamlessly.
  double ingested_max_time = 0;

  /// The full appended edge stream, canonical order. Replays resume at
  /// edge index edges.size() of the canonically-sorted source stream.
  std::vector<graph::TimedEdge> edges;

  /// Previous tick's warm-start state (empty/false on cold boundaries).
  bool have_prev = false;
  std::vector<graph::VertexId> prev_l2g;
  std::vector<graph::Label> prev_labels;
  /// Confirmed-cluster sets of the previous tick (sorted member lists) —
  /// needed so post-restore new/expired diffs match the uninterrupted run.
  std::vector<std::vector<graph::VertexId>> prev_confirmed;

  /// Incremental-serving anchors (format v2; empty/false when the server
  /// was not running incrementally): entity-sorted parallel arrays mapping
  /// each window entity to its component's label anchor entity, which is
  /// how clean components keep their labels across a kill/restore. The
  /// union-find itself is not serialized — restore rebuilds it, clean,
  /// from `edges`, so the pair round-trips the complete persistent
  /// incremental state. v1 files load with these
  /// left empty (first post-restore tick rebuilds from scratch).
  bool has_incremental = false;
  std::vector<graph::VertexId> inc_entities;
  std::vector<graph::VertexId> inc_anchors;

  /// WAL position this snapshot covers (format v3; 0 when the server ran
  /// without a WAL or the file predates v3): the highest WAL sequence
  /// number whose batch is included in `edges`. Recovery replays WAL
  /// frames with seq > wal_seq on top of the restored state, which makes
  /// the restart byte-identical to an uninterrupted run instead of losing
  /// everything since the snapshot.
  uint64_t wal_seq = 0;
  /// Fencing epoch at snapshot time (serve/wal.h). Restore raises the
  /// reopened WAL's epoch to at least this, so a checkpoint taken after a
  /// promotion keeps fencing a deposed primary even if the promoted
  /// epoch's segments were since pruned.
  uint64_t wal_epoch = 0;
};

/// Serializes `data` to `path` via write-temp-then-rename. Threads the
/// "serve.checkpoint" failpoint. Never leaves a torn file at `path`.
Status SaveCheckpoint(const std::string& path, const CheckpointData& data);

/// Reads a checkpoint written by SaveCheckpoint, validating magic, version,
/// structure, and checksum.
Result<CheckpointData> LoadCheckpoint(const std::string& path);

/// Filename "checkpoint-<tick padded to 12>.ckpt" of a flat single-file
/// snapshot. The server writes fleet snapshots (below) for every shard
/// count; flat files are still restored, since existing snapshots on disk
/// are outside input.
std::string CheckpointFileName(int64_t tick);

/// Newest *loadable* flat checkpoint in `dir` (highest tick whose file
/// passes validation). NotFound when the directory holds none.
Result<std::string> LatestCheckpoint(const std::string& dir);

// ---------------------------------------------------------------------------
// Fleet checkpoints (serve::StreamServer, any shard count)
// ---------------------------------------------------------------------------
//
// A fleet checkpoint is N+2 files: one CheckpointData per shard (that
// shard's partitioned window, mirrors included), one coordinator
// CheckpointData (tick schedule, confirmed-cluster set, warm anchors), and
// a manifest naming them all. The manifest is written *last* via
// temp-then-rename, which makes the fleet snapshot atomic: a crash between
// shard files and manifest leaves the previous manifest — and therefore the
// previous complete file set — authoritative. Restore is all-or-nothing:
// the newest manifest whose coordinator and every shard file validate wins,
// so losing or corrupting a single shard file falls the whole fleet back to
// the previous complete checkpoint instead of restoring a torn mix.

/// Names the files of one fleet-wide snapshot (all relative to the
/// checkpoint directory holding the manifest).
struct ShardManifest {
  int64_t tick = 0;
  int num_shards = 0;
  /// Fencing epoch at snapshot time (manifest format v2; 0 for v1 files).
  uint64_t epoch = 0;
  std::string coord_file;
  std::vector<std::string> shard_files;  ///< size num_shards, shard order

  /// Partition map the fleet routed under at snapshot time (manifest
  /// format v3): version plus the explicit entity→part override table.
  /// v1/v2 manifests load with version 1 and no overrides — the default
  /// hash map over num_shards, which is exactly the rule those fleets
  /// routed by, so old checkpoints restore identically.
  uint64_t map_version = 1;
  std::vector<graph::VertexId> map_override_keys;
  std::vector<int32_t> map_override_parts;

  /// The deserialized map as a routable PartitionMap over num_shards.
  pipeline::PartitionMap PartitionMapOf() const;
};

/// A fully loaded and validated fleet snapshot.
struct ShardedCheckpoint {
  ShardManifest manifest;
  CheckpointData coord;
  std::vector<CheckpointData> shards;
};

std::string ShardManifestFileName(int64_t tick);
std::string ShardCheckpointFileName(int shard, int64_t tick);
std::string CoordCheckpointFileName(int64_t tick);

/// Serializes the manifest via write-temp-then-rename. Call only after
/// every file it names is durably in place.
Status SaveShardManifest(const std::string& path, const ShardManifest& m);

/// Reads and validates a manifest file (magic, version, checksum).
Result<ShardManifest> LoadShardManifest(const std::string& path);

/// Loads the complete fleet snapshot a manifest names, validating every
/// file; any unloadable member fails the whole load (IoError).
Result<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& manifest_path);

/// Newest *fully loadable* fleet snapshot in `dir`: manifests are tried
/// tick-descending and the first whose entire file set validates wins.
Result<ShardedCheckpoint> LatestShardedCheckpoint(const std::string& dir);

/// Deletes all but the `keep` newest *fully loadable* fleet snapshots in
/// `dir`: every other manifest goes, with every shard/coord file of a tick
/// that has no kept manifest. Unloadable snapshots (torn manifest or
/// member file) never occupy keep slots and are always deleted, so a
/// directory of garbage converges to empty instead of shielding it;
/// keep <= 0 deletes every snapshot. Best-effort; returns the first
/// deletion error, if any.
Status PruneShardCheckpoints(const std::string& dir, int keep);

/// WAL-aware variant: when `wal_dir` holds any WAL segments, at least one
/// loadable snapshot is retained regardless of `keep` — the newest is the
/// replay base those segments depend on, and deleting it would turn an
/// exact recovery into a full-stream replay (or a data loss if early
/// segments were already pruned).
Status PruneShardCheckpoints(const std::string& dir, int keep,
                             const std::string& wal_dir);

// ---------------------------------------------------------------------------
// Shape-independent (portable) checkpoint view — DESIGN.md §4.14
// ---------------------------------------------------------------------------

/// A checkpoint re-expressed in the flat single-server representation,
/// regardless of the fleet shape that wrote it. This is what makes
/// checkpoints portable across fleet sizes: any server can consume `data`
/// by routing `data.edges` under its own partition map.
struct PortableCheckpoint {
  /// Flat-form state. For sharded sources, `edges` is the exact global
  /// canonical stream — each shard window filtered to the edges that
  /// shard *owns* under the manifest's partition map (mirrors dropped),
  /// then merged back into canonical order, which reproduces the
  /// single-server stream byte-identically. Warm-start state is converted
  /// from the coordinator's entity→anchor pairs to the flat
  /// prev_l2g/prev_labels encoding; the anchor function both encodings
  /// induce is identical. wal_epoch folds in the manifest fencing epoch.
  CheckpointData data;
  /// Fleet shape that wrote the snapshot (1 for flat files).
  int source_shards = 1;
};

/// Loads the newest checkpoint under `path_or_dir` as a portable view.
/// A directory may hold flat checkpoints, sharded manifests, or (after a
/// history of resizes through one shard) both — the loadable snapshot
/// with the highest tick wins. An explicit file path loads that file,
/// treating ".smf" names as sharded manifests. NotFound when the
/// directory holds no loadable checkpoint of either format; corrupt
/// explicit files fail with IoError.
Result<PortableCheckpoint> LoadPortableCheckpoint(
    const std::string& path_or_dir);

}  // namespace glp::serve
