// glp::serve::StreamServer — the streaming fraud-detection server (the
// deployment shape of paper §5.4: the pipeline re-evaluated continuously
// as transactions arrive), on one shard or many (DESIGN.md §4.6, §4.9).
//
// Entities are partitioned across N >= 1 shards by a versioned
// pipeline::PartitionMap (the same assignment the distributed cost model
// prices). Each shard owns a partitioned SlidingWindow holding the edges
// whose *source* maps to it; an edge whose endpoints map to different
// shards is mirrored into both, so every shard sees its full local
// neighborhood — the boundary-mirroring scheme Gunrock-style multi-device
// frameworks use. One shard has no mirrors: its window is the whole
// stream. The shard count is *elastic*: Resize() migrates the fleet to a
// new shape live (DESIGN.md §4.14), and checkpoints restore across shapes.
//
//   Ingest(batch) --route by PartitionOf--> bounded queue of routed batches
//                                             detection thread
//                                               parallel per-shard Append
//                                               per-shard window advance
//                                               fleet union-find (tracker)
//                                               component -> owner shard
//                                               ordered pass: edges -> owners
//                                               parallel per-owner detection
//                                               confirmed-cluster diff
//                                                 -> subscribers
//
// Why components, not raw subgraphs: label propagation on a shard's
// mirrored subgraph is NOT equivalent to global LP — labels keep crossing
// the boundary every iteration, and a one-hop halo cannot carry that. What
// *is* exactly decomposable is connectivity: labels never cross connected
// components, and per-component LP is order-isomorphic to the global run
// (an owner's local ids keep the window's first-appearance order, so every
// MFL tie-break resolves identically). One persistent fleet-wide
// union-find (serve::IncrementalTracker) fed by the shard windows' deltas
// gives the global components in every tick mode; whole components are
// assigned to owner shards (PartitionOf(min-entity)). One ordered pass — a
// k-way merge of the shard windows' owned in-window edges (a single scan on
// one shard) — interns each edge into its owner's snapshot edge list and
// gives each entity its window id on first appearance, so every tick
// publishes labels, clusters and warm-start labels in the window's
// canonical local-id space, and a cold N-shard tick is identical to the
// 1-shard tick — labels included. With one shard the owner snapshot is
// the window snapshot and the map is the identity.
//
// Warm start anchors each entity's label to an entity id. With N > 1 an
// anchor that lands in another owner's components is dropped (the entity
// restarts as a singleton), so N-shard warm ticks can differ from 1-shard
// warm ticks; cold and incremental ticks cannot (see DESIGN.md §4.9).
//
// Resilience: the serve.* failpoints fire on the routed-ingest/append/tick
// paths (ticks once per owner shard), each owner detection walks the
// transient-retry ladder (retry -> drop warm -> fallback engine), the
// deadline degradation ladder arms per tick, and checkpoints are per-shard
// files sealed by a manifest so the fleet restores atomically
// (serve/checkpoint.h).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/sliding_window.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/partition.h"
#include "pipeline/pipeline.h"
#include "serve/incremental.h"
#include "serve/server_iface.h"
#include "serve/wal.h"
#include "util/status.h"

namespace glp::serve {

/// \brief Streaming detection server over N >= 1 shards.
///
/// Producers feed timestamped edge batches (Ingest is thread-safe); the
/// detection thread appends them to the shard windows and runs a tick at
/// every tick.every_days boundary the data crosses. Batches are expected
/// in (approximate) time order; late edges are merged into the stream but
/// already-taken ticks are not re-run. Exports the glp_serve_* instruments
/// behind ServerStats plus per-shard glp_serve_shard_* families labeled
/// {shard="k"}. TickResult::detection is the stitched aggregate, expressed
/// in the window's canonical local-id space (see the file comment).
class StreamServer : public Server {
 public:
  /// `config` applies fleet-wide; `num_shards` in [1, 256].
  explicit StreamServer(ServerConfig config, int num_shards = 1);
  ~StreamServer() override;

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  int num_shards() const override {
    return num_shards_.load(std::memory_order_acquire);
  }

  wal::Wal* wal() const override { return wal_.get(); }

  /// Registers a per-tick callback (invoked on the detection thread, in
  /// tick order). Must be called before Start().
  void Subscribe(Subscriber subscriber) override;

  /// Restores the fleet from the newest *complete* checkpoint in `dir`
  /// (or an explicit manifest/checkpoint path). All-or-nothing: a missing
  /// or corrupt shard file falls back to the previous complete set.
  /// Checkpoints are shape-portable: a snapshot taken on any fleet size —
  /// including a flat single-file checkpoint — restores here, re-partitioned
  /// under this fleet's map, and the WAL tail (batches after the
  /// snapshot) replays routed under the *current* map with seq-based
  /// duplicate suppression, so no edge is lost or duplicated across the
  /// re-route. Must be called before Start(). RestoreInfo::num_edges
  /// counts *global* stream edges (mirrors excluded) — the replay resume
  /// index.
  Result<RestoreInfo> RestoreFromCheckpoint(
      const std::string& path_or_dir) override;

  /// Live fleet resize (DESIGN.md §4.14): quiesce → re-partition → resume
  /// on the detection thread, preserving the subscriber diff stream
  /// unbroken. Before Start() the migration runs inline (offline
  /// re-shape). Aborts — including the armed "serve.reshard" failpoint —
  /// happen before the commit point and leave the old shape fully intact;
  /// retry is always safe.
  Status Resize(int new_num_shards) override;

  /// Launches the detection thread.
  Status Start() override;

  using Server::Ingest;
  using Server::TryIngest;

  /// Validates and routes a batch to shard sub-batches, then enqueues the
  /// routed batch (bounded queue, blocking backpressure). Returns false if
  /// the batch is rejected or the server is stopped/dead. `ctx` rides the
  /// routed batch through the queue and across the shard sub-batch fan-out
  /// to the tick that consumes it.
  bool Ingest(std::vector<graph::TimedEdge> batch, IngestContext ctx) override;

  /// Non-blocking Ingest: sheds (kQueueFull) instead of waiting on a full
  /// queue. See Server::TryIngest.
  Admit TryIngest(std::vector<graph::TimedEdge> batch,
                  IngestContext ctx) override;

  /// Blocks until every ingested batch is processed and due ticks ran.
  void Flush() override;

  /// Stops the detection thread (cancels in-flight LP via the stop token).
  void Stop() override;

  /// On-demand fleet snapshot — see Server::WriteCheckpoint.
  Status WriteCheckpoint() override;

  /// First non-cancellation error a tick produced, if any.
  Status last_error() const override;
  bool running() const override;

  ServerStats stats() const override;
  obs::MetricRegistry* metrics() const override { return registry_; }

  /// Flight recorder over completed ticks — see
  /// Server::flight_recorder. Null unless trace.recorder_ticks > 0.
  const obs::FlightRecorder* flight_recorder() const override {
    return recorder_.get();
  }

 private:
  /// One ingest batch split into per-shard sub-batches (owned edges plus
  /// mirrored cross-shard copies). Carries the producer's IngestContext
  /// across the fan-out: the trace context and arrival stamp describe the
  /// whole wire batch, whichever shards its edges landed on.
  struct RoutedBatch {
    std::vector<std::vector<graph::TimedEdge>> parts;
    size_t global_edges = 0;  ///< pre-mirroring edge count
    /// Per-shard owned / mirrored-copy counts (telemetry).
    std::vector<uint64_t> routed;
    std::vector<uint64_t> mirrored;
    IngestContext ctx;
    double enqueue_seconds = 0;  ///< obs::MonotonicSeconds() at enqueue
    /// WAL sequence of the *pre-routing* global batch (0 = WAL disabled).
    /// The log stores the original wire batch; replay re-routes it, which
    /// reproduces the same parts deterministically.
    uint64_t wal_seq = 0;
    /// Version of the partition map that routed `parts`. Producers route
    /// outside the lock; if a live resize lands in between, the version
    /// mismatch under the lock triggers a re-route under the new map.
    uint64_t map_version = 0;
  };

  /// A wire batch awaiting its confirmed-cluster publish (freshness SLO),
  /// keyed on the batch's global entity set (mirrors dedup away in the
  /// sorted-unique endpoint list).
  struct FreshnessMeta {
    std::string tenant;
    double arrival_seconds = 0;
    uint64_t trace_id = 0;  ///< exemplar link; 0 when unsampled
    std::vector<graph::VertexId> entities;  ///< sorted unique endpoints
  };

  enum class TickOutcome { kOk, kAbandoned, kCancelled, kFatal };

  /// Per-owner tick workspace and results.
  struct OwnerWork {
    /// The owner's window edges in canonical order, in owner-local ids
    /// (filled by InternWindowEdges, built into `snap` by the owner).
    std::vector<graph::Edge> edges;
    graph::WindowSnapshot snap;
    /// gid[v] = local v's id in the window's canonical local-id space.
    std::vector<graph::VertexId> gid;
    std::vector<graph::Label> warm_init;  ///< owner-local warm init
    pipeline::PipelineResult result;
    Status status;
    TickOutcome outcome = TickOutcome::kOk;
    bool ran = false;   ///< detection produced a result this tick
    bool warm = false;  ///< the successful attempt was warm-started
    double wall_seconds = 0;
    int64_t num_components = 0;  ///< counted by InternWindowEdges
    int64_t reused = 0;  ///< clusters reused verbatim (incremental delta)
  };

  glp::ThreadPool* pool() const;
  void DetectLoop();
  bool RunDueTicks();
  TickOutcome RunTick(double end_time);
  /// The ordered pass: merges the shard windows' owned in-window edges in
  /// canonical order (a single scan on one shard) and interns each edge into
  /// its owner's edge list. Entities get their owner-local id (tick_ids_)
  /// and window id (OwnerWork::gid) on first appearance, and each owner
  /// counts its component roots. Returns the window's vertex count.
  size_t InternWindowEdges();
  /// Builds owner o's snapshot (+ warm labels) from its interned edges, and
  /// runs detection through the retry/degradation ladder. With `use_delta`
  /// set, builds a pipeline::DetectDelta from the fleet tracker's exported
  /// dirty flags so LP runs only on this owner's dirty components.
  void RunOwnerDetection(int o, double window_start, double window_end,
                         bool degraded, bool warm_wanted, bool use_delta);
  /// Advances every shard's range cursor and updates the fleet-wide
  /// union-find — by per-shard deltas when all are exact (and the
  /// serve.incremental_rebuild failpoint stays quiet), by a full
  /// multi-window rebuild otherwise — then re-owns the changed components.
  /// Runs in every tick mode. Returns whether the delta path ran.
  bool UpdateIncrementalTracker(double start_time, double end_time);
  /// Rebuilds the tracker from every shard's cursor range and recomputes
  /// owner_of_ for every in-window entity: owner = pmap_->PartOf(component
  /// min entity). `mark_all_dirty` as in IncrementalTracker::FinishRebuild.
  void RebuildTracker(bool mark_all_dirty);
  /// Restore and resize: recomputes universe_, primes every cursor at the
  /// last completed tick and rebuilds the tracker clean, so the next tick
  /// takes the exact delta path.
  void ReseatTracker();
  /// Max entity id + 1 across the shard windows.
  size_t FleetUniverse() const;
  bool ValidBatch(const std::vector<graph::TimedEdge>& batch) const;
  /// The admission ladder behind Ingest and TryIngest: validate, route,
  /// then enqueue — waiting on a full queue when `block` is set, shedding
  /// (kQueueFull) otherwise.
  Admit AdmitBatch(std::vector<graph::TimedEdge> batch, IngestContext ctx,
                   bool block);
  /// Routes a validated batch into per-shard sub-batches under `map`
  /// (mirroring cross-shard edges); shared by Ingest, TryIngest, WAL
  /// replay, and migration re-routing. Reads `batch` without consuming it
  /// so a racing resize can re-route from the original.
  RoutedBatch RouteBatch(const std::vector<graph::TimedEdge>& batch,
                         const pipeline::PartitionMap& map) const;
  /// The migration itself: quiesce point already reached (detection
  /// thread with an empty-or-owned queue, or pre-Start caller). Builds the
  /// target shape off to the side, then commits it under mu_ — any
  /// failure (or the "serve.reshard" failpoint) before that leaves the
  /// old shape untouched. Re-routes still-queued batches, rebuilds
  /// cursors/scratch/incremental tracker, re-registers per-shard
  /// instruments, and writes a fresh checkpoint of the new shape (the
  /// durable commit point).
  Status MigrateToShardCount(int target);
  /// Heat-driven automatic resize decision (ReshardPolicy), evaluated on
  /// the detection thread after successful ticks.
  void MaybeAutoReshard();
  /// Grows shard_ins_ (and the per-shard metric families) to cover n
  /// shards; gauges of shards beyond the live count are zeroed.
  void EnsureShardInstruments(int n);
  bool Backoff(int attempt);
  void RecordError(const Status& status);
  /// Builds and writes one fleet snapshot (detection-thread state).
  Status DoWriteCheckpoint();
  /// Opens the WAL per DurabilityPolicy (idempotent; no-op when disabled).
  Status EnsureWalOpen();
  /// Appends the pre-routing global batch to the WAL under mu_ (so
  /// sequence order matches queue order) and stamps rb->wal_seq. Returns
  /// kAlreadyExists for a replicated duplicate (caller acks without
  /// enqueueing) and any other failure to reject the batch — the log must
  /// hold exactly the batches the detection thread will consume.
  Status AppendToWalLocked(const std::vector<graph::TimedEdge>& batch,
                           const IngestContext& ctx, RoutedBatch* rb);
  /// Publishes the Wal's internal counters into the registry instruments.
  void PublishWalStats();
  /// Records the batch's queue-wait span (client trace context) and
  /// stashes its freshness metadata when the arrival stamp is present.
  void NoteBatchDequeued(const RoutedBatch& rb, double pop_seconds);
  /// Matches pending freshness entries against this tick's newly confirmed
  /// clusters and observes glp_serve_freshness_seconds per tenant.
  void ObserveFreshness(const TickResult& tr);
  /// Seals the current tick's trace: drains collected spans, prepends the
  /// root serve.tick span, records into the flight recorder, and dumps the
  /// tick JSON to the log when `dump` is set.
  void FinishTickTrace(int64_t tick, double window_end, const char* outcome,
                       double start_seconds, double wall_seconds, bool dump);
  obs::Histogram* FreshnessHistogram(const std::string& tenant);

  ServerConfig config_;
  /// Live shard count. Written only at construction and at a migration
  /// commit (under mu_); atomic so num_shards() and producer-side checks
  /// read it without the lock.
  std::atomic<int> num_shards_;
  /// The routing map (never null). Swapped only at a migration commit
  /// under mu_; producers snapshot the shared_ptr under mu_ and route
  /// outside it, the detection thread reads it freely (it is the only
  /// writer).
  std::shared_ptr<const pipeline::PartitionMap> pmap_;
  std::vector<Subscriber> subscribers_;

  // Detection-thread state.
  std::vector<graph::SlidingWindow> windows_;
  uint64_t global_edges_ = 0;  ///< stream edges appended (mirrors excluded)
  bool tick_schedule_primed_ = false;
  double next_tick_end_ = 0;
  int64_t num_ticks_ = 0;
  double last_tick_wall_seconds_ = 0;
  bool refresh_pending_ = false;
  int64_t last_checkpoint_tick_ = -1;
  /// Highest WAL sequence consumed into the shard windows (detection
  /// thread); fleet checkpoints record it, pruning runs against it.
  uint64_t consumed_wal_seq_ = 0;
  bool have_prev_ = false;
  /// Warm anchors: warm_anchor_[entity] = the entity whose local id was
  /// its label on the previous tick (the global re-expression of prev
  /// labels), kInvalidVertex for none.
  std::vector<graph::VertexId> warm_anchor_;
  std::set<std::vector<graph::VertexId>> prev_confirmed_;

  // Tick scratch (detection thread + pool workers during a tick).
  size_t universe_ = 0;  ///< max entity id + 1 across shards
  std::vector<OwnerWork> owners_;
  /// One entity map for the whole tick: entities stamped by the ordered
  /// pass carry their owner-local id in local_of.
  graph::SlidingWindow::Scratch tick_ids_;
  /// owner_of_[entity], persistent across ticks for all in-window entities
  /// (refreshed for dirty components each tick).
  std::vector<uint8_t> owner_of_;

  // Connectivity (DESIGN.md §4.10): one fleet-wide persistent union-find
  // fed by per-shard window deltas, in every tick mode. Incremental mode
  // (config_.tick.incremental) adds the carried-over label anchors and
  // cluster-record cache that make clean components free.
  std::vector<graph::WindowRangeCursor> range_cursors_;  ///< one per shard
  IncrementalTracker inc_tracker_;
  /// anchor_of_[entity] = the entity whose owner-snapshot local id was this
  /// entity's published label last tick.
  std::vector<graph::VertexId> anchor_of_;
  /// Dirty flags for the current tick, exported before the parallel
  /// owner fan-out so workers never race on the union-find.
  std::vector<uint8_t> entity_dirty_;
  bool inc_reuse_ok_ = false;
  struct ClusterRecord {
    pipeline::SuspiciousCluster cluster;
    graph::VertexId label_anchor;  ///< owner-snapshot anchor entity
  };
  std::vector<ClusterRecord> records_;
  bool records_valid_ = false;
  /// Indices into records_ reusable this tick, bucketed by owner shard.
  std::vector<std::vector<size_t>> owner_records_;
  std::vector<graph::VertexId> comp_min_scratch_;

  // Shared state, guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable not_full_cv_;
  std::condition_variable drained_cv_;
  std::deque<RoutedBatch> queue_;
  bool started_ = false;
  bool stopping_ = false;
  bool dead_ = false;
  bool busy_ = false;
  double ingested_max_time_ = 0;
  Status last_error_ = Status::OK();
  // On-demand checkpoint handshake (public WriteCheckpoint while running):
  // the caller raises the request and blocks; the detection thread services
  // it between batches and reports back through checkpoint_status_.
  bool checkpoint_requested_ = false;
  Status checkpoint_status_ = Status::OK();
  std::condition_variable checkpoint_done_cv_;
  // Live-resize handshake (same protocol as the checkpoint one): Resize()
  // parks the target count here, the detection thread migrates at its next
  // quiesce point (queue drained) and reports back.
  int resize_requested_ = 0;
  Status resize_status_ = Status::OK();
  std::condition_variable resize_done_cv_;
  /// Tick of the last automatic resize decision (cooldown anchor).
  int64_t last_reshard_tick_ = 0;

  // Telemetry: aggregate glp_serve_* instruments (ServerStats-compatible)
  // plus per-shard families labeled {shard="k"}.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_ = nullptr;
  struct Instruments {
    obs::Histogram* tick_seconds;
    obs::Counter* warm_ticks;
    obs::Counter* cold_ticks;
    obs::Counter* warm_iterations;
    obs::Counter* cold_iterations;
    obs::Counter* batches_ingested;
    obs::Counter* edges_ingested;
    obs::Counter* ingest_blocked;
    obs::Gauge* queue_depth;
    obs::Gauge* queue_peak;
    obs::Gauge* ingest_lag_days;
    obs::Counter* batches_rejected_invalid;
    obs::Counter* batches_rejected_failpoint;
    obs::Counter* batches_dropped;
    obs::Counter* ticks_shed;
    obs::Counter* degraded_ticks;
    obs::Counter* deadline_overruns;
    obs::Counter* tick_retries;
    obs::Counter* ticks_failed;
    obs::Counter* engine_fallbacks;
    obs::Counter* warm_fallbacks;
    obs::Counter* cold_refresh_deferred;
    obs::Counter* checkpoints_ok;
    obs::Counter* checkpoints_failed;
    obs::Gauge* dirty_components;
    obs::Counter* reused_clusters;
    obs::Counter* incremental_rebuilds;
    // Durability (glp_serve_wal_*).
    obs::Counter* wal_appends_ok;
    obs::Counter* wal_appends_failed;
    obs::Counter* wal_duplicates;
    obs::Counter* wal_fenced;
    obs::Counter* wal_replayed_batches;
    obs::Counter* wal_pruned_segments;
    obs::Counter* wal_fsyncs;
    obs::Counter* wal_bytes;
    obs::Gauge* wal_last_seq;
    obs::Gauge* wal_epoch;
    obs::Gauge* wal_segments;
    // Elastic resharding (glp_serve_reshard_*).
    obs::Counter* reshards_ok;
    obs::Counter* reshards_aborted;  ///< pre-commit failure or failpoint
    obs::Gauge* num_shards_gauge;
    obs::Histogram* reshard_pause_seconds;  ///< migration quiesce-to-resume
  };
  Instruments ins_{};
  struct ShardInstruments {
    obs::Histogram* tick_seconds;   ///< per-owner detection wall time
    obs::Counter* edges_routed;     ///< owned edges appended
    obs::Counter* edges_mirrored;   ///< mirrored copies appended
    obs::Gauge* window_edges;       ///< shard window size (incl. mirrors)
    obs::Gauge* components_owned;   ///< components this shard detected
    /// In-window routed edges last tick (incl. mirrors) — the heat signal
    /// ReshardPolicy's automatic rebalance decision reads.
    obs::Gauge* inwindow_edges;
  };
  std::vector<ShardInstruments> shard_ins_;

  // Tracing + freshness SLO (DESIGN.md §4.12). span_sink_ is mutex-guarded,
  // so pool workers (per-owner detection) append spans concurrently;
  // tick_trace_/tick_root_span_ are written by the detection thread before
  // the fan-out and read-only inside it.
  obs::TraceSampler sampler_;
  obs::SpanSink span_sink_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  uint64_t tick_root_span_ = 0;
  obs::SpanContext tick_trace_;
  std::vector<FreshnessMeta> pending_freshness_;
  std::map<std::string, obs::Histogram*> freshness_hist_;
  static constexpr size_t kMaxPendingFreshness = 4096;

  // Durability (DurabilityPolicy; DESIGN.md §4.13): one fleet-wide WAL of
  // pre-routing wire batches.
  std::unique_ptr<wal::Wal> wal_;
  uint64_t wal_published_fsyncs_ = 0;
  uint64_t wal_published_bytes_ = 0;
  uint64_t wal_published_pruned_ = 0;

  std::atomic<bool> stop_token_{false};
  std::thread thread_;
};

}  // namespace glp::serve
