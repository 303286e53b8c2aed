// serve::Server — the serving layer's polymorphic surface. StreamServer
// (serve/server.h) implements it for any shard count; the replay tool, the
// checkpoint plumbing, and the network ingest frontend (serve/net/) all
// program against this interface, so consumers never special-case the
// fleet shape, which MakeServer picks and Resize changes live.
//
// Contract highlights:
//  - Ticks fire on the absolute grid k * tick.every_days once ingested data
//    crosses a boundary; output is invariant to how the stream is cut into
//    batches (the network path leans on this for its exactness guarantee).
//  - Ingest() blocks on a full queue (backpressure); TryIngest() returns
//    kQueueFull instead, which the net frontend converts into 429 +
//    Retry-After (admission control never blocks a connection thread on a
//    queue it does not own).
//  - A fatal tick error kills the detection loop: running() flips false,
//    blocked producers wake with Ingest() == false, last_error() holds the
//    first failure.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/sliding_window.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "serve/config.h"
#include "util/status.h"

namespace glp::serve {

namespace wal {
class Wal;
}

/// Wire-to-publish context riding alongside one ingest batch (DESIGN.md
/// §4.12): the client's trace context from `traceparent`, the arrival
/// stamp the freshness SLO measures from, and the tenant the measurement
/// is attributed to. A default-constructed IngestContext (in-process
/// callers) is untraced and unstamped — no freshness is recorded for it.
struct IngestContext {
  obs::SpanContext trace;
  /// obs::MonotonicSeconds() at wire arrival; negative = unstamped.
  double arrival_seconds = -1;
  /// Label on glp_serve_freshness_seconds; empty renders as "default".
  std::string tenant;

  // Replication-internal (serve/net/replication.h). Nonzero wal_seq means
  // this batch already carries a primary-assigned WAL position: the
  // server's WAL appends it at exactly that sequence instead of assigning
  // a fresh one, suppresses it as a duplicate if already logged, and
  // rejects it when wal_epoch is behind the local fencing epoch (a
  // deposed primary's write). Normal ingest leaves all three zero.
  uint64_t wal_seq = 0;
  uint64_t wal_epoch = 0;
  /// Primary's wall clock at original append — feeds the standby's
  /// glp_serve_replica_lag_seconds gauge.
  double wal_wall_seconds = 0;
};

/// One detection tick's output, published to subscribers.
struct TickResult {
  int64_t tick = 0;
  double window_start = 0;
  double window_end = 0;

  /// Full pipeline output (clusters, metrics, LP cost accounting). Labels
  /// are in the window's canonical local-id space whatever the shard
  /// count: lp.labels and cluster labels use the ids a one-shot snapshot
  /// of the window assigns, and clusters come in label order.
  pipeline::PipelineResult detection;

  /// Confirmed-cluster diff vs the previous tick, as sorted global-id
  /// member lists: clusters newly confirmed this tick, and previously
  /// confirmed clusters that disappeared.
  std::vector<std::vector<graph::VertexId>> new_confirmed;
  std::vector<std::vector<graph::VertexId>> expired_confirmed;

  /// Host wall-clock of the whole tick (window advance + LP + extraction).
  double tick_wall_seconds = 0;
  /// Newest ingested timestamp minus this window's end: how far detection
  /// trails the stream head.
  double ingest_lag_days = 0;
};

/// Aggregate serving statistics — a point-in-time view assembled from the
/// server's metric registry (the registry is the source of truth; this
/// struct exists for programmatic consumers and the JSON dump).
struct ServerStats {
  int64_t ticks = 0;
  int64_t batches_ingested = 0;
  int64_t edges_ingested = 0;
  /// Times Ingest() had to block on a full queue.
  int64_t ingest_blocked = 0;
  size_t queue_peak = 0;

  // Resilience counters (see ResiliencePolicy).
  int64_t batches_rejected = 0;       ///< failed validation or injected fault
  int64_t ticks_shed = 0;             ///< overdue boundaries coalesced away
  int64_t degraded_ticks = 0;         ///< ran with the LP iteration cap
  int64_t deadline_overruns = 0;      ///< ticks exceeding the deadline
  int64_t tick_retries = 0;           ///< transient-failure retry attempts
  int64_t ticks_failed = 0;           ///< ticks abandoned after all retries
  int64_t engine_fallbacks = 0;       ///< retries on the fallback engine
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;

  // Incremental serving (TickPolicy::incremental).
  int64_t reused_clusters = 0;        ///< cluster records reused verbatim
  int64_t incremental_rebuilds = 0;   ///< ticks that fell back to a rebuild
  int64_t last_dirty_components = 0;  ///< dirty components, last tick

  double tick_p50_seconds = 0;
  double tick_p99_seconds = 0;
  double tick_max_seconds = 0;
  double avg_iterations = 0;  ///< LP iterations per tick
  double last_ingest_lag_days = 0;

  std::string ToJson() const;
};

/// \brief Abstract streaming detection server.
///
/// Producers feed timestamped edge batches (Ingest/TryIngest, both
/// thread-safe); a detection thread appends them to the sliding window and
/// runs a detection tick at every tick.every_days boundary the data
/// crosses, publishing TickResults to subscribers in tick order.
class Server {
 public:
  using Subscriber = std::function<void(const TickResult&)>;

  /// What RestoreFromCheckpoint recovered — the replay contract: feed the
  /// canonically-sorted source stream starting at edge index num_edges.
  struct RestoreInfo {
    int64_t tick = 0;        ///< ticks already completed
    uint64_t num_edges = 0;  ///< edges already recovered (window + WAL replay)
    double max_time = 0;     ///< newest timestamp already ingested
    uint64_t wal_seq = 0;    ///< highest WAL sequence recovered (0 = no WAL)
    uint64_t wal_epoch = 0;  ///< fencing epoch after recovery (0 = no WAL)
  };

  /// How TryIngest resolved, in admission-ladder order.
  enum class Admit {
    kAccepted,   ///< batch enqueued
    kRejected,   ///< failed validation (or an armed ingest failpoint)
    kQueueFull,  ///< bounded queue at capacity — shed, retry later
    kStopped,    ///< server not running (stopped or dead)
  };

  virtual ~Server() = default;

  /// Registers a per-tick callback (invoked on the detection thread, in
  /// tick order). Must be called before Start().
  virtual void Subscribe(Subscriber subscriber) = 0;

  /// Restores window, tick schedule, and incremental state from a
  /// checkpoint (file/manifest path, or the newest loadable checkpoint in
  /// a directory). Must be called before Start(). Replaying the stream's
  /// remaining edges afterwards produces tick output identical to an
  /// uninterrupted run.
  virtual Result<RestoreInfo> RestoreFromCheckpoint(
      const std::string& path_or_dir) = 0;

  /// Launches the detection thread.
  virtual Status Start() = 0;

  /// Enqueues a batch. Blocks while the queue is at max_queue_batches
  /// (backpressure). Returns false if the batch fails validation or the
  /// server is stopped/dead (batch dropped). `ctx` carries the batch's
  /// trace context and arrival stamp through the queue (and across shard
  /// sub-batch routing) to the tick that consumes it.
  virtual bool Ingest(std::vector<graph::TimedEdge> batch,
                      IngestContext ctx) = 0;
  bool Ingest(std::vector<graph::TimedEdge> batch) {
    return Ingest(std::move(batch), IngestContext{});
  }

  /// Non-blocking Ingest: a full queue returns kQueueFull immediately
  /// instead of waiting. The network frontend's admission path — a shed
  /// batch becomes 429 + Retry-After on the wire.
  virtual Admit TryIngest(std::vector<graph::TimedEdge> batch,
                          IngestContext ctx) = 0;
  Admit TryIngest(std::vector<graph::TimedEdge> batch) {
    return TryIngest(std::move(batch), IngestContext{});
  }

  /// Blocks until every ingested batch has been processed and all due
  /// ticks have run.
  virtual void Flush() = 0;

  /// Stops the server: no further ingest, the in-flight LP run (if any) is
  /// cancelled through the RunContext stop token, the thread is joined.
  /// Call Flush() first for a graceful drain.
  virtual void Stop() = 0;

  /// On-demand crash-consistent snapshot into checkpoint.dir, on top of
  /// the periodic every_ticks cadence. Thread-safe: while the server is
  /// running the write is handed to the detection thread (the caller
  /// blocks until it lands between batches); before Start() or after
  /// Stop() it runs inline. InvalidArgument without a checkpoint dir;
  /// Cancelled if the server stops or dies first.
  virtual Status WriteCheckpoint() = 0;

  /// Live fleet resize (DESIGN.md §4.14): migrate detection state to
  /// `new_num_shards` shards without dropping a batch or breaking the
  /// subscriber diff stream. While the server is running the migration is
  /// handed to the detection thread (quiesce → re-partition → resume; the
  /// caller blocks until it commits or aborts); before Start() it runs
  /// inline, which is how an offline restore is re-shaped. A failure
  /// before the commit point leaves the fleet on its old shape — retry is
  /// always safe.
  virtual Status Resize(int new_num_shards) = 0;

  /// First non-cancellation error a tick produced, if any. Transient
  /// errors absorbed by a successful retry are not recorded.
  virtual Status last_error() const = 0;

  /// True while the detection thread is serving: Start() succeeded, no
  /// Stop() yet, and no fatal error has killed the loop. Ingest() returns
  /// false exactly when this is false.
  virtual bool running() const = 0;

  virtual ServerStats stats() const = 0;

  /// The registry serving telemetry flows into: ServerConfig::metrics when
  /// supplied, else the server's private one. Valid for the server's
  /// lifetime; hand it to an obs::HttpEndpoint (or mount it on the ingest
  /// service) to watch the server live.
  virtual obs::MetricRegistry* metrics() const = 0;

  /// Detection shards behind this server.
  virtual int num_shards() const = 0;

  /// The write-ahead log when DurabilityPolicy is enabled (opened by
  /// Start() or RestoreFromCheckpoint(), whichever runs first); null
  /// otherwise. The replication service reads frames from it and
  /// promotion bumps its fencing epoch.
  virtual wal::Wal* wal() const { return nullptr; }

  /// Flight recorder holding the last trace.recorder_ticks complete
  /// per-tick span trees (the GET /debug/ticks payload and the
  /// chrome://tracing export source); null when the recorder is disabled.
  virtual const obs::FlightRecorder* flight_recorder() const = 0;
};

/// Constructs a StreamServer over `num_shards` shards. Non-positive counts
/// are a caller bug and return nullptr (logged) — never a silently
/// defaulted 1-shard server.
std::unique_ptr<Server> MakeServer(ServerConfig config, int num_shards = 1);

}  // namespace glp::serve
