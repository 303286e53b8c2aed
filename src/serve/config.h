// Serving-layer configuration, split into composable policy structs:
// streaming concerns group into TickPolicy (cadence, warm-start/incremental
// mode), ResiliencePolicy (the §4.8 retry and degradation ladders), and
// CheckpointPolicy (periodic snapshots), so new layers — the network
// frontend's TenantPolicy lives in serve/net/tenant.h — compose their own
// policy structs instead of widening one god-struct. ServerConfig embeds
// one of each plus the cross-cutting members (detection pipeline, seeds,
// queue bound, telemetry hooks) and is consumed by serve::StreamServer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "prof/prof.h"

namespace glp::serve {

/// When detection ticks fire and how much state they carry across ticks.
struct TickPolicy {
  /// Window-end cadence: a detection tick fires at every multiple of this
  /// once ingested data reaches it.
  double every_days = 1.0;

  /// Warm-start each tick's LP from the previous tick's labels mapped
  /// through the entity ids (cold singleton for entities new to the
  /// window). Off = every tick runs from scratch.
  bool warm_start = true;

  /// Incremental tick path (DESIGN.md §4.10): maintain a persistent
  /// cross-tick union-find over the window, and run LP + cluster
  /// extraction only on components whose edge set changed since the last
  /// tick — clean components reuse their previous labels and cluster
  /// records verbatim. Published output stays byte-identical to a cold
  /// canonical replay (unlike warm_start, which trades exactness for
  /// speed), and any incremental-state fault falls back to a full rebuild
  /// for that tick. When set, warm_start and cold_refresh_every_ticks are
  /// ignored. Requires synchronous, non-SLP detection with no caller
  /// initial labels and an even lp.max_iterations when stop_when_stable —
  /// Start() rejects violations.
  bool incremental = false;

  /// With warm_start, run a from-scratch tick every N ticks anyway.
  /// Warm-started LP can merge communities but never split them, so label
  /// granularity drifts monotonically coarser over long streams; a periodic
  /// cold refresh re-fragments (see bench/stream_serve.cc for the
  /// latency/quality tradeoff). 0 = never refresh.
  int64_t cold_refresh_every_ticks = 32;
};

/// The §4.8 failure ladders: per-tick retries, deadline degradation, and
/// ingest validation.
struct ResiliencePolicy {
  /// Per-tick wall-clock budget in seconds; 0 disables the deadline. A
  /// tick that overruns arms the degradation ladder for the next one:
  /// (1) LP iterations capped at degraded_iteration_cap, (2) a due cold
  /// refresh is deferred until pressure clears, (3) if the stream has
  /// crossed several boundaries while a tick overran, the overdue
  /// boundaries are coalesced into one tick at the newest boundary and the
  /// skipped ones are counted in glp_serve_ticks_shed_total.
  double tick_deadline_seconds = 0;
  /// LP iteration cap applied to degraded ticks (step 1 of the ladder).
  int degraded_iteration_cap = 5;

  /// Retries per tick after a *transient* failure (IoError,
  /// CapacityExceeded, Internal — the codes injected device faults and
  /// flaky dependencies surface as). The ladder: attempt 0 as configured,
  /// attempt 1 retries unchanged, attempt 2 drops warm start (the warm
  /// state is suspect after repeated failures), the final attempt switches
  /// to fallback_engine. Non-transient codes are fatal: the detection
  /// thread records last_error(), wakes every blocked producer with
  /// Ingest() == false, and exits. 0 disables retries (first transient
  /// failure abandons the tick).
  int max_tick_retries = 3;
  /// Exponential backoff between retry attempts: base * 2^attempt, capped.
  double retry_backoff_ms = 1.0;
  double max_retry_backoff_ms = 50.0;
  /// Use fallback_engine for the last retry attempt (GPU fault -> CPU).
  bool enable_engine_fallback = true;
  lp::EngineKind fallback_engine = lp::EngineKind::kSeq;

  /// Ingest validation: entity ids must be < entity_id_limit when nonzero
  /// (the sentinel kInvalidVertex and non-finite/negative timestamps are
  /// always rejected). A failing batch is rejected whole — counted in
  /// glp_serve_batches_rejected_total — instead of poisoning the window.
  graph::VertexId entity_id_limit = 0;
};

/// End-to-end tracing and the flight recorder (DESIGN.md §4.12). Tracing
/// is strictly observational: enabling it never changes confirmed-cluster
/// output (asserted in tests/trace_test.cc).
struct TracePolicy {
  /// Head-based sampling rate in [0, 1] for server-minted tick traces and
  /// exemplar attachment. Batches arriving with a sampled `traceparent`
  /// are honored regardless (the client made the head decision).
  double sample_rate = 0;
  /// Seed of the deterministic sampler — a fixed seed replays the same
  /// sampled subset (tests lean on this).
  uint64_t sample_seed = 0x9e3779b97f4a7c15ull;
  /// Flight-recorder capacity: complete per-tick span trees retained for
  /// GET /debug/ticks and chrome://tracing export. 0 disables span
  /// collection entirely (spans are not even assembled).
  int64_t recorder_ticks = 0;

  /// Spans are assembled only when there is a recorder to keep them.
  bool collect_spans() const { return recorder_ticks > 0; }
  bool enabled() const { return sample_rate > 0 || recorder_ticks > 0; }
};

/// Crash-consistent periodic snapshots (serve/checkpoint.h).
struct CheckpointPolicy {
  /// Directory snapshots land in; empty disables checkpointing.
  std::string dir;
  /// Completed ticks between snapshots.
  int64_t every_ticks = 16;
  /// Newest files kept when pruning.
  int keep = 2;
};

/// Durable write-ahead ingest log (serve/wal.h). Every admitted batch is
/// appended (checksummed, sequence-numbered) before it is enqueued, so
/// recovery — RestoreFromCheckpoint + WAL replay — reproduces the exact
/// detection output of an uninterrupted run, and a standby can tail the
/// log over GET /v1/wal.
struct DurabilityPolicy {
  /// Directory WAL segments land in; empty disables the WAL.
  std::string dir;
  /// fsync after every N appends (1 = every batch; group commit when >1).
  int fsync_every_batches = 1;
  /// Also fsync once this much time has passed since the last sync and
  /// unsynced appends exist. <= 0 disables the time trigger.
  double fsync_interval_ms = 0.0;
  /// Segment rotation threshold.
  uint64_t segment_max_bytes = 16ull << 20;

  bool enabled() const { return !dir.empty(); }
};

/// Elastic resharding (DESIGN.md §4.14). Fleet resizes always go through
/// Server::Resize — this policy only decides whether the server
/// *initiates* them itself from shard heat. The heat signal is the
/// in-window routed edge count per shard (mirrors included — they are
/// real per-tick work), sampled after each successful tick; per-shard
/// wall time is exported alongside it (glp_serve_shard_tick_seconds) for
/// operators watching the same decision. Deterministic by construction:
/// a replayed stream makes the same resize calls at the same ticks.
struct ReshardPolicy {
  /// Master switch for heat-driven rebalancing; Resize() works either way.
  bool auto_rebalance = false;
  /// Fleet-size bounds the automatic decision stays within.
  int min_shards = 1;
  int max_shards = 8;
  /// Grow by one shard when in-window edges per shard exceed this
  /// (0 = never grow).
  uint64_t grow_edges_per_shard = 0;
  /// Shrink by one shard when in-window edges per shard fall below this
  /// (0 = never shrink).
  uint64_t shrink_edges_per_shard = 0;
  /// Completed ticks between automatic resize decisions — hysteresis, so
  /// a bursty window does not thrash the fleet through a resize per tick.
  int64_t cooldown_ticks = 4;

  bool enabled() const {
    return auto_rebalance &&
           (grow_edges_per_shard > 0 || shrink_edges_per_shard > 0);
  }
};

/// Streaming-server configuration. Composes the pipeline's unified
/// PipelineConfig (and through it the lp::RunConfig the engines consume)
/// plus one policy struct per serving concern.
struct ServerConfig {
  /// Per-tick detection parameters: window length, engine/variant, the
  /// embedded lp::RunConfig (iterations, seed, stop_when_stable), cluster
  /// extraction thresholds. end_day is ignored — the stream drives the
  /// window end. Pair tick.warm_start with detect.lp.stop_when_stable so
  /// quiescent windows terminate after ~2 iterations.
  pipeline::PipelineConfig detect;

  /// Blacklist seeds (global entity ids) for cluster extraction.
  std::vector<graph::VertexId> seeds;

  TickPolicy tick;
  ResiliencePolicy resilience;
  TracePolicy trace;
  CheckpointPolicy checkpoint;
  DurabilityPolicy durability;
  ReshardPolicy reshard;

  /// Ingest-queue bound: Ingest() blocks while this many batches are
  /// pending (backpressure); TryIngest() sheds instead.
  size_t max_queue_batches = 8;

  /// Optional ground truth for per-tick detection metrics. Not owned.
  const pipeline::TransactionStream* ground_truth = nullptr;

  /// Copy each tick's warm-start label array into TickResult::warm_labels
  /// (test/replay hook for the one-shot equivalence check).
  bool record_warm_labels = false;

  /// Optional profiler: receives per-tick host events and the LP engines'
  /// phase breakdowns. Used from the detection thread only. Not owned.
  prof::PhaseProfiler* profiler = nullptr;
  /// Optional thread pool for the LP engines. Not owned.
  glp::ThreadPool* pool = nullptr;
  /// Metric registry all serving telemetry flows into (and, through
  /// RunContext, the engines' convergence series and the simulator's kernel
  /// counters). Null makes the server own a private registry — stats()
  /// works either way; supply one to aggregate across servers or expose it
  /// via obs::HttpEndpoint. Not owned; must outlive the server, and the
  /// pool (it registers a collector polling the pool's queue depth).
  obs::MetricRegistry* metrics = nullptr;
};

}  // namespace glp::serve
