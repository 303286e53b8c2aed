#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "graph/builder.h"
#include "obs/collectors.h"
#include "pipeline/partition.h"
#include "serve/checkpoint.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace glp::serve {

using graph::Label;
using graph::TimedEdge;
using graph::VertexId;

namespace {

/// Transient errors are worth retrying (flaky IO, device faults —
/// Internal — and pressure spikes); everything else is a programming or
/// configuration error that a retry cannot fix.
bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIoError:
    case StatusCode::kCapacityExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string ServerStats::ToJson() const {
  json::Writer w;
  w.BeginObject();
  w.Key("ticks").Int(ticks);
  w.Key("warm_ticks").Int(warm_ticks);
  w.Key("cold_ticks").Int(cold_ticks);
  w.Key("batches_ingested").Int(batches_ingested);
  w.Key("edges_ingested").Int(edges_ingested);
  w.Key("ingest_blocked").Int(ingest_blocked);
  w.Key("queue_peak").Uint(queue_peak);
  w.Key("batches_rejected").Int(batches_rejected);
  w.Key("ticks_shed").Int(ticks_shed);
  w.Key("degraded_ticks").Int(degraded_ticks);
  w.Key("deadline_overruns").Int(deadline_overruns);
  w.Key("tick_retries").Int(tick_retries);
  w.Key("ticks_failed").Int(ticks_failed);
  w.Key("engine_fallbacks").Int(engine_fallbacks);
  w.Key("warm_fallbacks").Int(warm_fallbacks);
  w.Key("cold_refresh_deferred").Int(cold_refresh_deferred);
  w.Key("checkpoints_written").Int(checkpoints_written);
  w.Key("checkpoint_failures").Int(checkpoint_failures);
  w.Key("reused_clusters").Int(reused_clusters);
  w.Key("incremental_rebuilds").Int(incremental_rebuilds);
  w.Key("last_dirty_components").Int(last_dirty_components);
  w.Key("tick_p50_seconds").Double(tick_p50_seconds);
  w.Key("tick_p99_seconds").Double(tick_p99_seconds);
  w.Key("tick_max_seconds").Double(tick_max_seconds);
  w.Key("warm_avg_iterations").Double(warm_avg_iterations);
  w.Key("cold_avg_iterations").Double(cold_avg_iterations);
  w.Key("last_ingest_lag_days").Double(last_ingest_lag_days);
  w.EndObject();
  return w.Take();
}

std::unique_ptr<Server> MakeServer(ServerConfig config, int num_shards) {
  if (num_shards <= 0) {
    // A non-positive count is a caller bug (a miscomputed fleet size, an
    // unparsed flag). Silently serving one shard would mask it; fail
    // loudly instead.
    GLP_LOG(Error) << "MakeServer: num_shards must be >= 1, got "
                   << num_shards;
    return nullptr;
  }
  return std::make_unique<StreamServer>(std::move(config), num_shards);
}

StreamServer::StreamServer(ServerConfig config, int num_shards)
    : config_(std::move(config)),
      num_shards_(num_shards),
      pmap_(std::make_shared<const pipeline::PartitionMap>(num_shards)),
      sampler_(config_.trace.sample_rate, config_.trace.sample_seed) {
  // owner_of_ stores shard indices in a byte; 256 shards is far past the
  // point where per-shard fixed costs dominate anyway.
  GLP_CHECK(num_shards >= 1 && num_shards <= 256)
      << "num_shards out of range";
  windows_.resize(num_shards);
  owners_.resize(num_shards);
  // Per-shard range cursors feeding the fleet tracker. The cursors hold
  // pointers into windows_, so every operation that resizes windows_ —
  // restore and live resharding — rebuilds them immediately afterwards.
  range_cursors_.reserve(num_shards);
  for (int k = 0; k < num_shards; ++k) {
    range_cursors_.emplace_back(&windows_[k]);
  }

  if (config_.metrics != nullptr) {
    registry_ = config_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::MetricRegistry>();
    registry_ = owned_registry_.get();
  }
  // Fleet-wide instruments behind ServerStats and the JSON dump; the
  // per-shard families follow below.
  ins_.tick_seconds = registry_->GetHistogram(
      "glp_serve_tick_seconds", "Wall time of one detection tick");
  ins_.warm_ticks = registry_->GetCounter(
      "glp_serve_ticks_total", "Detection ticks run", {{"mode", "warm"}});
  ins_.cold_ticks = registry_->GetCounter(
      "glp_serve_ticks_total", "Detection ticks run", {{"mode", "cold"}});
  ins_.warm_iterations = registry_->GetCounter(
      "glp_serve_lp_iterations_total", "LP iterations run by detection ticks",
      {{"mode", "warm"}});
  ins_.cold_iterations = registry_->GetCounter(
      "glp_serve_lp_iterations_total", "LP iterations run by detection ticks",
      {{"mode", "cold"}});
  ins_.batches_ingested = registry_->GetCounter(
      "glp_serve_batches_ingested_total", "Edge batches accepted by Ingest");
  ins_.edges_ingested = registry_->GetCounter(
      "glp_serve_edges_ingested_total", "Edges accepted by Ingest");
  ins_.ingest_blocked = registry_->GetCounter(
      "glp_serve_ingest_blocked_total",
      "Times Ingest blocked on a full queue (backpressure)");
  ins_.queue_depth = registry_->GetGauge(
      "glp_serve_queue_depth", "Batches waiting in the ingest queue");
  ins_.queue_peak = registry_->GetGauge(
      "glp_serve_queue_peak", "High-water mark of the ingest queue");
  ins_.ingest_lag_days = registry_->GetGauge(
      "glp_serve_ingest_lag_days",
      "Newest ingested timestamp minus the last tick's window end");
  ins_.batches_rejected_invalid = registry_->GetCounter(
      "glp_serve_batches_rejected_total",
      "Ingest batches rejected instead of entering the window",
      {{"reason", "invalid"}});
  ins_.batches_rejected_failpoint = registry_->GetCounter(
      "glp_serve_batches_rejected_total",
      "Ingest batches rejected instead of entering the window",
      {{"reason", "failpoint"}});
  ins_.batches_dropped = registry_->GetCounter(
      "glp_serve_batches_rejected_total",
      "Ingest batches rejected instead of entering the window",
      {{"reason", "append_failed"}});
  ins_.ticks_shed = registry_->GetCounter(
      "glp_serve_ticks_shed_total",
      "Overdue tick boundaries coalesced away under overload");
  ins_.degraded_ticks = registry_->GetCounter(
      "glp_serve_degraded_ticks_total",
      "Ticks run with the degraded LP iteration cap");
  ins_.deadline_overruns = registry_->GetCounter(
      "glp_serve_deadline_overruns_total",
      "Ticks whose wall time exceeded tick_deadline_seconds");
  ins_.tick_retries = registry_->GetCounter(
      "glp_serve_tick_retries_total",
      "Retry attempts after transient tick failures");
  ins_.ticks_failed = registry_->GetCounter(
      "glp_serve_ticks_failed_total",
      "Ticks abandoned after exhausting retries");
  ins_.engine_fallbacks = registry_->GetCounter(
      "glp_serve_fallbacks_total", "Degraded-path fallbacks taken",
      {{"kind", "engine"}});
  ins_.warm_fallbacks = registry_->GetCounter(
      "glp_serve_fallbacks_total", "Degraded-path fallbacks taken",
      {{"kind", "warm_to_cold"}});
  ins_.cold_refresh_deferred = registry_->GetCounter(
      "glp_serve_cold_refresh_deferred_total",
      "Cold refreshes postponed by the degradation ladder");
  ins_.checkpoints_ok = registry_->GetCounter(
      "glp_serve_checkpoints_total", "Periodic checkpoint attempts",
      {{"result", "ok"}});
  ins_.checkpoints_failed = registry_->GetCounter(
      "glp_serve_checkpoints_total", "Periodic checkpoint attempts",
      {{"result", "error"}});
  ins_.dirty_components = registry_->GetGauge(
      "glp_serve_dirty_components",
      "Components whose edge set changed in the last incremental tick");
  ins_.reused_clusters = registry_->GetCounter(
      "glp_serve_reused_clusters_total",
      "Clean-component cluster records reused verbatim by incremental ticks");
  ins_.incremental_rebuilds = registry_->GetCounter(
      "glp_serve_incremental_rebuilds_total",
      "Incremental-mode ticks that fell back to a full rebuild");
  ins_.wal_appends_ok = registry_->GetCounter(
      "glp_serve_wal_appends_total", "WAL append attempts",
      {{"result", "ok"}});
  ins_.wal_appends_failed = registry_->GetCounter(
      "glp_serve_wal_appends_total", "WAL append attempts",
      {{"result", "error"}});
  ins_.wal_duplicates = registry_->GetCounter(
      "glp_serve_wal_duplicates_total",
      "Replicated batches suppressed as already-logged duplicates");
  ins_.wal_fenced = registry_->GetCounter(
      "glp_serve_wal_fenced_total",
      "Replicated batches rejected for carrying a deposed fencing epoch");
  ins_.wal_replayed_batches = registry_->GetCounter(
      "glp_serve_wal_replayed_batches_total",
      "Batches recovered from the WAL during restore");
  ins_.wal_pruned_segments = registry_->GetCounter(
      "glp_serve_wal_pruned_segments_total",
      "WAL segments garbage-collected after covering checkpoints");
  ins_.wal_fsyncs = registry_->GetCounter(
      "glp_serve_wal_fsyncs_total", "WAL fsync calls (group commit)");
  ins_.wal_bytes = registry_->GetCounter(
      "glp_serve_wal_bytes_total", "Frame bytes appended to the WAL");
  ins_.wal_last_seq = registry_->GetGauge(
      "glp_serve_wal_last_seq", "Highest WAL sequence number appended");
  ins_.wal_epoch = registry_->GetGauge(
      "glp_serve_wal_epoch", "Current WAL fencing epoch");
  ins_.wal_segments = registry_->GetGauge(
      "glp_serve_wal_segments", "Live WAL segment files");
  ins_.reshards_ok = registry_->GetCounter(
      "glp_serve_reshards_total", "Fleet resize (migration) attempts",
      {{"result", "ok"}});
  ins_.reshards_aborted = registry_->GetCounter(
      "glp_serve_reshards_total", "Fleet resize (migration) attempts",
      {{"result", "aborted"}});
  ins_.num_shards_gauge = registry_->GetGauge(
      "glp_serve_num_shards", "Live detection shard count");
  ins_.num_shards_gauge->Set(static_cast<double>(num_shards));
  ins_.reshard_pause_seconds = registry_->GetHistogram(
      "glp_serve_reshard_pause_seconds",
      "Wall time detection was quiesced during a fleet resize");
  // Per-shard families, one time series per shard via the {shard} label.
  EnsureShardInstruments(num_shards);
  if (config_.trace.recorder_ticks > 0) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        static_cast<size_t>(config_.trace.recorder_ticks));
  }
  obs::RegisterThreadPoolCollector(registry_, pool());
  registry_->AddCollector([registry = registry_] {
    for (const auto& [point, fires] :
         fail::FailpointRegistry::Global().FireCounts()) {
      registry
          ->GetGauge("glp_failpoint_fires",
                     "Times an armed failpoint has fired", {{"point", point}})
          ->Set(static_cast<double>(fires));
    }
  });
}

void StreamServer::EnsureShardInstruments(int n) {
  const int old = static_cast<int>(shard_ins_.size());
  if (n > old) {
    shard_ins_.resize(n);
    for (int k = old; k < n; ++k) {
      const std::string shard = std::to_string(k);
      shard_ins_[k].tick_seconds = registry_->GetHistogram(
          "glp_serve_shard_tick_seconds",
          "Per-owner-shard detection wall time within a tick",
          {{"shard", shard}});
      shard_ins_[k].edges_routed = registry_->GetCounter(
          "glp_serve_shard_edges_routed_total",
          "Edges routed to their owning shard", {{"shard", shard}});
      shard_ins_[k].edges_mirrored = registry_->GetCounter(
          "glp_serve_shard_edges_mirrored_total",
          "Cross-shard edge copies mirrored into this shard",
          {{"shard", shard}});
      shard_ins_[k].window_edges = registry_->GetGauge(
          "glp_serve_shard_window_edges",
          "Edges in this shard's window stream (mirrors included)",
          {{"shard", shard}});
      shard_ins_[k].components_owned = registry_->GetGauge(
          "glp_serve_shard_components",
          "Connected components this shard owned at the last tick",
          {{"shard", shard}});
      shard_ins_[k].inwindow_edges = registry_->GetGauge(
          "glp_serve_shard_inwindow_edges",
          "In-window edges this shard carried at the last tick (mirrors "
          "included) — the resharding heat signal",
          {{"shard", shard}});
    }
  }
  // Shards beyond the live count keep their counters (history survives a
  // shrink) but report zeroed gauges so dashboards drop the ghost windows.
  for (int k = n; k < static_cast<int>(shard_ins_.size()); ++k) {
    shard_ins_[k].window_edges->Set(0);
    shard_ins_[k].components_owned->Set(0);
    shard_ins_[k].inwindow_edges->Set(0);
  }
}

StreamServer::~StreamServer() { Stop(); }

glp::ThreadPool* StreamServer::pool() const {
  return config_.pool != nullptr ? config_.pool : glp::ThreadPool::Default();
}

void StreamServer::Subscribe(Subscriber subscriber) {
  subscribers_.push_back(std::move(subscriber));
}

Result<Server::RestoreInfo> StreamServer::RestoreFromCheckpoint(
    const std::string& path_or_dir) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) {
      return Status::InvalidArgument(
          "RestoreFromCheckpoint requires a not-yet-started server");
    }
  }
  // Open (and tail-truncate) the WAL before touching checkpoints: a missing
  // or empty checkpoint dir is recoverable by pure WAL replay from an empty
  // window, so NotFound is only fatal when there is no WAL either.
  {
    const Status wst = EnsureWalOpen();
    if (!wst.ok()) return wst;
  }
  // Resolve the snapshot source. A same-fleet-shape manifest takes the
  // exact path (shard windows restored verbatim, mirrors included); any
  // other shape — more shards, fewer, or a flat single-file checkpoint —
  // loads through the portable view and is re-partitioned under this
  // fleet's map (DESIGN.md §4.14).
  enum class Src { kNone, kFleet, kPortable };
  Src src = Src::kNone;
  ShardedCheckpoint cp;
  PortableCheckpoint port;
  std::error_code ec;
  if (std::filesystem::is_directory(path_or_dir, ec)) {
    Result<ShardedCheckpoint> latest = LatestShardedCheckpoint(path_or_dir);
    if (latest.ok() && latest.value().manifest.num_shards == num_shards() &&
        !LatestCheckpoint(path_or_dir).ok()) {
      cp = std::move(latest).value();
      src = Src::kFleet;
    } else {
      // Any other combination — shape mismatch, flat snapshots present
      // (possibly newer than the manifest), or no manifest at all — the
      // portable loader picks the newest loadable snapshot across formats.
      auto p = LoadPortableCheckpoint(path_or_dir);
      if (p.ok()) {
        port = std::move(p).value();
        src = Src::kPortable;
      } else if (p.status().code() == StatusCode::kNotFound &&
                 wal_ != nullptr) {
        src = Src::kNone;  // pure WAL replay from an empty window
      } else {
        return p.status();
      }
    }
  } else if (!std::filesystem::exists(path_or_dir, ec) && wal_ != nullptr) {
    src = Src::kNone;
  } else if (path_or_dir.size() > 4 &&
             path_or_dir.substr(path_or_dir.size() - 4) == ".smf") {
    GLP_ASSIGN_OR_RETURN(cp, LoadShardedCheckpoint(path_or_dir));
    if (cp.manifest.num_shards == num_shards()) {
      src = Src::kFleet;
    } else {
      GLP_ASSIGN_OR_RETURN(port, LoadPortableCheckpoint(path_or_dir));
      src = Src::kPortable;
    }
  } else {
    GLP_ASSIGN_OR_RETURN(port, LoadPortableCheckpoint(path_or_dir));
    src = Src::kPortable;
  }
  CheckpointData empty_coord;
  const CheckpointData* coord = &empty_coord;
  global_edges_ = 0;
  warm_anchor_.clear();
  auto set_warm_anchor = [this](VertexId entity, VertexId anchor) {
    if (warm_anchor_.size() <= entity) {
      warm_anchor_.resize(static_cast<size_t>(entity) + 1,
                          graph::kInvalidVertex);
    }
    warm_anchor_[entity] = anchor;
  };
  if (src == Src::kFleet) {
    coord = &cp.coord;
    // Adopt the snapshot's own partition map (manifest v3; the default
    // hash map for older files) as the live routing map.
    const pipeline::PartitionMap cp_map = cp.manifest.PartitionMapOf();
    for (int k = 0; k < num_shards(); ++k) {
      for (const TimedEdge& e : cp.shards[k].edges) {
        // A shard file holds owned edges plus mirrors; only owned copies
        // count toward the global replay position.
        if (cp_map.PartOf(e.src) == k) ++global_edges_;
      }
      windows_[k] = graph::SlidingWindow(std::move(cp.shards[k].edges));
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      pmap_ = std::make_shared<const pipeline::PartitionMap>(cp_map);
    }
    // Coordinator warm anchors are stored directly as entity→anchor pairs.
    for (size_t i = 0; i < cp.coord.prev_l2g.size(); ++i) {
      set_warm_anchor(cp.coord.prev_l2g[i],
                      static_cast<VertexId>(cp.coord.prev_labels[i]));
    }
  } else if (src == Src::kPortable) {
    coord = &port.data;
    // Shape-changing restore: re-route the reconstructed global canonical
    // stream under this fleet's own map. RouteBatch re-derives mirrors, so
    // the rebuilt shard windows are exactly what an uninterrupted run on
    // this shape would hold — no edge lost, none duplicated.
    global_edges_ = port.data.edges.size();
    RoutedBatch rb = RouteBatch(port.data.edges, *pmap_);
    for (int k = 0; k < num_shards(); ++k) {
      windows_[k] = graph::SlidingWindow(std::move(rb.parts[k]));
    }
    // Warm anchors arrive in the flat encoding (prev_labels indexes
    // prev_l2g); re-express them as the entity→anchor map.
    for (size_t i = 0; i < port.data.prev_l2g.size(); ++i) {
      const Label pl = port.data.prev_labels[i];
      if (pl == graph::kInvalidLabel ||
          static_cast<size_t>(pl) >= port.data.prev_l2g.size()) {
        continue;
      }
      set_warm_anchor(port.data.prev_l2g[i], port.data.prev_l2g[pl]);
    }
    if (port.source_shards != num_shards()) {
      GLP_LOG(Info) << "resharding checkpoint: " << port.source_shards
                    << " -> " << num_shards() << " shards ("
                    << global_edges_ << " stream edges re-routed)";
    }
  }
  num_ticks_ = coord->tick;
  tick_schedule_primed_ = coord->tick_schedule_primed;
  next_tick_end_ = coord->next_tick_end;
  have_prev_ = coord->have_prev;
  prev_confirmed_.clear();
  for (const auto& members : coord->prev_confirmed) {
    prev_confirmed_.insert(members);
  }
  last_checkpoint_tick_ = coord->tick;
  last_tick_wall_seconds_ = 0;
  refresh_pending_ = false;
  inc_reuse_ok_ = false;
  records_valid_ = false;
  records_.clear();
  if (config_.tick.incremental && coord->has_incremental &&
      tick_schedule_primed_) {
    // Rebuild the fleet union-find from the restored shard windows (clean:
    // the checkpointed labels are authoritative) with every cursor primed at
    // the last completed tick, so the next advance yields an exact delta.
    // Cluster records are not checkpointed, so the first post-restore tick
    // extracts all clusters but still reuses clean labels — when every
    // checkpointed anchor is in range.
    ReseatTracker();
    anchor_of_.assign(universe_, graph::kInvalidVertex);
    inc_reuse_ok_ = true;
    for (size_t i = 0; i < coord->inc_entities.size(); ++i) {
      if (static_cast<size_t>(coord->inc_entities[i]) >= universe_ ||
          static_cast<size_t>(coord->inc_anchors[i]) >= universe_) {
        inc_reuse_ok_ = false;
        break;
      }
      anchor_of_[coord->inc_entities[i]] = coord->inc_anchors[i];
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ingested_max_time_ = coord->ingested_max_time;
  }
  RestoreInfo info;
  info.tick = num_ticks_;
  info.num_edges = global_edges_;
  info.max_time = coord->ingested_max_time;

  // WAL replay: frames after the checkpoint's covered sequence hold the
  // pre-routing global batches — re-route each one and re-enqueue, so the
  // detection thread re-runs the lost ticks through the normal sharded
  // path, byte-identical to the uninterrupted run.
  consumed_wal_seq_ = coord->wal_seq;
  if (wal_ != nullptr) {
    const uint64_t manifest_epoch = (src == Src::kFleet) ? cp.manifest.epoch : 0;
    const uint64_t floor_epoch = std::max(coord->wal_epoch, manifest_epoch);
    if (floor_epoch > 0) {
      const Status est = wal_->EnsureEpochAtLeast(floor_epoch);
      if (!est.ok()) return est;
    }
    auto frames = wal_->ReadFrom(coord->wal_seq + 1);
    if (!frames.ok()) return frames.status();
    uint64_t expected = coord->wal_seq + 1;
    double max_time = info.max_time;
    size_t replayed = 0;
    for (wal::WalFrame& f : frames.value()) {
      if (f.seq != expected) {
        // Frames between the checkpoint and the oldest surviving segment
        // were pruned against a newer checkpoint that no longer loads —
        // replay would silently skip batches, so refuse instead.
        return Status::IoError(
            "wal: replay gap: checkpoint covers seq " +
            std::to_string(coord->wal_seq) + " but next durable frame is " +
            std::to_string(f.seq));
      }
      ++expected;
      for (const TimedEdge& e : f.edges) {
        max_time = std::max(max_time, e.time);
      }
      info.num_edges += f.edges.size();
      global_edges_ += f.edges.size();
      // Frames hold the pre-routing global batch, so replay re-routes under
      // the CURRENT map — the WAL tail follows the fleet across a resize.
      RoutedBatch rb = RouteBatch(f.edges, *pmap_);
      rb.wal_seq = f.seq;
      rb.ctx.wal_seq = f.seq;
      rb.ctx.wal_epoch = f.epoch;
      rb.ctx.wal_wall_seconds = f.wall_seconds;
      rb.enqueue_seconds = obs::MonotonicSeconds();
      {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(rb));
      }
      ++replayed;
    }
    ins_.wal_replayed_batches->Increment(replayed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ingested_max_time_ = max_time;
    }
    info.max_time = max_time;
    info.wal_seq = wal_->last_seq();
    info.wal_epoch = wal_->epoch();
    PublishWalStats();
  }
  GLP_LOG(Info) << "restored "
                << (src != Src::kNone ? "checkpoint" : "(no checkpoint)")
                << " (tick " << info.tick << ", " << num_shards()
                << " shards, " << info.num_edges << " stream edges"
                << (wal_ != nullptr ? ", wal seq " +
                std::to_string(info.wal_seq) : "") << ")";
  return info;
}

Status StreamServer::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_) return Status::InvalidArgument("server already started");
  if (config_.tick.every_days <= 0) {
    return Status::InvalidArgument("tick_every_days must be positive");
  }
  if (config_.max_queue_batches == 0) {
    return Status::InvalidArgument("max_queue_batches must be >= 1");
  }
  if (config_.resilience.tick_deadline_seconds < 0) {
    return Status::InvalidArgument("tick_deadline_seconds must be >= 0");
  }
  if (config_.tick.incremental) {
    // The per-component exactness preconditions (DESIGN.md §4.10) —
    // rejected up front rather than surfacing as per-tick failures.
    const lp::RunConfig& lp = config_.detect.lp;
    if (!lp.initial_labels.empty() || !lp.synchronous ||
        config_.detect.variant == lp::VariantKind::kSlp ||
        (lp.stop_when_stable && lp.max_iterations % 2 != 0)) {
      return Status::InvalidArgument(
          "incremental serving requires synchronous LP with default "
          "initialization, a non-SLP variant, and an even iteration budget "
          "under stop_when_stable");
    }
  }
  if (!config_.checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint.dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint dir " +
                             config_.checkpoint.dir + ": " + ec.message());
    }
  }
  {
    const Status wst = EnsureWalOpen();
    if (!wst.ok()) return wst;
  }
  started_ = true;
  stopping_ = false;
  dead_ = false;
  stop_token_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { DetectLoop(); });
  return Status::OK();
}

bool StreamServer::ValidBatch(
    const std::vector<TimedEdge>& batch) const {
  for (const TimedEdge& e : batch) {
    if (!std::isfinite(e.time) || e.time < 0) return false;
    if (e.src == graph::kInvalidVertex || e.dst == graph::kInvalidVertex) {
      return false;
    }
    if (config_.resilience.entity_id_limit != 0 &&
        (e.src >= config_.resilience.entity_id_limit ||
         e.dst >= config_.resilience.entity_id_limit)) {
      return false;
    }
  }
  return true;
}

StreamServer::RoutedBatch StreamServer::RouteBatch(
    const std::vector<TimedEdge>& batch,
    const pipeline::PartitionMap& map) const {
  // The owning shard gets every edge whose source maps to it; an edge
  // with endpoints on two shards is mirrored into the destination's shard
  // too, so both windows see their full neighborhood. The map is an
  // explicit parameter (not pmap_) so producers route against a snapshot
  // outside the lock; rb.map_version lets admission detect a concurrent
  // resize and re-route.
  RoutedBatch rb;
  const int n = map.num_parts();
  rb.parts.resize(static_cast<size_t>(n));
  rb.global_edges = batch.size();
  rb.routed.assign(static_cast<size_t>(n), 0);
  rb.mirrored.assign(static_cast<size_t>(n), 0);
  rb.map_version = map.version();
  for (const TimedEdge& e : batch) {
    const int ps = map.PartOf(e.src);
    const int pd = map.PartOf(e.dst);
    rb.parts[ps].push_back(e);
    ++rb.routed[ps];
    if (pd != ps) {
      rb.parts[pd].push_back(e);
      ++rb.mirrored[pd];
    }
  }
  return rb;
}

Status StreamServer::EnsureWalOpen() {
  if (!config_.durability.enabled() || wal_ != nullptr) return Status::OK();
  wal::WalOptions opts;
  opts.fsync_every_batches = config_.durability.fsync_every_batches;
  opts.fsync_interval_ms = config_.durability.fsync_interval_ms;
  opts.segment_max_bytes = config_.durability.segment_max_bytes;
  auto opened = wal::Wal::Open(config_.durability.dir, opts);
  if (!opened.ok()) return opened.status();
  wal_ = std::move(opened).value();
  PublishWalStats();
  return Status::OK();
}

void StreamServer::PublishWalStats() {
  if (wal_ == nullptr) return;
  const wal::WalStats s = wal_->stats();
  ins_.wal_last_seq->Set(static_cast<double>(s.last_seq));
  ins_.wal_epoch->Set(static_cast<double>(s.epoch));
  ins_.wal_segments->Set(static_cast<double>(s.segments));
  if (s.fsyncs > wal_published_fsyncs_) {
    ins_.wal_fsyncs->Increment(s.fsyncs - wal_published_fsyncs_);
    wal_published_fsyncs_ = s.fsyncs;
  }
  if (s.bytes_appended > wal_published_bytes_) {
    ins_.wal_bytes->Increment(s.bytes_appended - wal_published_bytes_);
    wal_published_bytes_ = s.bytes_appended;
  }
  if (s.pruned_segments > wal_published_pruned_) {
    ins_.wal_pruned_segments->Increment(s.pruned_segments -
                                        wal_published_pruned_);
    wal_published_pruned_ = s.pruned_segments;
  }
}

Status StreamServer::AppendToWalLocked(
    const std::vector<TimedEdge>& batch, const IngestContext& ctx,
    RoutedBatch* rb) {
  if (wal_ == nullptr) return Status::OK();
  if (ctx.wal_seq != 0) {
    wal::WalFrame frame;
    frame.seq = ctx.wal_seq;
    frame.epoch = ctx.wal_epoch;
    frame.wall_seconds = ctx.wal_wall_seconds;
    frame.edges = batch;
    const Status st = wal_->AppendFrame(frame);
    if (st.ok()) {
      rb->wal_seq = frame.seq;
      ins_.wal_appends_ok->Increment();
    } else if (st.code() == StatusCode::kAlreadyExists) {
      ins_.wal_duplicates->Increment();
    } else if (st.code() == StatusCode::kInvalidArgument) {
      ins_.wal_fenced->Increment();
    } else {
      ins_.wal_appends_failed->Increment();
    }
    PublishWalStats();
    return st;
  }
  auto seq = wal_->Append(batch, /*wall_seconds=*/0.0);
  if (!seq.ok()) {
    ins_.wal_appends_failed->Increment();
    PublishWalStats();
    return seq.status();
  }
  rb->wal_seq = seq.value();
  ins_.wal_appends_ok->Increment();
  PublishWalStats();
  return Status::OK();
}

bool StreamServer::Ingest(std::vector<TimedEdge> batch,
                          IngestContext ctx) {
  return AdmitBatch(std::move(batch), std::move(ctx), /*block=*/true) ==
         Admit::kAccepted;
}

Server::Admit StreamServer::TryIngest(std::vector<TimedEdge> batch,
                                      IngestContext ctx) {
  return AdmitBatch(std::move(batch), std::move(ctx), /*block=*/false);
}

Server::Admit StreamServer::AdmitBatch(std::vector<TimedEdge> batch,
                                       IngestContext ctx, bool block) {
  if (!ValidBatch(batch)) {
    ins_.batches_rejected_invalid->Increment();
    return Admit::kRejected;
  }
  const Status inj = fail::Inject("serve.ingest");
  if (!inj.ok()) {
    ins_.batches_rejected_failpoint->Increment();
    return Admit::kRejected;
  }
  double batch_max_time = 0;
  for (const TimedEdge& e : batch) {
    batch_max_time = std::max(batch_max_time, e.time);
  }
  const size_t batch_edges = batch.size();
  // Route outside the lock against a snapshot of the live map; a resize
  // that lands between routing and admission is caught below by the map
  // version and the batch is re-routed from the (still intact) original.
  std::shared_ptr<const pipeline::PartitionMap> map;
  {
    std::lock_guard<std::mutex> lk(mu_);
    map = pmap_;
  }
  RoutedBatch rb = RouteBatch(batch, *map);
  rb.ctx = std::move(ctx);
  rb.enqueue_seconds = obs::MonotonicSeconds();
  std::unique_lock<std::mutex> lk(mu_);
  if (!started_ || stopping_ || dead_) return Admit::kStopped;
  if (queue_.size() >= config_.max_queue_batches) {
    if (!block) return Admit::kQueueFull;
    ins_.ingest_blocked->Increment();
    not_full_cv_.wait(lk, [&] {
      return stopping_ || dead_ || queue_.size() < config_.max_queue_batches;
    });
    if (stopping_ || dead_) return Admit::kStopped;
  }
  if (rb.map_version != pmap_->version()) {
    RoutedBatch rerouted = RouteBatch(batch, *pmap_);
    rerouted.ctx = std::move(rb.ctx);
    rerouted.enqueue_seconds = rb.enqueue_seconds;
    rb = std::move(rerouted);
  }
  if (wal_ != nullptr) {
    // The WAL logs the *pre-routing* wire batch (replay re-routes it).
    const Status wst = AppendToWalLocked(batch, rb.ctx, &rb);
    if (wst.code() == StatusCode::kAlreadyExists) return Admit::kAccepted;
    if (!wst.ok()) {
      ins_.batches_dropped->Increment();
      return Admit::kRejected;
    }
  }
  ingested_max_time_ = std::max(ingested_max_time_, batch_max_time);
  ins_.batches_ingested->Increment();
  ins_.edges_ingested->Increment(batch_edges);
  for (size_t k = 0; k < rb.routed.size(); ++k) {
    if (rb.routed[k] != 0) {
      shard_ins_[k].edges_routed->Increment(rb.routed[k]);
    }
    if (rb.mirrored[k] != 0) {
      shard_ins_[k].edges_mirrored->Increment(rb.mirrored[k]);
    }
  }
  queue_.push_back(std::move(rb));
  ins_.queue_depth->Set(static_cast<double>(queue_.size()));
  ins_.queue_peak->Max(static_cast<double>(queue_.size()));
  queue_cv_.notify_one();
  return Admit::kAccepted;
}

void StreamServer::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_cv_.wait(lk, [&] {
    return (queue_.empty() && !busy_) || stopping_ || dead_;
  });
}

void StreamServer::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) return;
    stopping_ = true;
    stop_token_.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
    not_full_cv_.notify_all();
    drained_cv_.notify_all();
    checkpoint_done_cv_.notify_all();
    resize_done_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  started_ = false;
}

Status StreamServer::last_error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_error_;
}

bool StreamServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return started_ && !stopping_ && !dead_;
}

void StreamServer::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lk(mu_);
  if (last_error_.ok()) last_error_ = status;
}

ServerStats StreamServer::stats() const {
  ServerStats s;
  s.warm_ticks = static_cast<int64_t>(ins_.warm_ticks->Value());
  s.cold_ticks = static_cast<int64_t>(ins_.cold_ticks->Value());
  s.ticks = s.warm_ticks + s.cold_ticks;
  s.batches_ingested = static_cast<int64_t>(ins_.batches_ingested->Value());
  s.edges_ingested = static_cast<int64_t>(ins_.edges_ingested->Value());
  s.ingest_blocked = static_cast<int64_t>(ins_.ingest_blocked->Value());
  s.queue_peak = static_cast<size_t>(ins_.queue_peak->Value());
  s.batches_rejected =
      static_cast<int64_t>(ins_.batches_rejected_invalid->Value() +
                           ins_.batches_rejected_failpoint->Value() +
                           ins_.batches_dropped->Value());
  s.ticks_shed = static_cast<int64_t>(ins_.ticks_shed->Value());
  s.degraded_ticks = static_cast<int64_t>(ins_.degraded_ticks->Value());
  s.deadline_overruns = static_cast<int64_t>(ins_.deadline_overruns->Value());
  s.tick_retries = static_cast<int64_t>(ins_.tick_retries->Value());
  s.ticks_failed = static_cast<int64_t>(ins_.ticks_failed->Value());
  s.engine_fallbacks = static_cast<int64_t>(ins_.engine_fallbacks->Value());
  s.warm_fallbacks = static_cast<int64_t>(ins_.warm_fallbacks->Value());
  s.cold_refresh_deferred =
      static_cast<int64_t>(ins_.cold_refresh_deferred->Value());
  s.checkpoints_written = static_cast<int64_t>(ins_.checkpoints_ok->Value());
  s.checkpoint_failures =
      static_cast<int64_t>(ins_.checkpoints_failed->Value());
  s.reused_clusters = static_cast<int64_t>(ins_.reused_clusters->Value());
  s.incremental_rebuilds =
      static_cast<int64_t>(ins_.incremental_rebuilds->Value());
  s.last_dirty_components =
      static_cast<int64_t>(ins_.dirty_components->Value());
  s.tick_p50_seconds = ins_.tick_seconds->Quantile(0.50);
  s.tick_p99_seconds = ins_.tick_seconds->Quantile(0.99);
  s.tick_max_seconds = ins_.tick_seconds->MaxBound();
  s.warm_avg_iterations =
      s.warm_ticks == 0
          ? 0
          : static_cast<double>(ins_.warm_iterations->Value()) / s.warm_ticks;
  s.cold_avg_iterations =
      s.cold_ticks == 0
          ? 0
          : static_cast<double>(ins_.cold_iterations->Value()) / s.cold_ticks;
  s.last_ingest_lag_days = ins_.ingest_lag_days->Value();
  return s;
}

bool StreamServer::Backoff(int attempt) {
  double ms = config_.resilience.retry_backoff_ms * std::ldexp(1.0, attempt);
  ms = std::min(ms, config_.resilience.max_retry_backoff_ms);
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
  while (std::chrono::steady_clock::now() < until) {
    if (stop_token_.load(std::memory_order_relaxed)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return !stop_token_.load(std::memory_order_relaxed);
}

void StreamServer::DetectLoop() {
  for (;;) {
    RoutedBatch rb;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] {
        return stopping_ || !queue_.empty() || checkpoint_requested_ ||
               resize_requested_ != 0;
      });
      if (stopping_) return;
      if (queue_.empty() && resize_requested_ != 0) {
        // Live resize (public Resize): the queue is drained, so detection
        // state is quiescent — migrate outside the lock and hand the status
        // back to the blocked caller. Serviced before checkpoints so a
        // combined request snapshots the new shape.
        const int target = resize_requested_;
        lk.unlock();
        const Status st = MigrateToShardCount(target);
        lk.lock();
        resize_requested_ = 0;
        resize_status_ = st;
        resize_done_cv_.notify_all();
        continue;
      }
      if (queue_.empty()) {
        // On-demand checkpoint (public WriteCheckpoint): queue drained, so
        // the detection-thread state is quiescent; write outside the lock
        // and hand the status back to the blocked caller.
        lk.unlock();
        const Status st = DoWriteCheckpoint();
        lk.lock();
        checkpoint_requested_ = false;
        checkpoint_status_ = st;
        checkpoint_done_cv_.notify_all();
        continue;
      }
      rb = std::move(queue_.front());
      queue_.pop_front();
      ins_.queue_depth->Set(static_cast<double>(queue_.size()));
      busy_ = true;
      not_full_cv_.notify_all();
    }
    // The highest WAL sequence the window now contains — what the next
    // checkpoint records as its replay floor.
    if (rb.wal_seq > consumed_wal_seq_) consumed_wal_seq_ = rb.wal_seq;
    NoteBatchDequeued(rb, obs::MonotonicSeconds());
    bool keep_running = true;
    // One serve.window_append evaluation covers the whole routed batch, so
    // an injected fault leaves either every shard window or none of them
    // appended — the batch stays in hand for an exact retry.
    obs::ScopedSpan append_span(
        config_.trace.collect_spans() ? &span_sink_ : nullptr, rb.ctx.trace,
        "serve.window_append");
    append_span.AddLabel("edges", std::to_string(rb.global_edges));
    Status append_status;
    for (int attempt = 0;; ++attempt) {
      append_status = fail::Inject("serve.window_append");
      if (append_status.ok()) {
        pool()->ParallelFor(
            0, static_cast<int64_t>(rb.parts.size()),
            [&](int64_t lo, int64_t hi) {
              for (int64_t k = lo; k < hi; ++k) {
                if (!rb.parts[k].empty()) {
                  windows_[k].Append(std::move(rb.parts[k]));
                }
              }
            },
            1);
        global_edges_ += rb.global_edges;
        break;
      }
      if (!IsTransient(append_status) ||
          attempt >= config_.resilience.max_tick_retries) {
        break;
      }
      ins_.tick_retries->Increment();
      if (!Backoff(attempt)) {
        append_status = Status::Cancelled("server stopping");
        break;
      }
    }
    append_span.End();
    if (!append_status.ok()) {
      if (append_status.IsCancelled()) {
        // Shutting down; the loop exits via stopping_ above.
      } else if (IsTransient(append_status)) {
        ins_.batches_dropped->Increment();
        RecordError(append_status);
        GLP_LOG(Warning) << "dropping batch after append failures: "
                         << append_status.ToString();
      } else {
        RecordError(append_status);
        GLP_LOG(Error) << "fatal window-append fault: "
                       << append_status.ToString();
        keep_running = false;
      }
    } else {
      keep_running = RunDueTicks();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_ = false;
      if (!keep_running) {
        dead_ = true;
        not_full_cv_.notify_all();
        drained_cv_.notify_all();
        checkpoint_done_cv_.notify_all();
        resize_done_cv_.notify_all();
        return;
      }
      if (queue_.empty()) drained_cv_.notify_all();
    }
  }
}

bool StreamServer::RunDueTicks() {
  if (global_edges_ == 0) return true;
  // The fleet ticks on one global grid: boundaries derive from the global
  // min/max timestamp across shards, so the schedule is identical to the
  // 1-shard server's over the same stream.
  double min_time = std::numeric_limits<double>::infinity();
  double max_time = -std::numeric_limits<double>::infinity();
  for (const graph::SlidingWindow& w : windows_) {
    if (w.num_stream_edges() == 0) continue;
    min_time = std::min(min_time, w.min_time());
    max_time = std::max(max_time, w.max_time());
  }
  const double cadence = config_.tick.every_days;
  if (!tick_schedule_primed_) {
    next_tick_end_ = cadence * (std::floor(min_time / cadence) + 1.0);
    tick_schedule_primed_ = true;
  }
  while (max_time >= next_tick_end_) {
    if (stop_token_.load(std::memory_order_relaxed)) return true;
    if (config_.resilience.tick_deadline_seconds > 0 &&
        last_tick_wall_seconds_ > config_.resilience.tick_deadline_seconds) {
      const auto overdue = static_cast<int64_t>(
          std::floor((max_time - next_tick_end_) / cadence));
      if (overdue > 0) {
        ins_.ticks_shed->Increment(static_cast<uint64_t>(overdue));
        next_tick_end_ += static_cast<double>(overdue) * cadence;
      }
    }
    const TickOutcome outcome = RunTick(next_tick_end_);
    if (outcome == TickOutcome::kFatal) return false;
    if (outcome == TickOutcome::kCancelled) return true;
    next_tick_end_ += cadence;
    if (outcome == TickOutcome::kOk && !config_.checkpoint.dir.empty() &&
        config_.checkpoint.every_ticks > 0 &&
        num_ticks_ % config_.checkpoint.every_ticks == 0 &&
        num_ticks_ > last_checkpoint_tick_) {
      (void)DoWriteCheckpoint();
    }
    if (outcome == TickOutcome::kOk) MaybeAutoReshard();
  }
  return true;
}

Status StreamServer::WriteCheckpoint() {
  if (config_.checkpoint.dir.empty()) {
    return Status::InvalidArgument("no checkpoint dir configured");
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!started_) {
    lk.unlock();
    return DoWriteCheckpoint();
  }
  if (stopping_) return Status::Cancelled("server stopping");
  if (dead_) {
    return last_error_.ok() ? Status::Cancelled("server dead") : last_error_;
  }
  checkpoint_requested_ = true;
  queue_cv_.notify_one();
  checkpoint_done_cv_.wait(lk, [&] {
    return !checkpoint_requested_ || stopping_ || dead_;
  });
  if (checkpoint_requested_) {
    checkpoint_requested_ = false;
    return Status::Cancelled("server stopped before checkpoint");
  }
  return checkpoint_status_;
}

Status StreamServer::DoWriteCheckpoint() {
  const int64_t tick = num_ticks_;
  ShardManifest m;
  m.tick = tick;
  m.num_shards = num_shards();
  m.epoch = wal_ != nullptr ? wal_->epoch() : 0;
  // Manifest v3 carries the routing map the shard files were cut under, so
  // a restore reproduces ownership exactly even after live resharding.
  m.map_version = pmap_->version();
  m.map_override_keys = pmap_->override_keys();
  m.map_override_parts = pmap_->override_parts();
  Status st = Status::OK();
  // Shard files first (each carries the serve.checkpoint failpoint through
  // SaveCheckpoint), coordinator next, manifest last: the manifest rename
  // is the commit point of the fleet snapshot.
  for (int k = 0; k < num_shards() && st.ok(); ++k) {
    CheckpointData sd;
    sd.tick = tick;
    sd.edges = windows_[k].edges();
    const std::string name = ShardCheckpointFileName(k, tick);
    st = SaveCheckpoint(config_.checkpoint.dir + "/" + name, sd);
    if (st.ok()) m.shard_files.push_back(name);
  }
  if (st.ok()) {
    CheckpointData cd;
    cd.tick = tick;
    cd.tick_schedule_primed = tick_schedule_primed_;
    cd.next_tick_end = next_tick_end_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      cd.ingested_max_time = ingested_max_time_;
    }
    if (have_prev_) {
      // The warm anchors serialized as entity-ascending parallel arrays, so
      // identical state writes identical bytes.
      for (size_t e = 0; e < warm_anchor_.size(); ++e) {
        if (warm_anchor_[e] == graph::kInvalidVertex) continue;
        cd.prev_l2g.push_back(static_cast<VertexId>(e));
        cd.prev_labels.push_back(warm_anchor_[e]);
      }
    }
    cd.have_prev = !cd.prev_l2g.empty();
    cd.prev_confirmed.assign(prev_confirmed_.begin(), prev_confirmed_.end());
    // The coordinator file records the WAL replay floor: every batch at or
    // below consumed_wal_seq_ is already inside the shard windows above.
    cd.wal_seq = consumed_wal_seq_;
    cd.wal_epoch = wal_ != nullptr ? wal_->epoch() : 0;
    if (config_.tick.incremental && inc_reuse_ok_) {
      // Anchors for every in-window entity, ascending (deterministic
      // bytes). The fleet union-find is rebuilt from the shard windows on
      // restore, same as the single-server tracker.
      cd.has_incremental = true;
      for (size_t e = 0; e < universe_; ++e) {
        if (!inc_tracker_.InWindow(static_cast<VertexId>(e))) continue;
        cd.inc_entities.push_back(static_cast<VertexId>(e));
        cd.inc_anchors.push_back(e < anchor_of_.size()
                                     ? anchor_of_[e]
                                     : graph::kInvalidVertex);
      }
    }
    m.coord_file = CoordCheckpointFileName(tick);
    st = SaveCheckpoint(config_.checkpoint.dir + "/" + m.coord_file, cd);
  }
  if (st.ok()) {
    st = SaveShardManifest(
        config_.checkpoint.dir + "/" + ShardManifestFileName(tick), m);
  }
  if (st.ok()) {
    ins_.checkpoints_ok->Increment();
    last_checkpoint_tick_ = tick;
    (void)PruneShardCheckpoints(config_.checkpoint.dir,
                                config_.checkpoint.keep,
                                config_.durability.dir);
    if (wal_ != nullptr) {
      // Segments fully covered by this snapshot are dead weight now.
      (void)wal_->PruneThrough(consumed_wal_seq_);
      PublishWalStats();
    }
  } else {
    ins_.checkpoints_failed->Increment();
    GLP_LOG(Warning) << "sharded checkpoint at tick " << tick
                     << " failed: " << st.ToString();
  }
  return st;
}

Status StreamServer::Resize(int new_num_shards) {
  if (new_num_shards < 1 || new_num_shards > 256) {
    return Status::InvalidArgument("num_shards out of range [1, 256]: " +
                                   std::to_string(new_num_shards));
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!started_) {
    // Offline resize (before Start, typically right after a restore): the
    // caller owns the server, migrate inline.
    lk.unlock();
    return MigrateToShardCount(new_num_shards);
  }
  if (stopping_) return Status::Cancelled("server stopping");
  if (dead_) {
    return last_error_.ok() ? Status::Cancelled("server dead") : last_error_;
  }
  // Same handshake as WriteCheckpoint: hand the migration to the detection
  // thread (it runs once the queue drains — the quiesce point) and block
  // until it commits or aborts.
  resize_requested_ = new_num_shards;
  queue_cv_.notify_one();
  resize_done_cv_.wait(lk, [&] {
    return resize_requested_ == 0 || stopping_ || dead_;
  });
  if (resize_requested_ != 0) {
    resize_requested_ = 0;
    return Status::Cancelled("server stopped before resize");
  }
  return resize_status_;
}

Status StreamServer::MigrateToShardCount(int target) {
  const int old_n = num_shards();
  if (target == old_n) return Status::OK();
  const double t0 = obs::MonotonicSeconds();
  // Abort point — BEFORE any state is touched, so an injected fault (or a
  // real failure in the build phase below) leaves the old shape fully
  // intact and a retry is always safe.
  {
    const Status inj = fail::Inject("serve.reshard");
    if (!inj.ok()) {
      ins_.reshards_aborted->Increment();
      GLP_LOG(Warning) << "resize " << old_n << " -> " << target
                       << " shards aborted: " << inj.ToString();
      return inj;
    }
  }
  auto new_map = std::make_shared<const pipeline::PartitionMap>(
      pmap_->Repartitioned(target));
  // Build the target shape off to the side: reconstruct the global
  // canonical stream from each shard's owned copies (mirrors skipped, so
  // every stream edge appears exactly once), then route it under the new
  // map — exactly the windows an uninterrupted run on `target` shards
  // would hold.
  std::vector<TimedEdge> global;
  global.reserve(global_edges_);
  for (int k = 0; k < old_n; ++k) {
    for (const TimedEdge& e : windows_[k].edges()) {
      if (pmap_->PartOf(e.src) == k) global.push_back(e);
    }
  }
  std::sort(global.begin(), global.end(), graph::CanonicalEdgeLess);
  RoutedBatch routed = RouteBatch(global, *new_map);
  std::vector<graph::SlidingWindow> new_windows(static_cast<size_t>(target));
  for (int k = 0; k < target; ++k) {
    new_windows[k] = graph::SlidingWindow(std::move(routed.parts[k]));
  }
  // Commit: swap the map, count, and windows under mu_, and re-route any
  // batch still queued under the old map (the offline path — WAL-replay
  // batches queued by restore; the live path only migrates on an empty
  // queue). Each queued batch's global edge set is recovered by the same
  // owned-copy filter, so nothing is lost or duplicated across the swap.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (RoutedBatch& q : queue_) {
      if (q.map_version == new_map->version()) continue;
      std::vector<TimedEdge> batch;
      batch.reserve(q.global_edges);
      const int qn = static_cast<int>(q.parts.size());
      for (int k = 0; k < qn; ++k) {
        for (const TimedEdge& e : q.parts[k]) {
          if (pmap_->PartOf(e.src) == k) batch.push_back(e);
        }
      }
      std::sort(batch.begin(), batch.end(), graph::CanonicalEdgeLess);
      RoutedBatch nq = RouteBatch(batch, *new_map);
      nq.ctx = std::move(q.ctx);
      nq.wal_seq = q.wal_seq;
      nq.enqueue_seconds = q.enqueue_seconds;
      q = std::move(nq);
    }
    pmap_ = new_map;
    num_shards_.store(target, std::memory_order_release);
    windows_ = std::move(new_windows);
    ins_.num_shards_gauge->Set(static_cast<double>(target));
  }
  // Rebuild the derived detection-thread structures. range_cursors_ hold
  // pointers into windows_, which the swap above invalidated.
  owners_.clear();
  owners_.resize(static_cast<size_t>(target));
  range_cursors_.clear();
  range_cursors_.reserve(static_cast<size_t>(target));
  for (int k = 0; k < target; ++k) {
    range_cursors_.emplace_back(&windows_[k]);
  }
  EnsureShardInstruments(target);
  // Cluster records are owner-bucketed; re-extracting them next tick is
  // cheap and yields identical clusters (the reuse invariant), so drop the
  // cache rather than re-derive its bucketing.
  records_valid_ = false;
  records_.clear();
  if (config_.tick.incremental && inc_reuse_ok_ && tick_schedule_primed_) {
    // Anchors carry over (warm anchors and anchor_of_ are global-id state,
    // untouched by the re-partition), so reseating the tracker on the new
    // windows keeps the next tick on the exact delta path. Other modes
    // leave the new cursors unprimed: their next tick rebuilds.
    ReseatTracker();
  }
  last_reshard_tick_ = num_ticks_;
  // Durable commit: a snapshot of the new shape, so a crash after the
  // resize restores straight into it (best effort — the in-memory commit
  // above already happened, and a checkpoint failure is recoverable by the
  // shape-portable restore path anyway).
  if (!config_.checkpoint.dir.empty()) (void)DoWriteCheckpoint();
  const double pause = obs::MonotonicSeconds() - t0;
  ins_.reshards_ok->Increment();
  ins_.reshard_pause_seconds->Observe(pause);
  GLP_LOG(Info) << "resharded fleet: " << old_n << " -> " << target
                << " shards (" << global.size()
                << " stream edges re-routed in " << pause << "s)";
  return Status::OK();
}

void StreamServer::MaybeAutoReshard() {
  const ReshardPolicy& p = config_.reshard;
  if (!p.enabled()) return;
  if (num_ticks_ - last_reshard_tick_ < p.cooldown_ticks) return;
  // Heat = in-window edges per shard at the tick that just completed
  // (mirrors included — they are real per-shard work). Deterministic in
  // the stream, so replays make identical decisions.
  uint64_t total = 0;
  for (const graph::WindowRangeCursor& c : range_cursors_) {
    total += static_cast<uint64_t>(c.hi() - c.lo());
  }
  const uint64_t per = total / static_cast<uint64_t>(num_shards());
  int target = num_shards();
  if (p.grow_edges_per_shard > 0 && per > p.grow_edges_per_shard &&
      num_shards() < p.max_shards) {
    target = num_shards() + 1;
  } else if (p.shrink_edges_per_shard > 0 && per < p.shrink_edges_per_shard &&
             num_shards() > p.min_shards) {
    target = num_shards() - 1;
  }
  if (target == num_shards()) return;
  GLP_LOG(Info) << "auto-reshard: " << per << " in-window edges/shard -> "
                << target << " shards";
  const Status st = MigrateToShardCount(target);
  if (!st.ok()) {
    GLP_LOG(Warning) << "auto-reshard to " << target
                     << " shards failed: " << st.ToString();
  }
}

size_t StreamServer::FleetUniverse() const {
  size_t universe = 0;
  for (const graph::SlidingWindow& w : windows_) {
    if (w.num_stream_edges() == 0) continue;
    universe = std::max(universe, static_cast<size_t>(w.max_entity()) + 1);
  }
  return universe;
}

void StreamServer::ReseatTracker() {
  universe_ = FleetUniverse();
  const double last_end = next_tick_end_ - config_.tick.every_days;
  const double last_start = last_end - config_.detect.window_days;
  for (graph::WindowRangeCursor& c : range_cursors_) {
    c.PrimeAt(last_start, last_end);
  }
  RebuildTracker(/*mark_all_dirty=*/false);
}

void StreamServer::RebuildTracker(bool mark_all_dirty) {
  inc_tracker_.BeginRebuild();
  for (int k = 0; k < num_shards_; ++k) {
    inc_tracker_.AddWindowRange(windows_[k].edges(), range_cursors_[k].lo(),
                                range_cursors_[k].hi());
  }
  inc_tracker_.FinishRebuild(mark_all_dirty);
  // Full owner recompute, O(universe): owner = pmap_->PartOf(component min
  // entity). The ascending entity scan means a root's first-seen member IS
  // its minimum.
  if (owner_of_.size() < universe_) owner_of_.resize(universe_);
  comp_min_scratch_.assign(universe_, graph::kInvalidVertex);
  for (size_t e = 0; e < universe_; ++e) {
    if (!inc_tracker_.InWindow(static_cast<VertexId>(e))) continue;
    const VertexId r = inc_tracker_.Root(static_cast<VertexId>(e));
    if (comp_min_scratch_[r] == graph::kInvalidVertex) {
      comp_min_scratch_[r] = static_cast<VertexId>(e);
    }
    owner_of_[e] = static_cast<uint8_t>(pmap_->PartOf(comp_min_scratch_[r]));
  }
}

bool StreamServer::UpdateIncrementalTracker(double start_time,
                                            double end_time) {
  obs::SpanSink* sink = config_.trace.collect_spans() ? &span_sink_ : nullptr;
  const obs::SpanContext tick_ctx{tick_trace_.trace_id, tick_root_span_,
                                  tick_trace_.sampled};
  // Advance every shard's range cursor. The delta path needs ALL shards
  // exact: a single rewritten shard prefix poisons that shard's indices,
  // and a component can span shards — conservative fleet-wide rebuild,
  // never wrong.
  std::vector<graph::WindowDelta> deltas(num_shards_);
  bool all_exact = true;
  {
    obs::ScopedSpan advance_span(sink, tick_ctx, "serve.window_advance");
    for (int k = 0; k < num_shards_; ++k) {
      range_cursors_[k].AdvanceTo(start_time, end_time, &deltas[k]);
      all_exact = all_exact && deltas[k].exact;
    }
  }
  obs::ScopedSpan uf_span(sink, tick_ctx, "serve.union_find");
  const bool force_rebuild = !fail::Inject("serve.incremental_rebuild").ok();
  const bool applied = all_exact && !force_rebuild;
  if (applied) {
    // Phased application: every shard's expirations land before any
    // retained-edge rescan, so a component spanning shards re-derives from
    // the union of all its shards' retained edges.
    inc_tracker_.BeginTick();
    for (int k = 0; k < num_shards_; ++k) {
      inc_tracker_.Expire(windows_[k].edges(), deltas[k]);
    }
    for (int k = 0; k < num_shards_; ++k) {
      inc_tracker_.Rescan(windows_[k].edges(), deltas[k]);
    }
    for (int k = 0; k < num_shards_; ++k) {
      inc_tracker_.Append(windows_[k].edges(), deltas[k]);
    }
    inc_tracker_.FinishTick();
    // Re-own dirty components only; a clean component's min member — the
    // entity that fixed its owner — is unchanged by definition.
    if (owner_of_.size() < universe_) owner_of_.resize(universe_);
    for (const VertexId r : inc_tracker_.dirty_roots()) {
      const std::vector<VertexId>& mem = inc_tracker_.MembersOf(r);
      VertexId mn = mem.front();
      for (const VertexId m : mem) mn = std::min(mn, m);
      const auto owner = static_cast<uint8_t>(pmap_->PartOf(mn));
      for (const VertexId m : mem) owner_of_[m] = owner;
    }
  } else {
    RebuildTracker(/*mark_all_dirty=*/true);
    ins_.incremental_rebuilds->Increment();
  }
  uf_span.AddLabel("mode", applied ? "delta" : "rebuild");
  ins_.dirty_components->Set(
      static_cast<double>(inc_tracker_.NumDirtyComponents()));
  return applied;
}

size_t StreamServer::InternWindowEdges() {
  graph::SlidingWindow::Scratch& ids = tick_ids_;
  if (ids.epoch_of.size() < universe_) {
    ids.epoch_of.assign(universe_, 0);
    ids.local_of.resize(universe_);
    ids.epoch = 0;
  }
  if (++ids.epoch == 0) {  // stamp wrap
    std::fill(ids.epoch_of.begin(), ids.epoch_of.end(), 0u);
    ids.epoch = 1;
  }
  const uint32_t epoch = ids.epoch;
  for (OwnerWork& ow : owners_) {
    ow.edges.clear();
    ow.snap.local_to_global.clear();
    ow.gid.clear();
    ow.num_components = 0;
  }
  // Components are owned whole, so an entity's first window edge is in its
  // owner's list: owner-local ids follow first appearance within the owner,
  // window ids first appearance in the window — the ids the 1-shard
  // snapshot assigns.
  VertexId next_gid = 0;
  const auto intern = [&](VertexId g, OwnerWork& ow) {
    if (ids.epoch_of[g] != epoch) {
      ids.epoch_of[g] = epoch;
      ids.local_of[g] = static_cast<VertexId>(ow.snap.local_to_global.size());
      ow.snap.local_to_global.push_back(g);
      ow.gid.push_back(next_gid++);
      if (inc_tracker_.IsRoot(g)) ++ow.num_components;
    }
    return ids.local_of[g];
  };
  const auto take = [&](const TimedEdge& e) {
    OwnerWork& ow = owners_[owner_of_[e.src]];
    const VertexId src = intern(e.src, ow);
    ow.edges.push_back({src, intern(e.dst, ow)});
  };
  // K-way merge over the shards' owned copies (a mirror is skipped in the
  // destination's shard, so every stream edge is taken once). Each shard's
  // owned edges are a canonically ordered subsequence of the window, and
  // two shards never own the same edge, so the merge has no ties. A run is
  // taken while it precedes every other run's head, so on one shard the
  // pass is a single scan.
  struct Run {
    const TimedEdge* it;
    const TimedEdge* end;
    int shard;
    void SkipMirrors(const pipeline::PartitionMap& map) {
      while (it != end && map.PartOf(it->src) != shard) ++it;
    }
  };
  const pipeline::PartitionMap& map = *pmap_;
  std::vector<Run> heap;  // runs with an owned edge left, min head on top
  const auto after = [](const Run& a, const Run& b) {
    return graph::CanonicalEdgeLess(*b.it, *a.it);
  };
  for (int k = 0; k < num_shards_; ++k) {
    const TimedEdge* base = windows_[k].edges().data();
    Run r{base + range_cursors_[k].lo(), base + range_cursors_[k].hi(), k};
    r.SkipMirrors(map);
    if (r.it != r.end) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Run& r = heap.back();
    do {
      take(*r.it);
      ++r.it;
      r.SkipMirrors(map);
    } while (r.it != r.end &&
             (heap.size() == 1 || graph::CanonicalEdgeLess(*r.it, *heap[0].it)));
    if (r.it != r.end) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return next_gid;
}

void StreamServer::RunOwnerDetection(int o, double window_start,
                                     double window_end, bool degraded,
                                     bool warm_wanted, bool use_delta) {
  OwnerWork& ow = owners_[o];
  ow.ran = false;
  ow.warm = false;
  ow.status = Status::OK();
  ow.outcome = TickOutcome::kOk;
  ow.wall_seconds = 0;
  ow.reused = 0;
  if (ow.edges.empty()) return;  // this shard owns no components this tick
  glp::Timer owner_timer;
  // Pool workers append spans concurrently (SpanSink is mutex-guarded);
  // tick_trace_/tick_root_span_ were fixed by the detection thread before the
  // fan-out and are read-only here.
  const bool collect = config_.trace.collect_spans();
  const obs::SpanContext tick_ctx{tick_trace_.trace_id, tick_root_span_,
                                  tick_trace_.sampled};
  obs::ScopedSpan owner_span(collect ? &span_sink_ : nullptr, tick_ctx,
                             "serve.owner_detect");
  owner_span.AddLabel("shard", std::to_string(o));
  owner_span.AddLabel("edges", std::to_string(ow.edges.size()));

  {
    obs::ScopedSpan snapshot_span(collect ? &span_sink_ : nullptr,
                                  owner_span.context(), "serve.snapshot");
    graph::GraphBuilder builder(
        static_cast<VertexId>(ow.snap.local_to_global.size()));
    builder.Reserve(ow.edges.size());
    for (const graph::Edge& e : ow.edges) {
      builder.AddEdgeUnchecked(e.src, e.dst);
    }
    ow.snap.graph = config_.detect.collapse_window_graphs
                        ? builder.BuildCollapsed(/*symmetrize=*/true)
                        : builder.Build(/*symmetrize=*/true, /*dedupe=*/false);
  }

  // An anchor entity's owner-local id, when the anchor is in this owner's
  // snapshot (stamped by this tick's ordered pass and owned here);
  // kInvalidVertex otherwise. tick_ids_ and owner_of_ are read-only during
  // the fan-out.
  const graph::SlidingWindow::Scratch& ids = tick_ids_;
  const auto local_of_anchor = [&](VertexId anchor) {
    return static_cast<size_t>(anchor) < ids.epoch_of.size() &&
                   ids.epoch_of[anchor] == ids.epoch && owner_of_[anchor] == o
               ? ids.local_of[anchor]
               : graph::kInvalidVertex;
  };

  // Warm init from the global anchor map: an entity resumes its previous
  // label re-expressed as the anchor entity's local id, when the anchor
  // landed in this owner's snapshot too; everything else starts singleton.
  std::vector<Label>& warm_init = ow.warm_init;
  warm_init.clear();
  if (warm_wanted) {
    warm_init.resize(ow.snap.local_to_global.size());
    for (size_t v = 0; v < ow.snap.local_to_global.size(); ++v) {
      const VertexId g = ow.snap.local_to_global[v];
      const VertexId local = local_of_anchor(
          g < warm_anchor_.size() ? warm_anchor_[g] : graph::kInvalidVertex);
      warm_init[v] = static_cast<Label>(
          local != graph::kInvalidVertex ? local : static_cast<VertexId>(v));
    }
  }

  // Incremental delta for this owner, from the detection thread's pre-exported
  // dirty flags (entity_dirty_, anchor_of_, records_, owner_records_ are
  // all read-only during the parallel fan-out). Any inconsistency in the
  // carried-over state downgrades just this owner to the full — still
  // canonical — path.
  pipeline::DetectDelta dd;
  bool delta_ok = use_delta;
  if (delta_ok) {
    dd.extract_all = !records_valid_;
    const size_t n = ow.snap.local_to_global.size();
    dd.dirty.resize(n);
    dd.clean_labels.assign(n, 0);
    for (size_t v = 0; v < n; ++v) {
      const VertexId g = ow.snap.local_to_global[v];
      const bool dirty = entity_dirty_[g] != 0;
      dd.dirty[v] = dirty ? 1 : 0;
      if (dirty) {
        dd.clean_labels[v] = static_cast<Label>(v);  // defined but unread
        continue;
      }
      const VertexId local = local_of_anchor(
          static_cast<size_t>(g) < anchor_of_.size() ? anchor_of_[g]
                                                     : graph::kInvalidVertex);
      if (local == graph::kInvalidVertex) {
        delta_ok = false;
        break;
      }
      dd.clean_labels[v] = static_cast<Label>(local);
    }
    if (delta_ok && !dd.extract_all) {
      for (const size_t idx : owner_records_[o]) {
        const ClusterRecord& rec = records_[idx];
        const VertexId label = local_of_anchor(rec.label_anchor);
        if (label == graph::kInvalidVertex) {
          delta_ok = false;
          break;
        }
        pipeline::SuspiciousCluster c = rec.cluster;
        c.label = static_cast<Label>(label);
        dd.reused.push_back(std::move(c));
      }
    }
  }

  // Retry ladder, walked independently per owner shard: attempt 0 as
  // configured, attempt 1 an unchanged retry, attempt 2 cold (the warm
  // state is suspect), the final attempt on the fallback engine. Only
  // transient Status codes walk the ladder.
  const int max_attempts = 1 + std::max(0, config_.resilience.max_tick_retries);
  Status failure;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    pipeline::PipelineConfig cfg = config_.detect;
    if (degraded) {
      cfg.lp.max_iterations =
          std::min(cfg.lp.max_iterations, config_.resilience.degraded_iteration_cap);
      cfg.lp.stop_when_stable = true;
    }
    const bool warm = warm_wanted && attempt <= 1;
    if (warm_wanted && !warm) ins_.warm_fallbacks->Increment();
    if (warm) cfg.lp.initial_labels = warm_init;
    // Delta attempts track the warm-start retry shape; later attempts run
    // the full (still canonical) detection.
    const bool with_delta = delta_ok && attempt <= 1;
    if (attempt == max_attempts - 1 && attempt > 0 &&
        config_.resilience.enable_engine_fallback) {
      cfg.engine = config_.resilience.fallback_engine;
      ins_.engine_fallbacks->Increment();
    }

    lp::RunContext ctx;
    ctx.profiler = config_.profiler;  // RunTick serializes owners when set
    ctx.pool = config_.pool;
    ctx.stop_token = &stop_token_;
    ctx.metrics = registry_;
    ctx.trace_sink = collect ? &span_sink_ : nullptr;
    ctx.trace_id = tick_trace_.trace_id;
    ctx.trace_parent_span =
        owner_span.active() ? owner_span.context().span_id : 0;

    Status st = fail::Inject("serve.tick");
    if (st.ok()) {
      auto result = pipeline::DetectOnSnapshot(
          ow.snap, cfg, ctx, config_.seeds, config_.ground_truth,
          window_start, window_end, with_delta ? &dd : nullptr);
      if (result.ok()) {
        ow.result = std::move(result).value();
        ow.warm = warm;
        ow.ran = true;
        if (with_delta && !dd.extract_all) {
          ow.reused = static_cast<int64_t>(dd.reused.size());
        }
        break;
      }
      st = result.status();
    }
    if (st.IsCancelled()) {
      ow.outcome = TickOutcome::kCancelled;
      return;
    }
    if (!IsTransient(st)) {
      ow.status = st;
      ow.outcome = TickOutcome::kFatal;
      return;
    }
    failure = st;
    if (attempt + 1 < max_attempts) {
      ins_.tick_retries->Increment();
      if (!Backoff(attempt)) {
        ow.outcome = TickOutcome::kCancelled;
        return;
      }
    }
  }
  if (!ow.ran) {
    ow.status = failure;
    ow.outcome = TickOutcome::kAbandoned;
    owner_span.AddLabel("error", failure.ToString());
    return;
  }
  ow.wall_seconds = owner_timer.Seconds();
  owner_span.AddLabel("warm", ow.warm ? "1" : "0");
}

StreamServer::TickOutcome StreamServer::RunTick(
    double end_time) {
  glp::Timer tick_timer;
  const double tick_start_mono = obs::MonotonicSeconds();
  const double host_start =
      config_.profiler != nullptr ? config_.profiler->HostNow() : 0;

  TickResult tr;
  tr.tick = num_ticks_;
  tr.window_end = end_time;
  tr.window_start = end_time - config_.detect.window_days;

  // Mint this tick's trace (head-based sampling) and its root span id; the
  // root serve.tick span itself is assembled in FinishTickTrace once the
  // wall time is known. Sampled ticks stamp trace=<id> on every GLP_LOG
  // line the detection thread emits during the tick.
  const bool collect = config_.trace.collect_spans();
  if (config_.trace.enabled()) {
    tick_trace_ = sampler_.StartTrace();
  } else {
    tick_trace_ = obs::SpanContext{};
  }
  tick_root_span_ = collect ? span_sink_.NewSpanId() : 0;
  const obs::SpanContext root_ctx{tick_trace_.trace_id, tick_root_span_,
                                  tick_trace_.sampled};
  struct LogTraceScope {
    uint64_t prev = glp::GetLogTraceId();
    ~LogTraceScope() { glp::SetLogTraceId(prev); }
  } log_trace_scope;
  if (tick_trace_.sampled) glp::SetLogTraceId(tick_trace_.trace_id);

  // Degradation ladder steps 1–2, fleet-wide: a previous-tick deadline
  // overrun caps LP iterations and postpones a due cold refresh until
  // pressure clears (incremental mode has no warm/refresh machinery —
  // every tick is exact).
  const bool degraded =
      config_.resilience.tick_deadline_seconds > 0 &&
      last_tick_wall_seconds_ > config_.resilience.tick_deadline_seconds;
  const bool warm_mode = config_.tick.warm_start && !config_.tick.incremental;
  bool refresh_due = !config_.tick.incremental &&
                     config_.tick.cold_refresh_every_ticks > 0 &&
                     num_ticks_ % config_.tick.cold_refresh_every_ticks == 0;
  if (warm_mode && have_prev_) {
    if (degraded && (refresh_due || refresh_pending_)) {
      if (refresh_due) ins_.cold_refresh_deferred->Increment();
      refresh_pending_ = true;
      refresh_due = false;
    } else if (!degraded && refresh_pending_) {
      refresh_due = true;
      refresh_pending_ = false;
    }
  }
  if (degraded) ins_.degraded_ticks->Increment();

  glp::Timer build_timer;
  universe_ = FleetUniverse();
  // One persistent fleet-wide tracker gives the components in every tick
  // mode; it must be updated even when the windows went empty (the
  // expirations that emptied them count).
  const bool delta_applied =
      UpdateIncrementalTracker(tr.window_start, end_time);
  bool any_active = false;
  for (const graph::WindowRangeCursor& c : range_cursors_) {
    any_active |= c.hi() > c.lo();
  }

  const bool warm_wanted = warm_mode && have_prev_ && !refresh_due &&
                           any_active;

  if (any_active) {
    obs::ScopedSpan snapshot_span(collect ? &span_sink_ : nullptr, root_ctx,
                                  "serve.snapshot");
    const size_t num_vertices = InternWindowEdges();
    snapshot_span.End();
    const double build_seconds = build_timer.Seconds();

    // Snapshot the dirty flags and bucket reusable cluster records by
    // owner before fanning out, so the workers only ever read.
    const bool delta_ok =
        config_.tick.incremental && delta_applied && inc_reuse_ok_ && !degraded;
    if (delta_ok) {
      inc_tracker_.ExportDirty(universe_, &entity_dirty_);
      owner_records_.assign(num_shards_, {});
      if (records_valid_) {
        for (size_t idx = 0; idx < records_.size(); ++idx) {
          const std::vector<VertexId>& mem = records_[idx].cluster.members;
          if (mem.empty() || entity_dirty_[mem.front()] != 0) continue;
          owner_records_[owner_of_[mem.front()]].push_back(idx);
        }
      }
    }

    const auto detect_owners = [&](int64_t lo, int64_t hi) {
      for (int64_t o = lo; o < hi; ++o) {
        RunOwnerDetection(static_cast<int>(o), tr.window_start, end_time,
                          degraded, warm_wanted, delta_ok);
      }
    };
    if (config_.profiler != nullptr) {
      // A PhaseProfiler is single-threaded: profiled ticks detect owners
      // one after another, each recording its LP phases into it.
      detect_owners(0, num_shards_);
    } else {
      pool()->ParallelFor(0, num_shards_, detect_owners, 1);
    }

    // Worst outcome wins: a fatal owner kills the loop, a cancelled owner
    // means shutdown, any abandoned owner abandons the whole tick (partial
    // cluster sets must never publish — subscribers would see phantom
    // expirations for the missing owners' clusters).
    TickOutcome worst = TickOutcome::kOk;
    Status abandon_failure;
    for (const OwnerWork& ow : owners_) {
      if (ow.outcome == TickOutcome::kFatal) {
        RecordError(ow.status);
        GLP_LOG(Error) << "fatal detection fault at window end " << end_time
                       << ": " << ow.status.ToString();
        FinishTickTrace(tr.tick, end_time, "fatal", tick_start_mono,
                        tick_timer.Seconds(), /*dump=*/true);
        return TickOutcome::kFatal;
      }
      if (ow.outcome == TickOutcome::kCancelled) {
        worst = TickOutcome::kCancelled;
      } else if (ow.outcome == TickOutcome::kAbandoned &&
                 worst == TickOutcome::kOk) {
        worst = TickOutcome::kAbandoned;
        abandon_failure = ow.status;
      }
    }
    if (worst == TickOutcome::kCancelled) {
      FinishTickTrace(tr.tick, end_time, "cancelled", tick_start_mono,
                      tick_timer.Seconds(), /*dump=*/false);
      return TickOutcome::kCancelled;
    }
    if (worst == TickOutcome::kAbandoned) {
      RecordError(abandon_failure);
      ins_.ticks_failed->Increment();
      have_prev_ = false;
      warm_anchor_.clear();
      inc_reuse_ok_ = false;
      records_valid_ = false;
      records_.clear();
      GLP_LOG(Warning) << "tick at window end " << end_time
                       << " abandoned: " << abandon_failure.ToString();
      FinishTickTrace(tr.tick, end_time, "abandoned", tick_start_mono,
                      tick_timer.Seconds(), /*dump=*/true);
      return TickOutcome::kAbandoned;
    }

    // Stitch the per-owner results into one TickResult in the window's
    // canonical local-id space: per-vertex labels, cluster labels and
    // warm-start labels all pass through the owners' gid maps, so the
    // published tick is exactly the one a 1-shard server computes. A tick
    // counts as warm only when every owner that ran kept its warm start (a
    // mixed tick reports cold).
    tr.warm = warm_wanted;
    tr.detection.build_seconds = build_seconds;
    tr.detection.lp.labels.resize(num_vertices);
    if (warm_mode) warm_anchor_.assign(universe_, graph::kInvalidVertex);
    // Successful non-degraded incremental ticks refresh the carried-over
    // state from the published (canonical) per-owner output.
    const bool refresh_inc = config_.tick.incremental && !degraded;
    std::vector<ClusterRecord> new_records;
    int64_t reused_total = 0;
    if (refresh_inc && anchor_of_.size() < universe_) {
      anchor_of_.resize(universe_, graph::kInvalidVertex);
    }
    for (int o = 0; o < num_shards_; ++o) {
      const OwnerWork& ow = owners_[o];
      shard_ins_[o].components_owned->Set(
          static_cast<double>(ow.num_components));
      shard_ins_[o].window_edges->Set(
          static_cast<double>(windows_[o].num_stream_edges()));
      shard_ins_[o].inwindow_edges->Set(static_cast<double>(
          range_cursors_[o].hi() - range_cursors_[o].lo()));
      if (!ow.ran) continue;
      tr.warm = tr.warm && ow.warm;
      shard_ins_[o].tick_seconds->Observe(ow.wall_seconds);
      tr.detection.window_vertices += ow.result.window_vertices;
      tr.detection.window_edges += ow.result.window_edges;
      tr.detection.lp_metrics.true_positives +=
          ow.result.lp_metrics.true_positives;
      tr.detection.lp_metrics.false_positives +=
          ow.result.lp_metrics.false_positives;
      tr.detection.lp_metrics.false_negatives +=
          ow.result.lp_metrics.false_negatives;
      tr.detection.confirmed_metrics.true_positives +=
          ow.result.confirmed_metrics.true_positives;
      tr.detection.confirmed_metrics.false_positives +=
          ow.result.confirmed_metrics.false_positives;
      tr.detection.confirmed_metrics.false_negatives +=
          ow.result.confirmed_metrics.false_negatives;
      // Owners run concurrently: wall-clock aggregates take the max (the
      // critical path), iteration counts the max too (the grid steps the
      // slowest component needed); kernel counters sum.
      tr.detection.lp.iterations =
          std::max(tr.detection.lp.iterations, ow.result.lp.iterations);
      tr.detection.lp.simulated_seconds = std::max(
          tr.detection.lp.simulated_seconds, ow.result.lp.simulated_seconds);
      tr.detection.lp.wall_seconds =
          std::max(tr.detection.lp.wall_seconds, ow.result.lp.wall_seconds);
      tr.detection.lp.stats += ow.result.lp.stats;
      tr.detection.lp_seconds =
          std::max(tr.detection.lp_seconds, ow.result.lp_seconds);
      tr.detection.lp_wall_seconds = std::max(tr.detection.lp_wall_seconds,
                                              ow.result.lp_wall_seconds);
      tr.detection.extract_seconds = std::max(tr.detection.extract_seconds,
                                              ow.result.extract_seconds);
      const std::vector<VertexId>& l2g = ow.snap.local_to_global;
      const std::vector<VertexId>& gid = ow.gid;
      const std::vector<Label>& labels = ow.result.lp.labels;
      for (size_t v = 0; v < labels.size(); ++v) {
        const bool valid = static_cast<size_t>(labels[v]) < l2g.size();
        tr.detection.lp.labels[gid[v]] =
            valid ? gid[labels[v]] : graph::kInvalidLabel;
        if (warm_mode && valid) {
          warm_anchor_[l2g[v]] = l2g[labels[v]];
        }
        if (refresh_inc) {
          anchor_of_[l2g[v]] = valid ? l2g[labels[v]] : graph::kInvalidVertex;
        }
      }
      for (const pipeline::SuspiciousCluster& c : ow.result.clusters) {
        if (refresh_inc) new_records.push_back({c, l2g[c.label]});
        tr.detection.clusters.push_back(c);
        tr.detection.clusters.back().label = gid[c.label];
      }
      if (refresh_inc) reused_total += ow.reused;
      if (config_.record_warm_labels && ow.warm) {
        tr.warm_labels.resize(num_vertices);
        for (size_t v = 0; v < ow.warm_init.size(); ++v) {
          tr.warm_labels[gid[v]] = gid[ow.warm_init[v]];
        }
      }
    }
    if (!tr.warm) tr.warm_labels.clear();
    // DetectOnSnapshot orders clusters by label; owner label spaces are
    // order-isomorphic to the window's, so one sort restores that order.
    std::sort(tr.detection.clusters.begin(), tr.detection.clusters.end(),
              [](const pipeline::SuspiciousCluster& a,
                 const pipeline::SuspiciousCluster& b) {
                return a.label < b.label;
              });
    if (config_.tick.incremental) {
      if (refresh_inc) {
        if (reused_total > 0) {
          ins_.reused_clusters->Increment(
              static_cast<uint64_t>(reused_total));
        }
        records_ = std::move(new_records);
        inc_reuse_ok_ = true;
        records_valid_ = true;
      } else {
        inc_reuse_ok_ = false;
        records_valid_ = false;
        records_.clear();
      }
    }
    have_prev_ = true;
  } else {
    // Empty window: nothing to cluster; previously confirmed clusters all
    // expire below.
    have_prev_ = false;
    warm_anchor_.clear();
    inc_reuse_ok_ = false;
    records_valid_ = false;
    records_.clear();
  }

  {
    obs::ScopedSpan diff_span(collect ? &span_sink_ : nullptr, root_ctx,
                              "serve.diff_confirmed");
    std::set<std::vector<VertexId>> confirmed_now;
    for (const pipeline::SuspiciousCluster& c : tr.detection.clusters) {
      if (c.confirmed) confirmed_now.insert(c.members);
    }
    for (const auto& members : confirmed_now) {
      if (prev_confirmed_.count(members) == 0) {
        tr.new_confirmed.push_back(members);
      }
    }
    for (const auto& members : prev_confirmed_) {
      if (confirmed_now.count(members) == 0) {
        tr.expired_confirmed.push_back(members);
      }
    }
    prev_confirmed_ = std::move(confirmed_now);
    diff_span.AddLabel("new_confirmed",
                       std::to_string(tr.new_confirmed.size()));
  }

  tr.tick_wall_seconds = tick_timer.Seconds();
  last_tick_wall_seconds_ = tr.tick_wall_seconds;
  const bool overrun =
      config_.resilience.tick_deadline_seconds > 0 &&
      tr.tick_wall_seconds > config_.resilience.tick_deadline_seconds;
  if (overrun) ins_.deadline_overruns->Increment();
  {
    std::lock_guard<std::mutex> lk(mu_);
    tr.ingest_lag_days = ingested_max_time_ - end_time;
  }
  ins_.ingest_lag_days->Set(tr.ingest_lag_days);
  ins_.tick_seconds->ObserveWithExemplar(
      tr.tick_wall_seconds, tick_trace_.sampled ? tick_trace_.trace_id : 0);
  ObserveFreshness(tr);
  if (tr.warm) {
    ins_.warm_ticks->Increment();
    ins_.warm_iterations->Increment(
        static_cast<uint64_t>(tr.detection.lp.iterations));
  } else {
    ins_.cold_ticks->Increment();
    ins_.cold_iterations->Increment(
        static_cast<uint64_t>(tr.detection.lp.iterations));
  }
  if (config_.profiler != nullptr) {
    config_.profiler->RecordHostEvent(tr.warm ? "tick-warm" : "tick-cold",
                                      host_start, tr.tick_wall_seconds);
  }
  ++num_ticks_;
  {
    obs::ScopedSpan publish_span(collect ? &span_sink_ : nullptr, root_ctx,
                                 "serve.publish");
    for (const Subscriber& s : subscribers_) s(tr);
  }
  FinishTickTrace(tr.tick, end_time, overrun ? "ok+deadline_overrun" : "ok",
                  tick_start_mono, tr.tick_wall_seconds, /*dump=*/overrun);
  return TickOutcome::kOk;
}

void StreamServer::NoteBatchDequeued(const RoutedBatch& rb,
                                     double pop_seconds) {
  if (config_.trace.collect_spans()) {
    // The queue-wait span carries the *client's* trace context (when the
    // batch arrived with one) — in the tick's tree it is the visible splice
    // between the wire trace and the server-minted tick trace.
    obs::Span s;
    s.trace_id = rb.ctx.trace.trace_id;
    s.span_id = span_sink_.NewSpanId();
    s.parent_span_id = rb.ctx.trace.span_id;
    s.name = "serve.queue_wait";
    s.start_seconds = rb.enqueue_seconds;
    s.duration_seconds = std::max(0.0, pop_seconds - rb.enqueue_seconds);
    if (!rb.ctx.tenant.empty()) s.labels.emplace_back("tenant", rb.ctx.tenant);
    s.labels.emplace_back("edges", std::to_string(rb.global_edges));
    span_sink_.Add(std::move(s));
  }
  if (rb.ctx.arrival_seconds >= 0 && rb.global_edges > 0) {
    FreshnessMeta meta;
    meta.tenant = rb.ctx.tenant.empty() ? "default" : rb.ctx.tenant;
    meta.arrival_seconds = rb.ctx.arrival_seconds;
    // Exemplars only link sampled traces; the measurement itself is
    // recorded for every stamped batch.
    meta.trace_id = rb.ctx.trace.sampled ? rb.ctx.trace.trace_id : 0;
    // Endpoints gathered across all shard sub-batches; mirrored copies
    // collapse in the sort-unique below.
    meta.entities.reserve(rb.global_edges * 2);
    for (const std::vector<TimedEdge>& part : rb.parts) {
      for (const TimedEdge& e : part) {
        meta.entities.push_back(e.src);
        meta.entities.push_back(e.dst);
      }
    }
    std::sort(meta.entities.begin(), meta.entities.end());
    meta.entities.erase(
        std::unique(meta.entities.begin(), meta.entities.end()),
        meta.entities.end());
    if (pending_freshness_.size() >= kMaxPendingFreshness) {
      pending_freshness_.erase(pending_freshness_.begin());
    }
    pending_freshness_.push_back(std::move(meta));
  }
}

obs::Histogram* StreamServer::FreshnessHistogram(
    const std::string& tenant) {
  auto it = freshness_hist_.find(tenant);
  if (it != freshness_hist_.end()) return it->second;
  obs::Histogram* h = registry_->GetHistogram(
      "glp_serve_freshness_seconds",
      "Wire arrival to confirmed-cluster publish, per tenant",
      {{"tenant", tenant}});
  freshness_hist_.emplace(tenant, h);
  return h;
}

void StreamServer::ObserveFreshness(const TickResult& tr) {
  if (pending_freshness_.empty() || tr.new_confirmed.empty()) return;
  std::vector<VertexId> confirmed;
  for (const auto& members : tr.new_confirmed) {
    confirmed.insert(confirmed.end(), members.begin(), members.end());
  }
  std::sort(confirmed.begin(), confirmed.end());
  const double now = obs::MonotonicSeconds();
  size_t kept = 0;
  for (FreshnessMeta& m : pending_freshness_) {
    // Sorted-merge intersection test: does any of the batch's endpoints
    // sit in a cluster confirmed this tick?
    bool hit = false;
    for (size_t i = 0, j = 0;
         i < m.entities.size() && j < confirmed.size();) {
      if (m.entities[i] < confirmed[j]) {
        ++i;
      } else if (confirmed[j] < m.entities[i]) {
        ++j;
      } else {
        hit = true;
        break;
      }
    }
    if (hit) {
      FreshnessHistogram(m.tenant)->ObserveWithExemplar(
          std::max(0.0, now - m.arrival_seconds), m.trace_id);
    } else {
      pending_freshness_[kept++] = std::move(m);
    }
  }
  pending_freshness_.resize(kept);
}

void StreamServer::FinishTickTrace(int64_t tick, double end_time,
                                   const char* outcome,
                                   double start_seconds,
                                   double wall_seconds, bool dump) {
  if (!config_.trace.collect_spans() || recorder_ == nullptr) {
    tick_trace_ = obs::SpanContext{};
    tick_root_span_ = 0;
    return;
  }
  obs::TickTrace t;
  t.tick = tick;
  t.window_end = end_time;
  t.outcome = outcome;
  t.tick_wall_seconds = wall_seconds;
  t.spans = span_sink_.Drain();
  obs::Span root;
  root.trace_id = tick_trace_.trace_id;
  root.span_id = tick_root_span_;
  root.name = "serve.tick";
  root.start_seconds = start_seconds;
  root.duration_seconds = wall_seconds;
  t.spans.insert(t.spans.begin(), std::move(root));
  recorder_->Record(std::move(t));
  if (dump) {
    GLP_LOG(Warning) << "tick " << tick << " " << outcome
                     << "; flight-recorder dump: "
                     << recorder_->LastTickJson();
  }
  tick_trace_ = obs::SpanContext{};
  tick_root_span_ = 0;
}

}  // namespace glp::serve
