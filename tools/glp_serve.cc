// glp_serve — streaming fraud-detection server driver. Three modes:
//
//   replay (default)  replays a synthetic transaction stream through a
//                     serve::Server in micro-batches, one line per tick
//                     plus a final latency/stats JSON blob
//   network serve     --listen-port: exposes POST /v1/ingest (+ /metrics,
//                     /v1/stats, /healthz) via serve::net::IngestService
//                     and serves until SIGINT/SIGTERM
//   network client    --connect: replays the same stream *over the wire*
//                     against a running ingest service
//
//   glp_serve --days 90 --buyers 30000 --window 30 --tick 1 --engine glp
//   glp_serve --shards 4 --metrics-port 0    # sharded fleet + /metrics
//   glp_serve --listen-port 8080 --tenants 'acme:s3cret:50000'
//   glp_serve --connect 8080 --token s3cret  # drive the service above
//
// The operational entry point for the serving layer; see DESIGN.md
// §"Serving layer", §4.9 (sharded scale-out), §4.11 (network ingest).

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.h"
#include "obs/trace.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"
#include "prof/trace.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/replication.h"
#include "serve/server.h"
#include "util/failpoint.h"

namespace {

using namespace glp;

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

struct Args {
  int buyers = 30000;
  int items = 6000;
  int days = 90;
  int rings = 40;
  int window_days = 30;
  double tick_every = 1.0;
  double rate = 0;  // stream-days replayed per wall-second; 0 = max speed
  size_t batch_size = 2000;
  std::string engine = "glp";
  int iterations = 20;
  uint64_t seed = 11;
  int64_t refresh = 32;
  bool warm = true;
  bool incremental = false;
  bool quiet = false;
  bool profile = false;
  int shards = 1;
  int metrics_port = -1;  // -1 = no endpoint; 0 = ephemeral port
  // Elastic resharding (DESIGN.md §4.14).
  bool reshard_auto = false;       // heat-driven automatic rebalancing
  uint64_t reshard_grow = 0;       // grow when in-window edges/shard exceed
  uint64_t reshard_shrink = 0;     // shrink when they fall below
  int reshard_min = 1;             // fleet-size floor for the auto decision
  int reshard_max = 8;             // fleet-size ceiling
  int64_t reshard_cooldown = 4;    // ticks between auto decisions
  double resize_at_day = -1;       // replay: live-Resize when the stream
  int resize_to = 0;               //   crosses this day, to this count
  // Resilience (DESIGN.md §4.8).
  std::string checkpoint_dir;
  int64_t checkpoint_every = 16;
  double tick_deadline = 0;   // seconds; 0 = no deadline
  std::string failpoints;     // GLP_FAILPOINTS grammar
  bool restore = false;       // resume from newest checkpoint in the dir
  // Durability + replication (DESIGN.md §4.13).
  std::string wal_dir;            // write-ahead log directory ("" = off)
  int fsync_every = 1;            // group-commit: fsync every N batches
  double fsync_interval_ms = 0;   // also fsync after this much wall time
  int follow_port = -1;           // >=0 = hot standby tailing this primary
  // Network modes (DESIGN.md §4.11).
  int listen_port = -1;        // >=0 = serve POST /v1/ingest (0 = ephemeral)
  std::string tenants_spec;    // name:token[:rate[:burst]],...
  size_t max_batch_bytes = 1 << 20;
  double global_rate = 0;      // fleet-wide edges/sec cap; 0 = unlimited
  int connect_port = -1;       // >=0 = client mode against 127.0.0.1:port
  std::string token;           // bearer token the client presents
  // Tracing (DESIGN.md §4.12).
  double trace_sample = 0;     // head-based sample rate in [0, 1]
  int64_t trace_ticks = 0;     // flight-recorder ring size (0 = off)
  std::string trace_out;       // chrome://tracing JSON path (implies ring)
};

void Usage() {
  std::printf(
      "glp_serve: streaming micro-batch fraud detection server (replay)\n\n"
      "stream:\n"
      "  --buyers <n>   buyer entities (default 30000)\n"
      "  --items <n>    item entities (default 6000)\n"
      "  --days <n>     stream length in days (default 90)\n"
      "  --rings <n>    injected fraud rings (default 40)\n"
      "  --seed <n>     stream RNG seed (default 11)\n"
      "serving:\n"
      "  --window <d>   sliding-window length in days (default 30)\n"
      "  --tick <d>     detection cadence in days (default 1)\n"
      "  --batch <n>    edges per ingest micro-batch (default 2000)\n"
      "  --rate <d>     replay pacing: stream-days per wall-second\n"
      "                 (default 0 = ingest at maximum speed)\n"
      "  --engine <e>   seq | tg | ligra | omp | gsort | ghash | glp\n"
      "  --iters <n>    LP iteration cap per tick (default 20)\n"
      "  --cold         disable warm starts (every tick from scratch)\n"
      "  --incremental  LP only on the components the window advance\n"
      "                 changed (dirty in the cross-tick union-find), clean\n"
      "                 clusters reused verbatim (DESIGN.md §4.10; output\n"
      "                 identical to a cold replay; needs an even --iters)\n"
      "  --refresh <n>  cold-refresh every n ticks (counters warm-start\n"
      "                 label-granularity drift; 0 = never; default 32)\n"
      "  --shards <n>   hash-partition entities across n server shards; each\n"
      "                 component is detected on one owner shard (default 1)\n"
      "  --profile      per-phase profile of the serving run\n"
      "  --quiet        suppress per-tick lines (stats JSON only)\n"
      "elastic resharding (DESIGN.md 4.14):\n"
      "  --reshard-auto        heat-driven rebalancing: grow/shrink the\n"
      "                        fleet by one shard when in-window edges per\n"
      "                        shard cross the thresholds below (state is\n"
      "                        migrated live; output is unchanged)\n"
      "  --reshard-grow <n>    grow when in-window edges/shard exceed n\n"
      "  --reshard-shrink <n>  shrink when in-window edges/shard fall\n"
      "                        below n (0 = never)\n"
      "  --reshard-min <n>     fleet-size floor (default 1)\n"
      "  --reshard-max <n>     fleet-size ceiling (default 8)\n"
      "  --reshard-cooldown <t>  completed ticks between auto decisions\n"
      "                        (default 4)\n"
      "  --resize-at <d>:<n>   replay mode: issue a live Resize to n shards\n"
      "                        once the stream crosses day d (exercise the\n"
      "                        migration path explicitly)\n"
      "monitoring:\n"
      "  --metrics-port <p>  serve /metrics, /statz, /healthz over HTTP on\n"
      "                      port p while the replay runs (0 = ephemeral;\n"
      "                      the bound port is printed at startup)\n"
      "network (DESIGN.md 4.11):\n"
      "  --listen-port <p>   serve POST /v1/ingest (+ /v1/stats, /metrics,\n"
      "                      /healthz) on port p until SIGINT/SIGTERM\n"
      "                      (0 = ephemeral; the bound port is printed)\n"
      "  --tenants <spec>    comma-separated name:token[:rate[:burst]]\n"
      "                      (default 'default:devtoken' = unlimited)\n"
      "  --max-batch-bytes <n>  largest accepted POST body (default 1MiB)\n"
      "  --global-rate <r>   fleet-wide admission cap, edges/sec (0 = off)\n"
      "  --connect <p>       client mode: replay the generated stream as\n"
      "                      binary POSTs against 127.0.0.1:p\n"
      "  --token <t>         bearer token for --connect (default devtoken)\n"
      "tracing (DESIGN.md 4.12):\n"
      "  --trace-sample <r>  head-based trace sample rate in [0,1]; sampled\n"
      "                      ticks mark their GLP_LOG lines trace=<id> and\n"
      "                      attach exemplars to /metrics histograms\n"
      "  --trace-ticks <k>   keep the last k per-tick span trees in the\n"
      "                      flight recorder (GET /debug/ticks; auto-dumped\n"
      "                      on overruns/faults; 0 = off)\n"
      "  --trace-out <f>     write the recorder as chrome://tracing JSON to\n"
      "                      f at exit (implies --trace-ticks 64 if unset);\n"
      "                      in --connect client mode, stamps traceparent\n"
      "                      on every POST (with --trace-sample)\n"
      "resilience:\n"
      "  --checkpoint-dir <d>   periodic atomic snapshots into d\n"
      "  --checkpoint-every <n> ticks between snapshots (default 16)\n"
      "  --restore              resume from the newest checkpoint in\n"
      "                         --checkpoint-dir before replaying\n"
      "  --tick-deadline <s>    per-tick wall budget in seconds; overruns\n"
      "                         arm the degradation ladder (0 = off)\n"
      "  --failpoints <spec>    arm failpoints (GLP_FAILPOINTS grammar),\n"
      "                         e.g. 'lp.engine.glp=error(io)@every5'\n"
      "durability + replication (DESIGN.md 4.13):\n"
      "  --wal-dir <d>          write-ahead-log every accepted batch into d\n"
      "                         before it is enqueued; with --restore, WAL\n"
      "                         frames past the checkpoint are replayed\n"
      "                         (exact recovery, checkpoint optional)\n"
      "  --fsync-every <n>      group-commit: fsync after every n batches\n"
      "                         (default 1 = every batch)\n"
      "  --fsync-interval-ms <t>  also fsync once t ms have passed since\n"
      "                         the last sync (0 = off)\n"
      "  --follow <p>           hot standby: tail the primary ingest\n"
      "                         service on 127.0.0.1:p via GET /v1/wal and\n"
      "                         apply its frames; own ingest answers 503\n"
      "                         until POST /v1/promote flips this server\n"
      "                         active (requires --listen-port + --wal-dir)\n");
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--buyers")) {
      args->buyers = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--items")) {
      args->items = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--days")) {
      args->days = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--rings")) {
      args->rings = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--window")) {
      args->window_days = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--tick")) {
      args->tick_every = std::atof(next());
    } else if (!std::strcmp(argv[i], "--batch")) {
      args->batch_size = static_cast<size_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--rate")) {
      args->rate = std::atof(next());
    } else if (!std::strcmp(argv[i], "--engine")) {
      args->engine = next();
    } else if (!std::strcmp(argv[i], "--iters")) {
      args->iterations = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--seed")) {
      args->seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--refresh")) {
      args->refresh = std::atoll(next());
    } else if (!std::strcmp(argv[i], "--shards")) {
      args->shards = std::atoi(next());
    } else if (!std::strncmp(argv[i], "--shards=", 9)) {
      args->shards = std::atoi(argv[i] + 9);
    } else if (!std::strcmp(argv[i], "--reshard-auto")) {
      args->reshard_auto = true;
    } else if (!std::strcmp(argv[i], "--reshard-grow")) {
      args->reshard_grow = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--reshard-shrink")) {
      args->reshard_shrink = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--reshard-min")) {
      args->reshard_min = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--reshard-max")) {
      args->reshard_max = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--reshard-cooldown")) {
      args->reshard_cooldown = std::atoll(next());
    } else if (!std::strcmp(argv[i], "--resize-at")) {
      const char* spec = next();
      const char* colon = std::strchr(spec, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "--resize-at wants <day>:<shards>, got %s\n",
                     spec);
        return false;
      }
      args->resize_at_day = std::atof(spec);
      args->resize_to = std::atoi(colon + 1);
    } else if (!std::strcmp(argv[i], "--metrics-port")) {
      args->metrics_port = std::atoi(next());
    } else if (!std::strncmp(argv[i], "--metrics-port=", 15)) {
      args->metrics_port = std::atoi(argv[i] + 15);
    } else if (!std::strcmp(argv[i], "--listen-port")) {
      args->listen_port = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--tenants")) {
      args->tenants_spec = next();
    } else if (!std::strcmp(argv[i], "--max-batch-bytes")) {
      args->max_batch_bytes = static_cast<size_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--global-rate")) {
      args->global_rate = std::atof(next());
    } else if (!std::strcmp(argv[i], "--connect")) {
      args->connect_port = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--token")) {
      args->token = next();
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      args->checkpoint_dir = next();
    } else if (!std::strcmp(argv[i], "--wal-dir")) {
      args->wal_dir = next();
    } else if (!std::strcmp(argv[i], "--fsync-every")) {
      args->fsync_every = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--fsync-interval-ms")) {
      args->fsync_interval_ms = std::atof(next());
    } else if (!std::strcmp(argv[i], "--follow")) {
      args->follow_port = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      args->checkpoint_every = std::atoll(next());
    } else if (!std::strcmp(argv[i], "--tick-deadline")) {
      args->tick_deadline = std::atof(next());
    } else if (!std::strcmp(argv[i], "--failpoints")) {
      args->failpoints = next();
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      args->trace_sample = std::atof(next());
    } else if (!std::strcmp(argv[i], "--trace-ticks")) {
      args->trace_ticks = std::atoll(next());
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      args->trace_out = next();
    } else if (!std::strcmp(argv[i], "--restore")) {
      args->restore = true;
    } else if (!std::strcmp(argv[i], "--cold")) {
      args->warm = false;
    } else if (!std::strcmp(argv[i], "--incremental")) {
      args->incremental = true;
    } else if (!std::strcmp(argv[i], "--profile")) {
      args->profile = true;
    } else if (!std::strcmp(argv[i], "--quiet")) {
      args->quiet = true;
    } else if (!std::strcmp(argv[i], "--help")) {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

bool ParseEngine(const std::string& name, lp::EngineKind* kind) {
  if (name == "seq") *kind = lp::EngineKind::kSeq;
  else if (name == "tg") *kind = lp::EngineKind::kTg;
  else if (name == "ligra") *kind = lp::EngineKind::kLigra;
  else if (name == "omp") *kind = lp::EngineKind::kOmp;
  else if (name == "gsort") *kind = lp::EngineKind::kGSort;
  else if (name == "ghash") *kind = lp::EngineKind::kGHash;
  else if (name == "glp") *kind = lp::EngineKind::kGlp;
  else return false;
  return true;
}

/// Stream replay — programs against serve::Server, whatever the shard
/// count.
int RunReplay(serve::Server& server, const Args& args,
              const pipeline::TransactionStream& stream,
              prof::PhaseProfiler& profiler) {
  // Resume mid-stream: restore the newest checkpoint and skip the edges it
  // already ingested (the replay contract — see serve/checkpoint.h).
  size_t replay_from = 0;
  if (args.restore) {
    if (args.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--restore requires --checkpoint-dir\n");
      return 2;
    }
    auto restored = server.RestoreFromCheckpoint(args.checkpoint_dir);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n",
                   restored.status().ToString().c_str());
      return 1;
    }
    replay_from = static_cast<size_t>(restored.value().num_edges);
    std::printf("restored: tick %lld, %llu edges, max time %.2f\n",
                static_cast<long long>(restored.value().tick),
                static_cast<unsigned long long>(restored.value().num_edges),
                restored.value().max_time);
  }

  obs::HttpEndpoint metrics_http(server.metrics());
  if (args.metrics_port >= 0) {
    if (!metrics_http.Start(args.metrics_port)) {
      std::fprintf(stderr, "metrics endpoint failed to bind port %d\n",
                   args.metrics_port);
      return 1;
    }
    std::printf("metrics: http://localhost:%d/metrics\n", metrics_http.port());
  }

  if (!args.quiet) {
    server.Subscribe([](const serve::TickResult& t) {
      int confirmed = 0;
      for (const auto& c : t.detection.clusters) confirmed += c.confirmed;
      std::printf(
          "tick %3lld  window [%5.1f, %5.1f)  %-4s  %7u v %9lld e  "
          "lp %2d iters  clusters %3zu (%d confirmed, +%zu -%zu)  "
          "f1 %.3f  %6.2f ms  lag %.2f d\n",
          static_cast<long long>(t.tick), t.window_start, t.window_end,
          t.warm ? "warm" : "cold", t.detection.window_vertices,
          static_cast<long long>(t.detection.window_edges),
          t.detection.lp.iterations, t.detection.clusters.size(), confirmed,
          t.new_confirmed.size(), t.expired_confirmed.size(),
          t.detection.confirmed_metrics.F1(), t.tick_wall_seconds * 1e3,
          t.ingest_lag_days);
    });
  }

  const Status start = server.Start();
  if (!start.ok()) {
    std::fprintf(stderr, "start failed: %s\n", start.ToString().c_str());
    return 1;
  }

  // --- Replay: canonical order, fixed-size micro-batches, optional pacing ---
  std::vector<graph::TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  const auto wall_start = std::chrono::steady_clock::now();
  const double stream_start = ordered.empty() ? 0 : ordered.front().time;
  bool resize_pending = args.resize_at_day >= 0 && args.resize_to >= 1;
  for (size_t pos = replay_from; pos < ordered.size(); pos += args.batch_size) {
    const size_t n = std::min(args.batch_size, ordered.size() - pos);
    std::vector<graph::TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + n));
    if (resize_pending && batch.front().time >= args.resize_at_day) {
      resize_pending = false;
      std::printf("resize: day %.1f crossed, migrating %d -> %d shards...\n",
                  args.resize_at_day, server.num_shards(), args.resize_to);
      const Status rst = server.Resize(args.resize_to);
      if (!rst.ok()) {
        std::fprintf(stderr, "resize failed: %s\n", rst.ToString().c_str());
        server.Stop();
        return 1;
      }
      std::printf("resize: fleet now %d shards\n", server.num_shards());
    }
    if (args.rate > 0) {
      // Don't hand over the batch before its last timestamp "happens".
      const double due_s = (batch.back().time - stream_start) / args.rate;
      std::this_thread::sleep_until(
          wall_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(due_s)));
    }
    if (!server.Ingest(std::move(batch))) {
      const Status err = server.last_error();
      if (!err.ok()) {
        std::fprintf(stderr,
                     "FATAL: detection thread died, batch rejected: %s\n",
                     err.ToString().c_str());
      } else {
        std::fprintf(stderr, "ingest rejected (server stopped)\n");
      }
      server.Stop();
      return 1;
    }
  }
  server.Flush();
  const serve::ServerStats stats = server.stats();
  server.Stop();
  if (!server.last_error().ok()) {
    std::fprintf(stderr, "FATAL: serving error: %s\n",
                 server.last_error().ToString().c_str());
    return 1;
  }

  std::printf("\nstats: %s\n", stats.ToJson().c_str());
  if (args.profile) {
    const prof::PhaseBreakdown& breakdown = profiler.breakdown();
    if (breakdown.enabled) {
      std::printf("\n%s", breakdown.ToString().c_str());
    }
  }
  return 0;
}

/// Network serve mode: expose the server behind IngestService until a
/// SIGINT/SIGTERM arrives, then drain and print final stats.
int RunNetworkServe(serve::Server& server, const Args& args) {
  auto tenants = serve::net::ParseTenantSpec(
      args.tenants_spec.empty() ? "default:devtoken" : args.tenants_spec);
  if (!tenants.ok()) {
    std::fprintf(stderr, "bad --tenants spec: %s\n",
                 tenants.status().ToString().c_str());
    return 2;
  }

  if (args.restore) {
    if (args.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--restore requires --checkpoint-dir\n");
      return 2;
    }
    auto restored = server.RestoreFromCheckpoint(args.checkpoint_dir);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n",
                   restored.status().ToString().c_str());
      return 1;
    }
    std::printf("restored: tick %lld, %llu edges, max time %.2f\n",
                static_cast<long long>(restored.value().tick),
                static_cast<unsigned long long>(restored.value().num_edges),
                restored.value().max_time);
  }

  if (!args.quiet) {
    server.Subscribe([](const serve::TickResult& t) {
      int confirmed = 0;
      for (const auto& c : t.detection.clusters) confirmed += c.confirmed;
      std::printf("tick %3lld  window [%5.1f, %5.1f)  clusters %3zu "
                  "(%d confirmed)  %6.2f ms  lag %.2f d\n",
                  static_cast<long long>(t.tick), t.window_start, t.window_end,
                  t.detection.clusters.size(), confirmed,
                  t.tick_wall_seconds * 1e3, t.ingest_lag_days);
    });
  }

  const Status start = server.Start();
  if (!start.ok()) {
    std::fprintf(stderr, "start failed: %s\n", start.ToString().c_str());
    return 1;
  }

  serve::net::IngestService::Options opts;
  opts.max_batch_bytes = args.max_batch_bytes;
  opts.global_rate_edges_per_sec = args.global_rate;
  serve::net::IngestService service(&server, std::move(tenants).value(), opts);

  // Replication wiring (DESIGN.md §4.13): with a WAL, every serve node
  // exposes GET /v1/wal (so a standby can follow it) and POST /v1/promote.
  // A --follow node starts fenced as a standby: its front door answers 503
  // and a WalTailer writes what the primary logs, until promotion stops
  // the tailer, bumps the fencing epoch, and opens ingest.
  std::unique_ptr<serve::net::WalTailer> tailer;
  if (args.follow_port >= 0) {
    serve::net::WalTailer::Options topts;
    topts.primary_port = args.follow_port;
    tailer = std::make_unique<serve::net::WalTailer>(&server, topts);
    service.SetStandby(true);
  }
  // Promotion runs on per-connection HTTP threads; serialize it so two
  // concurrent POST /v1/promote calls can't both pass the standby check
  // and bump the fencing epoch twice (the endpoint is documented
  // idempotent).
  std::mutex promote_mu;
  std::unique_ptr<serve::net::ReplicationService> replication;
  if (server.wal() != nullptr) {
    replication = std::make_unique<serve::net::ReplicationService>(
        server.wal(),
        [&server, &service, &tailer, &promote_mu]() -> Result<uint64_t> {
          std::lock_guard<std::mutex> lock(promote_mu);
          if (tailer != nullptr) tailer->Stop();
          if (!service.standby()) {
            return server.wal()->epoch();  // already active: idempotent
          }
          auto epoch = server.wal()->BumpEpoch();
          if (epoch.ok()) {
            service.SetStandby(false);
            std::printf("promoted: primary at epoch %llu\n",
                        static_cast<unsigned long long>(epoch.value()));
          }
          return epoch;
        });
    replication->Register(service.http());
  }

  if (!service.Start(args.listen_port)) {
    std::fprintf(stderr, "ingest service failed to bind port %d\n",
                 args.listen_port);
    server.Stop();
    return 1;
  }
  std::printf("ingest: http://localhost:%d/v1/ingest  (Ctrl-C to stop)\n",
              service.port());
  if (tailer != nullptr) {
    tailer->Start(server.wal()->last_seq(), server.wal()->epoch());
    std::printf("standby: following 127.0.0.1:%d from wal seq %llu "
                "(epoch %llu); POST /v1/promote to activate\n",
                args.follow_port,
                static_cast<unsigned long long>(server.wal()->last_seq()),
                static_cast<unsigned long long>(server.wal()->epoch()));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!server.running()) break;  // detection thread died: exit, don't hang
  }

  if (tailer != nullptr) tailer->Stop();
  service.Stop();
  server.Flush();
  const serve::ServerStats stats = server.stats();
  server.Stop();
  if (!server.last_error().ok()) {
    std::fprintf(stderr, "FATAL: serving error: %s\n",
                 server.last_error().ToString().c_str());
    return 1;
  }
  std::printf("\nstats: %s\n", stats.ToJson().c_str());
  return 0;
}

/// Network client mode: the replay loop, but every batch is a binary POST
/// against a running ingest service (429s retried with Retry-After).
int RunNetworkClient(const Args& args,
                     const pipeline::TransactionStream& stream) {
  serve::net::HttpClient client;
  const Status conn = client.Connect(args.connect_port);
  if (!conn.ok()) {
    std::fprintf(stderr, "connect to 127.0.0.1:%d failed: %s\n",
                 args.connect_port, conn.ToString().c_str());
    return 1;
  }
  const std::string token = args.token.empty() ? "devtoken" : args.token;
  // With --trace-sample, every POST carries a client-minted traceparent —
  // the server continues the context through its queue into the tick that
  // confirms the batch's cluster.
  obs::TraceSampler sampler(args.trace_sample,
                            serve::TracePolicy{}.sample_seed);

  std::vector<graph::TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  const auto wall_start = std::chrono::steady_clock::now();
  const double stream_start = ordered.empty() ? 0 : ordered.front().time;
  size_t sent = 0, batches = 0;
  for (size_t pos = 0; pos < ordered.size(); pos += args.batch_size) {
    const size_t n = std::min(args.batch_size, ordered.size() - pos);
    std::vector<graph::TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + n));
    if (args.rate > 0) {
      const double due_s = (batch.back().time - stream_start) / args.rate;
      std::this_thread::sleep_until(
          wall_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(due_s)));
    }
    const obs::SpanContext trace =
        args.trace_sample > 0 ? sampler.StartTrace() : obs::SpanContext{};
    auto resp = client.PostBatchWithRetry(batch, token,
                                          /*max_retries=*/1000,
                                          /*max_wait_seconds=*/1.0, trace);
    if (!resp.ok()) {
      std::fprintf(stderr, "POST /v1/ingest failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (resp.value().status != 200) {
      std::fprintf(stderr, "ingest refused (HTTP %d): %s\n",
                   resp.value().status, resp.value().body.c_str());
      return 1;
    }
    sent += n;
    ++batches;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  std::printf("sent %zu edges in %zu batches over %.2fs (%.0f edges/s)\n",
              sent, batches, wall_s, wall_s > 0 ? sent / wall_s : 0.0);

  auto stats = client.Get("/v1/stats");
  if (stats.ok() && stats.value().status == 200) {
    std::printf("\nserver stats: %s\n", stats.value().body.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.listen_port >= 0 && args.connect_port >= 0) {
    std::fprintf(stderr, "--listen-port and --connect are exclusive\n");
    return 2;
  }
  if (args.follow_port >= 0 &&
      (args.listen_port < 0 || args.wal_dir.empty())) {
    std::fprintf(stderr,
                 "--follow requires --listen-port (to serve /v1/promote) "
                 "and --wal-dir (to persist replicated frames)\n");
    return 2;
  }

  // --- Stream ---
  pipeline::TransactionConfig tcfg;
  tcfg.num_buyers = args.buyers;
  tcfg.num_items = args.items;
  tcfg.days = args.days;
  tcfg.num_rings = args.rings;
  tcfg.seed = args.seed;
  const auto stream = pipeline::GenerateTransactions(tcfg);
  std::printf("stream: %zu purchases over %d days, %d rings, %zu seeds\n",
              stream.edges.size(), args.days, args.rings,
              stream.seeds.size());

  // Client mode needs no server of its own — the stream above is the
  // workload, the service across the socket is the server.
  if (args.connect_port >= 0) return RunNetworkClient(args, stream);

  // --- Server ---
  serve::ServerConfig cfg;
  if (!ParseEngine(args.engine, &cfg.detect.engine)) {
    std::fprintf(stderr, "unknown engine: %s\n", args.engine.c_str());
    return 2;
  }
  cfg.detect.window_days = args.window_days;
  cfg.detect.lp.max_iterations = args.iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = args.tick_every;
  cfg.tick.warm_start = args.warm;
  cfg.tick.incremental = args.incremental;
  cfg.tick.cold_refresh_every_ticks = args.refresh;
  cfg.resilience.tick_deadline_seconds = args.tick_deadline;
  cfg.reshard.auto_rebalance = args.reshard_auto;
  cfg.reshard.grow_edges_per_shard = args.reshard_grow;
  cfg.reshard.shrink_edges_per_shard = args.reshard_shrink;
  cfg.reshard.min_shards = args.reshard_min;
  cfg.reshard.max_shards = args.reshard_max;
  cfg.reshard.cooldown_ticks = args.reshard_cooldown;
  cfg.checkpoint.dir = args.checkpoint_dir;
  cfg.checkpoint.every_ticks = args.checkpoint_every;
  cfg.durability.dir = args.wal_dir;
  cfg.durability.fsync_every_batches = args.fsync_every;
  cfg.durability.fsync_interval_ms = args.fsync_interval_ms;
  cfg.trace.sample_rate = args.trace_sample;
  cfg.trace.recorder_ticks = args.trace_ticks;
  if (!args.trace_out.empty() && cfg.trace.recorder_ticks == 0) {
    cfg.trace.recorder_ticks = 64;  // the export needs retained ticks
  }
  prof::PhaseProfiler profiler;
  if (args.profile) cfg.profiler = &profiler;

  if (!args.failpoints.empty()) {
    const Status armed =
        fail::FailpointRegistry::Global().Parse(args.failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --failpoints spec: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
    std::printf("failpoints armed: %s\n", args.failpoints.c_str());
  }

  if (args.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  if (args.shards > 1) {
    std::printf("sharded fleet: %d shards (entities hash-partitioned, "
                "components detected on their owner shard)\n",
                args.shards);
  }
  std::unique_ptr<serve::Server> server = serve::MakeServer(cfg, args.shards);
  const int rc = args.listen_port >= 0
                     ? RunNetworkServe(*server, args)
                     : RunReplay(*server, args, stream, profiler);

  // Chrome-trace export of whatever the flight recorder retained — one
  // viewer row per tick, spans nested by time containment.
  if (!args.trace_out.empty()) {
    const obs::FlightRecorder* rec = server->flight_recorder();
    if (rec == nullptr) {
      std::fprintf(stderr, "--trace-out: flight recorder disabled\n");
    } else {
      prof::TraceRecorder chrome;
      rec->ExportChromeTrace(&chrome);
      const Status written = chrome.WriteFile(args.trace_out);
      if (written.ok()) {
        std::printf("trace: %zu events -> %s (load in chrome://tracing)\n",
                    chrome.num_events(), args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "--trace-out write failed: %s\n",
                     written.ToString().c_str());
      }
    }
  }
  return rc;
}
