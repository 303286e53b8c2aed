// Streaming serving benchmark: warm-started incremental ticks vs a cold
// from-scratch pipeline run per tick on the scaled TaoBao stream.
//
// Three servers replay the same micro-batched stream at the same cadence:
// cold (every window solved from singleton labels), warm (previous tick's
// labels carried forward through the entity ids), and warm with a weekly
// cold refresh. Warm ticks converge in a fraction of the iterations; pure
// warm slowly coarsens label granularity (warm LP merges communities but
// never splits them), which the refresh mode counters — the AvgF1 column
// makes that tradeoff visible. Output ends with machine-readable
// tick-latency JSON blobs (p50/p99 wall seconds, warm vs cold iteration
// counts) for CI tracking.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "bench_common.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/server.h"
#include "serve/wal.h"

namespace {

using namespace glp;

struct ModeResult {
  serve::ServerStats stats;
  double total_wall = 0;       // sum of tick wall seconds
  double total_simulated = 0;  // sum of LP simulated (device) seconds
  int64_t total_iterations = 0;
  int64_t ticks = 0;
  double f1_sum = 0;  // confirmed-cluster F1, summed per tick
};

ModeResult ReplayStream(const pipeline::TransactionStream& stream,
                        const bench::BenchFlags& flags, bool warm,
                        int64_t refresh_every,
                        obs::MetricRegistry* metrics = nullptr,
                        const serve::TracePolicy* trace = nullptr) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = flags.iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = warm;
  cfg.tick.cold_refresh_every_ticks = refresh_every;
  cfg.metrics = metrics;
  if (trace != nullptr) cfg.trace = *trace;

  ModeResult out;
  serve::StreamServer server(cfg);
  server.Subscribe([&](const serve::TickResult& t) {
    out.total_wall += t.tick_wall_seconds;
    out.total_simulated += t.detection.lp.simulated_seconds;
    out.total_iterations += t.detection.lp.iterations;
    ++out.ticks;
    out.f1_sum += t.detection.confirmed_metrics.F1();
  });
  GLP_CHECK(server.Start().ok());

  std::vector<graph::TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  const size_t batch_size = 4000;
  for (size_t pos = 0; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    std::vector<graph::TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + n));
    GLP_CHECK(server.Ingest(std::move(batch)));
  }
  server.Flush();
  out.stats = server.stats();
  server.Stop();
  GLP_CHECK(server.last_error().ok()) << server.last_error().ToString();
  return out;
}

/// A multi-tenant stream: several independent regional streams unioned with
/// offset entity-id ranges. Shard scale-out parallelizes across connected
/// components, and one organic stream is dominated by a single giant
/// component (DESIGN.md §4.9) — the multi-tenant shape is the workload
/// where sharding pays, and the honest one to benchmark it on.
struct MultiTenantStream {
  std::vector<graph::TimedEdge> edges;  // canonical order
  std::vector<graph::VertexId> seeds;
};

/// `burst_days` > 0 compresses each tenant's activity into a burst of that
/// length, placed `stagger_days` apart — the bursty multi-tenant shape
/// (most tenants quiet at any tick) that the incremental serve path is
/// built for. 0 keeps every tenant continuously active over 40 days.
MultiTenantStream MakeMultiTenantStream(int tenants, double scale,
                                        uint64_t seed, int burst_days = 0,
                                        double stagger_days = 0) {
  MultiTenantStream out;
  graph::VertexId offset = 0;
  for (int t = 0; t < tenants; ++t) {
    pipeline::TransactionConfig tc;
    tc.num_buyers = static_cast<uint32_t>(2500 * scale);
    tc.num_items = static_cast<uint32_t>(700 * scale);
    tc.days = burst_days > 0 ? burst_days : 40;
    tc.num_rings = 8;
    tc.seed = seed + static_cast<uint64_t>(t) * 1000003;
    const auto s = pipeline::GenerateTransactions(tc);
    const double shift = burst_days > 0 ? stagger_days * t : 0;
    for (const graph::TimedEdge& e : s.edges) {
      out.edges.push_back({e.src + offset, e.dst + offset, e.time + shift});
    }
    for (graph::VertexId v : s.seeds) out.seeds.push_back(v + offset);
    offset += s.num_entities();
  }
  std::sort(out.edges.begin(), out.edges.end(), graph::CanonicalEdgeLess);
  return out;
}

/// Per-tick series for the incremental-serving comparison: steady-state
/// averages need the tail ticks alone, not run totals.
struct TickSeries {
  serve::ServerStats stats;
  std::vector<double> wall;  // tick wall seconds, in tick order
  std::vector<double> sim;   // LP simulated (device) seconds per tick
  int64_t total_iterations = 0;

  double SteadyAvg(const std::vector<double>& xs, size_t from) const {
    if (xs.size() <= from) return 0;
    double s = 0;
    for (size_t i = from; i < xs.size(); ++i) s += xs[i];
    return s / static_cast<double>(xs.size() - from);
  }
};

TickSeries ReplayTenantStream(const MultiTenantStream& stream, int iterations,
                              bool warm, bool incremental) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = warm;
  cfg.tick.incremental = incremental;
  cfg.tick.cold_refresh_every_ticks = 0;  // pure modes: no weekly refresh

  TickSeries out;
  serve::StreamServer server(cfg);
  server.Subscribe([&](const serve::TickResult& t) {
    out.wall.push_back(t.tick_wall_seconds);
    out.sim.push_back(t.detection.lp.simulated_seconds);
    out.total_iterations += t.detection.lp.iterations;
  });
  GLP_CHECK(server.Start().ok());
  const size_t batch_size = 4000;
  for (size_t pos = 0; pos < stream.edges.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, stream.edges.size() - pos);
    std::vector<graph::TimedEdge> batch(
        stream.edges.begin() + static_cast<ptrdiff_t>(pos),
        stream.edges.begin() + static_cast<ptrdiff_t>(pos + n));
    GLP_CHECK(server.Ingest(std::move(batch)));
  }
  server.Flush();
  out.stats = server.stats();
  server.Stop();
  GLP_CHECK(server.last_error().ok()) << server.last_error().ToString();
  return out;
}

struct ShardResult {
  serve::ServerStats stats;
  double total_tick_wall = 0;
  double total_tick_device = 0;  // per-tick max-over-owners simulated time
  int64_t ticks = 0;
};

ShardResult ReplaySharded(const MultiTenantStream& stream, int shards,
                          int iterations) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  // The GLP (GPU cost-model) engine: each owner shard models its own
  // device, and TickResult reports the fleet's per-tick device time as the
  // max over owners — the critical path of the parallel detection fan-out.
  // That simulated metric is the scale-out signal; host wall time on a
  // small-core CI box mostly measures the serial replay harness.
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = false;  // cold ticks: shard counts do identical LP work

  ShardResult out;
  serve::StreamServer server(cfg, shards);
  server.Subscribe([&](const serve::TickResult& t) {
    out.total_tick_wall += t.tick_wall_seconds;
    out.total_tick_device += t.detection.lp.simulated_seconds;
    ++out.ticks;
  });
  GLP_CHECK(server.Start().ok());
  const size_t batch_size = 4000;
  for (size_t pos = 0; pos < stream.edges.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, stream.edges.size() - pos);
    std::vector<graph::TimedEdge> batch(
        stream.edges.begin() + static_cast<ptrdiff_t>(pos),
        stream.edges.begin() + static_cast<ptrdiff_t>(pos + n));
    GLP_CHECK(server.Ingest(std::move(batch)));
  }
  server.Flush();
  out.stats = server.stats();
  server.Stop();
  GLP_CHECK(server.last_error().ok()) << server.last_error().ToString();
  return out;
}

// --- Elastic resharding (DESIGN.md §4.14) ---
//
// One live Resize() halfway through the replay. Measures what a resize
// costs the serving path: the migration pause (Resize quiesces detection,
// re-partitions windows/cursors/trackers, resumes) and whether per-tick
// latency recovered on the new fleet shape.
struct ReshardResult {
  int from = 0;
  int to = 0;
  int64_t ticks_before = 0;
  int64_t ticks_after = 0;
  double avg_tick_wall_before = 0;
  double avg_tick_wall_after = 0;
  double migration_pause_seconds = 0;
};

ReshardResult ReplayReshard(const MultiTenantStream& stream, int from, int to,
                            int iterations) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = false;

  ReshardResult out;
  out.from = from;
  out.to = to;
  bool resized = false;
  double wall_before = 0, wall_after = 0;
  serve::StreamServer server(cfg, from);
  server.Subscribe([&](const serve::TickResult& t) {
    if (resized) {
      wall_after += t.tick_wall_seconds;
      ++out.ticks_after;
    } else {
      wall_before += t.tick_wall_seconds;
      ++out.ticks_before;
    }
  });
  GLP_CHECK(server.Start().ok());
  const size_t batch_size = 4000;
  const size_t half_edges = stream.edges.size() / 2;
  for (size_t pos = 0; pos < stream.edges.size(); pos += batch_size) {
    if (!resized && pos >= half_edges) {
      // Drain the queue first so the pause measures the migration itself,
      // not the detection backlog in front of it.
      server.Flush();
      const auto t0 = std::chrono::steady_clock::now();
      GLP_CHECK(server.Resize(to).ok());
      out.migration_pause_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      resized = true;
    }
    const size_t n = std::min(batch_size, stream.edges.size() - pos);
    std::vector<graph::TimedEdge> batch(
        stream.edges.begin() + static_cast<ptrdiff_t>(pos),
        stream.edges.begin() + static_cast<ptrdiff_t>(pos + n));
    GLP_CHECK(server.Ingest(std::move(batch)));
  }
  server.Flush();
  server.Stop();
  GLP_CHECK(server.last_error().ok()) << server.last_error().ToString();
  out.avg_tick_wall_before =
      out.ticks_before > 0 ? wall_before / static_cast<double>(out.ticks_before)
                           : 0;
  out.avg_tick_wall_after =
      out.ticks_after > 0 ? wall_after / static_cast<double>(out.ticks_after)
                          : 0;
  return out;
}

// --- Network ingest load (DESIGN.md §4.11) ---
//
// One IngestService over a single warm StreamServer, driven by `tenants`
// concurrent client connections — one per tenant, each replaying its own
// Zipf-sized stream (tenant k carries ~1/k of the head tenant's edges, the
// canonical skew of real multi-tenant fleets). Measures wire-path ingest
// throughput and per-POST latency; 429s (rate-limit or queue shed) are
// retried with a capped backoff and counted.
struct NetloadResult {
  int tenants = 0;
  size_t total_edges = 0;
  size_t accepted_edges = 0;
  int64_t rejected_429 = 0;
  double wall_seconds = 0;
  double edges_per_sec = 0;
  double post_p50_ms = 0;
  double post_p99_ms = 0;
  serve::ServerStats stats;
};

NetloadResult RunNetload(const bench::BenchFlags& flags, int tenants) {
  NetloadResult out;
  out.tenants = tenants;

  // Zipf-sized per-tenant streams over disjoint entity ranges.
  std::vector<std::vector<graph::TimedEdge>> streams(
      static_cast<size_t>(tenants));
  std::vector<graph::VertexId> seeds;
  graph::VertexId offset = 0;
  for (int t = 0; t < tenants; ++t) {
    pipeline::TransactionConfig tc;
    const double zipf = 1.0 / (t + 1);
    tc.num_buyers = static_cast<uint32_t>(
        std::max(60.0, 3000.0 * flags.scale * zipf));
    tc.num_items = std::max<uint32_t>(20, tc.num_buyers / 4);
    tc.days = 40;
    tc.num_rings = 2;
    tc.seed = flags.seed + static_cast<uint64_t>(t) * 7919;
    const auto s = pipeline::GenerateTransactions(tc);
    auto& mine = streams[static_cast<size_t>(t)];
    mine.reserve(s.edges.size());
    for (const graph::TimedEdge& e : s.edges) {
      mine.push_back({e.src + offset, e.dst + offset, e.time});
    }
    std::sort(mine.begin(), mine.end(), graph::CanonicalEdgeLess);
    for (graph::VertexId v : s.seeds) seeds.push_back(v + offset);
    offset += s.num_entities();
    out.total_edges += mine.size();
  }

  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kGlp;
  cfg.detect.lp.max_iterations = flags.iterations;
  cfg.detect.lp.stop_when_stable = true;
  cfg.seeds = seeds;
  cfg.tick.every_days = 1.0;
  cfg.tick.warm_start = true;
  std::unique_ptr<serve::Server> server = serve::MakeServer(cfg, 1);
  GLP_CHECK(server->Start().ok());

  std::vector<serve::net::TenantPolicy> policies(
      static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    const std::string id = std::to_string(t);
    policies[static_cast<size_t>(t)].name = "t" + id;
    policies[static_cast<size_t>(t)].token = "tok" + id;
  }
  serve::net::IngestService::Options opts;
  opts.max_connections = tenants + 8;
  serve::net::IngestService service(server.get(), std::move(policies), opts);
  GLP_CHECK(service.Start(0));
  const int port = service.port();

  std::vector<std::vector<double>> latencies(static_cast<size_t>(tenants));
  std::atomic<int64_t> rejected_429{0};
  std::atomic<size_t> accepted_edges{0};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    clients.emplace_back([&, t] {
      serve::net::HttpClient client;
      if (!client.Connect(port).ok()) return;
      const std::string id = std::to_string(t);
      const std::string token = "tok" + id;
      const auto& mine = streams[static_cast<size_t>(t)];
      auto& lat = latencies[static_cast<size_t>(t)];
      const size_t batch_size = 500;
      for (size_t pos = 0; pos < mine.size(); pos += batch_size) {
        const size_t n = std::min(batch_size, mine.size() - pos);
        const std::vector<graph::TimedEdge> batch(
            mine.begin() + static_cast<ptrdiff_t>(pos),
            mine.begin() + static_cast<ptrdiff_t>(pos + n));
        for (;;) {
          const auto p0 = std::chrono::steady_clock::now();
          const auto resp = client.PostBatch(batch, token);
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - p0)
                                .count();
          if (!resp.ok()) return;  // connection died; drop this tenant
          if (resp.value().status == 429) {
            rejected_429.fetch_add(1, std::memory_order_relaxed);
            const double wait =
                std::min(std::max(resp.value().retry_after, 0.001), 0.05);
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            continue;
          }
          if (resp.value().status != 200) return;
          lat.push_back(ms);
          accepted_edges.fetch_add(n, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();

  server->Flush();
  out.stats = server->stats();
  service.Stop();
  server->Stop();
  GLP_CHECK(server->last_error().ok()) << server->last_error().ToString();

  out.rejected_429 = rejected_429.load();
  out.accepted_edges = accepted_edges.load();
  out.edges_per_sec = out.wall_seconds > 0
                          ? static_cast<double>(out.accepted_edges) /
                                out.wall_seconds
                          : 0;
  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    out.post_p50_ms = all[all.size() / 2];
    out.post_p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return out;
}

// --- WAL ingest overhead (DESIGN.md §4.13) ---
//
// Pure append-path measurement: the tick cadence is pushed beyond the
// stream so no detection ever fires, and the wall clock covers Ingest +
// Flush alone. The only difference between arms is the durability policy,
// so the delta is exactly what a durable WAL costs per admitted batch:
// encode + buffered write, plus an fsync every `fsync_every` batches.
struct WalOverheadResult {
  size_t edges = 0;
  double ingest_wall = 0;
  double edges_per_sec = 0;
  uint64_t fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t segments = 0;
};

WalOverheadResult ReplayWalIngest(const pipeline::TransactionStream& stream,
                                  const std::string& wal_dir,
                                  int fsync_every) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = 30;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.seeds = stream.seeds;
  cfg.tick.every_days = 1e9;  // never crossed: ingest path only
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    cfg.durability.dir = wal_dir;
    cfg.durability.fsync_every_batches = fsync_every;
  }

  serve::StreamServer server(cfg);
  GLP_CHECK(server.Start().ok());
  std::vector<graph::TimedEdge> ordered = stream.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  WalOverheadResult out;
  out.edges = ordered.size();
  // Small batches stress the per-append (and per-fsync) fixed cost.
  const size_t batch_size = 500;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t pos = 0; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    std::vector<graph::TimedEdge> batch(
        ordered.begin() + static_cast<ptrdiff_t>(pos),
        ordered.begin() + static_cast<ptrdiff_t>(pos + n));
    GLP_CHECK(server.Ingest(std::move(batch)));
  }
  server.Flush();
  out.ingest_wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (server.wal() != nullptr) {
    const serve::wal::WalStats ws = server.wal()->stats();
    out.fsyncs = ws.fsyncs;
    out.wal_bytes = ws.bytes_appended;
    out.segments = ws.segments;
  }
  server.Stop();
  GLP_CHECK(server.last_error().ok()) << server.last_error().ToString();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  out.edges_per_sec =
      out.ingest_wall > 0
          ? static_cast<double>(out.edges) / out.ingest_wall
          : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-out [path]: machine-readable results for the CI perf trajectory
  // (default BENCH_stream_serve.json). Stripped before BenchFlags parsing.
  std::string json_path;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json-out")) {
      json_path = "BENCH_stream_serve.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (!std::strncmp(argv[i], "--json-out=", 11)) {
      json_path = argv[i] + 11;
    } else {
      kept.push_back(argv[i]);
    }
  }
  const auto flags =
      bench::BenchFlags::Parse(static_cast<int>(kept.size()), kept.data());
  const auto stream = pipeline::GenerateTransactions(
      bench::TaobaoStreamConfig(flags.scale, flags.seed));
  std::printf("=== Streaming serving: warm-started ticks vs from-scratch "
              "(scale=%.2f) ===\n\n",
              flags.scale);
  std::printf("stream: %zu purchases over 100 days, 30-day window, "
              "1-day ticks\n\n",
              stream.edges.size());

  struct Mode {
    const char* name;
    bool warm;
    int64_t refresh;
  };
  const Mode modes[] = {{"cold", false, 0},
                        {"warm", true, 0},
                        {"warm+wk", true, 7}};

  std::vector<ModeResult> results;
  for (const Mode& m : modes) {
    results.push_back(ReplayStream(stream, flags, m.warm, m.refresh));
  }

  bench::PrintHeader({"Mode", "Ticks", "AvgIters", "SimTime", "WallTime",
                      "Tick-p50", "Tick-p99", "AvgF1"},
                     12);
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& m = results[i];
    std::printf("%-12s%-12lld%-12.1f%-12s%-12s%-12s%-12s%-12.3f\n",
                modes[i].name, static_cast<long long>(m.ticks),
                m.ticks == 0
                    ? 0.0
                    : static_cast<double>(m.total_iterations) / m.ticks,
                bench::Duration(m.total_simulated).c_str(),
                bench::Duration(m.total_wall).c_str(),
                bench::Duration(m.stats.tick_p50_seconds).c_str(),
                bench::Duration(m.stats.tick_p99_seconds).c_str(),
                m.ticks == 0 ? 0.0 : m.f1_sum / static_cast<double>(m.ticks));
  }

  // Metrics overhead: re-run the warm replay with an external registry, a
  // live HTTP endpoint, and a scraper polling the text exposition every
  // 25 ms — the worst realistic scrape load — then compare per-tick wall
  // time against the plain warm run above.
  obs::MetricRegistry registry;
  obs::HttpEndpoint endpoint(&registry);
  const bool endpoint_up = endpoint.Start(0);
  std::atomic<bool> stop_scraper{false};
  std::atomic<int64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      const std::string text = registry.PrometheusText();
      if (!text.empty()) scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  const ModeResult scraped = ReplayStream(stream, flags, /*warm=*/true,
                                          /*refresh_every=*/0, &registry);
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  endpoint.Stop();

  const ModeResult& cold = results[0];
  const ModeResult& warm = results[1];
  const double warm_avg_tick =
      warm.ticks > 0 ? warm.total_wall / static_cast<double>(warm.ticks) : 0;
  const double scraped_avg_tick =
      scraped.ticks > 0 ? scraped.total_wall / static_cast<double>(scraped.ticks)
                        : 0;
  const double overhead_pct =
      warm_avg_tick > 0 ? 100.0 * (scraped_avg_tick / warm_avg_tick - 1.0) : 0;
  std::printf(
      "\nmetrics overhead: warm avg tick %s plain vs %s scraped "
      "(%+.2f%%, %lld scrapes%s)\n",
      bench::Duration(warm_avg_tick).c_str(),
      bench::Duration(scraped_avg_tick).c_str(), overhead_pct,
      static_cast<long long>(scrapes.load()),
      endpoint_up ? ", /metrics endpoint live" : "");

  // Tracing overhead: same methodology as the metrics-overhead mode above —
  // re-run the warm replay with sampled tracing plus the flight recorder
  // enabled and compare per-tick wall time against the plain warm run. The
  // budget is <2%: spans are a handful of clock reads and small string
  // appends per tick, so sampled tracing must stay in the noise floor.
  serve::TracePolicy trace_policy;
  trace_policy.sample_rate = 0.25;
  trace_policy.recorder_ticks = 64;
  const ModeResult traced =
      ReplayStream(stream, flags, /*warm=*/true, /*refresh_every=*/0,
                   /*metrics=*/nullptr, &trace_policy);
  const double warm_avg_for_trace =
      warm_avg_tick;  // same baseline as the metrics comparison
  const double traced_avg_tick =
      traced.ticks > 0 ? traced.total_wall / static_cast<double>(traced.ticks)
                       : 0;
  const double trace_overhead_pct =
      warm_avg_for_trace > 0
          ? 100.0 * (traced_avg_tick / warm_avg_for_trace - 1.0)
          : 0;
  constexpr double kTraceOverheadBudgetPct = 2.0;
  std::printf(
      "tracing overhead: warm avg tick %s plain vs %s traced "
      "(%+.2f%%, sample_rate=%.2f recorder_ticks=%lld) — budget <%.0f%%: %s\n",
      bench::Duration(warm_avg_for_trace).c_str(),
      bench::Duration(traced_avg_tick).c_str(), trace_overhead_pct,
      trace_policy.sample_rate,
      static_cast<long long>(trace_policy.recorder_ticks),
      kTraceOverheadBudgetPct,
      trace_overhead_pct < kTraceOverheadBudgetPct ? "PASS" : "FAIL");
  const double sim_speedup = warm.total_simulated > 0
                                 ? cold.total_simulated / warm.total_simulated
                                 : 0;
  const double wall_speedup =
      warm.total_wall > 0 ? cold.total_wall / warm.total_wall : 0;
  std::printf("\nwarm-start amortized speedup: %.2fx simulated, %.2fx wall\n",
              sim_speedup, wall_speedup);
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("%s stats: %s\n", modes[i].name,
                results[i].stats.ToJson().c_str());
  }
  std::printf(
      "\n(Warm ticks seed LP with the previous window's labels; with "
      "stop_when_stable,\n quiescent windows re-converge in a couple of "
      "iterations instead of re-solving\n from singletons. Every tick still "
      "equals a one-shot pipeline run given the\n same initial labels — see "
      "tests/serve_test.cc.)\n");

  // --- Shard scale-out: an N-shard StreamServer over a multi-tenant stream ---
  const auto tenants = MakeMultiTenantStream(/*tenants=*/16, flags.scale,
                                             flags.seed);
  std::printf(
      "\n=== Shard scale-out: cold glp-engine ticks, 16-tenant stream "
      "(%zu edges) ===\n\n",
      tenants.edges.size());
  const int shard_counts[] = {1, 2, 4};
  std::vector<ShardResult> sharded;
  for (const int n : shard_counts) {
    sharded.push_back(ReplaySharded(tenants, n, flags.iterations));
  }
  bench::PrintHeader({"Shards", "Ticks", "DeviceTime", "WallTime", "Tick-p50",
                      "Speedup"},
                     12);
  for (size_t i = 0; i < sharded.size(); ++i) {
    const ShardResult& r = sharded[i];
    std::printf(
        "%-12d%-12lld%-12s%-12s%-12s%-12s\n", shard_counts[i],
        static_cast<long long>(r.ticks),
        bench::Duration(r.total_tick_device).c_str(),
        bench::Duration(r.total_tick_wall).c_str(),
        bench::Duration(r.stats.tick_p50_seconds).c_str(),
        bench::Speedup(sharded[0].total_tick_device, r.total_tick_device)
            .c_str());
  }
  const double shard4 =
      sharded.back().total_tick_device > 0
          ? sharded[0].total_tick_device / sharded.back().total_tick_device
          : 0;
  std::printf(
      "\nshard tick-throughput speedup at 4 shards: %.2fx (device time — the\n"
      " per-tick critical path across owner shards, each shard one device).\n"
      "(Components are detected in parallel across owner shards; an N-shard\n"
      " replay emits exactly the 1-shard confirmed clusters — see\n"
      " tests/shard_test.cc.)\n",
      shard4);

  // --- Incremental serving: bursty 16-tenant stream (DESIGN.md §4.10) ---
  // Tenant activity arrives in staggered bursts, so at any steady-state tick
  // most tenants' components are untouched by the window advance. Warm-only
  // still runs LP over every window edge each tick; incremental runs LP on
  // the dirty components alone and reuses clean clusters verbatim (output
  // byte-identical to a cold replay — tests/serve_test.cc).
  const int even_iters = std::max(2, flags.iterations & ~1);
  const auto bursty = MakeMultiTenantStream(/*tenants=*/16, flags.scale,
                                            flags.seed, /*burst_days=*/3,
                                            /*stagger_days=*/6.0);
  std::printf(
      "\n=== Incremental serving: bursty 16-tenant stream (%zu edges, "
      "3-day bursts 6 days apart) ===\n\n",
      bursty.edges.size());
  struct IncMode {
    const char* name;
    const char* json_key;
    bool warm;
    bool incremental;
  };
  const IncMode inc_modes[] = {{"cold", "cold", false, false},
                               {"warm", "warm", true, false},
                               {"warm+incr", "warm_incremental", true, true}};
  // Steady state: the window is full and the incremental path is past its
  // first-tick rebuild.
  const size_t steady_from = 31;
  std::vector<TickSeries> inc_results;
  for (const IncMode& m : inc_modes) {
    inc_results.push_back(
        ReplayTenantStream(bursty, even_iters, m.warm, m.incremental));
  }
  bench::PrintHeader({"Mode", "Ticks", "AvgIters", "SimTime", "WallTime",
                      "Steady-sim", "Steady-wall", "Reused"},
                     12);
  for (size_t i = 0; i < inc_results.size(); ++i) {
    const TickSeries& r = inc_results[i];
    double total_wall = 0, total_sim = 0;
    for (double w : r.wall) total_wall += w;
    for (double s : r.sim) total_sim += s;
    const double ticks = static_cast<double>(r.wall.size());
    std::printf(
        "%-12s%-12zu%-12.1f%-12s%-12s%-12s%-12s%-12lld\n", inc_modes[i].name,
        r.wall.size(), ticks == 0 ? 0.0 : r.total_iterations / ticks,
        bench::Duration(total_sim).c_str(),
        bench::Duration(total_wall).c_str(),
        bench::Duration(r.SteadyAvg(r.sim, steady_from)).c_str(),
        bench::Duration(r.SteadyAvg(r.wall, steady_from)).c_str(),
        static_cast<long long>(r.stats.reused_clusters));
  }
  const TickSeries& inc_warm = inc_results[1];
  const TickSeries& inc_incr = inc_results[2];
  const double inc_sim_speedup =
      inc_incr.SteadyAvg(inc_incr.sim, steady_from) > 0
          ? inc_warm.SteadyAvg(inc_warm.sim, steady_from) /
                inc_incr.SteadyAvg(inc_incr.sim, steady_from)
          : 0;
  const double inc_wall_speedup =
      inc_incr.SteadyAvg(inc_incr.wall, steady_from) > 0
          ? inc_warm.SteadyAvg(inc_warm.wall, steady_from) /
                inc_incr.SteadyAvg(inc_incr.wall, steady_from)
          : 0;
  std::printf(
      "\nsteady-state incremental speedup vs warm-only: %.2fx simulated, "
      "%.2fx wall\n(LP touches dirty components only; %lld clusters reused "
      "verbatim across the replay,\n last tick had %lld dirty components. "
      "Same confirmed clusters as a cold replay.)\n",
      inc_sim_speedup, inc_wall_speedup,
      static_cast<long long>(inc_incr.stats.reused_clusters),
      static_cast<long long>(inc_incr.stats.last_dirty_components));

  // --- Network ingest: one connection per Zipf-sized tenant ---
  const int net_tenants = 64;
  std::printf(
      "\n=== Network ingest load: %d tenants, %d concurrent connections "
      "(POST /v1/ingest) ===\n\n",
      net_tenants, net_tenants);
  const NetloadResult net = RunNetload(flags, net_tenants);
  bench::PrintHeader({"Tenants", "Edges", "Accepted", "Wall", "Edges/s",
                      "POST-p50", "POST-p99", "429s"},
                     12);
  std::printf("%-12d%-12zu%-12zu%-12s%-12.0f%-12.2f%-12.2f%-12lld\n",
              net.tenants, net.total_edges, net.accepted_edges,
              bench::Duration(net.wall_seconds).c_str(), net.edges_per_sec,
              net.post_p50_ms, net.post_p99_ms,
              static_cast<long long>(net.rejected_429));
  std::printf(
      "\n(Each tenant drives its own keep-alive connection; tenant k's "
      "stream is ~1/k\n the size of tenant 0's. 429s are queue sheds / rate "
      "throttles, retried with\n Retry-After. Server ran %lld ticks during "
      "ingest; per-tenant attribution is\n in glp_serve_tenant_* metrics.)\n",
      static_cast<long long>(net.stats.ticks));

  // --- Durable WAL: ingest-path overhead, WAL off vs on ---
  std::printf(
      "\n=== WAL ingest overhead: append path only, %zu edges in "
      "500-edge batches ===\n\n",
      stream.edges.size());
  const std::string wal_bench_dir =
      (std::filesystem::temp_directory_path() / "glp_bench_wal").string();
  struct WalMode {
    const char* name;
    const char* json_key;
    bool wal;
    int fsync_every;
  };
  const WalMode wal_modes[] = {{"wal-off", "off", false, 1},
                               {"fsync-1", "fsync_every_1", true, 1},
                               {"group-8", "group_commit_8", true, 8}};
  std::vector<WalOverheadResult> wal_results;
  for (const WalMode& m : wal_modes) {
    wal_results.push_back(ReplayWalIngest(
        stream, m.wal ? wal_bench_dir : std::string(), m.fsync_every));
  }
  bench::PrintHeader({"Mode", "Wall", "Edges/s", "Overhead", "Fsyncs",
                      "WAL-MB"},
                     12);
  const double wal_off_rate = wal_results[0].edges_per_sec;
  for (size_t i = 0; i < wal_results.size(); ++i) {
    const WalOverheadResult& r = wal_results[i];
    const double overhead_vs_off =
        (i == 0 || r.edges_per_sec <= 0)
            ? 0.0
            : 100.0 * (wal_off_rate / r.edges_per_sec - 1.0);
    char overhead_str[32];
    std::snprintf(overhead_str, sizeof(overhead_str), "%+.1f%%",
                  overhead_vs_off);
    std::printf("%-12s%-12s%-12.0f%-12s%-12lld%-12.2f\n", wal_modes[i].name,
                bench::Duration(r.ingest_wall).c_str(), r.edges_per_sec,
                i == 0 ? "-" : overhead_str,
                static_cast<long long>(r.fsyncs),
                static_cast<double>(r.wal_bytes) / (1024.0 * 1024.0));
  }
  std::printf(
      "\n(Ticks disabled: the wall clock isolates admission + WAL append. "
      "fsync-1 is\n the durability default — every acked batch is on disk; "
      "group-8 amortizes the\n sync over 8 batches, the group-commit knob. "
      "Recovery exactness for both is\n asserted in "
      "tests/durability_test.cc.)\n");

  // --- Elastic resharding: live Resize() halfway through the replay ---
  std::printf(
      "\n=== Elastic resharding: one live resize mid-replay, 16-tenant "
      "stream (%zu edges) ===\n\n",
      tenants.edges.size());
  struct ReshardMode {
    const char* name;
    const char* json_key;
    int from;
    int to;
  };
  const ReshardMode reshard_modes[] = {{"grow 2->4", "grow_2_to_4", 2, 4},
                                       {"shrink 4->2", "shrink_4_to_2", 4, 2}};
  std::vector<ReshardResult> reshard_results;
  for (const ReshardMode& m : reshard_modes) {
    reshard_results.push_back(
        ReplayReshard(tenants, m.from, m.to, flags.iterations));
  }
  bench::PrintHeader({"Resize", "Pause", "Ticks-pre", "Tick-pre",
                      "Ticks-post", "Tick-post"},
                     12);
  for (size_t i = 0; i < reshard_results.size(); ++i) {
    const ReshardResult& r = reshard_results[i];
    std::printf("%-12s%-12s%-12lld%-12s%-12lld%-12s\n",
                reshard_modes[i].name,
                bench::Duration(r.migration_pause_seconds).c_str(),
                static_cast<long long>(r.ticks_before),
                bench::Duration(r.avg_tick_wall_before).c_str(),
                static_cast<long long>(r.ticks_after),
                bench::Duration(r.avg_tick_wall_after).c_str());
  }
  std::printf(
      "\n(Pause = Resize() wall time: quiesce detection, re-partition "
      "windows/cursors/\n trackers under the bumped PartitionMap, resume. "
      "The post-resize replay emits\n exactly the uninterrupted confirmed "
      "clusters — tests/reshard_test.cc.)\n");

  // --- Machine-readable results for the CI perf trajectory ---
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"stream_serve\",\n");
    std::fprintf(f, "  \"scale\": %g,\n  \"iterations\": %d,\n", flags.scale,
                 flags.iterations);
    std::fprintf(f, "  \"taobao_modes\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const ModeResult& m = results[i];
      std::fprintf(
          f,
          "    \"%s\": {\"ticks\": %lld, \"avg_iterations\": %g, "
          "\"simulated_seconds\": %g, \"wall_seconds\": %g, "
          "\"tick_p50_seconds\": %g, \"tick_p99_seconds\": %g, "
          "\"avg_f1\": %g}%s\n",
          modes[i].name, static_cast<long long>(m.ticks),
          m.ticks == 0 ? 0.0
                       : static_cast<double>(m.total_iterations) / m.ticks,
          m.total_simulated, m.total_wall, m.stats.tick_p50_seconds,
          m.stats.tick_p99_seconds,
          m.ticks == 0 ? 0.0 : m.f1_sum / static_cast<double>(m.ticks),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"incremental_16tenant\": {\n");
    for (size_t i = 0; i < inc_results.size(); ++i) {
      const TickSeries& r = inc_results[i];
      double total_wall = 0, total_sim = 0;
      for (double w : r.wall) total_wall += w;
      for (double s : r.sim) total_sim += s;
      std::fprintf(
          f,
          "    \"%s\": {\"ticks\": %zu, \"simulated_seconds\": %g, "
          "\"wall_seconds\": %g, \"steady_avg_simulated_seconds\": %g, "
          "\"steady_avg_wall_seconds\": %g, \"tick_p50_seconds\": %g, "
          "\"tick_p99_seconds\": %g, \"reused_clusters\": %lld, "
          "\"last_dirty_components\": %lld},\n",
          inc_modes[i].json_key, r.wall.size(), total_sim, total_wall,
          r.SteadyAvg(r.sim, steady_from), r.SteadyAvg(r.wall, steady_from),
          r.stats.tick_p50_seconds, r.stats.tick_p99_seconds,
          static_cast<long long>(r.stats.reused_clusters),
          static_cast<long long>(r.stats.last_dirty_components));
    }
    std::fprintf(f,
                 "    \"steady_speedup_vs_warm_simulated\": %g,\n"
                 "    \"steady_speedup_vs_warm_wall\": %g\n  },\n",
                 inc_sim_speedup, inc_wall_speedup);
    std::fprintf(f, "  \"shard_scaleout\": {\n");
    for (size_t i = 0; i < sharded.size(); ++i) {
      const ShardResult& r = sharded[i];
      std::fprintf(f,
                   "    \"shards_%d\": {\"ticks\": %lld, "
                   "\"device_seconds\": %g, \"wall_seconds\": %g}%s\n",
                   shard_counts[i], static_cast<long long>(r.ticks),
                   r.total_tick_device, r.total_tick_wall,
                   i + 1 < sharded.size() ? "," : "");
    }
    std::fprintf(f,
                 "  },\n  \"tracing_overhead\": {\n"
                 "    \"sample_rate\": %g, \"recorder_ticks\": %lld,\n"
                 "    \"plain_avg_tick_seconds\": %g, "
                 "\"traced_avg_tick_seconds\": %g,\n"
                 "    \"overhead_pct\": %g, \"budget_pct\": %g\n",
                 trace_policy.sample_rate,
                 static_cast<long long>(trace_policy.recorder_ticks),
                 warm_avg_for_trace, traced_avg_tick, trace_overhead_pct,
                 kTraceOverheadBudgetPct);
    std::fprintf(f, "  },\n  \"netload\": {\n");
    std::fprintf(
        f,
        "    \"tenants\": %d, \"connections\": %d, \"total_edges\": %zu,\n"
        "    \"accepted_edges\": %zu, \"wall_seconds\": %g, "
        "\"edges_per_sec\": %g,\n"
        "    \"post_p50_ms\": %g, \"post_p99_ms\": %g, "
        "\"rejected_429\": %lld, \"ticks\": %lld\n",
        net.tenants, net.tenants, net.total_edges, net.accepted_edges,
        net.wall_seconds, net.edges_per_sec, net.post_p50_ms, net.post_p99_ms,
        static_cast<long long>(net.rejected_429),
        static_cast<long long>(net.stats.ticks));
    std::fprintf(f, "  },\n  \"wal_overhead\": {\n");
    std::fprintf(f, "    \"edges\": %zu, \"batch_size\": 500,\n",
                 wal_results[0].edges);
    for (size_t i = 0; i < wal_results.size(); ++i) {
      const WalOverheadResult& r = wal_results[i];
      const double overhead_vs_off =
          (i == 0 || r.edges_per_sec <= 0)
              ? 0.0
              : 100.0 * (wal_off_rate / r.edges_per_sec - 1.0);
      std::fprintf(f,
                   "    \"%s\": {\"ingest_wall_seconds\": %g, "
                   "\"edges_per_sec\": %g, \"overhead_pct\": %g, "
                   "\"fsyncs\": %lld, \"wal_bytes\": %lld}%s\n",
                   wal_modes[i].json_key, r.ingest_wall, r.edges_per_sec,
                   overhead_vs_off, static_cast<long long>(r.fsyncs),
                   static_cast<long long>(r.wal_bytes),
                   i + 1 < wal_results.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"reshard\": {\n");
    for (size_t i = 0; i < reshard_results.size(); ++i) {
      const ReshardResult& r = reshard_results[i];
      std::fprintf(
          f,
          "    \"%s\": {\"from\": %d, \"to\": %d, "
          "\"migration_pause_seconds\": %g, \"ticks_before\": %lld, "
          "\"avg_tick_wall_before\": %g, \"ticks_after\": %lld, "
          "\"avg_tick_wall_after\": %g}%s\n",
          reshard_modes[i].json_key, r.from, r.to, r.migration_pause_seconds,
          static_cast<long long>(r.ticks_before), r.avg_tick_wall_before,
          static_cast<long long>(r.ticks_after), r.avg_tick_wall_after,
          i + 1 < reshard_results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
