// perfbench_serve — one run of one serving workload.
//
//   perfbench_serve --workload <organic_glp|tenants_sharded|wire_durable>
//                   --seed <n> --seconds <live seconds> --trace <0|1>
//                   --workdir <scratch dir inside the checkout>
//
// A run generates its stream from the seed before any timer starts, then
// drives a server through three phases:
//   1. fill     closed-loop backfill until the first full-window tick is
//               published (wire_durable: crash recovery from a checkpoint
//               plus WAL tail instead), repeated `setup_reps` times;
//   2. live     open-loop replay at the workload's fixed offered rate: a
//               warm-up, then --seconds measured, every operation timed
//               from when it was due;
//   3. catch-up closed-loop burst over one full window.
// It then checks the server's outputs and prints one JSON line: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The traced run repeats the untraced pass, then runs a second pass with
// span collection on and reads stage times from the flight recorder; the
// ratio of the two passes' detect_latency_p50_s is the tracing overhead.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "glp/factory.h"
#include "graph/sliding_window.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "serve/checkpoint.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/wire.h"
#include "serve/server_iface.h"
#include "serve/wal.h"
#include "stats.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace serve = glp::serve;
namespace net = glp::serve::net;
using glp::graph::TimedEdge;
using glp::graph::VertexId;
using Clusters = std::vector<std::vector<VertexId>>;

/// Open-loop seconds replayed at the live rate before the measured live
/// phase: the first ticks after the fill ran up to 2x slower, and a
/// handful of them decided whether a run's p90 was fast or slow.
constexpr double kWarmupSeconds = 3;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (argc % 2 != 1) Die("flags take one value each");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// What the subscriber keeps per published tick.

struct TickRec {
  int64_t key = 0;  ///< window_end / tick_days
  double publish = 0;
  double lp_sim = 0;
  double lp_wall = 0;
  int iterations = 0;
  double f1 = 0;
  double window_vertices = 0;
  double window_edges = 0;
  /// glp_lp_frontier_size sum after this tick: vertex updates LP did.
  double frontier_total = 0;
  uint64_t digest = 0;
  Clusters confirmed;
};

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0x100000001b3ull;
}

uint64_t DiffDigest(int64_t key, const serve::TickResult& t) {
  uint64_t h = Mix(0xcbf29ce484222325ull, static_cast<uint64_t>(key));
  for (const Clusters* side : {&t.new_confirmed, &t.expired_confirmed}) {
    h = Mix(h, side->size());
    for (const auto& members : *side) {
      h = Mix(h, members.size());
      for (VertexId v : members) h = Mix(h, v);
    }
  }
  return h;
}

class TickLog {
 public:
  TickLog(double tick_days, glp::obs::Histogram* frontier)
      : tick_days_(tick_days), frontier_(frontier) {}

  void OnTick(const serve::TickResult& t) {
    TickRec r;
    r.publish = Now();
    r.key = std::llround(t.window_end / tick_days_);
    r.lp_sim = t.detection.lp_seconds;
    r.lp_wall = t.detection.lp_wall_seconds;
    r.iterations = t.detection.lp.iterations;
    r.f1 = t.detection.confirmed_metrics.F1();
    r.window_vertices = static_cast<double>(t.detection.window_vertices);
    r.window_edges = static_cast<double>(t.detection.window_edges);
    r.frontier_total = frontier_ != nullptr ? frontier_->Sum() : 0;
    r.digest = DiffDigest(r.key, t);
    for (const auto& c : t.detection.clusters) {
      if (c.confirmed) r.confirmed.push_back(c.members);
    }
    std::sort(r.confirmed.begin(), r.confirmed.end());
    std::lock_guard<std::mutex> lk(mu_);
    ticks_.push_back(std::move(r));
  }

  std::vector<TickRec> Snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ticks_;
  }

 private:
  const double tick_days_;
  glp::obs::Histogram* const frontier_;
  mutable std::mutex mu_;
  std::vector<TickRec> ticks_;
};

// ---------------------------------------------------------------------------
// Server construction.

std::string EngineName(const serve::ServerConfig& cfg) {
  return glp::lp::MakeEngine(cfg.detect.engine, cfg.detect.variant,
                             cfg.detect.variant_params,
                             cfg.detect.glp_options, nullptr)
      ->name();
}

serve::ServerConfig MakeConfig(const Workload& w, const Stream& s,
                               glp::ThreadPool* pool, bool traced) {
  serve::ServerConfig cfg;
  cfg.detect.window_days = w.window_days;
  cfg.detect.engine = glp::lp::EngineKind::kGlp;
  // A fixed iteration count: with stop_when_stable the count varies with
  // the seed's graph and moved per-tick cost by ~8% between seeds.
  cfg.detect.lp.max_iterations = 10;
  cfg.detect.lp.stop_when_stable = false;
  cfg.seeds = s.truth.seeds;
  cfg.tick.every_days = w.tick_days;
  cfg.tick.warm_start = false;
  cfg.tick.incremental = true;
  // Deep enough that a slow tick never sheds a live send.
  cfg.max_queue_batches = 4096;
  cfg.ground_truth = &s.truth;
  cfg.pool = pool;
  if (traced) {
    cfg.trace.sample_rate = 1.0;
    cfg.trace.recorder_ticks = 1 << 16;
  }
  return cfg;
}

/// Points the WAL and checkpoints at `dir`; checkpoints are written only
/// on request.
void MakeDurable(const Workload& w, const std::string& dir,
                 serve::ServerConfig* cfg) {
  cfg->durability.dir = dir + "/wal";
  cfg->durability.fsync_every_batches = w.fsync_every_batches;
  cfg->durability.fsync_interval_ms = w.fsync_interval_ms;
  cfg->checkpoint.dir = dir + "/ckpt";
  cfg->checkpoint.every_ticks = 1ll << 40;
}

/// A server plus the log its subscriber fills. The log is declared first
/// so it outlives the server's detection thread.
struct Serving {
  std::unique_ptr<TickLog> log;
  std::unique_ptr<serve::Server> server;

  ~Serving() {
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<Serving> MakeServing(const Workload& w,
                                     const serve::ServerConfig& cfg,
                                     const std::string& engine_name) {
  auto out = std::make_unique<Serving>();
  out->server = serve::MakeServer(cfg, w.shards);
  if (out->server == nullptr) Die("MakeServer failed");
  glp::obs::Histogram* frontier = out->server->metrics()->GetHistogram(
      "glp_lp_frontier_size", "Vertices recomputed per iteration",
      {{"engine", engine_name}});
  out->log = std::make_unique<TickLog>(w.tick_days, frontier);
  TickLog* log = out->log.get();
  out->server->Subscribe([log](const serve::TickResult& t) { log->OnTick(t); });
  return out;
}

void IngestAll(serve::Server* server, const std::vector<Send>& sends) {
  for (const Send& s : sends) {
    if (!server->Ingest(s.edges)) Die("Ingest refused a batch");
  }
}

std::vector<net::TenantPolicy> TenantPolicies(int tenants) {
  std::vector<net::TenantPolicy> out(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    out[static_cast<size_t>(t)].name = "t" + std::to_string(t);
    out[static_cast<size_t>(t)].token = "tok" + std::to_string(t);
  }
  return out;
}

/// POSTs one send; returns 429s seen before the 200. A refused POST is
/// retried after 1 ms instead of the server's whole-second Retry-After,
/// so one refusal cannot stall the schedule for a second.
int PostUntilAccepted(net::HttpClient* client, const Send& s) {
  const std::string token = "tok" + std::to_string(s.tenant);
  int refused = 0;
  for (;;) {
    auto resp = client->PostBatch(s.edges, token);
    if (!resp.ok()) Die("POST failed: " + resp.status().ToString());
    if (resp.value().status == 200) return refused;
    if (resp.value().status != 429) {
      Die("POST answered " + std::to_string(resp.value().status) + ": " +
          resp.value().body);
    }
    ++refused;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

size_t EdgesIn(const std::vector<Send>& sends) {
  size_t n = 0;
  for (const Send& s : sends) n += s.edges.size();
  return n;
}

double MaxTime(const std::vector<Send>& sends) {
  double m = 0;
  for (const Send& s : sends) {
    for (const TimedEdge& e : s.edges) m = std::max(m, e.time);
  }
  return m;
}

// ---------------------------------------------------------------------------
// One pass: setup, live, catch-up.

struct Plan {
  std::vector<Send> fill, tail, live, catchup;
  /// Stream days of open-loop replay, warm-up included.
  double live_days = 0;
  /// Live sends due before this many seconds are warm-up: the ticks they
  /// release and their admissions are not measured.
  double warmup_seconds = 0;
  size_t measured_sends = 0;
};

struct PassResult {
  std::vector<double> setup_s;
  OpenLoopLog admit;
  int64_t refused = 0;
  /// Tick key -> absolute due time of the send that first crossed it.
  std::map<int64_t, double> crossing_due;
  double catchup_s = 0;
  double peak_rss_mb = 0;
  std::vector<TickRec> ticks;
  serve::ServerStats stats_before_live, stats_after_live, stats_end;
  std::vector<glp::obs::TickTrace> traces;
  int64_t accepted_edges = 0;  ///< edges the server acknowledged
};

/// Records which tick boundaries `s` crosses (the ticks it releases);
/// `out` is null for warm-up sends, whose ticks are not measured.
void NoteCrossings(const Send& s, double due, double tick_days,
                   int64_t* crossed, std::map<int64_t, double>* out) {
  double m = 0;
  for (const TimedEdge& e : s.edges) m = std::max(m, e.time);
  const auto k = static_cast<int64_t>(std::floor(m / tick_days));
  if (out != nullptr) {
    for (int64_t b = *crossed + 1; b <= k; ++b) (*out)[b] = due;
  }
  *crossed = std::max(*crossed, k);
}

PassResult RunPass(const Workload& w, const Stream& stream, const Plan& plan,
                   glp::ThreadPool* pool, bool traced, int reps,
                   const std::string& prep_dir, const std::string& pass_dir) {
  PassResult out;
  const serve::ServerConfig base = MakeConfig(w, stream, pool, traced);
  const std::string engine = EngineName(base);
  const bool wire = w.connections > 0;

  std::unique_ptr<Serving> sv;
  for (int rep = 0; rep < reps; ++rep) {
    serve::ServerConfig cfg = base;
    if (wire) {
      // Recovery from a copy of the crashed server's checkpoint + WAL, so
      // every repetition replays the same tail. The copy is not timed.
      const std::string rep_dir = pass_dir + "/rep" + std::to_string(rep);
      fs::remove_all(rep_dir);
      fs::create_directories(rep_dir);
      fs::copy(prep_dir, rep_dir, fs::copy_options::recursive);
      MakeDurable(w, rep_dir, &cfg);
    }
    sv.reset();
    const double t0 = Now();
    sv = MakeServing(w, cfg, engine);
    if (wire) {
      auto info = sv->server->RestoreFromCheckpoint(cfg.checkpoint.dir);
      if (!info.ok()) Die("restore: " + info.status().ToString());
    }
    if (!sv->server->Start().ok()) Die("server Start failed");
    if (!wire) IngestAll(sv->server.get(), plan.fill);
    sv->server->Flush();
    out.setup_s.push_back(Now() - t0);
  }
  serve::Server* server = sv->server.get();
  if (!server->running()) Die("server died during setup");

  std::unique_ptr<net::IngestService> service;
  net::HttpClient client;
  if (wire) {
    net::IngestService::Options opts;
    opts.max_connections = w.connections + 1;
    service = std::make_unique<net::IngestService>(
        server, TenantPolicies(stream.num_tenants()), opts);
    if (!service->Start(0)) Die("IngestService failed to bind");
    if (!client.Connect(service->port()).ok()) Die("connect failed");
  }
  out.stats_before_live = server->stats();

  // Live: open loop at the workload's fixed offered rate, warm-up first.
  int64_t crossed = static_cast<int64_t>(std::floor(
      std::max(MaxTime(plan.fill), MaxTime(plan.tail)) / w.tick_days));
  const double t0 = Now() + 0.01;
  for (const Send& s : plan.live) {
    const double due = t0 + s.due;
    const bool measured = s.due >= plan.warmup_seconds;
    NoteCrossings(s, due, w.tick_days, &crossed,
                  measured ? &out.crossing_due : nullptr);
    std::vector<TimedEdge> batch;
    if (!wire) batch = s.edges;  // copied before the clock starts
    const double released = WaitUntil(due);
    if (wire) {
      out.refused += PostUntilAccepted(&client, s);
      out.accepted_edges += static_cast<int64_t>(s.edges.size());
    } else {
      const auto admit = server->TryIngest(std::move(batch));
      if (admit == serve::Server::Admit::kQueueFull) {
        ++out.refused;
        if (!server->Ingest(s.edges)) Die("Ingest refused a live batch");
      } else if (admit != serve::Server::Admit::kAccepted) {
        Die("TryIngest rejected a live batch");
      }
    }
    if (measured) out.admit.Record(due, released, Now());
  }
  server->Flush();
  out.stats_after_live = server->stats();

  // Catch-up: closed loop over the catch-up span, timed until every due
  // tick is published. The span is long enough (several seconds) to
  // average over the host's slow and fast spells.
  const double c0 = Now();
  for (const Send& s : plan.catchup) {
    if (wire) {
      PostUntilAccepted(&client, s);
      out.accepted_edges += static_cast<int64_t>(s.edges.size());
    } else if (!server->Ingest(s.edges)) {
      Die("Ingest refused a catch-up batch");
    }
  }
  server->Flush();
  out.catchup_s = Now() - c0;
  out.peak_rss_mb = PeakRssMb();

  if (service != nullptr) service->Stop();
  out.stats_end = server->stats();
  if (!server->last_error().ok()) {
    Die("server error: " + server->last_error().ToString());
  }
  if (traced && server->flight_recorder() != nullptr) {
    out.traces = server->flight_recorder()->Snapshot();
  }
  server->Stop();
  out.ticks = sv->log->Snapshot();
  return out;
}

// ---------------------------------------------------------------------------
// wire_durable's untimed prep: a durable server ingests the fill, writes a
// checkpoint, ingests the WAL tail and is stopped without another
// checkpoint — the state a crash leaves behind.

std::vector<TickRec> PrepareCrash(const Workload& w, const Stream& stream,
                                  const Plan& plan, glp::ThreadPool* pool,
                                  const std::string& prep_dir) {
  fs::remove_all(prep_dir);
  serve::ServerConfig cfg = MakeConfig(w, stream, pool, false);
  MakeDurable(w, prep_dir, &cfg);
  auto sv = MakeServing(w, cfg, EngineName(cfg));
  if (!sv->server->Start().ok()) Die("prep server Start failed");
  IngestAll(sv->server.get(), plan.fill);
  sv->server->Flush();
  const glp::Status st = sv->server->WriteCheckpoint();
  if (!st.ok()) Die("prep checkpoint: " + st.ToString());
  IngestAll(sv->server.get(), plan.tail);
  sv->server->Flush();
  sv->server->Stop();
  return sv->log->Snapshot();
}

// ---------------------------------------------------------------------------
// Checks.

struct Checks {
  bool ok = true;
  std::vector<std::string> failures;
  // Cold 1-thread-pool detection over sampled live windows.
  double sim_device_s = 0;
  double sim_global_transactions = 0;
  double sim_lane_utilization = 0;
  double sim_atomic_conflict_ratio = 0;
  double sim_bank_conflict_ratio = 0;

  void Expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      failures.push_back(what);
    }
  }
};

std::vector<TickRec> LiveTicks(const PassResult& p) {
  std::vector<TickRec> out;
  for (const TickRec& t : p.ticks) {
    if (p.crossing_due.count(t.key) > 0) out.push_back(t);
  }
  return out;
}

/// Every sampled live tick's confirmed clusters must equal a cold
/// DetectOnSnapshot over the same window.
void CheckColdDetection(const Workload& w, const Stream& stream,
                        const std::vector<TickRec>& live, Checks* c) {
  if (live.empty()) {
    c->Expect(false, "no live ticks to check");
    return;
  }
  glp::ThreadPool one(1);
  const serve::ServerConfig cfg = MakeConfig(w, stream, &one, false);
  const glp::graph::SlidingWindow window(stream.truth.edges);
  glp::sim::KernelStats stats;
  double device_s = 0;
  const std::set<size_t> picks = {0, live.size() / 2, live.size() - 1};
  for (size_t i : picks) {
    const TickRec& t = live[i];
    const double end = static_cast<double>(t.key) * w.tick_days;
    const double start = end - w.window_days;
    const glp::graph::WindowSnapshot snap = window.Snapshot(start, end);
    glp::lp::RunContext ctx;
    ctx.pool = &one;
    auto res = glp::pipeline::DetectOnSnapshot(snap, cfg.detect, ctx,
                                               cfg.seeds, &stream.truth,
                                               start, end);
    if (!res.ok()) {
      c->Expect(false, "cold detection failed: " + res.status().ToString());
      return;
    }
    Clusters cold;
    for (const auto& cl : res.value().clusters) {
      if (cl.confirmed) cold.push_back(cl.members);
    }
    std::sort(cold.begin(), cold.end());
    c->Expect(cold == t.confirmed,
              "tick " + std::to_string(t.key) +
                  ": confirmed clusters differ from cold detection");
    stats += res.value().lp.stats;
    device_s += res.value().lp.simulated_seconds;
  }
  const double n = static_cast<double>(picks.size());
  c->sim_device_s = device_s / n;
  c->sim_global_transactions =
      static_cast<double>(stats.global_transactions) / n;
  c->sim_lane_utilization = stats.LaneUtilization();
  c->sim_atomic_conflict_ratio =
      stats.global_atomics == 0
          ? 0
          : static_cast<double>(stats.global_atomic_conflicts) /
                static_cast<double>(stats.global_atomics);
  c->sim_bank_conflict_ratio =
      stats.shared_accesses == 0
          ? 0
          : static_cast<double>(stats.shared_bank_conflicts) /
                static_cast<double>(stats.shared_accesses);
}

/// The crashed-and-recovered run must publish, tick for tick, the same
/// confirmed-cluster diffs as an uninterrupted in-process replay.
void CheckRecoveredDigests(const Workload& w, const Stream& stream,
                           const Plan& plan, glp::ThreadPool* pool,
                           const std::vector<TickRec>& prep,
                           const std::vector<TickRec>& recovered, Checks* c) {
  const serve::ServerConfig cfg = MakeConfig(w, stream, pool, false);
  auto ref = MakeServing(w, cfg, EngineName(cfg));
  if (!ref->server->Start().ok()) Die("reference server Start failed");
  for (const auto* part : {&plan.fill, &plan.tail, &plan.live, &plan.catchup}) {
    IngestAll(ref->server.get(), *part);
  }
  ref->server->Flush();
  ref->server->Stop();
  std::map<int64_t, uint64_t> want;
  for (const TickRec& t : ref->log->Snapshot()) want[t.key] = t.digest;
  std::map<int64_t, uint64_t> got;
  for (const TickRec& t : prep) got[t.key] = t.digest;
  size_t replayed = 0;
  for (const TickRec& t : recovered) {
    auto it = got.find(t.key);
    if (it != got.end()) {
      ++replayed;
      c->Expect(it->second == t.digest,
                "recovered tick " + std::to_string(t.key) +
                    " diverges from the pre-crash run");
    }
    got[t.key] = t.digest;
  }
  c->Expect(replayed > 0, "recovery replayed no ticks");
  c->Expect(got == want,
            "recovered run's confirmed-diff digests differ from an "
            "uninterrupted run");
}

// ---------------------------------------------------------------------------
// Per-layer figures from the traced pass.

struct Stages {
  double wall = 0, advance = 0, union_find = 0, lp = 0, extract = 0,
         diff = 0;
  double unattributed() const {
    return wall - advance - union_find - lp - extract - diff;
  }
};

/// Every workload runs on a 1-thread pool, so a sharded tick's owners run
/// one after another and all their LP and extract time is on the tick's
/// path (the "tick stages exceed tick wall" check guards this).
Stages StagesOf(const glp::obs::TickTrace& t) {
  Stages s;
  s.wall = t.tick_wall_seconds;
  uint64_t root = 0;
  for (const auto& sp : t.spans) {
    if (sp.name == "serve.tick") root = sp.span_id;
  }
  std::vector<const glp::obs::Span*> detects;
  for (const auto& sp : t.spans) {
    if (sp.parent_span_id != root || sp.trace_id != t.spans[0].trace_id) {
      continue;
    }
    if (sp.name == "serve.window_advance" || sp.name == "serve.bucket_edges") {
      s.advance += sp.duration_seconds;
    } else if (sp.name == "serve.union_find") {
      s.union_find += sp.duration_seconds;
    } else if (sp.name == "serve.diff_confirmed") {
      s.diff += sp.duration_seconds;
    } else if (sp.name == "serve.detect" || sp.name == "serve.owner_detect") {
      detects.push_back(&sp);
    }
  }
  for (const glp::obs::Span* detect : detects) {
    for (const auto& sp : t.spans) {
      if (sp.parent_span_id != detect->span_id) continue;
      if (sp.name == "pipeline.lp") s.lp += sp.duration_seconds;
      if (sp.name == "pipeline.extract") s.extract += sp.duration_seconds;
    }
  }
  return s;
}

/// (name, (value, unit)) in print order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Live ticks' detect latencies, keyed by tick.
struct LiveFigures {
  std::map<int64_t, double> latency_of;
  int64_t late = 0;
  int64_t missing = 0;

  std::vector<double> latency() const {
    std::vector<double> out;
    for (const auto& [key, lat] : latency_of) out.push_back(lat);
    return out;
  }
};

LiveFigures Latencies(const Workload& w, const PassResult& p) {
  LiveFigures f;
  const double interval = w.tick_days / w.days_per_second;
  std::map<int64_t, double> publish;
  for (const TickRec& t : p.ticks) publish[t.key] = t.publish;
  for (const auto& [key, due] : p.crossing_due) {
    auto it = publish.find(key);
    if (it == publish.end()) {
      ++f.missing;
      continue;
    }
    const double lat = it->second - due;
    f.latency_of[key] = lat;
    if (lat > interval) ++f.late;
  }
  return f;
}

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].second.first);
    s += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  s += "}}";
  return s;
}

/// Per-layer figures: tick stages from the traced pass's flight recorder,
/// counts from its TickResults, ingest and recovery layers timed by calling
/// their public functions on the run's own batches, and the tracing
/// overhead against the untraced pass `p`.
Metrics LayerMetrics(const Workload& w, const Stream& stream, const Plan& plan,
                     const PassResult& p, const LiveFigures& lf,
                     const PassResult& tp, const LiveFigures& tlf,
                     const std::string& work, Checks* checks) {
  Stages sum;
  size_t traced_ticks = 0, negative = 0;
  double queue_wait = 0;
  for (const auto& tt : tp.traces) {
    const int64_t key = std::llround(tt.window_end / w.tick_days);
    if (!tlf.latency_of.count(key) || tt.outcome != "ok") continue;
    const Stages s = StagesOf(tt);
    if (s.unattributed() < -1e-6) ++negative;
    sum.wall += s.wall;
    sum.advance += s.advance;
    sum.union_find += s.union_find;
    sum.lp += s.lp;
    sum.extract += s.extract;
    sum.diff += s.diff;
    queue_wait += tlf.latency_of.at(key) - s.wall;
    ++traced_ticks;
  }
  checks->Expect(traced_ticks == tlf.latency_of.size() && traced_ticks > 0,
                 "flight recorder lacks live ticks");
  checks->Expect(negative == 0, "tick stages exceed tick wall");
  const double nt = std::max<double>(1, static_cast<double>(traced_ticks));

  double lp_wall = 0, lp_sim = 0, iters = 0, wv = 0, we = 0;
  double vertex_updates = 0, full_updates = 0;
  double prev_frontier = 0;
  for (const TickRec& t : tp.ticks) {
    if (tp.crossing_due.count(t.key)) {
      lp_wall += t.lp_wall;
      lp_sim += t.lp_sim;
      iters += t.iterations;
      wv += t.window_vertices;
      we += t.window_edges;
      vertex_updates += t.frontier_total - prev_frontier;
      full_updates += t.window_vertices * t.iterations;
    }
    prev_frontier = t.frontier_total;
  }

  // Ingest-layer calls made by the benchmark itself on the live batches.
  double append_s = 0;
  {
    glp::graph::SlidingWindow window;
    for (const Send& s : plan.fill) window.Append(s.edges);
    for (const Send& s : plan.tail) window.Append(s.edges);
    const double a0 = Now();
    for (const Send& s : plan.live) window.Append(s.edges);
    append_s = (Now() - a0) / static_cast<double>(plan.live.size());
  }
  double decode_s = 0, wal_append_s = 0, wal_sync_s = 0;
  double wal_bytes_per_edge = 0, post_rtt = 0, shed_ratio = 0;
  double ckpt_load_s = 0, wal_read_s = 0, replayed = 0;
  if (w.connections > 0) {
    std::vector<double> dec;
    for (const Send& s : plan.live) {
      const std::string body = net::EncodeBinaryBatch(s.edges);
      const double t0 = Now();
      auto decoded = net::DecodeBinaryBatch(body);
      dec.push_back(Now() - t0);
      checks->Expect(
          decoded.ok() && decoded.value().size() == s.edges.size(),
          "wire batch does not round-trip");
    }
    decode_s = Mean(dec);

    glp::serve::wal::WalOptions wo;
    wo.fsync_every_batches = 0;
    auto wal = glp::serve::wal::Wal::Open(work + "/walprobe", wo);
    if (!wal.ok()) Die("wal probe: " + wal.status().ToString());
    std::vector<double> app, syn;
    for (const Send& s : plan.live) {
      const double t0 = Now();
      if (!wal.value()->Append(s.edges, 0).ok()) Die("wal probe append");
      const double t1 = Now();
      if (!wal.value()->Sync().ok()) Die("wal probe sync");
      app.push_back(t1 - t0);
      syn.push_back(Now() - t1);
    }
    wal_append_s = Mean(app);
    wal_sync_s = Mean(syn);
    wal_bytes_per_edge =
        static_cast<double>(wal.value()->stats().bytes_appended) /
        static_cast<double>(EdgesIn(plan.live));

    std::vector<double> rtt;
    for (size_t i = 0; i < tp.admit.latency.size(); ++i) {
      rtt.push_back(tp.admit.latency[i] - tp.admit.lateness[i]);
    }
    post_rtt = Median(rtt);
    shed_ratio = static_cast<double>(tp.refused) /
                 static_cast<double>(tp.refused + plan.live.size());

    const std::string copy = work + "/recoveryprobe";
    fs::remove_all(copy);
    fs::copy(work + "/prep", copy, fs::copy_options::recursive);
    const double c0 = Now();
    auto ck = serve::LoadPortableCheckpoint(copy + "/ckpt");
    ckpt_load_s = Now() - c0;
    if (!ck.ok()) Die("checkpoint probe: " + ck.status().ToString());
    const double r0 = Now();
    auto rw = glp::serve::wal::Wal::Open(copy + "/wal", {});
    if (!rw.ok()) Die("wal reopen: " + rw.status().ToString());
    auto frames = rw.value()->ReadFrom(ck.value().data.wal_seq + 1);
    wal_read_s = Now() - r0;
    if (!frames.ok()) Die("wal read: " + frames.status().ToString());
    replayed = static_cast<double>(frames.value().size());
  }

  const double untraced_p50 = Quantile(lf.latency(), 0.5);
  const double traced_p50 = Quantile(tlf.latency(), 0.5);
  std::fprintf(stderr,
               "perfbench: %s tracing overhead: detect_latency_p50_s "
               "untraced %.6f traced %.6f (%+.2f%%)\n",
               w.name.c_str(), untraced_p50, traced_p50,
               100.0 * (traced_p50 / untraced_p50 - 1.0));

  Metrics m;
  // Wall-clock figures of the untraced pass. They are not end-to-end
  // metrics: on the shared host this benchmark was tuned on, whole runs
  // ran about 30% slower while the host was busy, in spells of minutes,
  // which no in-run statistic absorbs (README.md, "Steadiness record").
  m.push_back({"detect_latency_p50_s", {Quantile(lf.latency(), 0.5), "s"}});
  m.push_back({"detect_latency_p90_s", {Quantile(lf.latency(), 0.9), "s"}});
  m.push_back({"catchup_edges_per_s",
               {static_cast<double>(EdgesIn(plan.catchup)) / p.catchup_s,
                "edges/s"}});
  m.push_back({"sim.host_per_device", {lp_wall / lp_sim, "ratio"}});
  m.push_back({"glp.lp_host_s", {sum.lp / nt, "s"}});
  m.push_back({"glp.lp_iterations", {iters / nt, "count"}});
  m.push_back({"sim.device_s", {checks->sim_device_s, "sim_s"}});
  m.push_back({"sim.global_transactions",
               {checks->sim_global_transactions, "count"}});
  m.push_back({"sim.lane_utilization",
               {checks->sim_lane_utilization, "ratio"}});
  m.push_back({"sim.atomic_conflict_ratio",
               {checks->sim_atomic_conflict_ratio, "ratio"}});
  m.push_back({"sim.bank_conflict_ratio",
               {checks->sim_bank_conflict_ratio, "ratio"}});
  m.push_back(
      {"serve.dirty_vertex_share",
       {full_updates > 0 ? vertex_updates / full_updates : 0, "ratio"}});
  const int64_t reused = tp.stats_after_live.reused_clusters -
                         tp.stats_before_live.reused_clusters;
  m.push_back({"serve.reused_clusters",
               {static_cast<double>(reused) / nt, "count"}});
  m.push_back({"serve.tick_wall_s", {sum.wall / nt, "s"}});
  m.push_back({"graph.advance_s", {sum.advance / nt, "s"}});
  m.push_back({"serve.union_find_s", {sum.union_find / nt, "s"}});
  m.push_back({"pipeline.extract_s", {sum.extract / nt, "s"}});
  m.push_back({"serve.diff_s", {sum.diff / nt, "s"}});
  m.push_back({"serve.tick_unattributed_s",
               {sum.unattributed() / nt, "s"}});
  m.push_back({"serve.queue_wait_s", {queue_wait / nt, "s"}});
  m.push_back({"loadgen.lateness_p90_s",
               {Quantile(tp.admit.lateness, 0.9), "s"}});
  // Admission latencies from the untraced pass: an in-process TryIngest
  // is dominated by waking the sleeping detection thread on another
  // vCPU, whose cost moved by ±25% between runs.
  m.push_back({"admit_latency_p50_s", {Quantile(p.admit.latency, 0.5), "s"}});
  m.push_back({"admit_latency_p90_s", {Quantile(p.admit.latency, 0.9), "s"}});
  m.push_back({"graph.append_s", {append_s, "s"}});
  m.push_back({"serve.net.decode_s", {decode_s, "s"}});
  m.push_back({"serve.net.post_rtt_s", {post_rtt, "s"}});
  m.push_back({"serve.net.shed_ratio", {shed_ratio, "ratio"}});
  m.push_back({"serve.wal.append_s", {wal_append_s, "s"}});
  m.push_back({"serve.wal.sync_s", {wal_sync_s, "s"}});
  m.push_back({"serve.wal.bytes_per_edge", {wal_bytes_per_edge, "B"}});
  m.push_back({"serve.recovery.checkpoint_load_s", {ckpt_load_s, "s"}});
  m.push_back({"serve.recovery.wal_read_s", {wal_read_s, "s"}});
  m.push_back({"serve.recovery.replayed_batches", {replayed, "count"}});
  m.push_back({"graph.window_edges", {we / nt, "count"}});
  m.push_back({"graph.window_vertices", {wv / nt, "count"}});
  m.push_back({"loadgen.stream_mb", {stream.Bytes() / (1 << 20), "MB"}});
  m.push_back({"trace.detect_p50_untraced_s", {untraced_p50, "s"}});
  m.push_back({"trace.detect_p50_traced_s", {traced_p50, "s"}});
  m.push_back({"trace.overhead_pct",
               {100.0 * (traced_p50 / untraced_p50 - 1.0), "%"}});
  return m;
}

/// What one workload's run found.
struct Outcome {
  Checks checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

Outcome RunWorkload(const Workload& w, uint64_t seed, double seconds,
                    bool trace, const std::string& workdir) {
  const ThreadBudget budget{OnlineCpus(), w.pool, w.connections};
  std::fprintf(stderr, "perfbench: %s budget %s\n", w.name.c_str(),
               budget.ToString().c_str());
  if (!budget.ok()) {
    Die("thread budget exceeded (" + budget.ToString() + ")");
  }
  const bool wire = w.connections > 0;

  // Stream and schedules, before any timer starts.
  const double slice = w.tick_days / w.slices_per_tick;
  Plan plan;
  const double warm_days =
      std::floor(kWarmupSeconds * w.days_per_second / slice) * slice;
  plan.warmup_seconds = warm_days / w.days_per_second;
  plan.live_days =
      warm_days + std::floor(seconds * w.days_per_second / slice) * slice;
  const Stream stream = MakeStream(w, seed, plan.live_days);
  const double fill_end = w.window_days + slice;
  const double tail_end = fill_end + w.wal_tail_days;
  const double live_end = tail_end + plan.live_days;
  const double catch_end = live_end + w.catchup_days;
  const double d = w.days_per_second;
  plan.fill = PlanSends(stream, 0, fill_end, slice, d, false);
  plan.tail = PlanSends(stream, fill_end, tail_end, slice, d, false);
  plan.live = PlanSends(stream, tail_end, live_end, slice, d, wire);
  plan.catchup = PlanSends(stream, live_end, catch_end, slice, d, wire);
  const size_t catchup_edges = EdgesIn(plan.catchup);
  for (const Send& s : plan.live) {
    if (s.due >= plan.warmup_seconds) ++plan.measured_sends;
  }

  Outcome out;
  Checks& checks = out.checks;
  const size_t sent = EdgesIn(plan.fill) + EdgesIn(plan.tail) +
                      EdgesIn(plan.live) + catchup_edges;
  checks.Expect(sent == stream.EdgesBefore(catch_end),
                "send plan does not cover the stream once");

  const std::string work = workdir + "/" + w.name;
  fs::remove_all(work);
  fs::create_directories(work);
  glp::ThreadPool pool(w.pool);

  std::vector<TickRec> prep;
  if (wire) prep = PrepareCrash(w, stream, plan, &pool, work + "/prep");

  const int reps = trace ? 1 : w.setup_reps;
  const PassResult p = RunPass(w, stream, plan, &pool, false, reps,
                               work + "/prep", work + "/plain");
  const std::vector<TickRec> live = LiveTicks(p);
  const LiveFigures lf = Latencies(w, p);

  // Every generated edge accepted exactly once.
  const size_t after_setup =
      wire ? EdgesIn(plan.live) + catchup_edges : sent;
  checks.Expect(
      p.stats_end.edges_ingested == static_cast<int64_t>(after_setup),
      "server ingested " + std::to_string(p.stats_end.edges_ingested) +
          " edges, expected " + std::to_string(after_setup));
  checks.Expect(p.stats_end.batches_rejected == 0, "server rejected batches");
  if (wire) {
    checks.Expect(p.accepted_edges == static_cast<int64_t>(after_setup),
                  "wire acknowledged a different edge count than was sent");
  }
  checks.Expect(lf.missing == 0, "live ticks missing from the publish log");
  CheckColdDetection(w, stream, live, &checks);
  if (wire) {
    std::vector<TickRec> recovered = p.ticks;
    CheckRecoveredDigests(w, stream, plan, &pool, prep, recovered, &checks);
  }

  out.attempted =
      static_cast<int64_t>(plan.measured_sends + p.crossing_due.size());
  out.failed = p.refused + lf.late + lf.missing;

  const size_t beyond = SamplesBeyond(lf.latency_of.size(), 0.9);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu live_ticks=%zu beyond_p90=%zu "
               "live_sends=%zu refused=%lld late=%lld setup=[",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               lf.latency_of.size(), beyond, plan.measured_sends,
               static_cast<long long>(p.refused),
               static_cast<long long>(lf.late));
  for (double s : p.setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr,
               " ] catchup_s=%.2f offered_edges_per_s=%.0f stream_mb=%.2f\n",
               p.catchup_s,
               static_cast<double>(EdgesIn(plan.live)) * w.days_per_second /
                   plan.live_days,
               stream.Bytes() / (1 << 20));
  {
    std::vector<double> lp_wall;
    for (const TickRec& t : live) lp_wall.push_back(t.lp_wall);
    const std::vector<double> lat = lf.latency();
    std::fprintf(stderr,
                 "perfbench: %s live lp_wall p10/p50/p90 %.5f %.5f %.5f "
                 "latency p10/p50/p90 %.5f %.5f %.5f\n",
                 w.name.c_str(), Quantile(lp_wall, 0.1),
                 Quantile(lp_wall, 0.5), Quantile(lp_wall, 0.9),
                 Quantile(lat, 0.1), Quantile(lat, 0.5), Quantile(lat, 0.9));
  }
  if (beyond < 10) {
    std::fprintf(stderr, "perfbench: warning: only %zu samples beyond p90\n",
                 beyond);
  }

  Metrics& m = out.metrics;
  if (!trace) {
    double f1 = 0, sim = 0;
    for (const TickRec& t : live) {
      f1 += t.f1;
      sim += t.lp_sim;
    }
    const double n = std::max<double>(1, static_cast<double>(live.size()));
    m.push_back({"setup_s", {Median(p.setup_s), "s"}});
    m.push_back({"lp_device_s_per_tick", {sim / n, "sim_s"}});
    m.push_back({"confirmed_f1", {f1 / n, "ratio"}});
    m.push_back({"peak_rss_mb", {p.peak_rss_mb, "MB"}});
  } else {
    // Second pass with span collection on.
    const PassResult tp = RunPass(w, stream, plan, &pool, true, 1,
                                  work + "/prep", work + "/traced");
    const LiveFigures tlf = Latencies(w, tp);
    out.failed += tp.refused + tlf.late + tlf.missing;
    m = LayerMetrics(w, stream, plan, p, lf, tp, tlf, work, &checks);
  }
  fs::remove_all(work);
  return out;
}

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    Die("unknown workload " + args.workload);
  }
  Outcome out =
      RunWorkload(w, args.seed, args.seconds, args.trace, args.workdir);
  if (args.trace && w.wire_probe_seconds > 0) {
    // The wire, WAL and recovery layers come from a short wire_durable
    // run, so a benchmark that gates only in-process workloads still
    // reports them.
    Workload wire;
    FindWorkload("wire_durable", &wire);
    const Outcome probe = RunWorkload(wire, args.seed, w.wire_probe_seconds,
                                      true, args.workdir);
    for (const std::string& f : probe.checks.failures) {
      out.checks.Expect(false, "wire probe: " + f);
    }
    for (auto& [name, value] : out.metrics) {
      if (name.rfind("serve.net.", 0) != 0 &&
          name.rfind("serve.wal.", 0) != 0 &&
          name.rfind("serve.recovery.", 0) != 0) {
        continue;
      }
      for (const auto& [probe_name, probe_value] : probe.metrics) {
        if (probe_name == name) value = probe_value;
      }
    }
  }
  for (const std::string& f : out.checks.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", Json(out.checks.ok, out.attempted, out.failed,
                            out.metrics)
                           .c_str());
  std::fflush(stdout);
  return out.checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  glp::SetLogLevel(glp::LogLevel::kWarning);
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
