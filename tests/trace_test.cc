// End-to-end detection-freshness tracing tests (DESIGN.md §4.12):
// traceparent format/parse round-trips, head-based sampler determinism,
// the wire→tick splice over a real socket (client traceparent surviving
// the bounded queue into serve.queue_wait spans and freshness exemplars),
// queue-carried contexts across shard sub-batch routing, flight-recorder
// dumps on armed serve.tick failpoints, and the acceptance gate — tracing
// is strictly observational: confirmed-cluster output is byte-identical
// with tracing on and off, for 1 shard and 3 shards.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/transactions.h"
#include "serve/net/client.h"
#include "serve/net/ingest_service.h"
#include "serve/net/tenant.h"
#include "serve/server_iface.h"
#include "util/failpoint.h"

namespace glp::serve {
namespace {

using graph::TimedEdge;
using graph::VertexId;

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

// --- Traceparent codec ---

TEST(TraceparentTest, FormatParseRoundTrip) {
  obs::SpanContext ctx;
  ctx.trace_id = 0xdeadbeefcafef00dull;
  ctx.span_id = 0x123456789abcdef0ull;
  ctx.sampled = true;
  const std::string header = obs::FormatTraceparent(ctx);
  ASSERT_EQ(header.size(), 55u);
  EXPECT_EQ(header.substr(0, 3), "00-");
  EXPECT_EQ(header.substr(53), "01");

  obs::SpanContext parsed;
  ASSERT_TRUE(obs::ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_id, ctx.trace_id);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
  EXPECT_TRUE(parsed.sampled);

  ctx.sampled = false;
  ASSERT_TRUE(obs::ParseTraceparent(obs::FormatTraceparent(ctx), &parsed));
  EXPECT_FALSE(parsed.sampled);
}

TEST(TraceparentTest, RejectsMalformedHeaders) {
  obs::SpanContext out;
  out.trace_id = 77;  // sentinel: a failed parse must not touch *out
  EXPECT_FALSE(obs::ParseTraceparent("", &out));
  EXPECT_FALSE(obs::ParseTraceparent("00-abc-def-01", &out));
  // All-zero trace id is invalid per the W3C spec.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-00000000000000000000000000000000-00000000000000ab-01", &out));
  // Version 0xff is forbidden.
  EXPECT_FALSE(obs::ParseTraceparent(
      "ff-0000000000000000deadbeefcafef00d-00000000000000ab-01", &out));
  // Non-hex characters.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-0000000000000000deadbeefcafefzzz-00000000000000ab-01", &out));
  EXPECT_EQ(out.trace_id, 77u);
}

// --- Head-based sampler determinism ---

TEST(TraceSamplerTest, FixedSeedYieldsIdenticalSequences) {
  obs::TraceSampler a(/*rate=*/0.5, /*seed=*/42);
  obs::TraceSampler b(/*rate=*/0.5, /*seed=*/42);
  int sampled = 0;
  for (int i = 0; i < 256; ++i) {
    const obs::SpanContext ca = a.StartTrace();
    const obs::SpanContext cb = b.StartTrace();
    ASSERT_NE(ca.trace_id, 0u);
    EXPECT_EQ(ca.trace_id, cb.trace_id);
    EXPECT_EQ(ca.sampled, cb.sampled);
    // The decision is a pure function of the id: any holder of the id
    // (client, server, a later analysis job) reproduces it.
    EXPECT_EQ(ca.sampled, obs::TraceSampler::WouldSample(ca.trace_id, 0.5));
    if (ca.sampled) ++sampled;
  }
  // Head sampling at 0.5 over 256 uniform ids: loose two-sided bound.
  EXPECT_GT(sampled, 64);
  EXPECT_LT(sampled, 192);
}

TEST(TraceSamplerTest, RateEndpointsAndMonotonicity) {
  obs::TraceSampler all(/*rate=*/1.0, /*seed=*/7);
  obs::TraceSampler none(/*rate=*/0.0, /*seed=*/7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(all.StartTrace().sampled);
    EXPECT_FALSE(none.StartTrace().sampled);
  }
  // Monotone in rate: a trace sampled at rate r stays sampled at r' > r.
  obs::TraceSampler probe(/*rate=*/0.2, /*seed=*/99);
  for (int i = 0; i < 128; ++i) {
    const uint64_t id = probe.StartTrace().trace_id;
    if (obs::TraceSampler::WouldSample(id, 0.2)) {
      EXPECT_TRUE(obs::TraceSampler::WouldSample(id, 0.8));
    }
    if (!obs::TraceSampler::WouldSample(id, 0.8)) {
      EXPECT_FALSE(obs::TraceSampler::WouldSample(id, 0.2));
    }
  }
}

// --- Shared stream fixtures (mirrors tests/net_test.cc) ---

pipeline::TransactionConfig SmallStreamConfig() {
  pipeline::TransactionConfig cfg;
  cfg.num_buyers = 1200;
  cfg.num_items = 300;
  cfg.days = 30;
  cfg.num_rings = 6;
  cfg.ring_buyers = 8;
  cfg.ring_items = 4;
  cfg.seed = 91;
  return cfg;
}

/// Cold, fixed-iteration config: tick output is exact across shard counts
/// and ingest paths, so tracing on/off comparisons are byte-level.
ServerConfig ColdServerConfig(const pipeline::TransactionStream& stream) {
  ServerConfig cfg;
  cfg.detect.window_days = 10;
  cfg.detect.engine = lp::EngineKind::kSeq;
  cfg.detect.lp.max_iterations = 20;
  cfg.detect.lp.stop_when_stable = false;
  cfg.seeds = stream.seeds;
  cfg.ground_truth = &stream;
  cfg.tick.every_days = 5.0;
  return cfg;
}

std::vector<std::vector<TimedEdge>> BatchEdges(
    const std::vector<TimedEdge>& ordered, size_t batch_size) {
  std::vector<std::vector<TimedEdge>> batches;
  for (size_t pos = 0; pos < ordered.size(); pos += batch_size) {
    const size_t n = std::min(batch_size, ordered.size() - pos);
    batches.emplace_back(ordered.begin() + static_cast<ptrdiff_t>(pos),
                         ordered.begin() + static_cast<ptrdiff_t>(pos + n));
  }
  return batches;
}

std::vector<TimedEdge> OrderedEdges(const pipeline::TransactionStream& s) {
  std::vector<TimedEdge> ordered = s.edges;
  std::sort(ordered.begin(), ordered.end(), graph::CanonicalEdgeLess);
  return ordered;
}

int64_t TickKey(double window_end) {
  return static_cast<int64_t>(std::llround(window_end * 4));
}

/// The confirmed-cluster diff surface compared byte-for-byte between
/// traced and untraced replays.
struct TickView {
  std::set<std::vector<VertexId>> confirmed;
  std::set<std::vector<VertexId>> new_confirmed;
  std::set<std::vector<VertexId>> expired_confirmed;
  size_t window_vertices = 0;
};

using TickMap = std::map<int64_t, TickView>;

/// In-process replay with per-batch IngestContext stamping (the same
/// fields IngestService fills from the wire).
TickMap ReplayWithContext(const ServerConfig& cfg, int shards,
                          const std::vector<TimedEdge>& ordered,
                          obs::TraceSampler* client_sampler,
                          std::vector<uint64_t>* client_trace_ids,
                          std::unique_ptr<Server>* keep_server = nullptr) {
  TickMap out;
  auto server = MakeServer(cfg, shards);
  server->Subscribe([&](const TickResult& t) {
    TickView v;
    for (const auto& c : t.detection.clusters) {
      if (c.confirmed) v.confirmed.insert(c.members);
    }
    for (const auto& m : t.new_confirmed) v.new_confirmed.insert(m);
    for (const auto& m : t.expired_confirmed) v.expired_confirmed.insert(m);
    v.window_vertices = t.detection.window_vertices;
    out[TickKey(t.window_end)] = v;
  });
  EXPECT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 700)) {
    IngestContext ctx;
    if (client_sampler != nullptr) {
      ctx.trace = client_sampler->StartTrace();
      ctx.trace.span_id = 1;  // a client-side root span id
      if (client_trace_ids != nullptr && ctx.trace.sampled) {
        client_trace_ids->push_back(ctx.trace.trace_id);
      }
    }
    ctx.arrival_seconds = obs::MonotonicSeconds();
    ctx.tenant = "t0";
    EXPECT_TRUE(server->Ingest(std::move(batch), std::move(ctx)));
  }
  server->Flush();
  if (keep_server == nullptr) {
    server->Stop();
    EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
  } else {
    *keep_server = std::move(server);
  }
  return out;
}

// --- Wire→tick splice over a real socket ---

TEST(TraceNetTest, TraceparentRoundTripsThroughSocketIngest) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  obs::MetricRegistry registry;
  ServerConfig cfg = ColdServerConfig(stream);
  cfg.metrics = &registry;
  cfg.trace.sample_rate = 1.0;
  cfg.trace.recorder_ticks = 64;

  auto server = MakeServer(cfg, 1);
  ASSERT_TRUE(server->Start().ok());
  auto tenants = net::ParseTenantSpec("e2e:e2etoken");
  ASSERT_TRUE(tenants.ok());
  net::IngestService service(server.get(), std::move(tenants).value());
  ASSERT_TRUE(service.Start(0));
  net::HttpClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());

  // The client stamps every POST with a sampled traceparent.
  obs::TraceSampler client_sampler(/*rate=*/1.0, /*seed=*/0xc11e);
  std::set<uint64_t> client_ids;
  for (const auto& batch : BatchEdges(ordered, 700)) {
    obs::SpanContext trace = client_sampler.StartTrace();
    trace.span_id = 0xabcd;
    client_ids.insert(trace.trace_id);
    auto resp = client.PostBatchWithRetry(batch, "e2etoken",
                                          /*max_retries=*/50,
                                          /*max_wait_seconds=*/0.2, trace);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.value().status, 200) << resp.value().body;
  }
  server->Flush();

  // 1) The flight recorder saw ticks, and serve.queue_wait spans carry the
  //    *client's* trace ids across the socket and the bounded queue.
  const obs::FlightRecorder* rec = server->flight_recorder();
  ASSERT_NE(rec, nullptr);
  const auto ticks = rec->Snapshot();
  ASSERT_FALSE(ticks.empty());
  size_t queue_wait_hits = 0;
  for (const auto& t : ticks) {
    ASSERT_FALSE(t.spans.empty());
    // Root is the first span; its duration is exactly the wall time the
    // tick histogram observed, so span trees reconcile with
    // glp_serve_tick_seconds.
    const obs::Span& root = t.spans.front();
    EXPECT_EQ(root.name, "serve.tick");
    EXPECT_DOUBLE_EQ(root.duration_seconds, t.tick_wall_seconds);
    double child_sum = 0;
    for (const auto& s : t.spans) {
      if (s.name == "serve.queue_wait" && client_ids.count(s.trace_id)) {
        EXPECT_EQ(s.parent_span_id, 0xabcdu);
        ++queue_wait_hits;
      }
      if (s.parent_span_id == root.span_id) child_sum += s.duration_seconds;
    }
    // Direct children of the root run sequentially inside the tick.
    EXPECT_LE(child_sum, root.duration_seconds + 0.25);
  }
  EXPECT_GT(queue_wait_hits, 0u);

  // 2) GET /debug/ticks serves the same trees as JSON, client ids included.
  auto debug = client.Get("/debug/ticks");
  ASSERT_TRUE(debug.ok()) << debug.status().ToString();
  EXPECT_EQ(debug.value().status, 200);
  EXPECT_NE(debug.value().body.find("\"serve.tick\""), std::string::npos);
  EXPECT_NE(debug.value().body.find("\"serve.queue_wait\""),
            std::string::npos);
  bool any_client_id_in_json = false;
  for (uint64_t id : client_ids) {
    if (debug.value().body.find(Hex64(id)) != std::string::npos) {
      any_client_id_in_json = true;
      break;
    }
  }
  EXPECT_TRUE(any_client_id_in_json);

  // 3) Per-tenant freshness histogram with an OpenMetrics exemplar linking
  //    back to a sampled client trace.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("glp_serve_freshness_seconds_bucket{tenant=\"e2e\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos) << text;

  service.Stop();
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
}

// --- Queue-carried context across shard sub-batch routing ---

TEST(TraceNetTest, QueueCarriedContextSurvivesShardRouting) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  obs::MetricRegistry registry;
  ServerConfig cfg = ColdServerConfig(stream);
  cfg.metrics = &registry;
  cfg.trace.sample_rate = 1.0;
  cfg.trace.recorder_ticks = 64;

  obs::TraceSampler client_sampler(/*rate=*/1.0, /*seed=*/0x5eed);
  std::vector<uint64_t> client_ids;
  std::unique_ptr<Server> server;
  const TickMap got = ReplayWithContext(cfg, /*shards=*/3, ordered,
                                        &client_sampler, &client_ids,
                                        &server);
  ASSERT_FALSE(got.empty());
  ASSERT_FALSE(client_ids.empty());

  const obs::FlightRecorder* rec = server->flight_recorder();
  ASSERT_NE(rec, nullptr);
  const auto ticks = rec->Snapshot();
  ASSERT_FALSE(ticks.empty());
  const std::set<uint64_t> ids(client_ids.begin(), client_ids.end());
  size_t queue_wait_hits = 0, owner_detects = 0;
  for (const auto& t : ticks) {
    ASSERT_FALSE(t.spans.empty());
    const obs::Span& root = t.spans.front();
    EXPECT_EQ(root.name, "serve.tick");
    for (const auto& s : t.spans) {
      // A batch routed into per-shard sub-batches still surfaces exactly
      // one queue-wait span under the client's original context.
      if (s.name == "serve.queue_wait" && ids.count(s.trace_id)) {
        EXPECT_EQ(s.parent_span_id, 1u);  // the client-side root span id
        ++queue_wait_hits;
      }
      if (s.name == "serve.owner_detect") {
        EXPECT_EQ(s.parent_span_id, root.span_id);
        ++owner_detects;
      }
    }
  }
  EXPECT_GT(queue_wait_hits, 0u);
  EXPECT_GT(owner_detects, 0u);

  // Every tick names its window advance, union-find and snapshot stages as
  // direct children of the root, and none of the retired per-shard
  // union-find, stitch and bucketing spans. The stages run one after
  // another inside the tick wall, so their durations add up to at most the
  // wall. The owners' detections may run concurrently, so they count once,
  // as the envelope of the fan-out; serve.publish runs after the wall is
  // taken.
  for (const auto& t : ticks) {
    const obs::Span& root = t.spans.front();
    std::set<std::string> stages;
    double staged = 0;
    double fan_begin = std::numeric_limits<double>::infinity();
    double fan_end = -fan_begin;
    for (const auto& s : t.spans) {
      EXPECT_NE(s.name, "serve.components") << "tick " << t.tick;
      EXPECT_NE(s.name, "serve.stitch") << "tick " << t.tick;
      EXPECT_NE(s.name, "serve.bucket_edges") << "tick " << t.tick;
      if (s.trace_id != root.trace_id || s.parent_span_id != root.span_id) {
        continue;
      }
      stages.insert(s.name);
      if (s.name == "serve.owner_detect") {
        fan_begin = std::min(fan_begin, s.start_seconds);
        fan_end = std::max(fan_end, s.start_seconds + s.duration_seconds);
      } else if (s.name != "serve.publish") {
        staged += s.duration_seconds;
      }
    }
    if (fan_end > fan_begin) staged += fan_end - fan_begin;
    EXPECT_TRUE(stages.count("serve.window_advance")) << "tick " << t.tick;
    EXPECT_TRUE(stages.count("serve.union_find")) << "tick " << t.tick;
    EXPECT_TRUE(stages.count("serve.snapshot")) << "tick " << t.tick;
    EXPECT_LE(staged, t.tick_wall_seconds + 1e-6) << "tick " << t.tick;
  }

  // Freshness lands under the IngestContext's tenant even across shards.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("glp_serve_freshness_seconds_bucket{tenant=\"t0\""),
            std::string::npos)
      << text;

  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
}

// --- Flight-recorder dumps on armed serve.tick failpoints ---

class TraceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FailpointRegistry::Global().ResetToEnv(); }
  void TearDown() override { fail::FailpointRegistry::Global().ResetToEnv(); }
};

TEST_F(TraceChaosTest, DeadlineOverrunRecordsAndDumpsTickTrace) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  ServerConfig cfg = ColdServerConfig(stream);
  cfg.trace.recorder_ticks = 16;
  cfg.resilience.tick_deadline_seconds = 1e-3;

  // 5 ms of injected latency inside serve.tick blows the 1 ms deadline on
  // every tick, so each one auto-dumps its span tree.
  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.tick=delay(5)").ok());

  auto server = MakeServer(cfg, 1);
  ASSERT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    ASSERT_TRUE(server->Ingest(std::move(batch)));
  }
  server->Flush();

  const obs::FlightRecorder* rec = server->flight_recorder();
  ASSERT_NE(rec, nullptr);
  EXPECT_NE(rec->LastTickJson(), "{}");
  size_t overruns = 0;
  for (const auto& t : rec->Snapshot()) {
    if (t.outcome == "ok+deadline_overrun") ++overruns;
  }
  EXPECT_GT(overruns, 0u);
  server->Stop();
  EXPECT_TRUE(server->last_error().ok()) << server->last_error().ToString();
}

TEST_F(TraceChaosTest, FatalTickRecordsFatalOutcome) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  ServerConfig cfg = ColdServerConfig(stream);
  cfg.trace.recorder_ticks = 16;

  auto& reg = fail::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Parse("serve.tick=error(invalid)").ok());

  auto server = MakeServer(cfg, 1);
  ASSERT_TRUE(server->Start().ok());
  for (auto& batch : BatchEdges(ordered, 1000)) {
    if (!server->Ingest(std::move(batch))) break;  // loop died as intended
  }
  server->Flush();

  const obs::FlightRecorder* rec = server->flight_recorder();
  ASSERT_NE(rec, nullptr);
  bool saw_fatal = false;
  for (const auto& t : rec->Snapshot()) {
    if (t.outcome == "fatal") saw_fatal = true;
  }
  EXPECT_TRUE(saw_fatal);
  EXPECT_EQ(server->last_error().code(), StatusCode::kInvalidArgument)
      << server->last_error().ToString();
  server->Stop();
}

// --- Acceptance gate: tracing is strictly observational ---

TEST(TraceEquivalenceTest, TracedOutputMatchesUntracedSingleShard) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  const ServerConfig plain = ColdServerConfig(stream);
  ServerConfig traced_cfg = ColdServerConfig(stream);
  traced_cfg.trace.sample_rate = 1.0;
  traced_cfg.trace.recorder_ticks = 64;

  obs::TraceSampler sampler(1.0, 0x1234);
  const TickMap want =
      ReplayWithContext(plain, 1, ordered, nullptr, nullptr);
  ASSERT_FALSE(want.empty());
  const TickMap got =
      ReplayWithContext(traced_cfg, 1, ordered, &sampler, nullptr);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, v] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    EXPECT_EQ(got.at(key).confirmed, v.confirmed) << "tick " << key;
    EXPECT_EQ(got.at(key).new_confirmed, v.new_confirmed) << "tick " << key;
    EXPECT_EQ(got.at(key).expired_confirmed, v.expired_confirmed)
        << "tick " << key;
    EXPECT_EQ(got.at(key).window_vertices, v.window_vertices)
        << "tick " << key;
  }
}

TEST(TraceEquivalenceTest, TracedOutputMatchesUntracedSharded) {
  const auto stream = pipeline::GenerateTransactions(SmallStreamConfig());
  const auto ordered = OrderedEdges(stream);
  const ServerConfig plain = ColdServerConfig(stream);
  ServerConfig traced_cfg = ColdServerConfig(stream);
  traced_cfg.trace.sample_rate = 1.0;
  traced_cfg.trace.recorder_ticks = 64;

  obs::TraceSampler sampler(1.0, 0x4321);
  const TickMap want =
      ReplayWithContext(plain, 3, ordered, nullptr, nullptr);
  ASSERT_FALSE(want.empty());
  const TickMap got =
      ReplayWithContext(traced_cfg, 3, ordered, &sampler, nullptr);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, v] : want) {
    ASSERT_TRUE(got.count(key)) << "missing tick " << key;
    EXPECT_EQ(got.at(key).confirmed, v.confirmed) << "tick " << key;
    EXPECT_EQ(got.at(key).new_confirmed, v.new_confirmed) << "tick " << key;
  }
}

}  // namespace
}  // namespace glp::serve
