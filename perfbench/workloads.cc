#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

bool FindWorkload(const std::string& name, Workload* out) {
  // Every workload runs detection on a 1-thread pool: the detection
  // thread alone does the tick's work. With a pool of 2, every
  // ParallelFor barrier waited for the slower of two vCPUs, and on a
  // shared host that moved whole runs' latency medians by 25-40%.
  Workload w;
  w.name = name;
  if (name == "organic_glp") {
    // One organic stream: the window is one giant component, so every
    // tick re-runs LP on nearly all of it and the simulator dominates.
    w.shards = 1;
    w.pool = 1;
    w.buyers_per_tenant = 2000;
    w.items_per_tenant = 500;
    w.rings_per_tenant = 14;
    w.days_per_second = 1.0;
    w.catchup_days = 28;
    // A fill takes about 2.5 s here; three keep the run within its time.
    w.setup_reps = 3;
  } else if (name == "tenants_sharded") {
    // 16 tenants, each bursting 2 days out of every 32, staggered: one
    // tenant appends and one expires per tick while about eight sit in
    // the window, so LP touches a few small components and serve
    // bookkeeping dominates.
    w.shards = 2;
    w.pool = 1;
    w.tenants = 16;
    w.buyers_per_tenant = 3000;
    w.items_per_tenant = 800;
    w.rings_per_tenant = 6;
    w.burst_period_days = 32;
    w.burst_on_days = 2;
    w.days_per_second = 2.0;
    w.catchup_days = 56;
    w.wire_probe_seconds = 5;
  } else if (name == "wire_durable") {
    // Four tenants POSTing small binary batches through the HTTP front
    // door into a WAL that fsyncs every batch; detection is kept cheap
    // (small tenants, 3-day window) so the write path dominates.
    w.shards = 1;
    w.pool = 1;
    w.connections = 1;
    w.tenants = 4;
    w.buyers_per_tenant = 400;
    w.items_per_tenant = 100;
    w.rings_per_tenant = 4;
    w.window_days = 3;
    w.slices_per_tick = 16;
    w.days_per_second = 2.5;
    w.wal_tail_days = 1;
    w.catchup_days = 72;
    // Group commit on a 500 ms timer instead of an fsync per POST: on the
    // virtualised disk this benchmark was tuned on, fsync p50 drifted
    // from 80 to 300 us within an hour and single syncs stalled for up to
    // 40 ms, and each stall delays every POST queued behind it; no bound
    // of 25% absorbs that. Appends still reach the OS on every POST, so a
    // process crash loses nothing. The sync's own cost is reported as
    // serve.wal.sync_s.
    w.fsync_every_batches = 0;
    w.fsync_interval_ms = 500;
  } else {
    return false;
  }
  *out = w;
  return true;
}

int Stream::TenantOf(glp::graph::VertexId v) const {
  const auto it =
      std::upper_bound(tenant_base.begin(), tenant_base.end(), v);
  return static_cast<int>(it - tenant_base.begin()) - 1;
}

size_t Stream::EdgesBefore(double t) const {
  const auto it = std::lower_bound(
      truth.edges.begin(), truth.edges.end(), t,
      [](const glp::graph::TimedEdge& e, double x) { return e.time < x; });
  return static_cast<size_t>(it - truth.edges.begin());
}

double Stream::Bytes() const {
  return static_cast<double>(
      truth.edges.size() * sizeof(glp::graph::TimedEdge) +
      truth.ring_of.size() * sizeof(int) +
      truth.seeds.size() * sizeof(glp::graph::VertexId));
}

Stream MakeStream(const Workload& w, uint64_t seed, double live_days) {
  const double tick = w.tick_days;
  const double total_days = w.window_days + w.wal_tail_days + live_days +
                            w.catchup_days + 2.0 * tick + 1.0;
  Stream out;
  glp::pipeline::TransactionStream& truth = out.truth;
  glp::graph::VertexId base = 0;
  for (int t = 0; t < w.tenants; ++t) {
    glp::pipeline::TransactionConfig tc;
    tc.num_buyers = w.buyers_per_tenant;
    tc.num_items = w.items_per_tenant;
    tc.num_rings = w.rings_per_tenant;
    tc.days = static_cast<int>(std::ceil(total_days));
    // Rings collude over the whole stream: a random ring population per
    // window would make window size, tick cost and F1 depend on the seed
    // far more than on the code under test.
    tc.min_ring_active_days = tc.days;
    // The generator ranks buyers by a seeded hash modulo the buyer count,
    // so ranks collide and the Zipf head's weight is counted a random
    // number of times; under the default skew of 0.85 that moves the
    // stream's size by about 9% from seed to seed, at 0.5 by about 3%.
    tc.buyer_skew = 0.5;
    tc.seed = seed * 1000003ull + static_cast<uint64_t>(t) * 7919ull + 1;
    const glp::pipeline::TransactionStream s =
        glp::pipeline::GenerateTransactions(tc);
    const double phase = w.burst_period_days * t / w.tenants;
    for (const glp::graph::TimedEdge& e : s.edges) {
      if (w.burst_period_days > 0 &&
          std::fmod(e.time + phase, w.burst_period_days) >= w.burst_on_days) {
        continue;
      }
      truth.edges.push_back({e.src + base, e.dst + base, e.time});
    }
    const int ring_base = static_cast<int>(truth.ring_span.size());
    for (int r : s.ring_of) truth.ring_of.push_back(r < 0 ? -1 : r + ring_base);
    truth.ring_span.insert(truth.ring_span.end(), s.ring_span.begin(),
                           s.ring_span.end());
    for (glp::graph::VertexId v : s.seeds) truth.seeds.push_back(v + base);
    out.tenant_base.push_back(base);
    base += s.num_entities();
  }
  out.tenant_base.push_back(base);
  // The scorer reads only ring_of/ring_span; num_entities() must cover
  // every tenant's id range.
  truth.config.num_buyers = base;
  truth.config.num_items = 0;
  truth.config.seed = seed;
  std::sort(truth.edges.begin(), truth.edges.end(),
            glp::graph::CanonicalEdgeLess);
  return out;
}

std::vector<Send> PlanSends(const Stream& s, double from, double to,
                            double slice_days, double days_per_second,
                            bool per_tenant) {
  const auto& edges = s.truth.edges;
  std::vector<Send> out;
  const int slices =
      static_cast<int>(std::llround((to - from) / slice_days));
  const double slice_seconds = slice_days / days_per_second;
  const int tenants = per_tenant ? s.num_tenants() : 1;
  for (int j = 0; j < slices; ++j) {
    const auto lo = edges.begin() + static_cast<ptrdiff_t>(
                                        s.EdgesBefore(from + j * slice_days));
    const auto hi = edges.begin() + static_cast<ptrdiff_t>(s.EdgesBefore(
                                        from + (j + 1) * slice_days));
    std::vector<std::vector<glp::graph::TimedEdge>> parts(
        static_cast<size_t>(tenants));
    for (auto it = lo; it != hi; ++it) {
      parts[per_tenant ? static_cast<size_t>(s.TenantOf(it->src)) : 0]
          .push_back(*it);
    }
    // A slice's per-tenant sends are spread evenly over its interval, so
    // every POST has its own due time.
    int nonempty = 0;
    for (const auto& p : parts) nonempty += p.empty() ? 0 : 1;
    int k = 0;
    for (int t = 0; t < tenants; ++t) {
      auto& p = parts[static_cast<size_t>(t)];
      if (p.empty()) continue;
      ++k;
      Send send;
      send.due = (j + static_cast<double>(k) / nonempty) * slice_seconds;
      send.tenant = per_tenant ? t : -1;
      send.edges = std::move(p);
      out.push_back(std::move(send));
    }
  }
  return out;
}

}  // namespace perfbench
