// The benchmark's three workloads: their constants, and the seeded
// streams and send schedules they replay.
//
// Every constant here is fixed per workload and never derived at run
// time, so the parent and child of a change replay identical schedules.
// The offered live rates sit at 15-35% of what the serving path can
// catch up at, so the live backlog stays flat and a tick's latency is its
// own cost plus queueing, not an ever-growing wait.

#pragma once

#include <string>
#include <vector>

#include "graph/sliding_window.h"
#include "pipeline/transactions.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// serve::MakeServer shard count.
  int shards = 1;
  /// ThreadPool size handed to the server (the detection thread is one of
  /// its participants, so it spawns pool - 1 workers).
  int pool = 1;
  /// Keep-alive HTTP connections; 0 = in-process TryIngest.
  int connections = 0;

  /// Stream shape: `tenants` TaoBao-like streams over disjoint entity
  /// ranges. With burst_period_days > 0 each tenant is active only
  /// burst_on_days out of every period, tenants staggered evenly, so the
  /// share of tenants active per tick is constant over the run.
  int tenants = 1;
  uint32_t buyers_per_tenant = 6000;
  uint32_t items_per_tenant = 1500;
  int rings_per_tenant = 40;
  double burst_period_days = 0;
  double burst_on_days = 0;

  int window_days = 14;
  double tick_days = 0.25;
  /// Open-loop sends per tick interval (per tenant on the wire).
  int slices_per_tick = 8;
  /// Offered live rate in stream days per wall second.
  double days_per_second = 1;
  /// Stream days between the recovery checkpoint and the crash
  /// (wire_durable only): the WAL tail that recovery replays.
  double wal_tail_days = 0;
  /// WAL durability (wire_durable only): sync after this many appends
  /// (0 = no count trigger) and at most this long after an unsynced one.
  int fsync_every_batches = 1;
  double fsync_interval_ms = 0;
  /// Stream days pushed closed-loop in the catch-up phase: whole windows,
  /// enough for several seconds of ticks.
  double catchup_days = 14;
  /// With --trace 1, also run wire_durable for this many live seconds and
  /// report its wire, WAL and recovery layers (0 = off).
  double wire_probe_seconds = 0;
  /// Server constructions timed per run; setup_s is their median.
  int setup_reps = 5;
};

/// Looks up a workload by name; false if unknown.
bool FindWorkload(const std::string& name, Workload* out);

/// A generated stream plus its ground truth: `truth.edges` in canonical
/// order, ring membership and spans for F1, the blacklist seeds. Tenants
/// own disjoint entity ranges [tenant_base[t], tenant_base[t + 1]).
struct Stream {
  glp::pipeline::TransactionStream truth;
  std::vector<glp::graph::VertexId> tenant_base;

  int num_tenants() const {
    return static_cast<int>(tenant_base.size()) - 1;
  }
  int TenantOf(glp::graph::VertexId v) const;
  /// Number of stream edges with time < t.
  size_t EdgesBefore(double t) const;
  /// Bytes the generated stream itself occupies.
  double Bytes() const;
};

/// Generates the workload's stream from `seed`, long enough for a fill
/// window, the WAL tail, `live_days` of open-loop replay (warm-up
/// included) and a catch-up window.
Stream MakeStream(const Workload& w, uint64_t seed, double live_days);

/// One batch the load generator sends.
struct Send {
  /// Seconds after the phase start at which the send is due.
  double due = 0;
  /// Tenant whose token signs the POST; -1 for in-process sends.
  int tenant = -1;
  std::vector<glp::graph::TimedEdge> edges;
};

/// Cuts the stream's edges with time in [from, to) into slices of
/// `slice_days`, one send per slice (per tenant per slice when
/// `per_tenant`), due when the slice's stream time has elapsed at
/// `days_per_second`. Empty sends are dropped.
std::vector<Send> PlanSends(const Stream& s, double from, double to,
                            double slice_days, double days_per_second,
                            bool per_tenant);

}  // namespace perfbench
