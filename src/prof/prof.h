// glp::prof — per-phase profiling for every LP engine.
//
// A PhaseProfiler attributes each engine's per-iteration work to named
// phases (pick / frontier / low-bin / mid-bin / high-bin / commit /
// grid-sync / all-gather / hybrid-sync / compute) and accumulates a
// PhaseBreakdown: launches, global-memory traffic, lane utilization, and
// seconds per phase.
// GPU engines feed it priced kernel launches through GpuRunAccumulator;
// CPU engines feed it wall-clock ScopedPhase spans. Attached to a
// TraceRecorder (trace.h), it additionally emits one chrome://tracing
// track per simulated GPU plus a host track.
//
// Multi-GPU attribution: devices run an iteration concurrently, so the
// iteration's elapsed time is the max over devices while counters sum over
// all of them. EndIteration folds the *critical* device's phase split (plus
// cross-device seconds such as the label all-gather) and rescales it
// proportionally so the per-phase seconds sum exactly to the iteration's
// reconciled time — this also absorbs hybrid-mode time compression, keeping
// the invariant sum(phase seconds) == simulated_seconds.
//
// Everything is nullable: engines take a `PhaseProfiler*` that defaults to
// nullptr, and every instrumentation site is guarded, so a disabled run
// performs no clock reads and no accounting (zero-cost fast path).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace glp::prof {

class TraceRecorder;

/// The per-iteration phases the engines distinguish.
enum class Phase : int {
  kPick = 0,    ///< PickLabel kernel / BeginIteration host hook
  kFrontier,    ///< frontier construction + filtering (incremental mode)
  kLowBin,      ///< low-degree bin (warp-centric or warp-per-vertex)
  kMidBin,      ///< mid-degree bin (warp-per-vertex shared HT)
  kHighBin,     ///< high-degree bin (block-per-vertex CMS+HT / global HT)
  kCommit,      ///< UpdateVertex: commit + auxiliary kernels
  kGridSync,    ///< grid-wide barriers inside a persistent launch
  kAllGather,   ///< multi-GPU label all-gather (exposed part)
  kHybridSync,  ///< CPU-GPU hybrid label sync (exposed part)
  kCompute,     ///< un-binned propagation (G-Sort passes, kGlobal mode, CPU)
  kNumPhases,
};

inline constexpr int kNumPhases = static_cast<int>(Phase::kNumPhases);

/// Short stable name ("pick", "low-bin", ...) used in tables and traces.
const char* PhaseName(Phase p);

/// Accumulated counters of one phase.
struct PhaseStats {
  uint64_t launches = 0;
  uint64_t global_transactions = 0;
  uint64_t global_bytes = 0;  ///< bytes requested by lanes
  uint64_t active_lane_cycles = 0;
  uint64_t total_lane_cycles = 0;
  double seconds = 0;

  /// Lane utilization in [0, 1]; 1.0 when no warp instruction executed.
  double LaneUtilization() const {
    return total_lane_cycles == 0
               ? 1.0
               : static_cast<double>(active_lane_cycles) /
                     static_cast<double>(total_lane_cycles);
  }
};

/// Whole-run per-phase breakdown, recorded into RunResult.
struct PhaseBreakdown {
  /// True when a profiler was attached to the run.
  bool enabled = false;
  std::array<PhaseStats, kNumPhases> phases;
  /// Sum of reconciled iteration seconds (== the phase seconds' sum).
  double total_seconds = 0;

  const PhaseStats& operator[](Phase p) const {
    return phases[static_cast<int>(p)];
  }
  PhaseStats& operator[](Phase p) { return phases[static_cast<int>(p)]; }

  /// Sum of per-phase seconds (equals total_seconds by construction).
  double SumSeconds() const;

  /// Fixed-width human-readable table.
  std::string ToString() const;
  /// Machine-readable JSON object ({"phases": {...}, "total_seconds": s}).
  std::string ToJson() const;
};

/// Collects phase-tagged work for one or more engine runs.
class PhaseProfiler {
 public:
  PhaseProfiler();

  /// Optional chrome://tracing sink; events stream into it per iteration.
  void AttachTrace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  /// Resets the breakdown for a new engine run. `name` labels the run's
  /// trace events; `num_devices` sizes the per-GPU buffers (>= 1).
  void BeginRun(const std::string& name, int num_devices);

  /// Starts an iteration: clears the per-iteration attribution buffers.
  void BeginIteration(int iter);

  /// Accounts a priced kernel launch on device `gpu` under phase `p`.
  void AddKernel(Phase p, int gpu, const sim::KernelStats& stats,
                 double seconds);

  /// Accounts plain seconds on device `gpu` under phase `p` (CPU wall-clock
  /// spans, split attributions without distinct launches).
  void AddPhaseSeconds(Phase p, int gpu, double seconds);

  /// Accounts cross-device / host-side seconds under phase `p`
  /// (all-gather, hybrid sync) — attributed directly, not per device.
  void AddSeconds(Phase p, double seconds);

  /// Folds the iteration into the breakdown. `iteration_seconds` is the
  /// engine's reconciled elapsed time for the iteration; the critical
  /// device's phase split is rescaled proportionally to sum to it exactly.
  void EndIteration(double iteration_seconds);

  /// Records a host wall-clock span (pipeline stages) on the host track.
  void RecordHostEvent(const std::string& name, double start_s, double dur_s);

  /// Host seconds elapsed since profiler construction (for host events).
  double HostNow() const;

  const PhaseBreakdown& breakdown() const { return breakdown_; }

 private:
  PhaseBreakdown breakdown_;
  TraceRecorder* trace_ = nullptr;
  std::string run_name_;
  int num_devices_ = 1;
  int iter_ = 0;
  /// Per-iteration, per-device, per-phase seconds (attribution buffer).
  std::vector<std::array<double, kNumPhases>> iter_device_s_;
  /// Per-iteration cross-device seconds.
  std::array<double, kNumPhases> iter_direct_s_{};
  /// Simulated-time cursor for device trace tracks (advances by each
  /// iteration's reconciled time; spans runs so traces concatenate).
  double sim_cursor_ = 0;
  std::chrono::steady_clock::time_point host_epoch_;
};

/// RAII wall-clock span attributed to a phase; no clock reads when the
/// profiler is null (disabled path).
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* prof, Phase p, int device = 0)
      : prof_(prof), phase_(p), device_(device) {
    if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (prof_ != nullptr) {
      const auto end = std::chrono::steady_clock::now();
      prof_->AddPhaseSeconds(
          phase_, device_,
          std::chrono::duration<double>(end - start_).count());
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* prof_;
  Phase phase_;
  int device_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII host wall-clock span emitted onto the trace's host track (pipeline
/// stage boundaries). No-op when the profiler is null.
class ScopedHostEvent {
 public:
  ScopedHostEvent(PhaseProfiler* prof, std::string name)
      : prof_(prof), name_(std::move(name)) {
    if (prof_ != nullptr) start_ = prof_->HostNow();
  }
  ~ScopedHostEvent() {
    if (prof_ != nullptr) {
      prof_->RecordHostEvent(name_, start_, prof_->HostNow() - start_);
    }
  }
  ScopedHostEvent(const ScopedHostEvent&) = delete;
  ScopedHostEvent& operator=(const ScopedHostEvent&) = delete;

 private:
  PhaseProfiler* prof_;
  std::string name_;
  double start_ = 0;
};

}  // namespace glp::prof
