// Per-launch cost accumulation for GPU engines.
//
// The roofline cost model applies per kernel launch (a memory-bound kernel
// cannot borrow the compute pipe of the next one), so engines record each
// launch separately and sum the priced times.

#pragma once

#include <vector>

#include "prof/prof.h"
#include "sim/cost_model.h"
#include "sim/stats.h"

namespace glp::lp {

/// Collects launches of one engine run and prices them. An optional
/// PhaseProfiler receives every phase-tagged launch (untagged overloads
/// stay available for accounting that the caller attributes itself).
class GpuRunAccumulator {
 public:
  explicit GpuRunAccumulator(const sim::CostModel* cost,
                             prof::PhaseProfiler* profiler = nullptr)
      : cost_(cost), profiler_(profiler) {}

  /// Adds a launch's stats; returns its priced duration in seconds.
  double AddLaunch(const sim::KernelStats& stats) {
    total_ += stats;
    const double t = cost_->KernelCost(stats).total_s;
    seconds_ += t;
    return t;
  }

  /// AddLaunch with phase attribution on device `gpu`.
  double AddLaunch(const sim::KernelStats& stats, prof::Phase phase,
                   int gpu = 0) {
    const double t = AddLaunch(stats);
    if (profiler_ != nullptr) profiler_->AddKernel(phase, gpu, stats, t);
    return t;
  }

  /// Accounts a launch that runs concurrently with launches on *other*
  /// devices: stats accumulate, but the caller owns how its duration folds
  /// into elapsed time (typically a max across devices fed to AddSeconds).
  double AddLaunchConcurrent(const sim::KernelStats& stats) {
    total_ += stats;
    return cost_->KernelCost(stats).total_s;
  }

  /// AddLaunchConcurrent with phase attribution on device `gpu`.
  double AddLaunchConcurrent(const sim::KernelStats& stats, prof::Phase phase,
                             int gpu) {
    const double t = AddLaunchConcurrent(stats);
    if (profiler_ != nullptr) profiler_->AddKernel(phase, gpu, stats, t);
    return t;
  }

  prof::PhaseProfiler* profiler() const { return profiler_; }

  /// Adds already-reconciled elapsed time (e.g. the max over devices).
  void AddSeconds(double s) { seconds_ += s; }

  const sim::KernelStats& total() const { return total_; }
  double seconds() const { return seconds_; }

  /// Resets the per-iteration portion (total stats keep accumulating).
  double TakeSeconds() {
    const double s = seconds_;
    seconds_ = 0;
    return s;
  }

 private:
  const sim::CostModel* cost_;
  prof::PhaseProfiler* profiler_;
  sim::KernelStats total_;
  double seconds_ = 0;
};

/// Synthesized stats of a trivially-coalesced elementwise kernel (label
/// commit, SLP pick/merge, array memset): streaming reads/writes plus one
/// warp instruction per 32 processed elements. Used for the cheap
/// PickLabel/UpdateVertex phases whose cost the paper folds into the
/// iteration but which are not the object of study.
inline sim::KernelStats MapKernelStats(uint64_t elements, uint64_t bytes_read,
                                       uint64_t bytes_written) {
  sim::KernelStats s;
  s.kernel_launches = 1;
  s.global_transactions = (bytes_read + 31) / 32 + (bytes_written + 31) / 32;
  s.global_bytes_requested = bytes_read + bytes_written;
  const uint64_t warp_ops = (elements + 31) / 32;
  s.instructions = 2 * warp_ops;
  s.active_lane_cycles = 2 * warp_ops * 32;
  s.total_lane_cycles = 2 * warp_ops * 32;
  return s;
}

/// Synthesized stats of a scattered histogram kernel (LLP volume rebuild):
/// one coalesced read of the label array plus one random-address global
/// atomic per element.
inline sim::KernelStats HistogramKernelStats(uint64_t elements) {
  sim::KernelStats s;
  s.kernel_launches = 1;
  const uint64_t bytes = elements * 4;
  s.global_transactions = (bytes + 31) / 32 + elements;  // read + scattered RMW
  s.global_bytes_requested = 2 * bytes;
  s.global_atomics = elements;
  const uint64_t warp_ops = (elements + 31) / 32;
  s.instructions = 2 * warp_ops;
  s.active_lane_cycles = 2 * warp_ops * 32;
  s.total_lane_cycles = 2 * warp_ops * 32;
  return s;
}

}  // namespace glp::lp
