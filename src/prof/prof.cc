#include "prof/prof.h"

#include <algorithm>
#include <cstdio>

#include "prof/trace.h"
#include "util/json.h"

namespace glp::prof {

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kPick:
      return "pick";
    case Phase::kFrontier:
      return "frontier";
    case Phase::kLowBin:
      return "low-bin";
    case Phase::kMidBin:
      return "mid-bin";
    case Phase::kHighBin:
      return "high-bin";
    case Phase::kCommit:
      return "commit";
    case Phase::kGridSync:
      return "grid-sync";
    case Phase::kAllGather:
      return "allgather";
    case Phase::kHybridSync:
      return "hybrid-sync";
    case Phase::kCompute:
      return "compute";
    case Phase::kNumPhases:
      break;
  }
  return "?";
}

double PhaseBreakdown::SumSeconds() const {
  double s = 0;
  for (const PhaseStats& p : phases) s += p.seconds;
  return s;
}

std::string PhaseBreakdown::ToString() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "%-12s%10s%14s%12s%10s%12s%8s\n", "phase",
                "launches", "gmem txn", "gmem MB", "lane", "seconds",
                "share");
  out += line;
  out += std::string(78, '-');
  out += "\n";
  const double total = total_seconds > 0 ? total_seconds : 1.0;
  for (int i = 0; i < kNumPhases; ++i) {
    const PhaseStats& p = phases[i];
    if (p.launches == 0 && p.seconds == 0) continue;
    std::snprintf(line, sizeof(line),
                  "%-12s%10llu%14llu%12.2f%10.2f%12.3e%7.1f%%\n",
                  PhaseName(static_cast<Phase>(i)),
                  static_cast<unsigned long long>(p.launches),
                  static_cast<unsigned long long>(p.global_transactions),
                  static_cast<double>(p.global_bytes) / (1 << 20),
                  p.LaneUtilization(), p.seconds, 100.0 * p.seconds / total);
    out += line;
  }
  out += std::string(78, '-');
  out += "\n";
  std::snprintf(line, sizeof(line), "%-12s%58.3e\n", "total", total_seconds);
  out += line;
  return out;
}

std::string PhaseBreakdown::ToJson() const {
  json::Writer w;
  w.BeginObject().Key("phases").BeginObject();
  for (int i = 0; i < kNumPhases; ++i) {
    const PhaseStats& p = phases[i];
    if (p.launches == 0 && p.seconds == 0) continue;
    w.Key(PhaseName(static_cast<Phase>(i))).BeginObject();
    w.Key("launches").Uint(p.launches);
    w.Key("global_transactions").Uint(p.global_transactions);
    w.Key("global_bytes").Uint(p.global_bytes);
    w.Key("lane_utilization").DoubleFixed(p.LaneUtilization(), 4);
    w.Key("seconds").Double(p.seconds);
    w.EndObject();
  }
  w.EndObject();
  w.Key("total_seconds").Double(total_seconds);
  w.EndObject();
  return w.Take();
}

PhaseProfiler::PhaseProfiler()
    : iter_device_s_(1), host_epoch_(std::chrono::steady_clock::now()) {}

void PhaseProfiler::BeginRun(const std::string& name, int num_devices) {
  run_name_ = name;
  num_devices_ = std::max(1, num_devices);
  breakdown_ = PhaseBreakdown{};
  breakdown_.enabled = true;
  iter_device_s_.assign(num_devices_, {});
  iter_direct_s_.fill(0);
  if (trace_ != nullptr) {
    trace_->SetProcessName(TraceRecorder::kHostPid, "host");
    trace_->SetProcessName(TraceRecorder::kDevicePid,
                           "simulated device (" + name + ")");
    trace_->SetThreadName(TraceRecorder::kHostPid, 0, "host");
    for (int g = 0; g < num_devices_; ++g) {
      trace_->SetThreadName(TraceRecorder::kDevicePid, g,
                            "gpu" + std::to_string(g));
    }
    trace_->SetThreadName(TraceRecorder::kDevicePid, num_devices_,
                          "interconnect");
  }
}

void PhaseProfiler::BeginIteration(int iter) {
  iter_ = iter;
  for (auto& per_device : iter_device_s_) per_device.fill(0);
  iter_direct_s_.fill(0);
}

void PhaseProfiler::AddKernel(Phase p, int gpu, const sim::KernelStats& stats,
                              double seconds) {
  PhaseStats& ps = breakdown_[p];
  ps.launches += stats.kernel_launches;
  ps.global_transactions += stats.global_transactions;
  ps.global_bytes += stats.global_bytes_requested;
  ps.active_lane_cycles += stats.active_lane_cycles;
  ps.total_lane_cycles += stats.total_lane_cycles;
  AddPhaseSeconds(p, gpu, seconds);
}

void PhaseProfiler::AddPhaseSeconds(Phase p, int gpu, double seconds) {
  if (gpu >= static_cast<int>(iter_device_s_.size())) {
    iter_device_s_.resize(gpu + 1, {});
  }
  iter_device_s_[gpu][static_cast<int>(p)] += seconds;
}

void PhaseProfiler::AddSeconds(Phase p, double seconds) {
  iter_direct_s_[static_cast<int>(p)] += seconds;
}

void PhaseProfiler::EndIteration(double iteration_seconds) {
  // Critical device: the one whose phase seconds sum highest — its split is
  // what the iteration's elapsed time is made of.
  size_t critical = 0;
  double critical_sum = -1;
  for (size_t g = 0; g < iter_device_s_.size(); ++g) {
    double s = 0;
    for (const double v : iter_device_s_[g]) s += v;
    if (s > critical_sum) {
      critical_sum = s;
      critical = g;
    }
  }
  std::array<double, kNumPhases> phase_s = iter_device_s_[critical];
  double sum = 0;
  for (int i = 0; i < kNumPhases; ++i) {
    phase_s[i] += iter_direct_s_[i];
    sum += phase_s[i];
  }
  if (sum > 0) {
    // Rescale so per-phase seconds sum exactly to the reconciled iteration
    // time (multi-GPU max-fold, hybrid compression).
    const double scale = iteration_seconds / sum;
    for (int i = 0; i < kNumPhases; ++i) {
      breakdown_.phases[i].seconds += phase_s[i] * scale;
    }
  } else if (iteration_seconds > 0) {
    breakdown_[Phase::kCompute].seconds += iteration_seconds;
  }
  breakdown_.total_seconds += iteration_seconds;

  if (trace_ != nullptr) {
    const std::string tag = " #" + std::to_string(iter_);
    for (size_t g = 0; g < iter_device_s_.size(); ++g) {
      double cursor = sim_cursor_;
      for (int i = 0; i < kNumPhases; ++i) {
        const double dur = iter_device_s_[g][i];
        if (dur <= 0) continue;
        trace_->AddEvent(TraceRecorder::kDevicePid, static_cast<int>(g),
                         PhaseName(static_cast<Phase>(i)) + tag, cursor, dur);
        cursor += dur;
      }
    }
    // Cross-device phases land on the interconnect track, after the
    // critical device's kernels.
    double cursor = sim_cursor_ + critical_sum;
    for (int i = 0; i < kNumPhases; ++i) {
      const double dur = iter_direct_s_[i];
      if (dur <= 0) continue;
      trace_->AddEvent(TraceRecorder::kDevicePid,
                       static_cast<int>(iter_device_s_.size()),
                       PhaseName(static_cast<Phase>(i)) + tag, cursor, dur);
      cursor += dur;
    }
    sim_cursor_ += iteration_seconds;
  }
}

void PhaseProfiler::RecordHostEvent(const std::string& name, double start_s,
                                    double dur_s) {
  if (trace_ != nullptr) {
    trace_->AddEvent(TraceRecorder::kHostPid, 0, name, start_s, dur_s);
  }
}

double PhaseProfiler::HostNow() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       host_epoch_)
      .count();
}

}  // namespace glp::prof
