// Sample statistics and load-generator accounting for the serving
// benchmark. Header-only so the checks in stats_test.cc exercise exactly
// the code the benchmark runs.
//
// Percentiles are exact order statistics over the raw samples (nearest
// rank), never registry-histogram bucket edges: a bucketed p90 moves in
// quarter-octave steps, which is wider than the bounds the benchmark
// enforces.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

/// Nearest-rank q-quantile (q in [0, 1]): the smallest sample x such that
/// at least ceil(q * n) samples are <= x. Always one of the samples.
/// Returns 0 for an empty sample.
inline double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

inline double Median(const std::vector<double>& xs) {
  return Quantile(xs, 0.5);
}

inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Samples strictly above the nearest-rank q-quantile's rank: how many
/// observations a reported percentile rests on in its tail.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1,
      n);
  return n - rank;
}

/// Seconds on the steady clock (the one clock every benchmark timestamp
/// uses, so scheduled, started and published times subtract cleanly).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Blocks until the steady clock reaches `due` and returns the time the
/// caller was released. Sleeps until just before `due`, then spins the
/// rest: a generator that spins throughout keeps a vCPU busy for the
/// whole run, and on a shared host that vCPU competes with the detection
/// thread for its core. Whatever lateness the wake-up adds is kept in
/// OpenLoopLog::lateness and charged to the operation, as open-loop
/// accounting requires.
inline double WaitUntil(double due) {
  constexpr double kSpinSeconds = 100e-6;
  double now = Now();
  if (due - now > kSpinSeconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due - now - kSpinSeconds));
    now = Now();
  }
  while (now < due) now = Now();
  return now;
}

/// Open-loop accounting: every operation is timed from when it was due,
/// so a stall also charges the operations queued behind it; the
/// generator's own lateness (released - due) is kept apart.
struct OpenLoopLog {
  std::vector<double> latency;   ///< done - due, per operation
  std::vector<double> lateness;  ///< released - due, per operation

  void Record(double due, double released, double done) {
    latency.push_back(done - due);
    lateness.push_back(std::max(0.0, released - due));
  }
};

/// Online processors this process may run on (what `nproc` prints).
inline int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Busy threads one run puts on the host: the load generator, the
/// detection thread, the pool's workers (a ThreadPool of size p spawns
/// p - 1; the detection thread is its p-th participant) and one server
/// thread per HTTP connection. A run whose total exceeds `nproc` would
/// measure its own oversubscription, so it refuses to start.
struct ThreadBudget {
  int nproc = 0;
  int pool = 0;
  int connections = 0;

  int total() const { return 1 + 1 + (pool - 1) + connections; }
  bool ok() const { return pool >= 1 && total() <= nproc; }
  std::string ToString() const {
    return "nproc=" + std::to_string(nproc) + " pool=" +
           std::to_string(pool) + " connections=" +
           std::to_string(connections) + " threads=" +
           std::to_string(total());
  }
};

/// Process high-water resident set, in MiB.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
