// Engine-facing run types: configuration, results, and the polymorphic
// Engine interface every LP implementation (CPU baselines, GPU baselines,
// GLP itself) exposes to the benchmark harness.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "prof/prof.h"
#include "sim/stats.h"
#include "util/status.h"

namespace glp {
class ThreadPool;
}

namespace glp::obs {
class Counter;
class Gauge;
class Histogram;
class MetricRegistry;
class SpanSink;
}  // namespace glp::obs

namespace glp::lp {

/// Parameters of one LP run.
struct RunConfig {
  /// Fixed iteration budget (the paper runs 20 everywhere).
  int max_iterations = 20;
  /// Stop early when an iteration changes no label (0 disables; the paper's
  /// timed runs always use the fixed budget).
  bool stop_when_stable = false;
  /// Update schedule. Synchronous (the paper's bulk-synchronous model) is
  /// the default and what all engines support; the CPU engines additionally
  /// offer asynchronous (in-place) updates, which converge faster and do not
  /// oscillate on bipartite structures. Variants opt in via kSupportsAsync.
  bool synchronous = true;
  /// Seed for randomized hooks (SLP's speaker rule). Engines derive
  /// per-vertex, per-iteration randomness from (seed, iteration, vertex) so
  /// results are engine-independent.
  uint64_t seed = 42;
  /// Optional initial labels (seeded LP in the fraud pipeline). Empty means
  /// the classic unique-label initialization L[v] = v.
  std::vector<graph::Label> initial_labels;
};

/// \brief Execution environment of a run, passed alongside RunConfig.
///
/// RunConfig says *what* to compute (deterministic: iterations, seed,
/// initial labels); RunContext says *how* and *under whose supervision*
/// (profiler, host thread pool, cancellation). Splitting the two lets a
/// long-lived server reuse one immutable config across ticks while giving
/// every tick its own stop token. Everything is nullable and non-owning;
/// a default RunContext is always valid.
struct RunContext {
  /// Optional per-phase profiler (prof/prof.h). Null disables all
  /// instrumentation (zero-cost fast path). One profiler may be reused
  /// across runs (each run resets its breakdown).
  prof::PhaseProfiler* profiler = nullptr;
  /// Host thread pool for CPU engines and the SIMT simulator. Null means
  /// the engine's constructor-supplied pool (or the process default).
  glp::ThreadPool* pool = nullptr;
  /// Cooperative cancellation: engines poll this at iteration boundaries
  /// and return Status::Cancelled when set. The streaming server uses it to
  /// abandon an in-flight detection tick on shutdown.
  const std::atomic<bool>* stop_token = nullptr;
  /// Optional metric registry (obs/metrics.h). When set, engines publish
  /// per-iteration convergence telemetry (changed labels, frontier size,
  /// iteration latency) through a ConvergenceRecorder, and the pipeline
  /// layers on kernel-counter and stage metrics. Null disables everything.
  obs::MetricRegistry* metrics = nullptr;
  /// Optional span sink (obs/trace.h). When set, the pipeline emits child
  /// spans (per-engine LP, cluster extraction) parented to
  /// (trace_id, trace_parent_span) — the serving tick's root span. The
  /// sink is thread-safe; ids are plain ints so this header stays free of
  /// the trace types. Null disables span emission.
  obs::SpanSink* trace_sink = nullptr;
  uint64_t trace_id = 0;
  uint64_t trace_parent_span = 0;

  bool StopRequested() const {
    return stop_token != nullptr &&
           stop_token->load(std::memory_order_relaxed);
  }
};

/// \brief Per-iteration convergence telemetry for one engine run.
///
/// Engines construct one per run from ctx.metrics (a null registry makes
/// every call a no-op branch) and feed it at each iteration boundary —
/// the same points that poll the stop token. Publishes, labeled by
/// {engine=...}: iteration/changed-label counters, changed-labels and
/// frontier-size histograms (the per-iteration series Gunrock exposes as
/// first-class statistics), an iteration-latency histogram, and gauges
/// holding the latest iteration's values so a scrape shows where the
/// current run sits on its convergence curve.
class ConvergenceRecorder {
 public:
  ConvergenceRecorder() = default;
  ConvergenceRecorder(obs::MetricRegistry* registry,
                      const std::string& engine);

  bool enabled() const { return iterations_ != nullptr; }

  /// Records one committed iteration. `changed` is the number of labels the
  /// iteration changed; `frontier` the number of vertices recomputed (the
  /// full vertex count for non-frontier engines, 0 for the iterations a GLP
  /// frontier run fills in after its exit, which `seconds` also records as
  /// 0); `seconds` its simulated (GPU) or wall (CPU) time.
  void RecordIteration(uint64_t changed, uint64_t frontier, double seconds);

 private:
  obs::Counter* iterations_ = nullptr;
  obs::Counter* changed_total_ = nullptr;
  obs::Histogram* changed_ = nullptr;
  obs::Histogram* frontier_ = nullptr;
  obs::Histogram* iteration_seconds_ = nullptr;
  obs::Gauge* last_changed_ = nullptr;
  obs::Gauge* last_frontier_ = nullptr;
};

/// \brief Termination detector for stop_when_stable runs.
///
/// Synchronous LP has two stationary behaviours: a fixed point (an
/// iteration changes no label) and a period-2 oscillation — on bipartite
/// structures the two sides of a cluster swap a label pair forever while
/// the *partition* they induce is already stable (§3.1; the pipeline's
/// companion-group merge exists for exactly this). The tracker detects the
/// second case by comparing each committed labeling against the labeling
/// two commits back. It is seeded with the initial labels, so a run warm-
/// started from inside an oscillation orbit terminates after exactly two
/// iterations *with the same labels it started from* — what makes warm
/// restarts byte-reproducible against the cold run that produced them.
///
/// Cycles are only *reported* at even commit counts. A fixed point is
/// parity-free (every later iteration commits the same labels), but a
/// period-2 orbit is not: stopping one commit earlier or later publishes
/// the orbit's other phase. Pinning the stop to even commits makes the
/// published labeling of any vertex a function of (initial labels, graph)
/// alone — independent of *which* run it was part of — so per-component LP
/// over a subgraph lands on the exact labels a whole-graph run publishes
/// for that component (each component enters its orbit at its own time;
/// the whole-graph run stops at an even commit past all of them, and an
/// even-commit stop of the per-component run reads off the same phase).
/// Once in orbit, the cycle re-detects every subsequent commit, so
/// deferring an odd-commit detection by one iteration loses nothing.
///
/// The GLP engine makes the same comparison on the device: its LP kernels
/// count the labels that differ from two commits back, and it applies the
/// even-commit rule to that count.
class StabilityTracker {
 public:
  /// Arms the tracker with the run's initial labels.
  void Reset(const std::vector<graph::Label>& initial) {
    prev1_ = initial;
    prev2_.clear();
    have2_ = false;
    commits_ = 0;
  }

  /// Feeds the labels committed by an iteration; returns true when they
  /// match the labels two commits ago (a period-2 cycle) *and* the commit
  /// count is even — the phase-aligned stop point.
  bool Cycled(const std::vector<graph::Label>& labels) {
    const bool cycle = have2_ && labels == prev2_;
    prev2_ = std::move(prev1_);
    prev1_ = labels;
    have2_ = true;
    ++commits_;
    return cycle && (commits_ % 2 == 0);
  }

 private:
  std::vector<graph::Label> prev1_, prev2_;
  bool have2_ = false;
  int64_t commits_ = 0;
};

/// Outcome and cost accounting of one run.
struct RunResult {
  std::vector<graph::Label> labels;
  int iterations = 0;

  /// Host wall-clock of the whole run.
  double wall_seconds = 0;
  /// Simulated device time (cost model) of the LP iterations for GPU
  /// engines; equals wall_seconds for CPU engines. This is the number
  /// Figures 4-7 compare. Excludes the one-time setup upload.
  double simulated_seconds = 0;
  /// One-time graph/state upload to the device (not part of the paper's
  /// per-iteration elapsed times).
  double setup_seconds = 0;
  /// Non-overlapped host<->device transfer time included in
  /// simulated_seconds (hybrid / multi-GPU modes).
  double transfer_seconds = 0;
  /// Per-iteration simulated time.
  std::vector<double> iteration_seconds;
  /// Accumulated kernel counters (GPU engines only).
  sim::KernelStats stats;
  /// Peak device-resident bytes the engine required (memory-overhead
  /// comparison of §5.2).
  uint64_t device_bytes = 0;
  /// Per-phase time/counter breakdown; populated (enabled == true) only
  /// when RunContext.profiler was set. Its phase seconds sum to
  /// simulated_seconds' iteration portion by construction.
  prof::PhaseBreakdown phase_breakdown;

  /// Average per-iteration simulated time.
  double AvgIterationSeconds() const {
    return iterations == 0 ? 0.0 : simulated_seconds / iterations;
  }
};

/// A runnable LP engine bound to one variant.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  /// Runs LP on `g`. `ctx` supplies the execution environment (profiler,
  /// thread pool, stop token); engines honour ctx.stop_token at iteration
  /// boundaries and return Status::Cancelled when it fires.
  virtual Result<RunResult> Run(const graph::Graph& g, const RunConfig& config,
                                const RunContext& ctx) = 0;
  /// Convenience overload running with a default (empty) context. Derived
  /// engines re-export this overload with `using Engine::Run;`.
  Result<RunResult> Run(const graph::Graph& g, const RunConfig& config) {
    return Run(g, config, RunContext());
  }
};

/// The implementations compared in §5.2 (Figures 4-6).
enum class EngineKind {
  kSeq,       ///< single-threaded CPU reference
  kTg,        ///< TigerGraph-style accumulator machine (CPU)
  kLigra,     ///< mini-Ligra frontier engine (CPU)
  kOmp,       ///< parallel CPU baseline (the figures' normalizer)
  kGSort,     ///< GPU segmented-sort baseline [17]
  kGHash,     ///< GPU hash-table baseline [2]
  kGlp,       ///< this paper
};

const char* EngineKindName(EngineKind kind);

/// The LP algorithms of §3.1 (plus the degree-weighted extension variant).
enum class VariantKind { kClassic, kLlp, kSlp, kDegreeWeighted };

/// Variant parameters (γ for LLP; memory capacity and pruning threshold for
/// SLP, §3.1 / §5.1).
struct VariantParams {
  double llp_gamma = 1.0;
  int slp_max_labels = 5;
  double slp_min_frequency = 0.1;
};

/// GLP-engine tuning knobs (paper §4 / §5.3 defaults).
struct GlpOptions {
  /// Optimization level, matching Table 3's rows.
  enum class Mode {
    kGlobal,    ///< global hash table for every vertex ("global")
    kSmem,      ///< + CMS+HT shared-memory counting ("smem")
    kSmemWarp,  ///< + warp-centric low-degree scheduling ("smem+warp", full GLP)
  };
  Mode mode = Mode::kSmemWarp;
  int low_degree_max = 31;    ///< §5.3: low degree < 32
  int high_degree_min = 129;  ///< §5.3: high degree > 128
  int ht_capacity = 1024;     ///< shared-memory HT slots (h)
  int cms_depth = 4;          ///< CMS hash functions (d)
  int cms_width = 2048;       ///< CMS buckets per row (w)
  int threads_per_block = 256;
  /// Period-2 frontier: a vertex re-runs LabelPropagation only when some
  /// neighbour's label at t-1 differs from its label at t-3; otherwise its
  /// label is the one from two iterations back, which ping-pong buffering
  /// already holds in Lnext. A commit whose label differs from the value it
  /// overwrites pushes marks to its neighbours, inside the LP kernels, so
  /// the rule adds no phase and no grid barrier. Each commit counts those
  /// pushers' edges: an iteration pushes only when the last count predicts
  /// the pushes cost less than the recompute they save (else the next
  /// iteration runs in full), and a count of 0 ends the run on the device,
  /// because every later iteration repeats a period-2 cycle (DESIGN.md
  /// §4.2). It skips work where labels converge and where they oscillate
  /// with period 2 (bipartite windows). Exact: labels, iteration counts and
  /// the device change counters equal full passes. Classic and
  /// degree-weighted LP in the shared-memory modes use it; LLP (global
  /// label volumes), SLP (speakers redrawn every iteration) and mode
  /// kGlobal run full passes. Off here, so the paper-figure benches time
  /// full passes; pipeline::PipelineConfig turns it on.
  bool use_frontier = false;
  /// Number of GPUs (vertex-partitioned, per-iteration label all-gather;
  /// aggregate device memory scales with the count).
  int num_gpus = 1;
  /// Force the CPU-GPU hybrid (out-of-core) mode even when the graph fits.
  bool force_hybrid = false;
  /// Hybrid-mode host side: effective memory bandwidth the CPU partition
  /// processes its edges at, and its per-edge traffic (matches the
  /// per-machine model of pipeline::ClusterConfig).
  double host_mem_bandwidth_gbps = 60.0;
  double host_bytes_per_edge = 16.0;
};

}  // namespace glp::lp
