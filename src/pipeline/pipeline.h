// The end-to-end fraud-detection pipeline of paper Figure 1:
//
//   transaction stream -> sliding-window graph -> LP clustering (seeded by
//   the blacklist) -> suspicious-cluster extraction -> downstream cluster
//   scoring (stand-in for the production GNN stage) -> detected entities.
//
// The LP stage is pluggable (any EngineKind/VariantKind), which is the
// pipeline-level payoff of GLP's programmability goal.

#pragma once

#include <cstdint>
#include <vector>

#include "glp/factory.h"
#include "glp/run.h"
#include "pipeline/metrics.h"
#include "pipeline/transactions.h"
#include "prof/prof.h"

namespace glp::pipeline {

/// Pipeline stage configuration.
///
/// The LP-run parameters live in one embedded lp::RunConfig — the same
/// struct the engines consume and the streaming server reuses per tick — so
/// there is exactly one place to set iterations, seed, early-stop, or
/// warm-start labels. Execution-environment concerns (profiler, thread
/// pool, cancellation) ride in the lp::RunContext passed alongside.
struct PipelineConfig {
  /// Sliding window: [end_day - window_days, end_day).
  int window_days = 30;
  /// Window end; negative means "end of stream".
  double end_day = -1;

  /// LP stage: engine and variant selection.
  lp::EngineKind engine = lp::EngineKind::kGlp;
  lp::VariantKind variant = lp::VariantKind::kClassic;
  lp::VariantParams variant_params;
  /// GLP tuning. Unlike a bare GlpOptions, the pipeline runs the period-2
  /// frontier (GlpOptions::use_frontier): labels are bit-equal to full
  /// passes, and a converging or oscillating window recomputes only where
  /// labels still move.
  lp::GlpOptions glp_options{.use_frontier = true};
  /// LP run parameters (iterations, seed, stop_when_stable, initial
  /// labels), forwarded verbatim to the engine.
  lp::RunConfig lp;

  /// Cluster extraction: suspicious clusters contain at least one
  /// blacklisted seed and are no larger than this (fraud rings are small;
  /// giant organic communities are ignored).
  uint64_t max_cluster_size = 500;

  /// Downstream scorer: minimum internal edge density for a suspicious
  /// cluster to be confirmed (the GNN stand-in; see DESIGN.md).
  double min_cluster_density = 0.05;

  /// Build weighted window graphs (parallel purchases collapsed into edge
  /// weights): identical detections at a fraction of the graph memory.
  /// Requires an LP engine that supports weighted graphs (not G-Sort).
  bool collapse_window_graphs = false;
};

/// One extracted cluster (global entity ids).
struct SuspiciousCluster {
  graph::Label label;
  std::vector<graph::VertexId> members;  ///< global ids
  int num_seeds = 0;
  int64_t internal_edges = 0;
  double density = 0;    ///< internal_edges / (|members| choose 2)
  bool confirmed = false;  ///< passed the downstream scorer
};

/// Full pipeline output for one window.
struct PipelineResult {
  // Window graph shape (Table 4 columns).
  graph::VertexId window_vertices = 0;
  graph::EdgeId window_edges = 0;

  lp::RunResult lp;
  std::vector<SuspiciousCluster> clusters;

  /// LP-stage detection quality (all members of suspicious clusters).
  DetectionMetrics lp_metrics;
  /// After the downstream scorer (confirmed clusters only).
  DetectionMetrics confirmed_metrics;

  /// Stage timings. lp_seconds is the engine's simulated_seconds (device
  /// time for GPU engines); lp_wall_seconds is the measured host wall-clock
  /// of the LP stage call; the others are host wall-clock.
  double build_seconds = 0;
  double lp_seconds = 0;
  double lp_wall_seconds = 0;
  double extract_seconds = 0;

  /// LP share of total pipeline time (the paper's "75%" observation),
  /// using the engine-reported (simulated) LP time.
  double LpFraction() const {
    const double total = build_seconds + lp_seconds + extract_seconds;
    return total == 0 ? 0 : lp_seconds / total;
  }

  /// LP share measured from host wall-clock rather than inferred from the
  /// engine's simulated time — what a deployment would actually observe.
  double MeasuredLpFraction() const {
    const double total = build_seconds + lp_wall_seconds + extract_seconds;
    return total == 0 ? 0 : lp_wall_seconds / total;
  }
};

/// \brief Incremental-detection input for DetectOnSnapshot (DESIGN.md
/// §4.10): which snapshot vertices are dirty, what the clean ones are
/// labeled, and which cluster records carry over verbatim.
///
/// Dirty vertices are the members of components whose edge set changed
/// since the caller's previous tick; the dirty set is component-closed (a
/// component is entirely dirty or entirely clean). LP runs only on the
/// subgraph induced by the dirty vertices — exact because label
/// propagation never crosses a component boundary — and clean vertices
/// take `clean_labels` (the caller's previous-tick labels, re-expressed in
/// this snapshot's local ids). `reused` holds the previous tick's cluster
/// records for clean components, labels already remapped; they are
/// appended to the freshly extracted clusters so the combined output is
/// byte-identical to a from-scratch extraction.
struct DetectDelta {
  /// Per-local-vertex dirty flag; size must equal the snapshot's vertex
  /// count, and the set must be closed under connectivity.
  std::vector<uint8_t> dirty;
  /// Label for every vertex (local ids); read only where !dirty.
  std::vector<graph::Label> clean_labels;
  /// Clean-component cluster records reused verbatim (members are global
  /// ids; label is the record's anchor re-expressed as a current local id).
  std::vector<SuspiciousCluster> reused;
  /// Run extraction over *all* components (ignoring `reused`) while still
  /// restricting LP to the dirty ones — the checkpoint-restore case, where
  /// previous labels survive but cluster records do not.
  bool extract_all = false;
};

/// \brief Runs LP clustering + cluster extraction + scoring on an
/// already-built window snapshot — stages 2 and 3 of Figure 1.
///
/// This is the tick kernel shared by the one-shot pipeline (which builds its
/// snapshot with SlidingWindow::Snapshot) and the streaming server (which
/// advances a SlidingWindowCursor incrementally): both paths feed the same
/// detection code, which is what makes the server's per-tick output
/// provably identical to an equivalent one-shot run.
///
/// `seeds` is the blacklist (global ids); `ground_truth` (nullable) scores
/// detections against the stream's injected fraud over
/// [window_start, window_end). build_seconds is left 0 — the caller owns
/// snapshot construction and its timing.
///
/// `delta` (nullable) switches on incremental detection: LP and extraction
/// run only over delta->dirty vertices, clean components take
/// delta->clean_labels and delta->reused. The published labels and
/// clusters are byte-identical to a delta-free run given the exactness
/// preconditions (empty config.lp.initial_labels, synchronous updates, a
/// variant without per-vertex-id randomness, and an even
/// config.lp.max_iterations when stop_when_stable is set — see DESIGN.md
/// §4.10); violating them is an InvalidArgument. lp.iterations and the
/// timing fields reflect the dirty subgraph only (cost accounting, exempt
/// from the byte-identity bar).
Result<PipelineResult> DetectOnSnapshot(const graph::WindowSnapshot& snap,
                                        const PipelineConfig& config,
                                        const lp::RunContext& ctx,
                                        const std::vector<graph::VertexId>& seeds,
                                        const TransactionStream* ground_truth,
                                        double window_start,
                                        double window_end,
                                        const DetectDelta* delta);

/// Delta-free overload (the historical signature).
Result<PipelineResult> DetectOnSnapshot(const graph::WindowSnapshot& snap,
                                        const PipelineConfig& config,
                                        const lp::RunContext& ctx,
                                        const std::vector<graph::VertexId>& seeds,
                                        const TransactionStream* ground_truth,
                                        double window_start,
                                        double window_end);

/// Runs the Figure 1 pipeline over a transaction stream.
class FraudDetectionPipeline {
 public:
  explicit FraudDetectionPipeline(const TransactionStream* stream);

  /// Processes one sliding window. Errors propagate from the LP engine.
  Result<PipelineResult> Run(const PipelineConfig& config) const;
  /// Same, with an explicit execution context (profiler / pool / stop
  /// token) threaded through to the LP engine.
  Result<PipelineResult> Run(const PipelineConfig& config,
                             const lp::RunContext& ctx) const;

 private:
  const TransactionStream* stream_;
  graph::SlidingWindow window_;
};

}  // namespace glp::pipeline
