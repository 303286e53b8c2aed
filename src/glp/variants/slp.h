// Speaker-listener label propagation (SLPA) [Xie et al. 2011] as a GLP
// variant (paper §3.1): detects *overlapping* communities by giving every
// vertex a bounded multiset of candidate labels ("memory").
//
// Per iteration:
//   PickLabel      each vertex speaks one label drawn from its memory with
//                  probability proportional to the stored count;
//   LabelScore     plain frequency of spoken labels among neighbors;
//   UpdateVertex   the listener adds the chosen MFL to its memory;
//   end of iter    labels whose relative frequency in the memory falls below
//                  a threshold are evicted (paper's pruning rule), and the
//                  memory is capped at `slp_max_labels` (5 in §5.1).
//
// The speaker draw uses hash-derived randomness keyed on
// (seed, iteration, vertex), so every engine produces identical SLP results —
// a cross-engine equality invariant the integration tests rely on.

#pragma once

#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "glp/run.h"

namespace glp::lp {

/// SLP: overlapping community detection with per-vertex label memory.
class SlpVariant {
 public:
  static constexpr bool kNeedsLabelAux = false;
  static constexpr bool kUnitWeight = true;
  /// The speaker/listener protocol is inherently bulk-synchronous.
  static constexpr bool kSupportsAsync = false;

  explicit SlpVariant(const VariantParams& params = {})
      : max_labels_(params.slp_max_labels),
        min_frequency_(params.slp_min_frequency) {}

  void Init(const graph::Graph& g, const RunConfig& config);

  /// PickLabel: weighted speaker draw into labels().
  void BeginIteration(int iter);

  const std::vector<graph::Label>& labels() const { return spoken_; }
  std::vector<graph::Label>& next_labels() { return next_; }

  const std::vector<float>& label_aux() const {
    static const std::vector<float> kEmpty;
    return kEmpty;
  }

  double NeighborWeight(graph::VertexId /*v*/, graph::VertexId /*u*/) const {
    return 1.0;
  }

  double Score(graph::VertexId /*v*/, graph::Label /*l*/, double freq,
               double /*aux*/) const {
    return freq;
  }

  /// Listener update + threshold pruning.
  int EndIteration(int iter);

  /// Primary (highest-count) memory label per vertex.
  std::vector<graph::Label> FinalLabels() const;

  /// All memory labels of v whose relative count passes the threshold — the
  /// overlapping-community readout.
  std::vector<graph::Label> CommunityLabels(graph::VertexId v) const;

  int max_labels() const { return max_labels_; }

  /// Each vertex's chosen label of the last committed iteration
  /// (kInvalidLabel before its first); an iteration changes the vertices
  /// whose new choice differs. GPU engines count that in the memory merge.
  const std::vector<graph::Label>& prev_choices() const {
    return prev_choice_;
  }

  bool needs_pick_kernel() const { return true; }
  uint64_t memory_bytes_per_vertex() const {
    return static_cast<uint64_t>(max_labels_) * sizeof(Slot);
  }

 private:
  struct Slot {
    graph::Label label = graph::kInvalidLabel;
    float count = 0;
  };

  /// Memory slots of vertex v.
  Slot* MemoryOf(graph::VertexId v) { return &memory_[v * max_labels_]; }
  const Slot* MemoryOf(graph::VertexId v) const {
    return &memory_[v * max_labels_];
  }

  int max_labels_;
  double min_frequency_;
  uint64_t seed_ = 0;

  std::vector<Slot> memory_;          // n * max_labels_
  std::vector<graph::Label> spoken_;  // per-iteration speaker choice
  std::vector<graph::Label> next_;    // kernel output (chosen MFL)
  std::vector<graph::Label> prev_choice_;
};

}  // namespace glp::lp
