// The GLP engine — the paper's contribution (§3-§4): degree-binned kernel
// dispatch over the SIMT device, with three optimization levels matching
// Table 3's rows, CPU-GPU hybrid (out-of-core) execution, and multi-GPU
// scaling (§5.4).
//
// Per iteration:
//   PickLabel        host hook (+ charged device pick kernel when the
//                    variant has per-vertex state, e.g. SLP)
//   LabelPropagation low bin  -> warp-centric multi-vertex kernel (§4.2),
//                               one round per range of consecutive ids
//                    mid bin  -> warp-per-vertex shared-HT kernel, in id
//                               order, one batched commit per block
//                    high bin -> block-per-vertex CMS+HT kernel (§4.1)
//                    (mode kGlobal/kSmem fall back per Table 3)
//                    Each kernel's commit writes Lnext and counts the
//                    labels it changes into a device counter (and, under
//                    stop_when_stable, those differing from two commits
//                    back): the commit needs no launch of its own. The
//                    kernels' reads coalesce because every CSR list is in
//                    ascending id order (graph::GraphBuilder).
//   UpdateVertex     host hook; the label swap is a pointer flip. Charged
//                    auxiliary kernels remain for variants with extra state
//                    (SLP's memory merge, which counts SLP's changes; LLP's
//                    volume rebuild).
//
// Frontier (GlpOptions::use_frontier; on in pipeline::PipelineConfig): the
// period-2 rule. Each commit counts its pushers, the vertices whose label
// differs from two commits back, by their edges. An iteration after one that
// pushed marks recomputes only the marked vertices; a skipped vertex keeps
// the Lnext value, its label from two commits back. At the barrier opening
// each iteration the blocks read the last pushed-edge count and decide two
// things. Direction: the iteration pushes marks to its pushers' neighbours
// only when that count predicts the pushes cost less than the recompute
// they let the next iteration skip (PushShareLimit, from the cost model's
// prices); otherwise the next iteration runs in full. Exit: a count of 0
// means the last commit equals the one two back, so every later iteration
// repeats that period-2 cycle; the blocks exit, and the remaining iterations
// are filled in with no device work. The kernels read and push the marks
// themselves, so the rule adds no phase and no barrier.
//
// Launch structure: a single-GPU run whose graph fits on the device is one
// persistent kernel. It pays one launch, and every former launch boundary
// inside it is a grid barrier; the barrier that ends an iteration is where,
// under stop_when_stable or the frontier, the blocks read the counters and
// stop (or exit) together.
// Multi-GPU and hybrid runs exchange labels between iterations (a peer
// all-gather, a host sync), so they launch every phase of every iteration.
//
// Timing: every phase is priced by the roofline cost model; multi-GPU
// divides kernel time across devices and adds a partially-overlapped label
// all-gather; hybrid mode adds the non-overlappable part of streaming the
// CSR over PCIe each iteration.

#pragma once

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "glp/kernels/accounting.h"
#include "glp/kernels/common.h"
#include "glp/kernels/global_ht.h"
#include "glp/kernels/high_degree.h"
#include "glp/kernels/low_degree.h"
#include "glp/kernels/warp_per_vertex.h"
#include "glp/run.h"
#include "graph/binning.h"
#include "sim/cost_model.h"
#include "sim/launch.h"
#include "sim/transfer.h"
#include "util/bits.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace glp::lp {

/// GLP over any variant policy.
template <typename Variant>
class GlpEngine : public Engine {
 public:
  GlpEngine(const VariantParams& params = {}, const GlpOptions& options = {},
            glp::ThreadPool* pool = nullptr,
            sim::DeviceProps device = sim::DeviceProps::TitanV())
      : params_(params),
        options_(options),
        pool_(pool != nullptr ? pool : glp::ThreadPool::Default()),
        device_(device),
        cost_(device) {}

  std::string name() const override {
    std::string base;
    switch (options_.mode) {
      case GlpOptions::Mode::kGlobal:
        base = "GLP-global";
        break;
      case GlpOptions::Mode::kSmem:
        base = "GLP-smem";
        break;
      case GlpOptions::Mode::kSmemWarp:
        base = "GLP";
        break;
    }
    if (options_.use_frontier) base += "+frontier";
    return base;
  }

  /// Per-iteration counts of the vertices the last run recomputed, and of
  /// their edges (every vertex and edge on a full pass; 0 on the iterations
  /// filled in after a frontier exit).
  const std::vector<uint64_t>& last_affected_counts() const {
    return affected_counts_;
  }
  const std::vector<uint64_t>& last_affected_edges() const {
    return affected_edges_;
  }

  /// Vertices that took the Theorem-1 fallback path in the last run.
  uint64_t last_fallback_count() const { return fallback_count_; }
  /// Low-bin packing efficiency of the last run.
  double last_plan_occupancy() const { return plan_occupancy_; }

  /// Device counters of iteration `iter` of the last run: the labels its
  /// commit changed, and the labels that differ from two commits back
  /// (counted under stop_when_stable from the second iteration on, else 0).
  /// An iteration filled in after a frontier exit reports what the run in
  /// full passes counts there: the last run iteration's change count (the
  /// cycle swaps the same labels back and forth) and 0 two-back.
  uint32_t last_changed(int iter) const { return counters_[2 * iter]; }
  uint32_t last_two_back(int iter) const { return counters_[2 * iter + 1]; }

  /// Whether iteration `iter` of the last run pushed frontier marks for the
  /// next one (the direction switch), and how many iterations ran on the
  /// device: after a frontier exit the rest of RunResult::iterations were
  /// filled in.
  bool last_pushed(int iter) const { return pushed_[iter]; }
  int last_iterations_ran() const { return iterations_ran_; }

  using Engine::Run;
  Result<RunResult> Run(const graph::Graph& g, const RunConfig& config,
                        const RunContext& ctx) override {
    if (!config.initial_labels.empty() &&
        config.initial_labels.size() != g.num_vertices()) {
      return Status::InvalidArgument("initial_labels size mismatch");
    }
    glp::Timer timer;
    glp::ThreadPool* const pool = ctx.pool != nullptr ? ctx.pool : pool_;
    Variant variant(params_);
    variant.Init(g, config);

    const graph::VertexId n = g.num_vertices();
    const uint64_t nu = n;

    // --- Setup: degree bins and mode-specific structures ---
    graph::BinningConfig bin_cfg;
    bin_cfg.low_degree_max = options_.low_degree_max;
    bin_cfg.high_degree_min = options_.high_degree_min;
    const graph::DegreeBins bins = graph::ComputeDegreeBins(g, bin_cfg);

    // The warp-centric low-degree kernel derives frequencies from popcounts,
    // which requires unit neighbor weights; non-unit variants and weighted
    // graphs route their low bin to the warp-per-vertex kernel instead.
    const bool use_warp_pack = options_.mode == GlpOptions::Mode::kSmemWarp &&
                               Variant::kUnitWeight && !g.has_weights();
    const bool use_smem = options_.mode != GlpOptions::Mode::kGlobal;

    const int num_gpus = std::max(1, options_.num_gpus);

    // Vertex-partition the bins across GPUs round-robin (the bins are
    // degree-sorted, so striding balances per-GPU edge counts), and build
    // each GPU's mode-specific structures over its own partition. The
    // low-degree kernel's rounds are runs of consecutive ids, which striding
    // would break up, so under it each GPU takes a contiguous id range of
    // the low bin holding an equal share of its edges instead.
    struct GpuPartition {
      graph::DegreeBins bins;
      std::vector<graph::VertexId> all_vertices;  // mode kGlobal
      GlobalHtArena arena;                        // mode kGlobal
      LowDegreePlan plan;                         // mode kSmemWarp
      /// Sorted partition vertices when the partition is not all of them
      /// (the memory-merge change count of kCountsInMerge variants).
      std::vector<graph::VertexId> members;
      int low_ht_capacity = 64;
      int mid_ht_capacity = 64;
      uint64_t vertices = 0;
    };
    std::vector<GpuPartition> parts(num_gpus);
    auto split = [&](const std::vector<graph::VertexId>& src,
                     std::vector<graph::VertexId> graph::DegreeBins::*bin) {
      for (size_t i = 0; i < src.size(); ++i) {
        (parts[i % num_gpus].bins.*bin).push_back(src[i]);
      }
    };
    if (use_warp_pack) {
      std::vector<graph::VertexId> low(bins.low);
      std::sort(low.begin(), low.end());
      uint64_t low_edges = 0;
      for (graph::VertexId v : low) low_edges += g.degree(v);
      uint64_t before = 0;  // edges of the low vertices already placed
      int gpu = 0;
      for (graph::VertexId v : low) {
        while (gpu + 1 < num_gpus &&
               before * num_gpus >= (gpu + 1) * low_edges) {
          ++gpu;
        }
        parts[gpu].bins.low.push_back(v);
        before += g.degree(v);
      }
    } else {
      split(bins.low, &graph::DegreeBins::low);
    }
    split(bins.mid, &graph::DegreeBins::mid);
    split(bins.high, &graph::DegreeBins::high);
    // The warp-per-vertex kernel visits its bins in id order: a block's
    // loads and its batched commit then cover ascending ids.
    for (GpuPartition& part : parts) {
      if (use_smem) std::sort(part.bins.mid.begin(), part.bins.mid.end());
      if (use_smem && !use_warp_pack) {
        std::sort(part.bins.low.begin(), part.bins.low.end());
      }
    }

    uint64_t device_bytes = g.bytes() + 2 * nu * sizeof(graph::Label);
    if constexpr (Variant::kNeedsLabelAux) device_bytes += nu * sizeof(float);
    device_bytes += nu * variant.memory_bytes_per_vertex();
    device_bytes += nu * sizeof(graph::VertexId);  // bin lists

    // SLP-style variants choose into Lnext but count a change against their
    // previous choice, so their memory merge counts instead of the kernels.
    constexpr bool kCountsInMerge =
        requires(const Variant& v) { v.prev_choices(); };
    double occupancy_sum = 0;
    int64_t max_shared_bytes = 0;  // largest per-block footprint of a phase
    for (GpuPartition& part : parts) {
      part.vertices = part.bins.total();
      if (kCountsInMerge && num_gpus > 1) {
        for (const auto* b : {&part.bins.low, &part.bins.mid,
                              &part.bins.high}) {
          part.members.insert(part.members.end(), b->begin(), b->end());
        }
        std::sort(part.members.begin(), part.members.end());
      }
      if (!use_smem) {
        // Mode "global": one big per-vertex hash-table arena, all bins.
        part.all_vertices.reserve(part.bins.total());
        for (const auto* b : {&part.bins.low, &part.bins.mid,
                              &part.bins.high}) {
          part.all_vertices.insert(part.all_vertices.end(), b->begin(),
                                   b->end());
        }
        part.arena.Build(g, part.all_vertices);
        device_bytes += part.arena.bytes();
      } else {
        int64_t low_max = 1, mid_max = 1;
        for (graph::VertexId v : part.bins.low) {
          low_max = std::max(low_max, g.degree(v));
        }
        for (graph::VertexId v : part.bins.mid) {
          mid_max = std::max(mid_max, g.degree(v));
        }
        part.low_ht_capacity = NextPow2(2 * low_max);
        part.mid_ht_capacity = NextPow2(2 * mid_max);
        const int tpb = options_.threads_per_block;
        if (!use_warp_pack && !part.bins.low.empty()) {
          max_shared_bytes = std::max(
              max_shared_bytes,
              WarpPerVertexSmemBytes(tpb, part.low_ht_capacity));
        }
        if (!part.bins.mid.empty()) {
          max_shared_bytes = std::max(
              max_shared_bytes,
              WarpPerVertexSmemBytes(tpb, part.mid_ht_capacity));
        }
        if (!part.bins.high.empty()) {
          max_shared_bytes =
              std::max(max_shared_bytes, HighDegreeSmemBytes(options_));
        }
        if (use_warp_pack) {
          part.plan = BuildLowDegreePlan(g, part.bins.low);
          occupancy_sum += part.plan.occupancy;
          device_bytes += part.plan.device_bytes();
        }
      }
    }
    if (use_warp_pack) plan_occupancy_ = occupancy_sum / num_gpus;

    // The period-2 frontier needs a choice that is a function of the
    // neighbours' labels alone, under ping-pong buffering: not LLP (its
    // scores read global label volumes) or SLP (its speakers are redrawn
    // every iteration), which run full passes. The kGlobal arena is
    // positionally indexed, so that mode runs full passes too. Two stamped
    // mark arrays ping-pong like the labels: iteration t reads the marks
    // iteration t-1 pushed and pushes into the other.
    const bool frontier_active = options_.use_frontier && use_smem &&
                                 !Variant::kNeedsLabelAux &&
                                 !variant.needs_pick_kernel();
    // Device change counters, zeroed with the upload: a (changed, two-back)
    // pair per iteration, then under the frontier a pushed-edge count per
    // iteration from slot pushed_base on.
    const int max_iterations = std::max(0, config.max_iterations);
    const int64_t pushed_base = 2 * static_cast<int64_t>(max_iterations);
    counters_.assign((frontier_active ? 3 : 2) *
                         static_cast<size_t>(max_iterations),
                     0);
    device_bytes += counters_.size() * sizeof(uint32_t);
    std::vector<uint32_t> marks[2];
    if (frontier_active) {
      marks[0].assign(n, 0);
      marks[1].assign(n, 0);
      device_bytes += 2 * nu * sizeof(uint32_t);
    }
    // Aggregate device memory grows with the GPU count; keep a 10% reserve
    // for kernel working buffers.
    const uint64_t effective_capacity =
        static_cast<uint64_t>(device_.mem_capacity_bytes) * num_gpus;
    const bool hybrid =
        options_.force_hybrid || device_bytes > effective_capacity;
    const double resident_fraction =
        std::min(1.0, 0.9 * static_cast<double>(effective_capacity) /
                          static_cast<double>(device_bytes));
    // One persistent launch per run unless labels leave the device between
    // iterations. Its grid is what stays resident under the largest phase
    // footprint; every phase's blocks stride over it as virtual blocks.
    const bool persistent = num_gpus == 1 && !hybrid;
    const int64_t grid_blocks = sim::ResidentGridBlocks(
        device_, options_.threads_per_block, max_shared_bytes);

    affected_counts_.clear();
    affected_edges_.clear();

    // --- Iterations ---
    prof::PhaseProfiler* const profiler = ctx.profiler;
    if (profiler != nullptr) profiler->BeginRun(name(), num_gpus);
    ConvergenceRecorder recorder(ctx.metrics, name());
    GpuRunAccumulator acc(&cost_, profiler);
    sim::TransferLedger transfers(&cost_);
    std::atomic<uint64_t> fallbacks{0};
    RunResult result;
    // Initial upload of graph + state (charged once, outside the
    // per-iteration times the paper reports).
    transfers.HostToDevice(device_bytes);
    const double initial_transfer = transfers.seconds();

    // StabilityTracker's rule, on the device's two-back counts.
    const bool track_cycles =
        config.stop_when_stable && !variant.needs_pick_kernel();
    auto stops = [&](int iter) {
      // A period-2 cycle: nothing differs from two commits back, at an even
      // commit count (StabilityTracker).
      const bool cycled = track_cycles && iter > 0 && iter % 2 == 1 &&
                          counters_[2 * iter + 1] == 0;
      return config.stop_when_stable && (counters_[2 * iter] == 0 || cycled);
    };
    // What the blocks read at the barrier opening an iteration: the last
    // (changed, two-back) pair under stop_when_stable, and under the
    // frontier the last pushed-edge count, one sector each.
    CounterRead read;
    if (config.stop_when_stable) read.Add(2);
    if (frontier_active) read.Add(1);
    bool launched = false;  // the persistent run's one launch is issued
    // The frontier's direction switch: an iteration pushes marks only when
    // the last one pushed from fewer edges than this.
    const double push_edges_max =
        PushShareLimit(cost_) * static_cast<double>(g.num_edges());
    bool marks_pushed = false;  // the last iteration pushed for this one
    bool exited = false;
    pushed_.clear();

    for (int iter = 0; iter < config.max_iterations; ++iter) {
      if (ctx.StopRequested()) return Status::Cancelled("GLP run cancelled");
      if (profiler != nullptr) profiler->BeginIteration(iter);
      variant.BeginIteration(iter);
      DeviceView<Variant> view = DeviceView<Variant>::Of(g, variant);
      const int64_t changed_slot = 2 * static_cast<int64_t>(iter);
      const int64_t two_back_slot = changed_slot + 1;
      // Two commits back exists from the second iteration on.
      const bool count_two_back = track_cycles && iter > 0;
      if constexpr (!kCountsInMerge) {
        view.counters = counters_.data();
        view.changed_slot = changed_slot;
        view.two_back_slot = count_two_back ? two_back_slot : -1;
      }

      // Period-2 frontier. L_t(v) is a function of the neighbours' labels
      // at t-1, so where none of them differs from t-3, L_t(v) = L_{t-2}(v):
      // the value Lnext already holds, so such a vertex is skipped and
      // writes nothing. Each commit but the last counts its pushers' edges;
      // from the second iteration on, when the last count says the pushes
      // pay, the pushers mark their neighbours and the next iteration
      // recomputes only marked vertices. The barrier that ends the
      // iteration orders the marks, so the frontier adds no phase and no
      // barrier.
      const bool masked = marks_pushed;
      bool pushes = false;
      uint64_t affected_count = nu;
      uint64_t affected_edges = static_cast<uint64_t>(g.num_edges());
      sim::KernelStats seed;
      if (frontier_active) {
        view.stamp = static_cast<uint32_t>(iter);
        if (iter + 1 < config.max_iterations) {
          view.pushed_slot = pushed_base + iter;
          pushes = iter >= 1 &&
                   counters_[pushed_base + iter - 1] < push_edges_max;
          if (pushes) view.marks_out = marks[(iter + 1) % 2].data();
        }
      }
      marks_pushed = pushes;
      pushed_.push_back(pushes);
      if (masked) {
        view.marks_in = marks[iter % 2].data();
        affected_count = 0;
        affected_edges = 0;
        for (graph::VertexId v = 0; v < n; ++v) {
          if (view.marks_in[v] != view.stamp) continue;
          ++affected_count;
          affected_edges += static_cast<uint64_t>(g.degree(v));
        }
        // Skipped vertices change where they changed last iteration, so
        // one thread adds the last count to this one and the commits add
        // their deltas.
        sim::Warp w(0, sim::LaneBit(0), &seed);
        const sim::LaneArray<uint32_t> last = w.Gather(
            counters_.data(), sim::LaneArray<int64_t>(changed_slot - 2));
        w.AtomicAddGlobal(counters_.data(),
                          sim::LaneArray<int64_t>(changed_slot), last);
      }
      affected_counts_.push_back(affected_count);
      affected_edges_.push_back(affected_edges);

      // Each GPU runs the full per-iteration schedule over its own vertex
      // partition; devices run concurrently, so the iteration's kernel time
      // is the max over GPUs.
      double max_gpu_seconds = 0;
      for (int gpu = 0; gpu < num_gpus; ++gpu) {
        GpuPartition& part = parts[gpu];
        double gpu_seconds = 0;
        const uint64_t pv = part.vertices;

        // Launches the next phase carries: one each on the per-iteration
        // path. A persistent run launches with its first phase, and every
        // later phase first waits at a grid barrier; at the one opening an
        // iteration the blocks read the counters (CounterRead).
        bool opens_iteration = true;
        auto next_phase = [&]() -> uint64_t {
          const bool reads_counters = std::exchange(opens_iteration, false);
          if (!persistent) return 1;
          if (!std::exchange(launched, true)) return 1;
          gpu_seconds +=
              GridBarrier(&acc, gpu, reads_counters ? grid_blocks : 0, read);
          return 0;
        };
        auto run_phase = [&](sim::KernelStats s, prof::Phase p) {
          s.kernel_launches = next_phase();
          gpu_seconds += acc.AddLaunchConcurrent(s, p, gpu);
        };

        // PickLabel kernel (per-vertex-state variants only).
        if (variant.needs_pick_kernel()) {
          run_phase(MapKernelStats(pv, pv * variant.memory_bytes_per_vertex(),
                                   pv * 4),
                    prof::Phase::kPick);
        }

        // LabelPropagation kernels by mode. The per-bin kernels are
        // independent and launch on concurrent streams, so the whole phase
        // pays one launch overhead and fills the device together. When
        // profiling, each bin's stats are kept apart so the fused priced
        // time can be attributed per bin (pricing itself is unchanged); the
        // kernels' commit counting is attributed to the commit.
        sim::KernelStats phase;
        sim::KernelStats commit = gpu == 0 ? seed : sim::KernelStats{};
        std::vector<BinPart> bin_parts;
        auto add_part = [&](prof::Phase p, const sim::KernelStats& s) {
          phase += s;
          if (profiler != nullptr) bin_parts.push_back({p, s});
        };
        if (!use_smem) {
          part.arena.Reset();
          add_part(prof::Phase::kCompute,
                   MapKernelStats(0, 0, part.arena.bytes()));  // memset
          add_part(prof::Phase::kCompute,
                   RunGlobalHtKernel(device_, pool, view, part.all_vertices,
                                     &part.arena, options_.threads_per_block,
                                     &commit));
        } else {
          if (use_warp_pack) {
            add_part(prof::Phase::kLowBin,
                     RunLowDegreeWarpKernel(device_, pool, view, part.plan,
                                            options_.threads_per_block,
                                            &commit));
            // Isolated low-bin vertices: trivial map kernel on its stream
            // that re-commits the current label — an isolated vertex has no
            // neighbors and must keep its label across iterations, so it
            // adds nothing to either count, and the frontier never marks it.
            const std::vector<graph::VertexId>& isolated = part.plan.isolated;
            if (!isolated.empty() && !masked) {
              for (graph::VertexId v : isolated) {
                variant.next_labels()[v] = variant.labels()[v];
              }
              add_part(prof::Phase::kLowBin,
                       MapKernelStats(isolated.size(), isolated.size() * 4,
                                      isolated.size() * 4));
            }
          } else if (!part.bins.low.empty()) {
            add_part(prof::Phase::kLowBin,
                     RunWarpPerVertexSmemKernel(
                         device_, pool, view, part.bins.low,
                         part.low_ht_capacity, options_.threads_per_block,
                         &commit));
          }
          if (!part.bins.mid.empty()) {
            add_part(prof::Phase::kMidBin,
                     RunWarpPerVertexSmemKernel(
                         device_, pool, view, part.bins.mid,
                         part.mid_ht_capacity, options_.threads_per_block,
                         &commit));
          }
          if (!part.bins.high.empty()) {
            add_part(prof::Phase::kHighBin,
                     RunHighDegreeBlockKernel(device_, pool, view,
                                              part.bins.high, options_,
                                              &fallbacks, &commit));
          }
        }
        if (view.counters != nullptr) add_part(prof::Phase::kCommit, commit);
        // The phase's launch, if it has one, is the only launch among its
        // parts; the profiler books it on the first.
        const uint64_t launches = next_phase();
        phase.kernel_launches = launches;
        for (BinPart& bp : bin_parts) bp.s.kernel_launches = 0;
        if (!bin_parts.empty()) bin_parts.front().s.kernel_launches = launches;
        const double phase_seconds = acc.AddLaunchConcurrent(phase);
        gpu_seconds += phase_seconds;
        if (profiler != nullptr) {
          AttributeFusedPhase(profiler, gpu, bin_parts, phase, phase_seconds);
        }

        // UpdateVertex: auxiliary kernels over the partition.
        if (variant.needs_pick_kernel()) {
          // Memory merge over the label slots, counting SLP's changes.
          const uint64_t mem = pv * variant.memory_bytes_per_vertex();
          sim::KernelStats merge = MapKernelStats(pv, mem, mem);
          if constexpr (kCountsInMerge) {
            merge += RunChangeCountKernel(
                device_, pool, static_cast<int64_t>(pv),
                part.members.empty() ? nullptr : part.members.data(),
                variant.next_labels().data(), variant.prev_choices().data(),
                counters_.data(), changed_slot, options_.threads_per_block);
          }
          run_phase(merge, prof::Phase::kCommit);
        }
        if constexpr (Variant::kNeedsLabelAux) {
          // Volumes rebuilt over the full label array (replicated per GPU).
          run_phase(MapKernelStats(0, 0, nu * 4), prof::Phase::kCommit);
          run_phase(HistogramKernelStats(nu), prof::Phase::kCommit);
        }
        max_gpu_seconds = std::max(max_gpu_seconds, gpu_seconds);
      }
      acc.AddSeconds(max_gpu_seconds);

      variant.EndIteration(iter);
      const uint32_t changed = counters_[changed_slot];
      const bool stop = stops(iter);
      // No pusher: this commit equals the one two back, so every later
      // iteration repeats that period-2 cycle (DESIGN.md §4.2) and the run
      // exits here.
      exited = frontier_active && !stop &&
               iter + 1 < config.max_iterations &&
               counters_[pushed_base + iter] == 0;
      if ((stop || exited) && persistent &&
          iter + 1 < config.max_iterations) {
        // The blocks read the final counters at one more barrier, then exit.
        acc.AddSeconds(GridBarrier(&acc, 0, grid_blocks, read));
      }

      // --- Price the iteration ---
      double iter_s = acc.TakeSeconds();
      // Labels (and, after an iteration that pushed, a mark bitmap) cross
      // devices or the host link between iterations on the multi-GPU and
      // hybrid paths.
      const uint64_t exchange_bytes =
          nu * sizeof(graph::Label) + (pushes ? (nu + 7) / 8 : 0);
      if (num_gpus > 1) {
        // Label all-gather over NVLink, 80% overlapped with compute.
        const double t_p2p = cost_.PeerTransferCost(exchange_bytes);
        const double charged = 0.2 * t_p2p + device_.pcie_latency_s;
        transfers.PeerToPeer(exchange_bytes);
        iter_s += charged;
        if (profiler != nullptr) {
          profiler->AddSeconds(prof::Phase::kAllGather, charged);
        }
      }
      if (hybrid) {
        // CPU-GPU heterogeneous mode (§3.1/§5.4): the GPU keeps a
        // capacity-sized partition resident and processes it; the host CPUs
        // process the overflow partition in place (nothing is re-streamed
        // per iteration), and the two sides exchange the label array, which
        // pipelines with compute. Only the non-overlappable label-sync
        // residue is exposed — this is what keeps the paper's transfer
        // overhead under 10%.
        const double t_gpu = iter_s * resident_fraction;
        const double cpu_edges =
            (1.0 - resident_fraction) * static_cast<double>(g.num_edges());
        const double t_cpu = cpu_edges * options_.host_bytes_per_edge /
                             (options_.host_mem_bandwidth_gbps * 1e9);
        const double t_compute = std::max(t_gpu, t_cpu);
        const double t_sync = cost_.TransferCost(exchange_bytes);
        // Label sync streams in chunks as partitions finish; ~75% of it
        // hides under compute.
        const double exposed =
            std::max(device_.pcie_latency_s, t_sync - 0.75 * t_compute);
        transfers.OverlappedHostToDevice(exchange_bytes);
        result.transfer_seconds += exposed;
        iter_s = t_compute + exposed;
        if (profiler != nullptr) {
          profiler->AddSeconds(prof::Phase::kHybridSync, exposed);
        }
      }

      if (profiler != nullptr) profiler->EndIteration(iter_s);
      recorder.RecordIteration(changed, affected_count, iter_s);
      result.iteration_seconds.push_back(iter_s);
      ++result.iterations;
      if (stop || exited) break;
    }
    iterations_ran_ = result.iterations;

    // After a frontier exit the logical run goes on in the cycle: Lnext
    // already holds each later iteration's labels, the ones two commits
    // back, so the host's buffer flip is the whole commit, and the result is
    // the labeling the remaining budget's parity picks. The filled
    // iterations change what the last one changed, differ from two back
    // nowhere, cost nothing and recompute no vertex; stop_when_stable's rule
    // applies to them as to any other.
    for (int iter = result.iterations; exited && iter < config.max_iterations;
         ++iter) {
      if (profiler != nullptr) profiler->BeginIteration(iter);
      variant.BeginIteration(iter);
      counters_[2 * iter] = counters_[2 * iter - 2];
      variant.EndIteration(iter);
      pushed_.push_back(false);
      affected_counts_.push_back(0);
      affected_edges_.push_back(0);
      if (profiler != nullptr) profiler->EndIteration(0);
      recorder.RecordIteration(counters_[2 * iter], 0, 0);
      result.iteration_seconds.push_back(0);
      ++result.iterations;
      if (stops(iter)) break;
    }

    fallback_count_ = fallbacks.load();
    result.labels = variant.FinalLabels();
    result.wall_seconds = timer.Seconds();
    result.stats = acc.total();
    result.setup_seconds = initial_transfer;
    double total = 0;
    for (double s : result.iteration_seconds) total += s;
    result.simulated_seconds = total;
    result.device_bytes = device_bytes;
    if (profiler != nullptr) result.phase_breakdown = profiler->breakdown();
    return result;
  }

 private:
  /// One bin kernel's contribution to the fused LabelPropagation phase.
  struct BinPart {
    prof::Phase p;
    sim::KernelStats s;
  };

  /// The device counters each block reads at a barrier opening an
  /// iteration: one sector per group of adjacent counters.
  struct CounterRead {
    uint64_t sectors = 0;
    uint64_t bytes = 0;
    void Add(int words) {
      ++sectors;
      bytes += static_cast<uint64_t>(words) * sizeof(uint32_t);
    }
  };

  /// Prices one grid barrier of a persistent launch on `gpu`, after which
  /// `readers` resident blocks each make `read` to decide whether and how
  /// to run on.
  double GridBarrier(GpuRunAccumulator* acc, int gpu, int64_t readers,
                     const CounterRead& read) const {
    sim::KernelStats s;
    s.grid_syncs = 1;
    s.global_transactions = static_cast<uint64_t>(readers) * read.sectors;
    s.global_bytes_requested = static_cast<uint64_t>(readers) * read.bytes;
    return acc->AddLaunchConcurrent(s, prof::Phase::kGridSync, gpu);
  }

  /// The frontier's direction switch, as a share of the edges: an iteration
  /// pushes marks only when the last iteration's pushers had fewer edges.
  /// A pushed edge (v, u) marks u, whose recompute reads that edge, so the
  /// next iteration recomputes at least as many edges as were pushed, and
  /// pushing a share p of them pays only when p c_mark < (1 - p) c_edge,
  /// that is p < c_edge / (c_mark + c_edge). The cost model prices a warp
  /// of each: 32 marks read their neighbour ids (coalesced) and store
  /// scattered; 32 recomputed edges read their ids, gather scattered labels
  /// and insert them into a shared hash table (a CAS and an add each).
  static double PushShareLimit(const sim::CostModel& cost) {
    const uint64_t id_sectors =
        sim::kWarpSize * sizeof(graph::VertexId) /
        static_cast<uint64_t>(cost.props().sector_bytes);
    sim::KernelStats mark;
    mark.global_transactions = id_sectors + sim::kWarpSize;
    mark.instructions = 2;
    sim::KernelStats edge;
    edge.global_transactions = id_sectors + sim::kWarpSize;
    edge.shared_atomics = 2 * sim::kWarpSize;
    edge.instructions = 4;
    const double c_mark = cost.KernelCost(mark).total_s;
    const double c_edge = cost.KernelCost(edge).total_s;
    return c_edge / (c_mark + c_edge);
  }

  /// Splits the fused (single-launch) LabelPropagation phase's priced time
  /// across its per-bin contributions, proportional to each bin's standalone
  /// roofline cost — per-bin attribution without changing what is priced.
  void AttributeFusedPhase(prof::PhaseProfiler* profiler, int gpu,
                           const std::vector<BinPart>& bin_parts,
                           const sim::KernelStats& fused,
                           double fused_seconds) const {
    if (bin_parts.empty()) {
      profiler->AddKernel(prof::Phase::kCompute, gpu, fused, fused_seconds);
      return;
    }
    double weight_sum = 0;
    std::vector<double> weights;
    weights.reserve(bin_parts.size());
    for (const BinPart& part : bin_parts) {
      const double w = cost_.KernelCost(part.s).total_s;
      weights.push_back(w);
      weight_sum += w;
    }
    for (size_t i = 0; i < bin_parts.size(); ++i) {
      const double share =
          weight_sum > 0
              ? fused_seconds * weights[i] / weight_sum
              : fused_seconds / static_cast<double>(bin_parts.size());
      profiler->AddKernel(bin_parts[i].p, gpu, bin_parts[i].s, share);
    }
  }

  VariantParams params_;
  GlpOptions options_;
  glp::ThreadPool* pool_;
  sim::DeviceProps device_;
  sim::CostModel cost_;
  uint64_t fallback_count_ = 0;
  double plan_occupancy_ = 1.0;
  std::vector<uint64_t> affected_counts_;
  std::vector<uint64_t> affected_edges_;
  /// Device change counters of the last run (see last_changed()).
  std::vector<uint32_t> counters_;
  std::vector<bool> pushed_;  ///< see last_pushed()
  int iterations_ran_ = 0;
};

}  // namespace glp::lp
