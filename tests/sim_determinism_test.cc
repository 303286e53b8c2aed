// Determinism gate for the SIMT accounting layer.
//
// Simulated cost must be an exact function of graph, seed, options and
// device: it may not depend on where the host heap placed an array, nor on
// how many host threads executed the grid. Two parts:
//
//   HeapAndPoolIndependent  runs every case twice, with differently
//                           perturbed heaps, at pool=1 and at pool=4, and
//                           asserts bit-equal KernelStats, simulated
//                           seconds and labels.
//   MatchesGolden           pins each case's KernelStats (and a label
//                           digest) to recorded values, so a change to the
//                           simulator's speed cannot change what it counts.
//
// Cases cover GLP in all three modes (plus a tight CMS+HT configuration
// that forces the global-memory fallback), G-Hash and G-Sort, on small
// generated graphs and on one window of the synthetic transaction stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/seq_engine.h"
#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "glp/variants/degree_weighted.h"
#include "glp/variants/llp.h"
#include "glp/variants/slp.h"
#include "gpu_baselines/ghash_engine.h"
#include "gpu_baselines/gsort_engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sliding_window.h"
#include "pipeline/transactions.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::lp {
namespace {

using graph::Graph;

// Every KernelStats field appears in Fingerprint; a new field must too.
static_assert(sizeof(sim::KernelStats) == 16 * sizeof(uint64_t),
              "KernelStats changed: extend Fingerprint and the goldens");

std::string Fingerprint(const RunResult& r) {
  const sim::KernelStats& s = r.stats;
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over the labels
  for (graph::Label l : r.labels) {
    digest = (digest ^ l) * 0x100000001b3ULL;
  }
  std::ostringstream os;
  os << "gt=" << s.global_transactions << " gb=" << s.global_bytes_requested
     << " ga=" << s.global_atomics << " gc=" << s.global_atomic_conflicts
     << " sa=" << s.shared_accesses << " sb=" << s.shared_bank_conflicts
     << " sat=" << s.shared_atomics << " in=" << s.instructions
     << " io=" << s.intrinsic_ops << " br=" << s.block_reduces
     << " bs=" << s.block_syncs << " al=" << s.active_lane_cycles
     << " tl=" << s.total_lane_cycles << " kl=" << s.kernel_launches
     << " be=" << s.blocks_executed << " gs=" << s.grid_syncs
     << " it=" << r.iterations
     << " labels=" << std::hex << digest;
  return os.str();
}

/// Keeps allocations of odd sizes alive so that the engine's arrays land at
/// host addresses that differ from run to run (small sizes shift the
/// malloc arenas, large ones the mmap region).
class HeapPerturbation {
 public:
  explicit HeapPerturbation(uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 48; ++i) {
      const size_t small = 1 + 2 * rng.Bounded(600);
      const size_t large = 131073 + 2 * rng.Bounded(40000);
      const size_t n = (i % 8 == 7) ? large : small;
      hold_.push_back(std::make_unique<char[]>(n));
      hold_.back()[n - 1] = static_cast<char>(i);
    }
  }

 private:
  std::vector<std::unique_ptr<char[]>> hold_;
};

/// One window of the synthetic transaction stream: a multigraph, or with
/// `collapse` a weighted graph.
Graph OrganicWindowGraph(bool collapse) {
  pipeline::TransactionConfig tc;
  tc.num_buyers = 1000;
  tc.num_items = 250;
  tc.num_rings = 8;
  tc.days = 14;
  tc.seed = 1;
  const pipeline::TransactionStream stream = pipeline::GenerateTransactions(tc);
  const graph::SlidingWindow window(stream.edges);
  graph::SlidingWindow::Scratch scratch;
  return window.Snapshot(7.0, 14.0, &scratch, collapse).graph;
}

Graph OrganicWindow() { return OrganicWindowGraph(/*collapse=*/false); }

Graph SmallRmat() {
  return graph::GenerateRmat(
      {.num_vertices = 1024, .num_edges = 8192, .seed = 5});
}

Graph SmallCommunities() {
  return graph::GeneratePlantedPartition({.num_communities = 16,
                                          .community_size = 48,
                                          .intra_degree = 8.0,
                                          .inter_degree = 1.0,
                                          .seed = 3});
}

GlpOptions Mode(GlpOptions::Mode mode) {
  GlpOptions o;
  o.mode = mode;
  return o;
}

/// A CMS+HT too small for the hubs: labels spill, the sketch
/// overestimates, and vertices take the global-memory fallback, whose
/// shared-table lookups (64 slots over 32 banks) replay on bank conflicts.
GlpOptions TightSketch() {
  GlpOptions o;
  o.ht_capacity = 64;
  o.cms_depth = 1;
  o.cms_width = 32;
  return o;
}

/// KernelStats of every case, recorded when accounting moved to device
/// offsets and before any change to the simulator's speed. The GLP lines
/// were re-recorded when the commit moved into the LP kernels and a
/// single-GPU run became one persistent launch (kl=1, gs = iterations - 1);
/// their labels and iteration counts did not move. The OrganicWindow lines
/// were re-recorded when window ids moved to (descending) entity-id order:
/// the window graph is renumbered, so every engine gathers from different
/// addresses and breaks ties toward different labels.
const std::map<std::string, std::string>& Goldens() {
  static const auto* goldens = new std::map<std::string, std::string>{
      {"GlpGlobalRmat",
       "gt=174520 gb=4064560 ga=39447 gc=87468 sa=0 sb=0 sat=0"
       " in=96339 io=34740 br=0 bs=0"
       " al=845539 tl=3082848 kl=1 be=640 gs=4 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpSmemRmat",
       "gt=61410 gb=630320 ga=294 gc=0 sa=67425 sb=0 sat=123709"
       " in=136599 io=30190 br=110 bs=1445"
       " al=2395143 tl=4371168 kl=1 be=695 gs=4 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpSmemWarpRmat",
       "gt=57970 gb=964460 ga=567 gc=0 sa=17125 sb=0 sat=67227"
       " in=92809 io=33545 br=110 bs=265"
       " al=2009259 tl=2969888 kl=1 be=295 gs=4 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpTightSketchRmat",
       "gt=60752 gb=1030988 ga=3698 gc=41 sa=16159 sb=463 sat=77734"
       " in=92874 io=33545 br=121 bs=276"
       " al=1991792 tl=2971968 kl=1 be=295 gs=4 it=5"
       " labels=fd9aa60100e7a893"},
      {"GHashRmat",
       "gt=71365 gb=906820 ga=6353 gc=16381 sa=41360 sb=0 sat=101669"
       " in=110813 io=30040 br=0 bs=0"
       " al=1792147 tl=3546016 kl=25 be=650 gs=0 it=5"
       " labels=fd9aa60100e7a893"},
      {"GSortRmat",
       "gt=89275 gb=1516380 ga=0 gc=0 sa=83790 sb=0 sat=0"
       " in=135721 io=26555 br=0 bs=30970"
       " al=3163314 tl=4343072 kl=20 be=6000 gs=0 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpGlobalCommunities",
       "gt=96725 gb=2246400 ga=49981 gc=18193 sa=0 sb=0 sat=0"
       " in=75800 io=26880 br=0 bs=0"
       " al=565568 tl=2425600 kl=1 be=480 gs=4 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpSmemCommunities",
       "gt=31445 gb=357120 ga=479 gc=0 sa=32640 sb=0 sat=64885"
       " in=84030 io=20160 br=0 bs=960"
       " al=1219398 tl=2688960 kl=1 be=480 gs=4 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpSmemWarpCommunities",
       "gt=20870 gb=600120 ga=1061 gc=0 sa=0 sb=0 sat=0"
       " in=43766 io=19710 br=0 bs=0"
       " al=1067165 tl=1400512 kl=1 be=140 gs=4 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpTightSketchCommunities",
       "gt=20870 gb=600120 ga=1061 gc=0 sa=0 sb=0 sat=0"
       " in=43766 io=19710 br=0 bs=0"
       " al=1067165 tl=1400512 kl=1 be=140 gs=4 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GHashCommunities",
       "gt=32410 gb=295700 ga=0 gc=0 sa=30720 sb=0 sat=63539"
       " in=99381 io=36315 br=0 bs=0"
       " al=1290533 tl=3180192 kl=10 be=480 gs=0 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GSortCommunities",
       "gt=39855 gb=794900 ga=0 gc=0 sa=58000 sb=0 sat=0"
       " in=99565 io=23040 br=0 bs=29000"
       " al=2193554 tl=3186080 kl=20 be=4445 gs=0 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpGlobalOrganicWindow",
       "gt=169355 gb=4363440 ga=43002 gc=75375 sa=0 sb=0 sat=0"
       " in=123886 io=46285 br=0 bs=0"
       " al=900947 tl=3964352 kl=1 be=705 gs=4 it=5"
       " labels=d7a56f58c09c385d"},
      {"GlpSmemOrganicWindow",
       "gt=44090 gb=594680 ga=725 gc=0 sa=80895 sb=0 sat=111880"
       " in=174478 io=45035 br=50 bs=1475"
       " al=2788344 tl=5583296 kl=1 be=725 gs=4 it=5"
       " labels=d7a56f58c09c385d"},
      {"GlpSmemWarpOrganicWindow",
       "gt=36795 gb=841340 ga=1245 gc=0 sa=16075 sb=0 sat=52486"
       " in=80252 io=29975 br=50 bs=175"
       " al=1750520 tl=2568064 kl=1 be=225 gs=4 it=5"
       " labels=d7a56f58c09c385d"},
      {"GlpTightSketchOrganicWindow",
       "gt=37229 gb=852940 ga=1606 gc=302 sa=15450 sb=77 sat=58680"
       " in=80353 io=29975 br=51 bs=176"
       " al=1737818 tl=2571296 kl=1 be=225 gs=4 it=5"
       " labels=d7a56f58c09c385d"},
      {"GHashOrganicWindow",
       "gt=50275 gb=709740 ga=3236 gc=9671 sa=54280 sb=0 sat=99085"
       " in=147536 io=45055 br=0 bs=0"
       " al=2161082 tl=4721152 kl=25 be=705 gs=0 it=5"
       " labels=d7a56f58c09c385d"},
      {"GSortOrganicWindow",
       "gt=70075 gb=1367980 ga=0 gc=0 sa=69760 sb=0 sat=0"
       " in=136018 io=36605 br=0 bs=30390"
       " al=2682950 tl=4352576 kl=20 be=6530 gs=0 it=5"
       " labels=d7a56f58c09c385d"},
  };
  return *goldens;
}

struct Case {
  std::string name;
  std::function<Graph()> graph;
  std::function<std::unique_ptr<Engine>()> engine;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

template <typename E, typename... Args>
std::function<std::unique_ptr<Engine>()> Make(Args... args) {
  return [=] { return std::make_unique<E>(args...); };
}

std::vector<Case> Cases() {
  using Classic = ClassicVariant;
  using Glp = GlpEngine<Classic>;
  const VariantParams vp;
  std::vector<Case> cases;
  auto add = [&](std::string name, std::function<Graph()> g,
                 std::function<std::unique_ptr<Engine>()> e) {
    cases.push_back({std::move(name), std::move(g), std::move(e)});
  };
  for (auto [gname, gfn] :
       std::vector<std::pair<std::string, std::function<Graph()>>>{
           {"Rmat", SmallRmat},
           {"Communities", SmallCommunities},
           {"OrganicWindow", OrganicWindow}}) {
    add("GlpGlobal" + gname, gfn,
        Make<Glp>(vp, Mode(GlpOptions::Mode::kGlobal)));
    add("GlpSmem" + gname, gfn, Make<Glp>(vp, Mode(GlpOptions::Mode::kSmem)));
    add("GlpSmemWarp" + gname, gfn,
        Make<Glp>(vp, Mode(GlpOptions::Mode::kSmemWarp)));
    add("GlpTightSketch" + gname, gfn, Make<Glp>(vp, TightSketch()));
    add("GHash" + gname, gfn, Make<GHashEngine<Classic>>(vp));
    add("GSort" + gname, gfn, Make<GSortEngine<Classic>>(vp));
  }
  return cases;
}

class SimDeterminismTest : public ::testing::TestWithParam<Case> {
 protected:
  static RunResult RunOnce(const Case& c, const Graph& g, int threads,
                           uint64_t heap_seed) {
    HeapPerturbation perturb(heap_seed);
    ThreadPool pool(threads);
    std::unique_ptr<Engine> engine = c.engine();
    RunConfig run;
    run.max_iterations = 5;
    RunContext ctx;
    ctx.pool = &pool;
    auto r = engine->Run(g, run, ctx);
    GLP_CHECK(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
};

TEST_P(SimDeterminismTest, HeapAndPoolIndependent) {
  const Case& c = GetParam();
  const Graph g = c.graph();
  const RunResult a = RunOnce(c, g, /*threads=*/1, /*heap_seed=*/11);
  const RunResult b = RunOnce(c, g, /*threads=*/4, /*heap_seed=*/12);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.iteration_seconds, b.iteration_seconds);
}

TEST_P(SimDeterminismTest, MatchesGolden) {
  const Case& c = GetParam();
  const RunResult r = RunOnce(c, c.graph(), /*threads=*/4, /*heap_seed=*/13);
  const auto it = Goldens().find(c.name);
  ASSERT_NE(it, Goldens().end()) << "no golden for " << c.name;
  EXPECT_EQ(Fingerprint(r), it->second);
}

INSTANTIATE_TEST_SUITE_P(Engines, SimDeterminismTest,
                         ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

// --- Neighbour-list order ---
//
// GraphBuilder emits every list in ascending id order, so a window's CSR,
// and everything the simulator counts on it, is a function of its edge
// multiset alone, not of the order the edges arrived in.

TEST(CsrOrderTest, ShuffledEdgesBuildTheSameWindow) {
  for (const bool collapse : {false, true}) {
    SCOPED_TRACE(collapse ? "collapsed" : "multigraph");
    const Graph window = OrganicWindowGraph(collapse);
    // The window's undirected edge multiset, each edge once, shuffled.
    std::vector<graph::Edge> edges;
    for (graph::VertexId v = 0; v < window.num_vertices(); ++v) {
      for (graph::EdgeId e = window.offset(v);
           e < window.offset(v) + window.degree(v); ++e) {
        const graph::VertexId u = window.neighbor_array()[e];
        const auto copies = static_cast<int>(window.edge_weight(e));
        for (int k = 0; u < v && k < copies; ++k) edges.push_back({u, v});
      }
    }
    Rng rng(7);
    for (size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.Bounded(i)]);
    }
    graph::GraphBuilder builder(window.num_vertices(), std::move(edges));
    const Graph shuffled = collapse ? builder.BuildCollapsed()
                                    : builder.Build(/*symmetrize=*/true,
                                                    /*dedupe=*/false);
    ASSERT_EQ(shuffled.offsets(), window.offsets());
    ASSERT_EQ(shuffled.neighbor_array(), window.neighbor_array());
    ASSERT_EQ(shuffled.weight_array(), window.weight_array());
    for (graph::VertexId v = 0; v < window.num_vertices(); ++v) {
      const auto list = window.neighbors(v);
      ASSERT_TRUE(std::is_sorted(list.begin(), list.end())) << "vertex " << v;
    }

    GlpOptions frontier;
    frontier.use_frontier = true;
    for (const GlpOptions& opts :
         {GlpOptions{}, frontier, Mode(GlpOptions::Mode::kSmem)}) {
      GlpEngine<ClassicVariant> engine({}, opts);
      RunConfig run;
      run.max_iterations = 8;
      const RunResult a = engine.Run(window, run).value();
      const RunResult b = engine.Run(shuffled, run).value();
      EXPECT_EQ(Fingerprint(a), Fingerprint(b));
      EXPECT_EQ(a.labels, b.labels);
    }
  }
}

// --- Device change counters ---
//
// GLP's LP kernels count the labels each commit changes, and under
// stop_when_stable the labels that differ from two commits back, with
// warp-aggregated atomics into one counter array that every block shares
// (at pool=4 concurrently, which TSan watches); SLP counts in its memory
// merge. The stop decisions are made from these counts, so they must equal
// what the host computes on every iteration.

/// Per commit, what the host computes: the variant's EndIteration return and
/// the labels that differ from two commits back (StabilityTracker's test).
struct HostCounts {
  std::vector<uint32_t> changed;
  std::vector<uint32_t> two_back;  // 0 at the first commit
};
HostCounts* host_counts = nullptr;  // the sink of the running HostCounted

template <typename Base>
class HostCounted : public Base {
 public:
  using Base::Base;

  void Init(const Graph& g, const RunConfig& config) {
    Base::Init(g, config);
    history_.assign(1, this->labels());
  }

  int EndIteration(int iter) {
    const int changed = Base::EndIteration(iter);
    const std::vector<graph::Label>& now = this->labels();
    uint32_t differs = 0;
    if (history_.size() >= 2) {
      const std::vector<graph::Label>& back2 = history_[history_.size() - 2];
      for (size_t v = 0; v < now.size(); ++v) differs += now[v] != back2[v];
    }
    host_counts->changed.push_back(static_cast<uint32_t>(changed));
    host_counts->two_back.push_back(differs);
    history_.push_back(now);
    return changed;
  }

 private:
  std::vector<std::vector<graph::Label>> history_;
};

/// A 12x12 grid is bipartite: classic LP falls into a period-2 orbit, so
/// stop_when_stable ends on a zero two-back count.
Graph Grid() { return graph::GenerateGrid2d(12, 12); }

template <typename V>
void ExpectDeviceCountsMatchHost(const Graph& g, const GlpOptions& opts,
                                 int threads, bool stable) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                    << " stable=" << stable);
  HostCounts host;
  host_counts = &host;
  ThreadPool pool(threads);
  GlpEngine<HostCounted<V>> engine({}, opts);
  RunConfig run;
  run.max_iterations = 12;
  run.stop_when_stable = stable;
  RunContext ctx;
  ctx.pool = &pool;
  auto r = engine.Run(g, run, ctx);
  host_counts = nullptr;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int iterations = r.value().iterations;
  ASSERT_EQ(host.changed.size(), static_cast<size_t>(iterations));
  const bool tracks_cycles = stable && !V().needs_pick_kernel();
  for (int it = 0; it < iterations; ++it) {
    EXPECT_EQ(engine.last_changed(it), host.changed[it]) << "iteration " << it;
    EXPECT_EQ(engine.last_two_back(it),
              tracks_cycles && it > 0 ? host.two_back[it] : 0u)
        << "iteration " << it;
  }
  // Stopping on device counts stops where the host tracker does.
  auto ref = cpu::SeqEngine<V>().Run(g, run);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(r.value().labels, ref.value().labels);
  EXPECT_EQ(iterations, ref.value().iterations);
}

template <typename V>
void ExpectDeviceCountsMatchHostEverywhere() {
  for (const auto& graph_fn : {SmallRmat, Grid}) {
    const Graph g = graph_fn();
    for (int threads : {1, 4}) {
      for (bool stable : {true, false}) {
        ExpectDeviceCountsMatchHost<V>(g, GlpOptions{}, threads, stable);
      }
    }
  }
}

TEST(DeviceCountersTest, ClassicMatchesHost) {
  ExpectDeviceCountsMatchHostEverywhere<ClassicVariant>();
}

TEST(DeviceCountersTest, DegreeWeightedMatchesHost) {
  ExpectDeviceCountsMatchHostEverywhere<DegreeWeightedVariant>();
}

TEST(DeviceCountersTest, LlpMatchesHost) {
  ExpectDeviceCountsMatchHostEverywhere<LlpVariant>();
}

TEST(DeviceCountersTest, SlpMatchesHost) {
  ExpectDeviceCountsMatchHostEverywhere<SlpVariant>();
}

TEST(DeviceCountersTest, EveryKernelAndTheFrontierCount) {
  GlpOptions frontier;
  frontier.use_frontier = true;
  for (const GlpOptions& opts :
       {Mode(GlpOptions::Mode::kGlobal), Mode(GlpOptions::Mode::kSmem),
        TightSketch(), frontier}) {
    for (const auto& graph_fn : {SmallRmat, Grid, SmallCommunities}) {
      ExpectDeviceCountsMatchHost<ClassicVariant>(graph_fn(), opts,
                                                  /*threads=*/4,
                                                  /*stable=*/true);
    }
  }
}

TEST(DeviceCountersTest, GridStopsOnTheTwoBackCount) {
  GlpEngine<ClassicVariant> engine;
  RunConfig run;
  run.max_iterations = 40;
  run.stop_when_stable = true;
  auto r = engine.Run(Grid(), run);
  ASSERT_TRUE(r.ok());
  const int last = r.value().iterations - 1;
  ASSERT_LT(r.value().iterations, run.max_iterations);
  // Stopped on a cycle, not on a fixed point.
  EXPECT_GT(engine.last_changed(last), 0u);
  EXPECT_EQ(engine.last_two_back(last), 0u);
}

// --- Launch structure ---

template <typename V>
RunResult RunFor(const Graph& g, const GlpOptions& opts, int iterations,
                 bool stable = false) {
  GlpEngine<V> engine({}, opts);
  RunConfig run;
  run.max_iterations = iterations;
  run.stop_when_stable = stable;
  auto r = engine.Run(g, run);
  GLP_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(PersistentLaunchTest, SingleGpuRunLaunchesOnce) {
  const Graph g = SmallRmat();
  // One phase per iteration: a barrier between consecutive iterations.
  const RunResult classic = RunFor<ClassicVariant>(g, {}, 5);
  EXPECT_EQ(classic.stats.kernel_launches, 1u);
  EXPECT_EQ(classic.stats.grid_syncs, 4u);
  // SLP: pick, LP, memory merge. LLP: LP, volume memset, histogram.
  const RunResult slp = RunFor<SlpVariant>(g, {}, 5);
  EXPECT_EQ(slp.stats.kernel_launches, 1u);
  EXPECT_EQ(slp.stats.grid_syncs, 3u * 5 - 1);
  const RunResult llp = RunFor<LlpVariant>(g, {}, 5);
  EXPECT_EQ(llp.stats.kernel_launches, 1u);
  EXPECT_EQ(llp.stats.grid_syncs, 3u * 5 - 1);
  // Frontier: the marks ride the LP phase, ordered by its barriers.
  GlpOptions frontier;
  frontier.use_frontier = true;
  const RunResult fr = RunFor<ClassicVariant>(g, frontier, 5);
  EXPECT_EQ(fr.stats.kernel_launches, 1u);
  EXPECT_EQ(fr.stats.grid_syncs, 4u);
  // An early stop costs one more barrier: the blocks read the final
  // counters before they exit.
  const RunResult stable = RunFor<ClassicVariant>(Grid(), {}, 40, true);
  ASSERT_LT(stable.iterations, 40);
  EXPECT_EQ(stable.stats.kernel_launches, 1u);
  EXPECT_EQ(stable.stats.grid_syncs, static_cast<uint64_t>(stable.iterations));
}

// A frontier run that exits early pays one barrier per iteration it ran:
// the one opening each iteration after the first, and the one at which the
// blocks read the empty count and exit. Each such barrier adds its counter
// read, one sector per resident block, and the filled iterations cost
// nothing.
TEST(PersistentLaunchTest, FrontierExitPaysOnlyTheIterationsItRan) {
  const Graph g = Grid();
  RunConfig run;
  run.max_iterations = 40;
  GlpOptions frontier;
  frontier.use_frontier = true;
  GlpEngine<ClassicVariant> engine({}, frontier);
  prof::PhaseProfiler profiler;
  RunContext ctx;
  ctx.profiler = &profiler;
  auto r = engine.Run(g, run, ctx);
  ASSERT_TRUE(r.ok());
  const RunResult& fr = r.value();
  const int ran = engine.last_iterations_ran();
  ASSERT_LT(ran, run.max_iterations);
  EXPECT_EQ(fr.iterations, run.max_iterations);
  EXPECT_EQ(fr.stats.kernel_launches, 1u);
  EXPECT_EQ(fr.stats.grid_syncs, static_cast<uint64_t>(ran));
  for (int it = ran; it < fr.iterations; ++it) {
    EXPECT_EQ(fr.iteration_seconds[it], 0) << it;
  }
  // The grid's 4-degree vertices all run the warp-centric kernel, which
  // uses no shared memory, so every block of the device is resident.
  const sim::DeviceProps device = sim::DeviceProps::TitanV();
  const uint64_t reads = static_cast<uint64_t>(
      sim::ResidentGridBlocks(device, frontier.threads_per_block, 0));
  sim::KernelStats barrier;
  barrier.grid_syncs = 1;
  barrier.global_transactions = reads;
  barrier.global_bytes_requested = reads * sizeof(uint32_t);
  const prof::PhaseStats& sync = fr.phase_breakdown[prof::Phase::kGridSync];
  EXPECT_EQ(sync.global_transactions, ran * reads);
  EXPECT_EQ(sync.global_bytes, ran * reads * sizeof(uint32_t));
  EXPECT_NEAR(sync.seconds,
              ran * sim::CostModel(device).KernelCost(barrier).total_s,
              1e-15);
}

TEST(PersistentLaunchTest, MultiGpuAndHybridLaunchEveryIteration) {
  const Graph g = SmallRmat();
  const RunResult one = RunFor<ClassicVariant>(g, {}, 5);
  GlpOptions two_gpus;
  two_gpus.num_gpus = 2;
  const RunResult two = RunFor<ClassicVariant>(g, two_gpus, 5);
  EXPECT_EQ(two.stats.kernel_launches, 5u * 2);  // per GPU, per iteration
  EXPECT_EQ(two.stats.grid_syncs, 0u);
  EXPECT_EQ(two.labels, one.labels);
  GlpOptions hybrid;
  hybrid.force_hybrid = true;
  const RunResult hy = RunFor<ClassicVariant>(g, hybrid, 5);
  EXPECT_EQ(hy.stats.kernel_launches, 5u);
  EXPECT_EQ(hy.stats.grid_syncs, 0u);
  EXPECT_EQ(hy.labels, one.labels);
  // Stopping on the device counts holds across the launch structures too.
  const RunResult one_stable = RunFor<ClassicVariant>(Grid(), {}, 40, true);
  EXPECT_EQ(RunFor<ClassicVariant>(Grid(), two_gpus, 40, true).labels,
            one_stable.labels);
  EXPECT_EQ(RunFor<ClassicVariant>(Grid(), hybrid, 40, true).labels,
            one_stable.labels);
}

}  // namespace
}  // namespace glp::lp
