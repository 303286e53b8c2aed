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

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "glp/glp_engine.h"
#include "glp/variants/classic.h"
#include "gpu_baselines/ghash_engine.h"
#include "gpu_baselines/gsort_engine.h"
#include "graph/generators.h"
#include "graph/sliding_window.h"
#include "pipeline/transactions.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glp::lp {
namespace {

using graph::Graph;

// Every KernelStats field appears in Fingerprint; a new field must too.
static_assert(sizeof(sim::KernelStats) == 15 * sizeof(uint64_t),
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
     << " be=" << s.blocks_executed << " it=" << r.iterations
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

Graph OrganicWindow() {
  pipeline::TransactionConfig tc;
  tc.num_buyers = 1000;
  tc.num_items = 250;
  tc.num_rings = 8;
  tc.days = 14;
  tc.seed = 1;
  const pipeline::TransactionStream stream = pipeline::GenerateTransactions(tc);
  const graph::SlidingWindow window(stream.edges);
  return window.Snapshot(7.0, 14.0).graph;
}

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
/// offsets and before any change to the simulator's speed.
const std::map<std::string, std::string>& Goldens() {
  static const auto* goldens = new std::map<std::string, std::string>{
      {"GlpGlobalRmat",
       "gt=170685 gb=4085060 ga=38118 gc=87468 sa=0 sb=0 sat=0"
       " in=74850 io=24500 br=0 bs=0"
       " al=833970 tl=2395200 kl=10 be=640 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpSmemRmat",
       "gt=60165 gb=548420 ga=0 gc=0 sa=43120 sb=0 sat=123709"
       " in=109795 io=28800 br=110 bs=165"
       " al=1799919 tl=3513440 kl=10 be=695 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpSmemWarpRmat",
       "gt=57620 gb=912320 ga=0 gc=0 sa=13920 sb=0 sat=67227"
       " in=46947 io=16905 br=110 bs=165"
       " al=1082207 tl=1502304 kl=10 be=240 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpTightSketchRmat",
       "gt=60402 gb=978848 ga=3131 gc=41 sa=12954 sb=463 sat=77734"
       " in=47012 io=16905 br=121 bs=176"
       " al=1064740 tl=1504384 kl=10 be=240 it=5"
       " labels=fd9aa60100e7a893"},
      {"GHashRmat",
       "gt=71365 gb=906820 ga=6353 gc=16381 sa=41360 sb=0 sat=101669"
       " in=110813 io=30040 br=0 bs=0"
       " al=1792147 tl=3546016 kl=25 be=650 it=5"
       " labels=fd9aa60100e7a893"},
      {"GSortRmat",
       "gt=89275 gb=1516380 ga=0 gc=0 sa=83790 sb=0 sat=0"
       " in=135721 io=26555 br=0 bs=30970"
       " al=3163314 tl=4343072 kl=20 be=6000 it=5"
       " labels=fd9aa60100e7a893"},
      {"GlpGlobalCommunities",
       "gt=93850 gb=2261780 ga=46692 gc=18193 sa=0 sb=0 sat=0"
       " in=57391 io=19200 br=0 bs=0"
       " al=554599 tl=1836512 kl=10 be=480 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpSmemCommunities",
       "gt=32410 gb=295700 ga=0 gc=0 sa=15360 sb=0 sat=64885"
       " in=65071 io=19200 br=0 bs=0"
       " al=800359 tl=2082272 kl=10 be=480 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpSmemWarpCommunities",
       "gt=23395 gb=685460 ga=0 gc=0 sa=0 sb=0 sat=0"
       " in=17760 io=10950 br=0 bs=0"
       " al=479139 tl=568320 kl=10 be=140 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpTightSketchCommunities",
       "gt=23395 gb=685460 ga=0 gc=0 sa=0 sb=0 sat=0"
       " in=17760 io=10950 br=0 bs=0"
       " al=479139 tl=568320 kl=10 be=140 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GHashCommunities",
       "gt=32410 gb=295700 ga=0 gc=0 sa=30720 sb=0 sat=63539"
       " in=99381 io=36315 br=0 bs=0"
       " al=1290533 tl=3180192 kl=10 be=480 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GSortCommunities",
       "gt=39855 gb=794900 ga=0 gc=0 sa=58000 sb=0 sat=0"
       " in=99565 io=23040 br=0 bs=29000"
       " al=2193554 tl=3186080 kl=20 be=4445 it=5"
       " labels=1c27b91ae8a6c8e8"},
      {"GlpGlobalOrganicWindow",
       "gt=176575 gb=4385900 ga=37632 gc=73336 sa=0 sb=0 sat=0"
       " in=95655 io=34830 br=0 bs=0"
       " al=876162 tl=3060960 kl=10 be=705 it=5"
       " labels=d9d158175daae462"},
      {"GlpSmemOrganicWindow",
       "gt=55295 gb=504940 ga=0 gc=0 sa=55080 sb=0 sat=110222"
       " in=144416 io=42515 br=50 bs=75"
       " al=2153185 tl=4621312 kl=10 be=725 it=5"
       " labels=d9d158175daae462"},
      {"GlpSmemWarpOrganicWindow",
       "gt=52550 gb=886460 ga=0 gc=0 sa=13600 sb=0 sat=51137"
       " in=49000 io=20185 br=50 bs=75"
       " al=1045045 tl=1568000 kl=10 be=220 it=5"
       " labels=d9d158175daae462"},
      {"GlpTightSketchOrganicWindow",
       "gt=52550 gb=886460 ga=0 gc=0 sa=12850 sb=0 sat=55520"
       " in=48848 io=20185 br=50 bs=75"
       " al=1025428 tl=1563136 kl=10 be=220 it=5"
       " labels=d9d158175daae462"},
      {"GHashOrganicWindow",
       "gt=61695 gb=709740 ga=3577 gc=9306 sa=54280 sb=0 sat=97478"
       " in=145799 io=43780 br=0 bs=0"
       " al=2152995 tl=4665568 kl=25 be=705 it=5"
       " labels=d9d158175daae462"},
      {"GSortOrganicWindow",
       "gt=83700 gb=1367980 ga=0 gc=0 sa=69760 sb=0 sat=0"
       " in=135952 io=36550 br=0 bs=30390"
       " al=2676494 tl=4350464 kl=20 be=6530 it=5"
       " labels=d9d158175daae462"},
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

}  // namespace
}  // namespace glp::lp
