// Cross-module integration tests: generate -> serialize -> reload -> run all
// five algorithms -> verify, plus end-to-end properties the benches rely on
// (cost determinism, per-run counter behaviour, seed-controlled variation).
#include <gtest/gtest.h>

#include <sstream>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "profile/registry.hpp"

namespace eclp {
namespace {

TEST(Integration, SerializeReloadRunAllUndirectedAlgos) {
  const auto g0 = gen::find_input("amazon0601").make(gen::Scale::kTiny);
  std::stringstream ss;
  graph::write_binary(g0, ss);
  const auto g = graph::read_binary(ss);

  sim::Device dev;
  const auto cc = algos::cc::run(dev, g);
  EXPECT_TRUE(algos::cc::verify(g, cc.labels));
  const auto mis = algos::mis::run(dev, g);
  EXPECT_TRUE(algos::mis::verify(g, mis.status));
  const auto gc = algos::gc::run(dev, g);
  EXPECT_TRUE(algos::gc::verify(g, gc.colors));
  const auto gw = graph::with_random_weights(g, 1);
  const auto mst = algos::mst::run(dev, gw);
  EXPECT_TRUE(algos::mst::verify(gw, mst));
  EXPECT_GT(dev.total_cycles(), 0u);
  EXPECT_GT(dev.kernel_launches(), 4u);
}

TEST(Integration, SerializeReloadRunScc) {
  const auto g0 = gen::find_input("cold-flow").make(gen::Scale::kTiny);
  std::stringstream ss;
  graph::write_matrix_market(g0, ss);
  const auto g = graph::parse_matrix_market(ss.str());
  sim::Device dev;
  const auto res = algos::scc::run(dev, g);
  EXPECT_TRUE(algos::scc::verify(g, res.scc_id));
}

TEST(Integration, WholePipelineCycleCountIsReproducible) {
  const auto g = gen::find_input("rmat16.sym").make(gen::Scale::kTiny);
  const auto run_all = [&] {
    sim::Device dev;
    algos::cc::run(dev, g);
    algos::mis::run(dev, g);
    algos::gc::run(dev, g);
    const auto gw = graph::with_random_weights(g, 5);
    algos::mst::run(dev, gw);
    return dev.total_cycles();
  };
  EXPECT_EQ(run_all(), run_all());
}

TEST(Integration, AtomicStatsAggregateAcrossAlgorithms) {
  // The ER graph has many init-kernel roots, so CC must hook with CAS.
  const auto g = gen::find_input("r4-2e23.sym").make(gen::Scale::kTiny);
  sim::Device dev;
  algos::cc::run(dev, g);
  const u64 after_cc = dev.atomic_stats().total();
  EXPECT_GT(after_cc, 0u);  // CC hooks via atomicCAS
  const auto gw = graph::with_random_weights(g, 2);
  algos::mst::run(dev, gw);
  EXPECT_GT(dev.atomic_stats().total(), after_cc);  // MST adds atomicMin
  EXPECT_GT(dev.atomic_stats().min_total(), 0u);
  dev.atomic_stats().reset();
  EXPECT_EQ(dev.atomic_stats().total(), 0u);
}

TEST(Integration, CountersComposeWithRegistryReporting) {
  profile::CounterRegistry reg;
  auto& traversals = reg.make<profile::GlobalCounter>("init traversals");
  auto& per_thread = reg.make<profile::PerThreadCounter>("iterations", 64);
  const auto g = gen::find_input("USA-road-d.NY").make(gen::Scale::kTiny);
  sim::Device dev;
  dev.launch("user_kernel", {2, 32}, [&](sim::ThreadCtx& ctx) {
    for (vidx v = ctx.global_id(); v < g.num_vertices();
         v += ctx.grid_size()) {
      traversals.inc(g.degree(v));
      per_thread.inc(ctx.global_id());
    }
  });
  EXPECT_EQ(traversals.value(), g.num_edges());
  EXPECT_EQ(per_thread.total(), g.num_vertices());
  const auto report = reg.report();
  EXPECT_EQ(report.rows(), 2u);
}

TEST(Integration, Table3StyleSeedSweepIsReproducible) {
  // The bench for Table 3 runs MIS under three scheduler seeds; the whole
  // sweep must be bit-reproducible when repeated.
  const auto g = gen::find_input("citationCiteseer").make(gen::Scale::kTiny);
  const auto sweep = [&] {
    std::vector<double> means;
    for (const u64 seed : {1ull, 2ull, 3ull}) {
      sim::Device dev({}, seed, sim::ScheduleMode::kShuffled);
      means.push_back(algos::mis::run(dev, g).metrics.iterations.mean);
    }
    return means;
  };
  EXPECT_EQ(sweep(), sweep());
}

TEST(Integration, SpeedupRatiosAreStable) {
  // Table 7's speedup = original cycles / optimized cycles must be exactly
  // reproducible (the whole point of a modeled cost).
  const auto g = gen::find_input("cit-Patents").make(gen::Scale::kTiny);
  const auto ratio = [&] {
    sim::Device d1, d2;
    algos::cc::Options orig, fast;
    fast.optimized_init = true;
    const auto a = algos::cc::run(d1, g, orig);
    const auto b = algos::cc::run(d2, g, fast);
    return static_cast<double>(a.modeled_cycles) /
           static_cast<double>(b.modeled_cycles);
  };
  EXPECT_DOUBLE_EQ(ratio(), ratio());
  EXPECT_GT(ratio(), 1.0);  // the optimization must help on cit-Patents
}

TEST(Integration, SccBlockSizeSweepChangesCostNotResult) {
  const auto g = gen::find_input("toroid-wedge").make(gen::Scale::kTiny);
  std::vector<u64> cycles;
  usize sccs = 0;
  for (const u32 tpb : {64u, 128u, 256u, 512u, 1024u}) {
    sim::Device dev;
    algos::scc::Options opt;
    opt.threads_per_block = tpb;
    const auto res = algos::scc::run(dev, g, opt);
    if (sccs == 0) sccs = res.num_sccs;
    EXPECT_EQ(res.num_sccs, sccs);
    cycles.push_back(res.modeled_cycles);
  }
  // Cost must actually vary with block size (otherwise Table 6 is vacuous).
  EXPECT_NE(*std::min_element(cycles.begin(), cycles.end()),
            *std::max_element(cycles.begin(), cycles.end()));
}

}  // namespace
}  // namespace eclp
