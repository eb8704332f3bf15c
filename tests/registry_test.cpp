// Tests for the algorithm registry (src/algos/registry.*): name lookup and
// the graph preparation every front end shares. That each code's served
// result matches a hand-written direct run is pinned separately by
// Server.ServedResultMatchesDirectRun.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/registry.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "support/check.hpp"

namespace eclp::algos {
namespace {

GraphSource suite(const std::string& input, const std::string& reorder = "") {
  GraphSource src;
  src.input = input;
  src.reorder = reorder;
  return src;
}

TEST(AlgoRegistry, NamesRoundTripInAlgoOrder) {
  const std::vector<std::string> names = {"cc", "gc", "mis", "mst", "scc"};
  ASSERT_EQ(entries().size(), names.size());
  for (usize i = 0; i < names.size(); ++i) {
    const Algo a = static_cast<Algo>(i);
    EXPECT_EQ(algo_name(a), names[i]);
    EXPECT_EQ(parse_algo(names[i]), a);
    EXPECT_EQ(&entry(a), &entries()[i]);
  }
  EXPECT_EQ(algo_names(), "cc | gc | mis | mst | scc");
}

TEST(AlgoRegistry, UnknownNameThrowsListingTheCodes) {
  try {
    parse_algo("bogus");
    FAIL() << "parse_algo accepted an unknown name";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown algo 'bogus' (cc | gc | mis | mst | scc)");
  }
}

TEST(AlgoRegistry, DirectedCodeRejectsAnUndirectedGraph) {
  const Entry& scc = entry(Algo::kScc);
  try {
    prepare(scc, suite("rmat16.sym"), "request r7");
    FAIL() << "scc ran on an undirected graph";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(std::string(e.what()),
              "request r7: scc needs a directed graph, rmat16.sym is "
              "undirected");
  }
  EXPECT_TRUE(prepare(scc, suite("cold-flow")).directed());
}

TEST(AlgoRegistry, UndirectedCodeSymmetrizesADirectedGraph) {
  std::vector<std::string> notes;
  const graph::Csr g =
      prepare(entry(Algo::kCc), suite("cold-flow"), {},
              [&](const std::string& n) { notes.push_back(n); });
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g, graph::symmetrize(gen::find_input("cold-flow").make(
                   gen::Scale::kTiny)));
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("symmetrizing"), std::string::npos);
}

TEST(AlgoRegistry, WeightsAreAttachedBeforeTheReorder) {
  const graph::Csr base =
      gen::find_input("USA-road-d.NY").make(gen::Scale::kTiny);
  ASSERT_FALSE(base.weighted());
  GraphSource src = suite("USA-road-d.NY", "hub");
  src.weights_seed = 9;
  const graph::Csr g = prepare(entry(Algo::kMst), src);
  EXPECT_EQ(g, graph::apply_reorder(graph::with_random_weights(base, 9),
                                    graph::ReorderSpec::parse("hub")));
  // Codes that do not want weights leave an unweighted input alone.
  EXPECT_FALSE(prepare(entry(Algo::kCc), src).weighted());
}

}  // namespace
}  // namespace eclp::algos
