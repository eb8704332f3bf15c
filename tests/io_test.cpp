#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/dimacs.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"

namespace eclp::graph {
namespace {

void expect_same_graph(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.weighted(), b.weighted());
  for (vidx v = 0; v < a.num_vertices(); ++v) {
    const auto an = a.neighbors(v), bn = b.neighbors(v);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "vertex " << v;
    if (a.weighted()) {
      const auto aw = a.weights_of(v), bw = b.weights_of(v);
      ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end()));
    }
  }
}

TEST(BinaryIo, RoundtripUnweighted) {
  const auto g = gen::grid2d_torus(8);
  std::stringstream ss;
  write_binary(g, ss);
  expect_same_graph(g, read_binary(ss));
}

TEST(BinaryIo, RoundtripWeightedDirected) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(4, {{0, 1, 9}, {1, 2, 8}, {3, 0, 7}}, opt);
  std::stringstream ss;
  write_binary(g, ss);
  expect_same_graph(g, read_binary(ss));
}

TEST(BinaryIo, BadMagicRejected) {
  std::stringstream ss;
  ss << "this is not a graph file at all, definitely not";
  EXPECT_THROW(read_binary(ss), CheckFailure);
}

TEST(BinaryIo, TruncatedStreamRejected) {
  const auto g = gen::grid2d_torus(8);
  std::stringstream ss;
  write_binary(g, ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_binary(truncated), CheckFailure);
}

TEST(BinaryIo, FileRoundtrip) {
  const auto g = gen::uniform_random(100, 300, 5);
  const auto path =
      (std::filesystem::temp_directory_path() / "eclp_io_test.eclg").string();
  save_binary(g, path);
  expect_same_graph(g, load_binary(path));
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(load_binary("/nonexistent/path/graph.eclg"), CheckFailure);
}

TEST(MatrixMarket, RoundtripSymmetricPattern) {
  const auto g = gen::grid2d_torus(6);
  std::stringstream ss;
  write_matrix_market(g, ss);
  expect_same_graph(g, parse_matrix_market(ss.str()));
}

TEST(MatrixMarket, RoundtripGeneralInteger) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(5, {{0, 1, 3}, {2, 4, 11}, {4, 0, 1}}, opt);
  std::stringstream ss;
  write_matrix_market(g, ss);
  expect_same_graph(g, parse_matrix_market(ss.str()));
}

TEST(MatrixMarket, ReadsHandWrittenFixture) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment line\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const auto g = parse_matrix_market(ss.str());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // two undirected edges
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(MatrixMarket, RejectsNonSquare) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 4 1\n"
      "1 1\n");
  EXPECT_THROW(parse_matrix_market(ss.str()), CheckFailure);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream ss("%%NotMatrixMarket whatever\n");
  EXPECT_THROW(parse_matrix_market(ss.str()), CheckFailure);
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW(parse_matrix_market(ss.str()), CheckFailure);
}

TEST(EdgeList, ReadsSnapStyleInput) {
  std::stringstream ss(
      "# SNAP-style comment\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n");
  const auto g = parse_edge_list(ss.str());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(EdgeList, ReadsWeights) {
  std::stringstream ss("0 1 5\n1 2 7\n");
  const auto g = parse_edge_list(ss.str());
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 5u);
}

TEST(EdgeList, RoundtripUndirected) {
  const auto g = gen::uniform_random(60, 150, 3);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_same_graph(g, parse_edge_list(ss.str(), false, g.num_vertices()));
}

TEST(EdgeList, RoundtripDirectedWeighted) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = from_edges(6, {{0, 5, 2}, {5, 1, 3}, {2, 2, 4}, {4, 3, 9}},
                            opt);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_same_graph(g, parse_edge_list(ss.str(), true, g.num_vertices()));
}

TEST(EdgeList, MalformedLineThrows) {
  std::stringstream ss("0 not-a-number\n");
  EXPECT_THROW(parse_edge_list(ss.str()), CheckFailure);
}

TEST(EdgeList, ForcedVertexCountTooSmallThrows) {
  std::stringstream ss("0 9\n");
  EXPECT_THROW(parse_edge_list(ss.str(), false, 5), CheckFailure);
}

// --- rejected text input -----------------------------------------------------

/// A text input the reader must refuse with a CheckFailure whose message
/// contains `names` (the offending line, or the header's count).
struct BadText {
  const char* what;
  std::function<Csr(std::string_view)> parse;
  std::string text;
  std::string names;
};

void expect_rejected(const BadText& c) {
  try {
    c.parse(c.text);
    ADD_FAILURE() << c.what << ": accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
        << c.what << ": " << e.what();
  }
}

Csr mtx(std::string_view t) { return parse_matrix_market(t); }
Csr gr(std::string_view t) { return parse_dimacs_sp(t); }
Csr col(std::string_view t) { return parse_dimacs_col(t); }
Csr el(std::string_view t) { return parse_edge_list(t); }

const std::string kIntegerMtx =
    "%%MatrixMarket matrix coordinate integer general\n3 3 2\n1 2 4\n";
const std::string kRealMtx =
    "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 4.5\n";

// A weight the 32-bit weight_t cannot hold is an error naming the line,
// never a wrapped or undefined cast, and a weighted entry must carry one.
TEST(TextWeights, OutOfRangeOrMissingWeightsAreRejected) {
  const BadText cases[] = {
      {"mtx nan", mtx, kRealMtx + "3 1 nan\n", "3 1 nan"},
      {"mtx inf", mtx, kRealMtx + "3 1 inf\n", "3 1 inf"},
      {"mtx -3", mtx, kIntegerMtx + "3 1 -3\n", "3 1 -3"},
      {"mtx 1e12", mtx, kRealMtx + "3 1 1e12\n", "3 1 1e12"},
      {"mtx missing", mtx, kIntegerMtx + "3 1\n", "missing weight: 3 1"},
      {"mtx 2^32", mtx, kIntegerMtx + "3 1 4294967296\n", "3 1 4294967296"},
      {"gr 2^32", gr, "p sp 3 2\na 1 2 4\na 3 1 4294967296\n",
       "a 3 1 4294967296"},
      {"el 2^32", el, "0 1 4\n2 0 4294967296\n", "2 0 4294967296"},
      {"el -3", el, "0 1 4\n2 0 -3\n", "2 0 -3"},
      {"el 2^64", el, "2 0 18446744073709551616\n", "18446744073709551616"},
  };
  for (const BadText& c : cases) expect_rejected(c);
}

TEST(TextWeights, WeightsAtTheEdgesOfTheRangeAreKept) {
  const auto m = parse_matrix_market(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n1 2 4294967295\n2 3 -0.5\n3 1 2.9\n");
  EXPECT_EQ(m.weights_of(0)[0], 4294967295u);
  EXPECT_EQ(m.weights_of(1)[0], 0u);
  EXPECT_EQ(m.weights_of(2)[0], 2u);
  const auto g = parse_dimacs_sp("p sp 2 1\na 1 2 4294967295\n");
  EXPECT_EQ(g.weights_of(0)[0], 4294967295u);
  const auto e = parse_edge_list("0 1 4294967295\n");
  EXPECT_EQ(e.weights_of(0)[0], 4294967295u);
}

// The header's entry count must match the body, in both directions, and
// every DIMACS body line must carry the format's tag.
TEST(TextHeaders, CountMismatchAndWrongTagAreRejected) {
  const std::string mtx_head =
      "%%MatrixMarket matrix coordinate pattern general\n";
  const BadText cases[] = {
      {"mtx too few", mtx, mtx_head + "3 3 3\n1 2\n2 3\n",
       "header promised 3 entries, file had 2"},
      {"mtx too many", mtx, mtx_head + "3 3 1\n1 2\n2 3\n",
       "header promised 1 entries, file had 2"},
      {"gr too few", gr, "p sp 3 3\na 1 2 1\nc note\na 2 3 1\n",
       "header promised 3 arcs, file had 2"},
      {"gr too many", gr, "p sp 3 1\na 1 2 1\na 2 3 1\n",
       "header promised 1 arcs, file had 2"},
      {"col too few", col, "p edge 3 2\ne 1 2\n",
       "header promised 2 edges, file had 1"},
      {"col too many", col, "p edge 3 1\ne 1 2\n\ne 2 3\n",
       "header promised 1 edges, file had 2"},
      {"gr wrong tag", gr, "p sp 3 2\na 1 2 1\ne 2 3 1\n",
       "expected 'a' line: e 2 3 1"},
      {"col wrong tag", col, "p edge 3 2\ne 1 2\na 2 3\n",
       "expected 'e' line: a 2 3"},
  };
  for (const BadText& c : cases) expect_rejected(c);
}

}  // namespace
}  // namespace eclp::graph
