// Equivalence tests for the parallel ingest pipeline (Builder::build over
// graph/stream_build.hpp, the chunk-parallel readers, and the
// content-addressed graph cache).
//
// The pipeline's contract is stronger than "same graph": at any thread
// count, the CSR it assembles must be *byte-identical* to reference_build
// below, a direct global stable sort — sorted adjacency is load-bearing
// for ECL-CC's init heuristic (builder.hpp, paper §6.1.3), and every
// golden in this repo was produced with those bytes. These tests pin that
// contract for the whole Table-1 input suite and for all four text
// formats, and they live in the eclp_parallel_tests binary so the TSan
// configuration (ctest -L tsan) race-checks the same code paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/distributions.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/dimacs.hpp"
#include "graph/io.hpp"
#include "graph/stream_build.hpp"
#include "graph/transforms.hpp"
#include "support/parallel_for.hpp"

namespace eclp {
namespace {

std::string bytes_of(const graph::Csr& g) {
  std::stringstream ss;
  graph::write_binary(g, ss);
  return std::move(ss).str();
}

/// The assembly contract, written out directly: drop self-loops when
/// asked, append every edge's mirror after all originals (undirected),
/// stable-sort globally by (src, dst), keep the first of each duplicate
/// run, and sweep the result into CSR arrays.
graph::Csr reference_build(vidx n, std::vector<graph::Edge> edges,
                           const graph::BuildOptions& opt) {
  if (opt.remove_self_loops) {
    std::erase_if(edges, [](const graph::Edge& e) { return e.src == e.dst; });
  }
  if (!opt.directed) {
    const usize originals = edges.size();
    edges.reserve(2 * originals);
    for (usize i = 0; i < originals; ++i) {
      const graph::Edge e = edges[i];
      edges.push_back({e.dst, e.src, e.w});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const graph::Edge& a, const graph::Edge& b) {
                     return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                   });
  if (opt.dedupe) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const graph::Edge& a, const graph::Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  std::vector<eidx> offsets(static_cast<usize>(n) + 1, 0);
  for (const graph::Edge& e : edges) offsets[e.src + 1]++;
  for (usize v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<vidx> targets;
  std::vector<weight_t> weights;
  for (const graph::Edge& e : edges) {
    targets.push_back(e.dst);
    if (opt.weighted) weights.push_back(e.w);
  }
  return graph::Csr::from_parts(n, std::move(offsets), std::move(targets),
                                std::move(weights), opt.directed);
}

/// A graph's arcs in CSR order, weights included; `once` keeps each
/// undirected edge a single time (its u <= v side).
std::vector<graph::Edge> edges_of(const graph::Csr& g, bool once) {
  std::vector<graph::Edge> edges;
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      if (once && nbrs[i] < u) continue;
      edges.push_back({u, nbrs[i], g.weighted() ? g.weights_of(u)[i] : 0});
    }
  }
  return edges;
}

/// Restores the ingest configuration a test mutates. Every test in this
/// file runs with the cache disabled unless it explicitly enables one.
class IngestConfigGuard {
 public:
  IngestConfigGuard()
      : threads_(build_threads()), cache_dir_(graph::cache_dir()) {
    graph::set_cache_dir("");
  }
  ~IngestConfigGuard() {
    set_build_threads(threads_);
    graph::set_cache_dir(cache_dir_);
  }

 private:
  u32 threads_;
  std::string cache_dir_;
};

/// A scratch cache directory, wiped on construction and destruction.
class ScratchCache {
 public:
  explicit ScratchCache(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    graph::set_cache_dir(dir_.string());
    graph::reset_cache_stats();
  }
  ~ScratchCache() {
    graph::set_cache_dir("");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

// --- parallel_for ------------------------------------------------------------

TEST(ParallelFor, ChunkRangesPartitionTheTotal) {
  for (const u64 total : {1ull, 7ull, 64ull, 1000ull}) {
    for (const u64 chunks : {1ull, 2ull, 7ull, 64ull}) {
      u64 expected_begin = 0;
      for (u64 c = 0; c < chunks; ++c) {
        const auto [begin, end] = chunk_range(total, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(end - begin, total / chunks + 1);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnceOnAPool) {
  Pool pool(7);
  constexpr u64 kTotal = 10007;
  std::vector<std::atomic<u32>> seen(kTotal);
  parallel_for_chunks(&pool, kTotal, 56, [&](u64, u64 begin, u64 end, u32) {
    for (u64 i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (u64 i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, RunsInlineWithoutAPool) {
  u64 sum = 0;  // no synchronization: must run on the calling thread
  parallel_for_chunks(nullptr, 100, 8, [&](u64, u64 begin, u64 end, u32) {
    for (u64 i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

// --- parallel build ----------------------------------------------------------

/// Every suite input, generated with 1/2/7 ingest threads, must serialize
/// to the bytes reference_build assembles from the graph's own edges:
/// sorted, deduplicated and symmetric, identically at every thread count
/// (generators build their CSRs through the same Builder, so this covers
/// generator-internal builds too).
TEST(ParallelBuild, ByteIdenticalAcrossThreadCountsForWholeSuite) {
  IngestConfigGuard guard;
  for (const auto* inputs : {&gen::general_inputs(), &gen::mesh_inputs()}) {
    for (const auto& spec : *inputs) {
      set_build_threads(1);
      const auto g = spec.make(gen::Scale::kTiny);
      graph::BuildOptions opt;
      opt.directed = g.directed();
      opt.weighted = g.weighted();
      opt.remove_self_loops = false;
      const std::string reference = bytes_of(reference_build(
          g.num_vertices(), edges_of(g, !g.directed()), opt));
      for (const u32 threads : {1u, 2u, 7u}) {
        set_build_threads(threads);
        EXPECT_EQ(bytes_of(spec.make(gen::Scale::kTiny)), reference)
            << spec.name << " at " << threads << " build threads";
      }
    }
  }
}

/// Duplicate edges with distinct weights: the reference's stable sort
/// keeps the first-inserted weight; the pipeline must too.
TEST(ParallelBuild, KeepsFirstInsertedWeightForDuplicates) {
  IngestConfigGuard guard;
  graph::BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  std::vector<graph::Edge> edges;
  // Many parallel edges spread over sources so chunks split between dupes.
  for (u32 rep = 0; rep < 200; ++rep) {
    for (vidx s = 0; s < 40; ++s) {
      edges.push_back({s, (s + rep) % 40, rep + 1});
      edges.push_back({s, (s * 7 + rep) % 40, 100 + rep});
    }
  }
  const auto reference = bytes_of(reference_build(40, edges, opt));
  for (const u32 threads : {1u, 2u, 7u}) {
    set_build_threads(threads);
    EXPECT_EQ(bytes_of(graph::from_edges(40, edges, opt)), reference)
        << threads << " build threads";
  }
}

/// Every option combination against the reference. The undirected
/// weighted cases hold both (u,v,w1) and (v,u,w2) for many pairs, so they
/// fail unless every mirror lands behind every original.
TEST(ParallelBuild, NoDedupeAndSelfLoopOptionsMatchSerial) {
  IngestConfigGuard guard;
  std::vector<graph::Edge> edges;
  for (u32 i = 0; i < 20000; ++i) {
    edges.push_back({i % 97, (i * 13 + i / 97 + 5) % 97, i});
  }
  for (const bool dedupe : {true, false}) {
    for (const bool loops : {true, false}) {
      for (const bool directed : {true, false}) {
        graph::BuildOptions opt;
        opt.dedupe = dedupe;
        opt.remove_self_loops = loops;
        opt.directed = directed;
        opt.weighted = true;
        const auto reference = bytes_of(reference_build(97, edges, opt));
        for (const u32 threads : {1u, 2u, 7u}) {
          set_build_threads(threads);
          EXPECT_EQ(bytes_of(graph::from_edges(97, edges, opt)), reference)
              << "dedupe=" << dedupe << " loops=" << loops
              << " directed=" << directed << " threads=" << threads;
        }
      }
    }
  }
}

/// Large enough to leave the write-combining single-partition path: 2^16
/// rows are 16 row partitions, and over 10^6 skewed arcs fill and flush
/// every partition's buffer many times in the middle of a replay. Hub
/// rows hold long runs of duplicates with distinct weights, so an arc
/// that left its row's replay order would change the kept weight.
TEST(ParallelBuild, MultiPartitionBuildsMatchReference) {
  IngestConfigGuard guard;
  const vidx n = vidx{1} << 16;
  const gen::RmatSampler sample(16, 0.57, 0.19, 0.19);
  Rng rng(2024);
  std::vector<graph::Edge> edges(1100000);
  for (graph::Edge& e : edges) {
    const auto [u, v] = sample(rng);
    e = {u, v, static_cast<weight_t>(rng.below(1000))};
  }
  const graph::VectorChunkSource source(n, edges, 13);
  struct Case {
    const char* name;
    bool directed, weighted, dedupe;
  };
  for (const Case& c : {Case{"directed", true, false, true},
                        Case{"undirected", false, false, true},
                        Case{"weighted undirected", false, true, true},
                        Case{"undirected no-dedupe", false, false, false}}) {
    graph::BuildOptions opt;
    opt.directed = c.directed;
    opt.weighted = c.weighted;
    opt.dedupe = c.dedupe;
    const auto reference = bytes_of(reference_build(n, edges, opt));
    for (const u32 threads : {1u, 2u, 7u}) {
      set_build_threads(threads);
      // EXPECT_TRUE, not EXPECT_EQ: gtest's diff of two multi-MiB strings
      // on failure is quadratic in memory.
      EXPECT_TRUE(bytes_of(graph::build_from_chunks(source, opt)) ==
                  reference)
          << c.name << " threads=" << threads;
    }
  }
}

// --- chunk-parallel text parsing --------------------------------------------

/// The reference for a parse of `g` rendered as text: reference_build over
/// the edges the writer puts in the file (`once`: each undirected edge a
/// single time), with the options the format's parser builds with.
std::string parsed_reference(const graph::Csr& g, bool once, bool weighted) {
  graph::BuildOptions opt;
  opt.weighted = weighted;
  return bytes_of(reference_build(g.num_vertices(), edges_of(g, once), opt));
}

/// Render a mid-sized graph in each text format and re-parse it at 1/2/7
/// ingest threads; every parse must serialize to the reference's bytes
/// (and the unweighted formats to the original graph's).
TEST(ChunkedParse, AllFormatsByteIdenticalAcrossThreadCounts) {
  IngestConfigGuard guard;

  const auto undirected = gen::uniform_random(3000, 12000, 9);
  const auto weighted = graph::with_random_weights(undirected, 17);

  struct Case {
    const char* name;
    std::string text;
    std::function<graph::Csr()> parse;
    std::string reference;
  };
  std::vector<Case> cases;
  {
    std::stringstream ss;
    graph::write_matrix_market(undirected, ss);
    const std::string text = ss.str();
    cases.push_back({"mtx", text,
                     [text] { return graph::parse_matrix_market(text); },
                     parsed_reference(undirected, true, false)});
  }
  {
    std::stringstream ss;
    graph::write_edge_list(undirected, ss);
    const std::string text = ss.str();
    const vidx n = undirected.num_vertices();
    cases.push_back({"el", text,
                     [text, n] {
                       return graph::parse_edge_list(text, false, n);
                     },
                     parsed_reference(undirected, true, false)});
  }
  {
    std::stringstream ss;
    graph::write_dimacs_sp(weighted, ss);
    const std::string text = ss.str();
    cases.push_back({"gr", text,
                     [text] { return graph::parse_dimacs_sp(text, true); },
                     parsed_reference(weighted, false, true)});
  }
  {
    std::stringstream ss;
    graph::write_dimacs_col(undirected, ss);
    const std::string text = ss.str();
    cases.push_back({"col", text,
                     [text] { return graph::parse_dimacs_col(text); },
                     parsed_reference(undirected, true, false)});
  }

  {
    // Weighted symmetric .mtx listing both (u,v) and (v,u) with different
    // weights: only the originals-before-mirrors replay keeps each row's
    // own entry.
    std::vector<graph::Edge> arcs = edges_of(undirected, false);
    std::string text =
        "%%MatrixMarket matrix coordinate integer symmetric\n" +
        std::to_string(undirected.num_vertices()) + ' ' +
        std::to_string(undirected.num_vertices()) + ' ' +
        std::to_string(arcs.size()) + '\n';
    for (usize i = 0; i < arcs.size(); ++i) {
      arcs[i].w = static_cast<weight_t>(i + 1);
      text += std::to_string(arcs[i].src + 1) + ' ' +
              std::to_string(arcs[i].dst + 1) + ' ' +
              std::to_string(arcs[i].w) + '\n';
    }
    graph::BuildOptions opt;
    opt.weighted = true;
    cases.push_back(
        {"weighted symmetric mtx", text,
         [text] { return graph::parse_matrix_market(text); },
         bytes_of(reference_build(undirected.num_vertices(), arcs, opt))});
  }
  {
    // Weighted directed .el: repeated arcs with a different weight (keep
    // the first) and some 2-token lines (weight 0) among the 3-token ones.
    std::vector<graph::Edge> arcs;
    std::string text;
    const auto listed = edges_of(undirected, false);
    for (usize i = 0; i < listed.size(); ++i) {
      graph::Edge e = listed[i];
      e.w = i % 11 == 0 ? 0 : static_cast<weight_t>(i % 1000 + 1);
      for (u32 rep = 0; rep < (i % 5 == 0 ? 2u : 1u); ++rep) {
        arcs.push_back(e);
        text += std::to_string(e.src) + ' ' + std::to_string(e.dst);
        if (i % 11 != 0) text += ' ' + std::to_string(e.w);
        text += '\n';
        e.w += 7;
      }
    }
    const vidx n = undirected.num_vertices();
    graph::BuildOptions opt;
    opt.directed = true;
    opt.weighted = true;
    cases.push_back({"weighted directed el", text,
                     [text, n] {
                       return graph::parse_edge_list(text, true, n);
                     },
                     bytes_of(reference_build(n, arcs, opt))});
  }

  for (const Case& c : cases) {
    const std::string& reference = c.reference;
    for (const u32 threads : {1u, 2u, 7u}) {
      set_build_threads(threads);
      EXPECT_EQ(bytes_of(c.parse()), reference)
          << c.name << " at " << threads << " build threads";
    }
  }
  // The unweighted formats must reproduce the original graph exactly.
  set_build_threads(7);
  EXPECT_EQ(bytes_of(cases[0].parse()), bytes_of(undirected));  // mtx
  EXPECT_EQ(bytes_of(cases[1].parse()), bytes_of(undirected));  // el
}

/// A malformed line in the last chunk at 7 build threads is still a
/// CheckFailure naming that line, in every format. The headers count the
/// bad line, so the body parse (not the count check) has to catch it.
TEST(ChunkedParse, MalformedLinesStillRejectedWhenParallel) {
  IngestConfigGuard guard;
  set_build_threads(7);
  constexpr u32 kLines = 5000;
  const auto body = [](const char* tag, bool weight) {
    std::string text;
    for (u32 i = 1; i < kLines; ++i) {
      text += tag + std::to_string(i) + " " + std::to_string(i + 1) +
              (weight ? " 3\n" : "\n");
    }
    return text;
  };
  const std::string n = std::to_string(kLines + 1);
  const std::string m = std::to_string(kLines);
  struct Case {
    const char* name;
    std::string text;
    std::function<graph::Csr(const std::string&)> parse;
    std::string bad_line;
  };
  const Case cases[] = {
      {"mtx",
       "%%MatrixMarket matrix coordinate pattern general\n" + n + ' ' + n +
           ' ' + m + '\n' + body("", false) + "4999 not-a-number\n",
       [](const std::string& t) { return graph::parse_matrix_market(t); },
       "4999 not-a-number"},
      {"el", body("", false) + "4999 not-a-number\n",
       [](const std::string& t) { return graph::parse_edge_list(t); },
       "4999 not-a-number"},
      {"gr", "p sp " + n + ' ' + m + '\n' + body("a ", true) + "a 4999 x 3\n",
       [](const std::string& t) { return graph::parse_dimacs_sp(t); },
       "a 4999 x 3"},
      {"col", "p edge " + n + ' ' + m + '\n' + body("e ", false) + "e 4999 x\n",
       [](const std::string& t) { return graph::parse_dimacs_col(t); },
       "e 4999 x"},
  };
  for (const Case& c : cases) {
    try {
      c.parse(c.text);
      ADD_FAILURE() << c.name << ": malformed line accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(c.bad_line), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

// --- adversarial text layouts ------------------------------------------------

/// Rewrite rendered graph text into a hostile-but-legal layout: long
/// comment runs (lines far wider than the average data line, so chunk
/// boundaries land inside them and chunk_at_lines has to scan forward),
/// CRLF line endings, and no trailing newline on the final data line.
/// `comment` is the format's comment lead-in; `body_comments` is false for
/// Matrix Market, whose entry body may not contain comment lines.
std::string adversarial_layout(const std::string& text, char comment,
                               bool body_comments) {
  const std::string long_comment =
      std::string(1, comment) + " " + std::string(700, 'x');
  std::string out;
  out.reserve(text.size() * 2);
  usize line_no = 0;
  usize begin = 0;
  while (begin < text.size()) {
    usize end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    out.append(text, begin, end - begin);
    out += "\r\n";
    ++line_no;
    // A run of oversized comments after the first line (banner/header) and
    // periodically through the body when the format allows them there.
    if (line_no == 1 || (body_comments && line_no % 37 == 0)) {
      for (u32 r = 0; r < 3; ++r) out += long_comment + "\r\n";
    }
    begin = end + 1;
  }
  // Drop the final newline: the last line arrives unterminated.
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// Property test: random graphs rendered in all four text formats, then
/// re-serialized into adversarial layouts, must parse at 1/2/7 ingest
/// threads to the reference's bytes, exactly as the pristine renderings
/// do (comments, CRLF, and missing trailing newlines are presentation,
/// not content).
TEST(ChunkedParse, AdversarialLayoutsMatchSerialPristineParse) {
  IngestConfigGuard guard;

  for (const u64 seed : {3u, 11u, 29u}) {
    const vidx n = 400 + static_cast<vidx>(seed) * 97;
    const auto undirected = gen::uniform_random(n, 4 * n, seed);
    const auto weighted = graph::with_random_weights(undirected, seed + 1);
    const std::string plain_reference =
        parsed_reference(undirected, true, false);

    struct Case {
      const char* name;
      std::string pristine;
      char comment;
      bool body_comments;
      std::function<graph::Csr(const std::string&)> parse;
      std::string reference;
    };
    std::vector<Case> cases;
    {
      std::stringstream ss;
      graph::write_matrix_market(undirected, ss);
      cases.push_back({"mtx", ss.str(), '%', false,
                       [](const std::string& t) {
                         return graph::parse_matrix_market(t);
                       },
                       plain_reference});
    }
    {
      std::stringstream ss;
      graph::write_edge_list(undirected, ss);
      cases.push_back({"el", ss.str(), '#', true,
                       [n](const std::string& t) {
                         return graph::parse_edge_list(t, false, n);
                       },
                       plain_reference});
    }
    {
      std::stringstream ss;
      graph::write_dimacs_sp(weighted, ss);
      cases.push_back({"gr", ss.str(), 'c', true,
                       [](const std::string& t) {
                         return graph::parse_dimacs_sp(t, true);
                       },
                       parsed_reference(weighted, false, true)});
    }
    {
      std::stringstream ss;
      graph::write_dimacs_col(undirected, ss);
      cases.push_back({"col", ss.str(), 'c', true,
                       [](const std::string& t) {
                         return graph::parse_dimacs_col(t);
                       },
                       plain_reference});
    }

    for (const Case& c : cases) {
      const std::string hostile =
          adversarial_layout(c.pristine, c.comment, c.body_comments);
      ASSERT_NE(hostile, c.pristine);
      for (const u32 threads : {1u, 2u, 7u}) {
        set_build_threads(threads);
        EXPECT_EQ(bytes_of(c.parse(c.pristine)), c.reference)
            << c.name << " seed " << seed << " pristine at " << threads
            << " build threads";
        EXPECT_EQ(bytes_of(c.parse(hostile)), c.reference)
            << c.name << " seed " << seed << " adversarial at " << threads
            << " build threads";
      }
    }
  }
}

// --- content-addressed cache -------------------------------------------------

TEST(GraphCache, HitReturnsGraphEqualToFreshBuild) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_hit");

  const auto g = gen::uniform_random(600, 2400, 3);
  const auto path = cache.dir() / "input.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path);
    graph::write_edge_list(g, os);
  }
  const auto cold = graph::load_any(path.string());
  auto stats = graph::cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 0u);

  const auto warm = graph::load_any(path.string());
  stats = graph::cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(bytes_of(cold), bytes_of(warm));
}

TEST(GraphCache, SuiteGenerationIsMemoized) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_suite");

  const auto& spec = gen::find_input("rmat16.sym");
  const auto cold = spec.make(gen::Scale::kTiny);
  const auto warm = spec.make(gen::Scale::kTiny);
  const auto stats = graph::cache_stats();
  EXPECT_GE(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(bytes_of(cold), bytes_of(warm));
}

TEST(GraphCache, KeyDistinguishesDirectedness) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_directed");

  const auto path = cache.dir() / "arcs.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path);
    os << "0 1\n1 2\n";
  }
  const auto undirected = graph::load_any(path.string(), false);
  const auto directed = graph::load_any(path.string(), true);
  EXPECT_FALSE(undirected.directed());
  EXPECT_TRUE(directed.directed());
  EXPECT_EQ(undirected.num_edges(), 4u);
  EXPECT_EQ(directed.num_edges(), 2u);
}

TEST(GraphCache, CorruptEntryFallsBackToRebuild) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_corrupt");

  const auto path = cache.dir() / "input.el";
  std::filesystem::create_directories(cache.dir());
  const auto g = gen::uniform_random(200, 800, 11);
  {
    std::ofstream os(path);
    graph::write_edge_list(g, os);
  }
  const auto cold = graph::load_any(path.string());

  // Truncate every cached entry to garbage.
  u32 corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache.dir())) {
    if (entry.path().extension() == ".eclg") {
      std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
      os << "garbage";
      ++corrupted;
    }
  }
  ASSERT_GE(corrupted, 1u);

  const auto rebuilt = graph::load_any(path.string());
  EXPECT_EQ(bytes_of(cold), bytes_of(rebuilt));
  const auto stats = graph::cache_stats();
  EXPECT_GE(stats.corrupt, 1u);
  // The rebuild re-stored the entry, so a third load hits again.
  graph::load_any(path.string());
  EXPECT_GE(graph::cache_stats().hits, 1u);
}

/// The corrupt-store warning is deduplicated per *entry path*, not once
/// per process: a long-lived serving process that trips over two distinct
/// damaged entries must say so for each of them (while still not spamming
/// a warning per retry of the same entry).
TEST(GraphCache, WarnsOncePerCorruptEntryPathNotOncePerProcess) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_warn_paths");

  const auto path_a = cache.dir() / "a.el";
  const auto path_b = cache.dir() / "b.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path_a);
    graph::write_edge_list(gen::uniform_random(100, 400, 1), os);
  }
  {
    std::ofstream os(path_b);
    graph::write_edge_list(gen::uniform_random(100, 400, 2), os);
  }
  graph::load_any(path_a.string());
  graph::load_any(path_b.string());

  const auto corrupt_all = [&] {
    for (const auto& entry :
         std::filesystem::directory_iterator(cache.dir())) {
      if (entry.path().extension() == ".eclg") {
        std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
        os << "garbage";
      }
    }
  };

  graph::reset_cache_warnings();
  ASSERT_EQ(graph::cache_warned_paths(), 0u);

  corrupt_all();
  graph::load_any(path_a.string());
  EXPECT_EQ(graph::cache_warned_paths(), 1u);

  // Same entry corrupt again: already-warned, no second warning path.
  corrupt_all();
  graph::load_any(path_a.string());
  EXPECT_EQ(graph::cache_warned_paths(), 1u);

  // A *different* corrupt entry must still get its own warning.
  graph::load_any(path_b.string());
  EXPECT_EQ(graph::cache_warned_paths(), 2u);
  EXPECT_GE(graph::cache_stats().corrupt, 3u);
}

TEST(GraphCache, DisabledCacheTouchesNothing) {
  IngestConfigGuard guard;
  graph::set_cache_dir("");
  graph::reset_cache_stats();
  const auto& spec = gen::find_input("internet");
  spec.make(gen::Scale::kTiny);
  const auto stats = graph::cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.stores, 0u);
}

}  // namespace
}  // namespace eclp
