#include "algos/registry.hpp"

#include <array>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "graph/cache.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace eclp::algos {

namespace {

using std::to_string;

/// Same 128-bit mix the graph cache keys use.
template <typename T>
std::string checksum_of(const std::vector<T>& v) {
  graph::CacheKey key;
  key.mix(std::string_view(reinterpret_cast<const char*>(v.data()),
                           v.size() * sizeof(T)));
  return key.hex();
}

// Each run_* returns {summary, detail, note, cycles, checksum, verify}; the
// list runs in order, so the checksum reads the solution before verify owns it.

Outcome run_cc(sim::Device& dev, const graph::Csr& g) {
  cc::Result r = cc::run(dev, g);
  usize components = 0;
  for (vidx v = 0; v < g.num_vertices(); ++v) components += r.labels[v] == v;
  const u64 seen = r.profile.init_neighbors_traversed;
  const u64 inits = r.profile.vertices_initialized;
  const double ratio = static_cast<double>(seen) / static_cast<double>(inits);
  return {"CC: " + to_string(components) + " components", "",
          "init traversals " + to_string(seen) + " over " + to_string(inits) +
              " vertices (ratio " + fmt::fixed(ratio, 2) + ")",
          r.modeled_cycles, checksum_of(r.labels),
          [&g, s = std::move(r.labels)] { return cc::verify(g, s); }};
}

Outcome run_gc(sim::Device& dev, const graph::Csr& g) {
  gc::Result r = gc::run(dev, g);
  return {"GC: " + to_string(r.num_colors) + " colors in " +
              to_string(r.host_iterations) + " rounds",
          "", "", r.modeled_cycles, checksum_of(r.colors),
          [&g, s = std::move(r.colors)] { return gc::verify(g, s); }};
}

Outcome run_mis(sim::Device& dev, const graph::Csr& g) {
  mis::Result r = mis::run(dev, g);
  return {"MIS: |S| = " + to_string(r.set_size),
          ", iterations avg " + fmt::fixed(r.metrics.iterations.mean, 2) +
              " max " + fmt::fixed(r.metrics.iterations.max, 0),
          "", r.modeled_cycles, checksum_of(r.status),
          [&g, s = std::move(r.status)] { return mis::verify(g, s); }};
}

Outcome run_mst(sim::Device& dev, const graph::Csr& g) {
  mst::Result r = mst::run(dev, g);
  return {"MST: weight " + to_string(r.total_weight) + " over " +
              to_string(r.mst_edges) + " edges",
          ", " + to_string(r.rounds) + " iterations", "", r.modeled_cycles,
          checksum_of(r.in_mst),
          [&g, s = std::move(r)] { return mst::verify(g, s); }};
}

Outcome run_scc(sim::Device& dev, const graph::Csr& g) {
  scc::Result r = scc::run(dev, g);
  return {"SCC: " + to_string(r.num_sccs) + " components in m = " +
              to_string(r.outer_iterations) + " rounds",
          "", "", r.modeled_cycles, checksum_of(r.scc_id),
          [&g, s = std::move(r.scc_id)] { return scc::verify(g, s); }};
}

/// In Algo order.
constexpr std::array<Entry, 5> kEntries{{
    {"cc", false, false, "verified against BFS reference.", run_cc},
    {"gc", false, false, "verified: proper coloring.", run_gc},
    {"mis", false, false, "verified: independent and maximal.", run_mis},
    {"mst", false, true, "verified against Kruskal.", run_mst},
    {"scc", true, false, "verified against Tarjan.", run_scc},
}};

}  // namespace

std::span<const Entry> entries() { return kEntries; }

const Entry& entry(Algo a) { return kEntries.at(static_cast<usize>(a)); }

Algo parse_algo(const std::string& name) {
  for (usize i = 0; i < kEntries.size(); ++i) {
    if (name == kEntries[i].name) return static_cast<Algo>(i);
  }
  throw CheckFailure("unknown algo '" + name + "' (" + algo_names() + ")");
}

std::string algo_names() {
  std::string out;
  for (const Entry& e : kEntries) {
    out += (out.empty() ? "" : " | ") + std::string(e.name);
  }
  return out;
}

graph::Csr prepare(const Entry& e, const GraphSource& src,
                   const std::string& context,
                   const std::function<void(const std::string&)>& note) {
  graph::Csr g =
      src.file.empty()
          ? gen::find_input(src.input).make(src.scale)
          : graph::load_any(src.file, e.wants_directed || src.directed);
  if (e.wants_directed && !g.directed()) {
    // No source location in the message: served errors carry it, and the
    // serve goldens pin it.
    throw CheckFailure((context.empty() ? "" : context + ": ") + e.name +
                       " needs a directed graph, " + src.label() +
                       " is undirected");
  }
  if (!e.wants_directed && g.directed()) {
    if (note) note("symmetrizing directed input for an undirected algorithm");
    g = graph::symmetrize(g);
  }
  if (e.wants_weights && !g.weighted()) {
    g = graph::with_random_weights(g, src.weights_seed);
    if (note) note("attached random weights (seed " +
                   std::to_string(src.weights_seed) + ")");
  }
  const graph::ReorderSpec spec = graph::ReorderSpec::parse(src.reorder);
  if (!spec.is_natural()) {
    g = graph::apply_reorder(g, spec);
    if (note) {
      note("reordered vertices (" + spec.canonical() + "); locality " +
           fmt::fixed(graph::locality_score(g), 4) + ", block affinity " +
           fmt::fixed(graph::block_affinity(g, 256), 4));
    }
  }
  return g;
}

}  // namespace eclp::algos
