#include "graph/builder.hpp"

#include <algorithm>

#include "graph/stream_build.hpp"

namespace eclp::graph {

namespace {

// Staged edges per chunk of the assembly source. A build below this size
// is a single chunk and runs inline on the caller; larger builds spread
// their chunks over the build pool.
constexpr usize kEdgesPerBuildChunk = 4096;

}  // namespace

void Builder::add(vidx src, vidx dst, weight_t w) {
  ECLP_CHECK_MSG(src < num_vertices_ && dst < num_vertices_,
                 "edge (" << src << "," << dst << ") out of range, n="
                          << num_vertices_);
  edges_.push_back({src, dst, w});
}

void Builder::add_edges(std::span<const Edge> edges) {
  // Geometric growth: size + batch would make a loop of B-edge batches
  // reallocate (and copy the whole staging vector) once per call. Doubling
  // amortizes that to O(total) even when no reserve_edges hint was given.
  const usize needed = edges_.size() + edges.size();
  if (needed > edges_.capacity()) {
    edges_.reserve(std::max(needed, edges_.capacity() * 2));
  }
  for (const Edge& e : edges) {
    ECLP_CHECK_MSG(e.src < num_vertices_ && e.dst < num_vertices_,
                   "edge (" << e.src << "," << e.dst << ") out of range, n="
                            << num_vertices_);
    edges_.push_back(e);
  }
}

void Builder::reserve_edges(u64 edges) {
  edges_.reserve(static_cast<usize>(
      std::min<u64>(edges, edges_.max_size())));
}

Csr Builder::build(const BuildOptions& opt) {
  const std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  const VectorChunkSource source(num_vertices_, edges,
                                 edges.size() / kEdgesPerBuildChunk);
  return build_from_chunks(source, opt);
}

Csr from_edges(vidx num_vertices, const std::vector<Edge>& edges,
               const BuildOptions& opt) {
  Builder b(num_vertices);
  b.reserve_edges(edges.size());
  for (const Edge& e : edges) b.add(e.src, e.dst, e.w);
  return b.build(opt);
}

}  // namespace eclp::graph
