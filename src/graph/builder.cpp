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
