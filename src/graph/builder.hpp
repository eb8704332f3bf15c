// Edge-list (COO) accumulation and conversion to CSR.
//
// The legacy generators and the transforms stage edges here (the streamed
// generators and text readers feed build_from_chunks directly). It handles
// symmetrization, deduplication, self-loop removal, and adjacency sorting.
// Sorted adjacency matters to the algorithms: ECL-CC's init heuristic
// relies on the smallest neighbor appearing first (paper §6.1.3).
//
// build() is a thin adapter: it serves the staged edge list as a chunk
// source to build_from_chunks (graph/stream_build.hpp), the one CSR
// assembly pipeline (histogram -> prefix sum -> stable scatter, then a
// per-row sort; see docs/INGEST.md). The output equals one global stable
// sort by (src, dst) over the originals followed by their mirrors, with
// keep-first dedupe, and is byte-identical at any thread count;
// tests/ingest_test.cpp pins it against an independent reference. Thread
// count: ECLP_BUILD_THREADS / eclp::set_build_threads
// (support/parallel_for.hpp).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace eclp::graph {

struct Edge {
  vidx src = 0;
  vidx dst = 0;
  weight_t w = 0;
  bool operator==(const Edge&) const = default;
};

struct BuildOptions {
  bool directed = false;       ///< keep arcs as given (true) or mirror (false)
  bool weighted = false;       ///< carry edge weights into the CSR
  bool remove_self_loops = true;
  bool dedupe = true;  ///< drop parallel edges (keep first weight)
  // Adjacency lists always come out sorted ascending by id, as if sorted
  // globally by (src, dst); the sorted order is load-bearing for ECL-CC's
  // init heuristic (paper §6.1.3).
};

class Builder {
 public:
  explicit Builder(vidx num_vertices) : num_vertices_(num_vertices) {}

  vidx num_vertices() const { return num_vertices_; }

  /// Add one arc (or one undirected edge — mirroring happens in build()).
  void add(vidx src, vidx dst, weight_t w = 0);

  /// Capacity hint: generators that know (or can estimate) their edge
  /// count call this once before emitting. Deliberately u64 —
  /// huge-scale estimates are computed in 64 bits; the builder clamps to
  /// what the address space can hold.
  void reserve_edges(u64 edges);

  /// Staged-edge capacity, exposed for the growth-policy tests.
  usize capacity_edges() const { return edges_.capacity(); }

  /// Assemble the CSR. The builder is left empty afterwards.
  Csr build(const BuildOptions& opt = {});

 private:
  vidx num_vertices_;
  std::vector<Edge> edges_;
};

/// Convenience: build an undirected unweighted graph from an edge list.
Csr from_edges(vidx num_vertices, const std::vector<Edge>& edges,
               const BuildOptions& opt = {});

}  // namespace eclp::graph
