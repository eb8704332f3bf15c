// Chunked CSR assembly — the one path every CSR in the repository is
// built through.
//
// A *chunk source* exposes a fixed number of chunks and can (re)emit any
// chunk's edges on demand, deterministically per chunk id (the KaGen
// discipline). build_from_chunks() runs a two-pass pipeline over it —
//
//   pass 1  re-emit every chunk, accumulating per-(slot, row) degree
//           histograms (slots group contiguous chunks so the cursor
//           matrix stays under kHistogramEntryCap);
//   pass 2  re-emit every chunk again and scatter each arc straight into
//           the final adjacency array through per-(slot, row) cursors,
//
// both write-combined per row partition (RowBuffers), followed by a
// per-row sort by destination, a keep-first dedupe and an in-place
// compaction over arc-balanced row chunks. Peak memory is the final CSR
// plus the cursor matrix and a fixed buffer per worker: the edge list of a
// generated stream or a parsed text file (detail::TextChunkSource,
// graph/text_parse.hpp) never exists. Builder::build (builder.cpp) serves
// its staged edge list as a VectorChunkSource, so relabelled graphs and
// the legacy generators take this path too.
//
// Determinism contract (docs/INGEST.md "One assembly pipeline"): emission
// within a chunk is sequential and a pure function of the chunk id, so
// the concatenation of chunks in chunk order is one canonical edge
// sequence. Both passes replay chunks in chunk order within each slot,
// which makes the scatter a stable counting sort by source over the arc
// sequence; a stable per-row sort by destination on top of it equals one
// global stable sort by (src, dst). The output is therefore byte-identical
// at any build thread count and any chunking.
//
// Arc order. An undirected build's arc sequence is every original arc in
// canonical order, then every mirror in canonical order. Weighted builds
// depend on that: with (u,v,5) and (v,u,7) in the input, row v must see
// its original (v,u,7) before the mirror (v,u,5), so that keep-first
// dedupe keeps 7. Weighted undirected builds therefore replay the source
// once more per pass, originals first and mirrors second. Unweighted
// builds scatter bare vertex ids, where equal (src, dst) arcs are
// indistinguishable, so they emit each mirror right after its original
// in a single replay.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "support/parallel_for.hpp"

namespace eclp::graph {

/// A re-emittable chunked edge stream. `emit(chunk, sink)` must call
/// `sink(src, dst)` or `sink(src, dst, w)` for every edge of that chunk,
/// in a fixed order that depends only on the chunk id — never on thread
/// count, emission order across chunks, or how often the chunk was
/// emitted before. gen::
/// ChunkSource (gen/chunk_source.hpp) re-exports this concept for the
/// generator layer.
template <typename S>
concept ChunkedEdgeSource =
    requires(const S& s, u64 chunk, void (&sink)(vidx, vidx)) {
      { s.num_vertices() } -> std::convertible_to<vidx>;
      { s.num_chunks() } -> std::convertible_to<u64>;
      { s.estimated_edges() } -> std::convertible_to<u64>;
      s.emit(chunk, sink);
    };

/// Adapter: serve an already-materialized edge list, weights included, as
/// a chunk source. Builder::build assembles its staged edges through it,
/// and the equivalence tests drive every suite input through it. The span
/// must outlive the adapter.
class VectorChunkSource {
 public:
  VectorChunkSource(vidx num_vertices, std::span<const Edge> edges,
                    u64 chunks)
      : num_vertices_(num_vertices),
        edges_(edges),
        chunks_(std::max<u64>(1, std::min<u64>(chunks, std::max<usize>(
                                                   1, edges.size())))) {}

  vidx num_vertices() const { return num_vertices_; }
  u64 num_chunks() const { return chunks_; }
  u64 estimated_edges() const { return edges_.size(); }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    const auto [begin, end] = chunk_range(edges_.size(), chunks_, chunk);
    for (u64 i = begin; i < end; ++i) {
      sink(edges_[i].src, edges_[i].dst, edges_[i].w);
    }
  }

 private:
  vidx num_vertices_;
  std::span<const Edge> edges_;
  u64 chunks_;
};

namespace detail {

/// Footprint cap on the cursor matrix: at most this many (slot, row)
/// histogram/cursor entries (256 MiB of eidx). Slot counts shrink to fit
/// under it on huge vertex sets.
inline constexpr usize kHistogramEntryCap = usize{1} << 26;

/// Slot count: one slot per pool worker (1 without a pool), never more
/// than there are chunk replays, and capped so the cursor matrix (slots x
/// V entries of eidx) stays inside kHistogramEntryCap.
inline u64 assembly_slots(Pool* pool, u64 replays, usize num_vertices) {
  u64 slots = pool == nullptr ? 1 : pool->size();
  slots = std::max<u64>(1, std::min(slots, replays));
  const usize v = std::max<usize>(1, num_vertices);
  while (slots > 1 && slots * v > kHistogramEntryCap) --slots;
  return slots;
}

/// One adjacency entry of a weighted build.
struct WeightedArc {
  vidx dst;
  weight_t w;
};

/// Write-combining geometry of the count and scatter passes: rows are
/// grouped into at most kMaxRowPartitions partitions of a power-of-two
/// width no smaller than 2^kMinPartitionRowsLog2 rows (a 16 KiB window of
/// eidx cursors), and each partition buffers kBufferedArcs arcs.
inline constexpr u32 kMinPartitionRowsLog2 = 12;
inline constexpr usize kMaxRowPartitions = 1024;
inline constexpr usize kBufferedArcs = 64;

/// One slot's write-combining buffers. Both passes touch a row-indexed
/// address per arc, spread over the whole vertex range, so on a big
/// graph nearly every arc misses cache. push() parks the arc in its row
/// partition's buffer and hands a full buffer to flush(first, last);
/// drain() flushes the partly filled rest. A flush then touches one
/// partition's cursor window only. Every arc of a row goes through the
/// same buffer, first in first out, so the row still sees a slot's arcs
/// in replay order and the scatter stays a stable counting sort.
/// Footprint: partitions x kBufferedArcs items, at most 64 Ki items.
template <typename Item>
class RowBuffers {
 public:
  explicit RowBuffers(usize num_vertices) {
    const usize last_row = num_vertices == 0 ? 0 : num_vertices - 1;
    while ((last_row >> shift_) >= kMaxRowPartitions) ++shift_;
    const usize partitions = (last_row >> shift_) + 1;
    fill_.assign(partitions, 0);
    items_ = std::make_unique_for_overwrite<Item[]>(partitions *
                                                    kBufferedArcs);
  }

  template <typename Flush>
  void push(vidx row, const Item& item, Flush&& flush) {
    const usize p = row >> shift_;
    Item* const buffer = items_.get() + p * kBufferedArcs;
    buffer[fill_[p]] = item;
    if (++fill_[p] == kBufferedArcs) {
      flush(buffer, buffer + kBufferedArcs);
      fill_[p] = 0;
    }
  }

  template <typename Flush>
  void drain(Flush&& flush) {
    for (usize p = 0; p < fill_.size(); ++p) {
      Item* const buffer = items_.get() + p * kBufferedArcs;
      flush(buffer, buffer + fill_[p]);
      fill_[p] = 0;
    }
  }

 private:
  u32 shift_ = kMinPartitionRowsLog2;
  std::vector<u32> fill_;
  std::unique_ptr<Item[]> items_;
};

template <bool Weighted, ChunkedEdgeSource S>
Csr assemble_chunks(const S& source, const BuildOptions& opt) {
  using Arc = std::conditional_t<Weighted, WeightedArc, vidx>;
  const vidx num_vertices = source.num_vertices();
  const usize V = num_vertices;
  const u64 chunks = std::max<u64>(1, source.num_chunks());
  const bool mirrors_last = Weighted && !opt.directed;
  const u64 replays = mirrors_last ? 2 * chunks : chunks;
  // A single-chunk source is a small build: every phase runs inline.
  Pool* pool = chunks > 1 ? build_pool() : nullptr;
  const u64 slots = assembly_slots(pool, replays, V);

  // Hand every arc of replay `r` to arc(u, v, w): range-check, drop
  // self-loops when asked, and mirror undirected edges (header comment).
  const auto replay = [&](u64 r, auto&& arc) {
    const bool mirror = mirrors_last && r >= chunks;
    source.emit(mirror ? r - chunks : r,
                [&](vidx u, vidx v, weight_t w = 0) {
                  ECLP_CHECK_MSG(u < num_vertices && v < num_vertices,
                                 "edge (" << u << "," << v
                                          << ") out of range, n="
                                          << num_vertices);
                  if (u == v && opt.remove_self_loops) return;
                  if (mirror) {
                    arc(v, u, w);
                    return;
                  }
                  arc(u, v, w);
                  if (!opt.directed && !mirrors_last) arc(v, u, w);
                });
  };

  // Pass 1: per-slot degree histograms over the replayed stream. Row
  // `slot * V + src` is written only by the worker draining that slot's
  // replay range.
  std::vector<eidx> cursors(slots * V, 0);
  parallel_for_chunks(pool, replays, slots,
                      [&](u64 slot, u64 rbegin, u64 rend, u32) {
                        eidx* const mine = cursors.data() + slot * V;
                        const auto count = [mine](const vidx* first,
                                                  const vidx* last) {
                          for (; first != last; ++first) mine[*first]++;
                        };
                        RowBuffers<vidx> rows(V);
                        for (u64 r = rbegin; r < rend; ++r) {
                          replay(r, [&](vidx u, vidx, weight_t) {
                            rows.push(u, u, count);
                          });
                        }
                        rows.drain(count);
                      });

  // Row starts (exclusive prefix over per-row totals), then a column-wise
  // exclusive scan turning the histograms into per-(slot, row) scatter
  // cursors.
  std::vector<eidx> row_start(V + 1, 0);
  {
    u64 running = 0;
    for (usize s = 0; s < V; ++s) {
      row_start[s] = static_cast<eidx>(running);
      for (u64 c = 0; c < slots; ++c) running += cursors[c * V + s];
    }
    ECLP_CHECK_MSG(running <= static_cast<u64>(kNoEdge),
                   "graph exceeds 32-bit edge indices (" << running
                                                         << " arcs)");
    row_start[V] = static_cast<eidx>(running);
  }
  parallel_for_chunks(pool, V, slots, [&](u64, u64 begin, u64 end, u32) {
    for (u64 s = begin; s < end; ++s) {
      eidx cursor = row_start[s];
      for (u64 c = 0; c < slots; ++c) {
        const eidx count = cursors[c * V + s];
        cursors[c * V + s] = cursor;
        cursor += count;
      }
    }
  });

  // Pass 2: replay again and scatter every arc straight into the final
  // adjacency array. Cursor slots are private per (slot, row), so no
  // atomics; within every row, slot order equals replay order equals arc
  // order (RowBuffers keeps a row's arcs in order).
  struct RoutedArc {
    vidx src;
    Arc arc;
  };
  std::vector<Arc> adj(row_start[V]);
  parallel_for_chunks(pool, replays, slots,
                      [&](u64 slot, u64 rbegin, u64 rend, u32) {
                        eidx* const cursor = cursors.data() + slot * V;
                        const auto scatter = [&](const RoutedArc* first,
                                                 const RoutedArc* last) {
                          for (; first != last; ++first) {
                            adj[cursor[first->src]++] = first->arc;
                          }
                        };
                        RowBuffers<RoutedArc> rows(V);
                        for (u64 r = rbegin; r < rend; ++r) {
                          replay(r, [&](vidx u, vidx v, weight_t w) {
                            if constexpr (Weighted) {
                              rows.push(u, {u, {v, w}}, scatter);
                            } else {
                              rows.push(u, {u, v}, scatter);
                            }
                          });
                        }
                        rows.drain(scatter);
                      });
  cursors.clear();
  cursors.shrink_to_fit();

  // Row chunks for the sort and both compaction phases: chunk c is rows
  // [row_bound[c], row_bound[c + 1]), cut at equal shares of the arcs
  // rather than of the rows, because RMAT hubs sit at low ids (a quarter
  // of kron's arcs fall in the first of 32 equal-row chunks). A hub row
  // larger than one share leaves the chunks it spans empty. More chunks
  // than workers so stealing can rebalance what is left.
  const u64 row_chunks = std::min<u64>(std::max<usize>(1, V), slots * 8);
  std::vector<usize> row_bound(row_chunks + 1, V);
  for (u64 c = 0; c < row_chunks; ++c) {
    const u64 share = u64{row_start[V]} * c / row_chunks;
    row_bound[c] = static_cast<usize>(
        std::lower_bound(row_start.begin(), row_start.end(), share) -
        row_start.begin());
  }
  const auto for_row_chunks = [&](auto&& fn) {
    parallel_for_chunks(pool, row_chunks, row_chunks,
                        [&](u64 c, u64, u64, u32) {
                          fn(row_bound[c], row_bound[c + 1]);
                        });
  };

  // Per-row sort by destination + keep-first dedupe, in place. Weighted
  // rows sort stably so the first arc of a duplicate run keeps its
  // weight; equal bare ids are interchangeable, so unweighted rows take
  // the plain sort.
  std::vector<eidx> kept(V, 0);
  for_row_chunks([&](usize bv, usize ev) {
    for (usize s = bv; s < ev; ++s) {
      Arc* const begin = adj.data() + row_start[s];
      Arc* const end = adj.data() + row_start[s + 1];
      Arc* last = end;
      if constexpr (Weighted) {
        std::stable_sort(begin, end, [](const Arc& a, const Arc& b) {
          return a.dst < b.dst;
        });
        if (opt.dedupe) {
          last = std::unique(begin, end, [](const Arc& a, const Arc& b) {
            return a.dst == b.dst;
          });
        }
      } else {
        std::sort(begin, end);
        if (opt.dedupe) last = std::unique(begin, end);
      }
      kept[s] = static_cast<eidx>(last - begin);
    }
  });

  std::vector<eidx> offsets(V + 1, 0);
  for (usize s = 0; s < V; ++s) offsets[s + 1] = offsets[s] + kept[s];

  // Compact the surviving prefixes left, in place (a fresh copy would
  // spike peak memory right at the worst moment). Phase A squeezes each
  // segment's rows against the segment's own base — reads and writes stay
  // inside the segment, so segments run in parallel. Phase B then slides
  // each segment's now-contiguous block down to its final offset; that
  // move can cross into the previous segment's old span, so it runs
  // serially, ascending (dest <= src throughout, memmove handles the
  // overlap).
  for_row_chunks([&](usize bv, usize ev) {
    eidx w = row_start[bv];
    for (usize s = bv; s < ev; ++s) {
      Arc* const from = adj.data() + row_start[s];
      if (w != row_start[s] && kept[s] != 0) {
        std::memmove(adj.data() + w, from, kept[s] * sizeof(Arc));
      }
      w += kept[s];
    }
  });
  for (u64 c = 0; c < row_chunks; ++c) {
    const usize bv = row_bound[c];
    const usize ev = row_bound[c + 1];
    const eidx dest = offsets[bv];
    const eidx src = row_start[bv];
    const eidx count = offsets[ev] - offsets[bv];
    if (dest != src && count != 0) {
      std::memmove(adj.data() + dest, adj.data() + src,
                   static_cast<usize>(count) * sizeof(Arc));
    }
  }
  // resize() keeps the capacity — a shrink_to_fit here would briefly hold
  // both buffers, defeating the bounded-memory point. The slack is the
  // dedupe loss only.
  adj.resize(offsets[V]);
  if constexpr (Weighted) {
    std::vector<vidx> targets(adj.size());
    std::vector<weight_t> weights(adj.size());
    parallel_for_chunks(pool, adj.size(), row_chunks,
                        [&](u64, u64 begin, u64 end, u32) {
                          for (u64 i = begin; i < end; ++i) {
                            targets[i] = adj[i].dst;
                            weights[i] = adj[i].w;
                          }
                        });
    return Csr::from_parts(num_vertices, std::move(offsets),
                           std::move(targets), std::move(weights),
                           opt.directed);
  } else {
    return Csr::from_parts(num_vertices, std::move(offsets), std::move(adj),
                           {}, opt.directed);
  }
}

}  // namespace detail

/// Assemble a CSR straight from a chunk source, byte-identical to one
/// global stable sort by (src, dst) over the source's arc sequence (header
/// comment) with keep-first dedupe. Sources that emit (src, dst) only
/// build with weight 0.
template <ChunkedEdgeSource S>
Csr build_from_chunks(const S& source, const BuildOptions& opt = {}) {
  return opt.weighted ? detail::assemble_chunks<true>(source, opt)
                      : detail::assemble_chunks<false>(source, opt);
}

/// Materialize the source's canonical edge sequence (chunks in chunk
/// order). Tests and the peak-RSS bench use it as the "materialized" arm.
template <ChunkedEdgeSource S>
std::vector<Edge> materialize_chunks(const S& source) {
  std::vector<Edge> edges;
  edges.reserve(source.estimated_edges());
  for (u64 c = 0; c < std::max<u64>(1, source.num_chunks()); ++c) {
    source.emit(c, [&](vidx u, vidx v, weight_t w = 0) {
      edges.push_back({u, v, w});
    });
  }
  return edges;
}

/// Stage the source's edges in a Builder, then build: the peak-RSS bench's
/// "materialized" arm, which holds the whole edge list during assembly.
template <ChunkedEdgeSource S>
Csr build_materialized(const S& source, const BuildOptions& opt = {}) {
  Builder b(source.num_vertices());
  b.reserve_edges(source.estimated_edges());
  for (u64 c = 0; c < std::max<u64>(1, source.num_chunks()); ++c) {
    source.emit(c, [&](vidx u, vidx v, weight_t w = 0) { b.add(u, v, w); });
  }
  return b.build(opt);
}

}  // namespace eclp::graph
