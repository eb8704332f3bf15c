#include "gen/stream.hpp"

#include <atomic>

#include "graph/stream_build.hpp"

namespace eclp::gen {

namespace {

// Scheduling granularity only — the generated graph is chunk-count-
// invariant by construction (block-aligned chunk boundaries). 64 gives
// the work-stealing pool slack over any realistic host thread count.
constexpr u64 kDefaultGenChunks = 64;
std::atomic<u64> g_gen_chunks{kDefaultGenChunks};

}  // namespace

u64 gen_chunks() { return g_gen_chunks.load(std::memory_order_relaxed); }

void set_gen_chunks(u64 chunks) {
  g_gen_chunks.store(chunks == 0 ? kDefaultGenChunks : chunks,
                     std::memory_order_relaxed);
}

namespace detail {

u64 stream_chunks(u64 requested, u64 blocks) {
  const u64 want = requested == 0 ? gen_chunks() : requested;
  return std::max<u64>(1, std::min(want, std::max<u64>(1, blocks)));
}

}  // namespace detail

PreferentialAttachmentStream::PreferentialAttachmentStream(vidx n, u32 m,
                                                           u64 seed,
                                                           u64 chunks)
    : n_(n),
      m_(m),
      family_seed_(stream_family_seed(seed, kStreamTagPa)),
      attach_edges_(static_cast<u64>(n - m - 1) * m),
      chunks_(detail::stream_chunks(chunks, attach_edges_)) {
  ECLP_CHECK(n > m && m >= 1);
  // Seed clique over the first m+1 vertices, flattened into endpoint
  // positions: clique edge p contributes positions 2p (its lower
  // endpoint) and 2p+1 (its upper). Tiny — (m+1)m entries.
  skeleton_.reserve(static_cast<usize>(m + 1) * m);
  for (vidx u = 0; u <= m; ++u) {
    for (vidx v = u + 1; v <= m; ++v) {
      skeleton_.push_back(u);
      skeleton_.push_back(v);
    }
  }
}

graph::Csr uniform_random_streamed(vidx n, u64 edges, u64 seed,
                                   u64 chunks) {
  return graph::build_from_chunks(
      UniformRandomStream(n, edges, seed, chunks));
}

graph::Csr rmat_streamed(u32 scale, u64 edges, double a, double b,
                         double c, u64 seed, u64 chunks) {
  return graph::build_from_chunks(
      RmatStream(scale, edges, a, b, c, seed, chunks));
}

graph::Csr kronecker_streamed(u32 scale, u64 edges, u64 seed, u64 chunks) {
  // Same parameterization kronecker() uses over rmat().
  return rmat_streamed(scale, edges, 0.57, 0.19, 0.19, seed, chunks);
}

graph::Csr preferential_attachment_streamed(vidx n, u32 m, u64 seed,
                                            u64 chunks) {
  return graph::build_from_chunks(
      PreferentialAttachmentStream(n, m, seed, chunks));
}

}  // namespace eclp::gen
