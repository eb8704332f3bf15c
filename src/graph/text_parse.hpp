// Internal helpers for chunk-parallel text-format parsing.
//
// The readers in io.cpp / dimacs.cpp read their input into one buffer,
// parse the header, and serve the body to build_from_chunks as a
// TextChunkSource of byte ranges aligned to line boundaries (one per
// build-pool worker); each build pass parses it again, so no edge list
// exists. The ranges concatenate back to the body, so the arc sequence is
// what a serial sweep produces (see docs/INGEST.md for the argument).
//
// Number scanning uses std::from_chars instead of istringstream: the
// per-line stream construction was itself a measurable slice of ingest.
#pragma once

#include <charconv>
#include <limits>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "support/parallel_for.hpp"
#include "support/types.hpp"

namespace eclp::graph::detail {

/// Consume one line off the front of `text` (no '\n', no trailing '\r').
inline std::string_view next_line(std::string_view& text) {
  const usize nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Split `text` into at most `max_chunks` contiguous ranges whose
/// boundaries fall on line starts. Concatenating the ranges in order
/// reproduces `text` exactly.
inline std::vector<std::string_view> chunk_at_lines(std::string_view text,
                                                    u64 max_chunks) {
  std::vector<std::string_view> chunks;
  if (text.empty()) return chunks;
  if (max_chunks < 1) max_chunks = 1;
  const usize target = (text.size() + max_chunks - 1) / max_chunks;
  usize begin = 0;
  while (begin < text.size()) {
    usize end = begin + target;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const usize nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return chunks;
}

/// Call fn(line) for every '\n'-terminated line of `chunk` (a final
/// unterminated line included); a trailing '\r' (CRLF input) is stripped.
template <typename Fn>
void for_each_line(std::string_view chunk, Fn&& fn) {
  usize begin = 0;
  while (begin < chunk.size()) {
    const usize nl = chunk.find('\n', begin);
    const usize end = nl == std::string_view::npos ? chunk.size() : nl;
    std::string_view line = chunk.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(line);
    begin = end + 1;
  }
}

inline void skip_spaces(std::string_view& s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
}

/// Parse an unsigned integer off the front of `s` (leading blanks
/// skipped). Advances `s` past the number on success.
inline bool parse_u64(std::string_view& s, u64& out) {
  skip_spaces(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<usize>(ptr - s.data()));
  return true;
}

/// Parse a floating-point value off the front of `s` (Matrix Market
/// `integer`/`real` entries; the caller truncates them to weights).
inline bool parse_f64(std::string_view& s, double& out) {
  skip_spaces(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<usize>(ptr - s.data()));
  return true;
}

/// True when a text weight converts to weight_t: wider integers are
/// rejected, not wrapped, and so is a double whose truncation is undefined
/// (NaN, infinities, values <= -1 or >= 2^32).
inline bool fits_weight(u64 w) {
  return w <= std::numeric_limits<weight_t>::max();
}
inline bool fits_weight(double w) {
  return w > -1.0 &&
         w < static_cast<double>(std::numeric_limits<weight_t>::max()) + 1.0;
}

/// A text body as a chunk source (graph/stream_build.hpp). Chunk c is
/// chunk_at_lines(body, build-pool size)[c]; emit(c, sink) calls
/// parse_line(line, sink) on each of its lines, which checks the line and
/// calls sink(u, v) or sink(u, v, w) for an edge. The body must outlive
/// the source.
template <typename ParseLine>
class TextChunkSource {
 public:
  TextChunkSource(vidx num_vertices, std::string_view body,
                  ParseLine parse_line)
      : num_vertices_(num_vertices), parse_line_(std::move(parse_line)) {
    Pool* pool = build_pool();
    chunks_ = chunk_at_lines(body, pool == nullptr ? 1 : pool->size());
    if (chunks_.empty()) chunks_.emplace_back();  // an empty body
  }

  vidx num_vertices() const { return num_vertices_; }
  u64 num_chunks() const { return chunks_.size(); }
  u64 estimated_edges() const { return 0; }  // unknown until parsed

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    for_each_line(chunks_[chunk],
                  [&](std::string_view line) { parse_line_(line, sink); });
  }

  /// Run fn(c) once per chunk on the build pool.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    Pool* pool = chunks_.size() > 1 ? build_pool() : nullptr;
    parallel_for_chunks(pool, chunks_.size(), chunks_.size(),
                        [&](u64 c, u64, u64, u32) { fn(c); });
  }

  /// How many lines keep(line) accepts: the header's entry-count check,
  /// a newline scan with no number parsing.
  template <typename Keep>
  u64 count_lines(Keep&& keep) const {
    std::vector<u64> counts(chunks_.size(), 0);
    for_each_chunk([&](u64 c) {
      u64 n = 0;  // a local count: neighbouring slots share a cache line
      for_each_line(chunks_[c],
                    [&](std::string_view line) { n += keep(line) ? 1 : 0; });
      counts[c] = n;
    });
    return std::accumulate(counts.begin(), counts.end(), u64{0});
  }

 private:
  vidx num_vertices_;
  ParseLine parse_line_;
  std::vector<std::string_view> chunks_;
};

}  // namespace eclp::graph::detail
