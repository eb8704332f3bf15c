// Graph serialization.
//
// Three formats:
//  * a compact binary format (".eclg") modeled after the ECL suite's CSR
//    container: header + row offsets + column indices (+ weights),
//  * Matrix Market coordinate format (the common interchange format for the
//    paper's SuiteSparse-derived inputs),
//  * whitespace-separated edge lists ("u v [w]" per line, '#' comments),
//    the format of the SNAP inputs in Table 1.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/csr.hpp"

namespace eclp::graph {

/// Write/read the binary container. Throws CheckFailure on malformed input.
void write_binary(const Csr& g, std::ostream& os);
Csr read_binary(std::istream& is);
void save_binary(const Csr& g, const std::string& path);
Csr load_binary(const std::string& path);

/// Matrix Market coordinate format. Reading accepts `pattern` (unweighted)
/// and `integer`/`real` (weighted, reals truncated) entries, and `general`
/// or `symmetric` symmetry. 1-based indices per the spec. A weight that
/// is NaN, infinite, <= -1 or >= 2^32, or missing on a weighted entry, is
/// a CheckFailure. Parsing is chunk-parallel on the build pool: the body
/// is a chunk source that each build pass parses again, with no edge
/// buffer (docs/INGEST.md); the result is identical at any thread count.
void write_matrix_market(const Csr& g, std::ostream& os);
Csr parse_matrix_market(std::string_view text);

/// Edge list: one "u v" or "u v w" per line; lines starting with '#' or '%'
/// are comments. Vertex count is 1 + max id unless `num_vertices` forces it.
/// A third token that is negative or above 2^32 - 1 is a CheckFailure. One
/// parsing scan finds the vertex count before the build parses the text.
Csr parse_edge_list(std::string_view text, bool directed = false,
                    vidx num_vertices = 0);
void write_edge_list(const Csr& g, std::ostream& os);

/// Load/save by file extension: .eclg (binary container), .mtx (Matrix
/// Market), .gr (DIMACS shortest-path), .col (DIMACS coloring), .el/.txt
/// (edge list). `directed` only applies to formats that do not encode
/// directedness themselves (edge lists). Throws on unknown extensions.
/// When the graph cache is enabled (graph/cache.hpp: ECLP_GRAPH_CACHE or
/// --graph-cache), text loads are keyed by (format, directedness, file
/// bytes) and memoized as .eclg, so repeat loads skip parse and build.
Csr load_any(const std::string& path, bool directed = false);
void save_any(const Csr& g, const std::string& path);

}  // namespace eclp::graph
