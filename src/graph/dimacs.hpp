// DIMACS graph formats.
//
// Two dialects are supported:
//  * the 9th DIMACS Implementation Challenge shortest-path format (".gr":
//    "p sp n m" header, "a u v w" arc lines, 1-based) — the format the
//    paper's USA-road-d.* inputs ship in;
//  * the DIMACS clique/coloring format (".col": "p edge n m" header,
//    "e u v" edge lines, 1-based), read as an undirected graph.
//
// Reading is chunk-parallel on the build pool: the body, split into byte
// ranges at line boundaries, is a chunk source that each build pass parses
// again, so no edge list exists (docs/INGEST.md). The parsed graph is
// identical at any thread count. An arc or edge count that differs from
// the 'p' line, and a .gr weight above 2^32 - 1, are CheckFailures.
#pragma once

#include <iosfwd>
#include <string_view>

#include "graph/csr.hpp"

namespace eclp::graph {

/// Parse a ".gr" shortest-path file. Arcs keep their direction unless
/// `symmetrize` is set (road networks list both directions already).
Csr parse_dimacs_sp(std::string_view text, bool symmetrize = false);
void write_dimacs_sp(const Csr& g, std::ostream& os);

/// Parse a ".col" edge-format file (always undirected, unweighted).
Csr parse_dimacs_col(std::string_view text);
void write_dimacs_col(const Csr& g, std::ostream& os);

}  // namespace eclp::graph
