// The five ECL codes behind one table. The server, eclp-run and the reorder
// bench look a code up here, build its graph with prepare() and run it
// through Entry::run. Each code's graph needs and result line are one row
// of the table in registry.cpp, so adding a code is adding a row.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "gen/suite.hpp"
#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eclp::algos {

/// Indexes the table; one value per row, in row order.
enum class Algo : u8 { kCc, kGc, kMis, kMst, kScc };

/// One run's result, in a shape every front end can render.
struct Outcome {
  std::string summary;  ///< deterministic result ("CC: 3 components")
  std::string detail;   ///< fields eclp-run appends to the summary
  std::string note;     ///< line eclp-run prints after it ("" = none)
  u64 modeled_cycles = 0;
  std::string checksum;  ///< 32-hex fingerprint of the solution vector
  /// Checks against the sequential reference, reading the run's graph
  /// (which must still be alive). Call only on request.
  std::function<bool()> verify;
};

struct Entry {
  const char* name;      ///< "cc": request/CLI spelling, metric suffix
  bool wants_directed;   ///< else a directed input is symmetrized
  bool wants_weights;    ///< else an unweighted input stays unweighted
  const char* verified;  ///< eclp-run's line after a passing verify
  /// Runs the code with its default options on a prepared graph.
  Outcome (*run)(sim::Device& dev, const graph::Csr& g);
};

/// Where a run's graph comes from, and its vertex order.
struct GraphSource {
  std::string file;   ///< graph file (.eclg/.mtx/.gr/.col/.el), or else
  std::string input;  ///< a suite input name
  gen::Scale scale = gen::Scale::kTiny;  ///< with `input`
  bool directed = false;  ///< read a direction-free edge list as directed
  u64 weights_seed = 42;
  std::string reorder;  ///< graph::ReorderSpec text ("" = natural)

  /// The file path or suite name; responses and errors echo it.
  const std::string& label() const { return file.empty() ? input : file; }
};

std::span<const Entry> entries();  ///< indexable by Algo
const Entry& entry(Algo a);
inline const char* algo_name(Algo a) { return entry(a).name; }
Algo parse_algo(const std::string& name);  ///< throws CheckFailure
std::string algo_names();  ///< "cc | gc | mis | mst | scc"

/// The graph `e` runs on: `src` loaded as directed when the code wants it,
/// symmetrized when it does not, given random weights when it wants them,
/// then reordered. Weights come first: with_random_weights hashes endpoint
/// ids, so every order of one input solves an isomorphic problem. A
/// directed code on an undirected graph throws CheckFailure, its message
/// prefixed by `context` when set. `note` hears of each step taken.
graph::Csr prepare(const Entry& e, const GraphSource& src,
                   const std::string& context = {},
                   const std::function<void(const std::string&)>& note = {});

}  // namespace eclp::algos
