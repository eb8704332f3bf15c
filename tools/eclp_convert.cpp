// eclp-convert — convert between the supported graph formats.
//
//   $ eclp-convert input.mtx output.eclg
//   $ eclp-convert --directed edges.el output.gr
//
// Formats are inferred from file extensions (graph::load_any/save_any):
// .eclg, .mtx, .gr, .col, .el/.txt.
#include <cstdio>

#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "support/cli.hpp"

using namespace eclp;

static int run(int argc, char** argv) {
  Cli cli;
  cli.add_flag("directed", "treat extension-ambiguous inputs as directed");
  cli.add_flag("symmetrize", "mirror all arcs before writing");
  cli.add_option("weights", "attach random weights with this seed (0 = none)",
                 "0");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help") || cli.positional().size() != 2) {
    std::printf("usage: eclp-convert [options] <in> <out>\n%s",
                cli.usage("eclp-convert").c_str());
    return cli.get_flag("help") ? 0 : 2;
  }

  auto g = graph::load_any(cli.positional()[0], cli.get_flag("directed"));
  std::printf("loaded %s: %u vertices, %u edges, %s%s\n",
              cli.positional()[0].c_str(), g.num_vertices(), g.num_edges(),
              g.directed() ? "directed" : "undirected",
              g.weighted() ? ", weighted" : "");
  if (cli.get_flag("symmetrize") && g.directed()) {
    g = graph::symmetrize(g);
    std::printf("symmetrized: %u edges\n", g.num_edges());
  }
  const u64 weight_seed = static_cast<u64>(cli.get_int("weights"));
  if (weight_seed != 0 && !g.weighted()) {
    g = graph::with_random_weights(g, weight_seed);
  }
  graph::save_any(g, cli.positional()[1]);
  std::printf("wrote %s\n", cli.positional()[1].c_str());
  return 0;
}

ECLP_TOOL_MAIN("eclp-convert", run)
