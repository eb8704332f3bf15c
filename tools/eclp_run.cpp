// eclp-run — run any of the five instrumented ECL algorithms on any graph,
// with verification, the paper's counters, and an optional kernel timeline.
//
//   $ eclp-run --algo=cc --graph=web.mtx
//   $ eclp-run --algo=scc --input=star --scale=small --timeline
//   $ eclp-run --algo=mst --graph=road.gr --verify
//
// Either --graph=<file> (any supported extension) or --input=<suite name>
// selects the graph. Undirected algorithms symmetrize directed files.
//
// --profile=<path> (or ECLP_PROFILE) records a profiling session: a
// versioned eclp.profile JSON at <path> (gate two runs against each other
// with eclp-profile-diff) plus a Perfetto-loadable <path minus
// .json>.trace.json. See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "algos/registry.hpp"
#include "gen/stream.hpp"
#include "graph/cache.hpp"
#include "graph/reorder.hpp"
#include "profile/session.hpp"
#include "sim/trace.hpp"
#include "support/cli.hpp"
#include "support/parallel_for.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"

using namespace eclp;

namespace {

int run(int argc, char** argv) {
  Cli cli;
  cli.add_option("algo", algos::algo_names(), "cc");
  cli.add_option("graph", "graph file (.eclg/.mtx/.gr/.col/.el)", "");
  cli.add_option("input", "suite input name (alternative to --graph)", "");
  cli.add_option("scale",
                 "tiny|small|default|huge (with --input; huge streams "
                 "through the chunked generator pipeline)",
                 "small");
  cli.add_option("seed", "device seed (shuffled schedule if nonzero)", "0");
  cli.add_option("weights", "seed of random weights for unweighted input",
                 "42");
  cli.add_option("sim-threads",
                 "host worker threads for block-parallel simulation "
                 "(0 = one per hardware thread; overrides ECLP_SIM_THREADS)",
                 "");
  cli.add_option("build-threads",
                 "host threads for parallel graph ingest (0 = one per "
                 "hardware thread; overrides ECLP_BUILD_THREADS)",
                 "");
  cli.add_option("graph-cache",
                 "content-addressed .eclg cache directory — repeat runs "
                 "skip graph generation/parsing/build; overrides "
                 "ECLP_GRAPH_CACHE (see docs/INGEST.md)",
                 "");
  cli.add_option("gen-chunks",
                 "chunk count for streamed (scale=huge) generation — "
                 "scheduling granularity only, the graph is chunk-count-"
                 "invariant (0 = default; docs/INGEST.md)",
                 "");
  cli.add_option("profile",
                 "write a profiling session (eclp.profile JSON + Perfetto "
                 ".trace.json) to this path; overrides ECLP_PROFILE",
                 "");
  cli.add_option("reorder",
                 "vertex reordering applied to the input: natural, "
                 "random[:SEED], bfs, degree, hub, hubcluster, "
                 "gorder[:WINDOW]",
                 "natural");
  cli.add_option("llc",
                 "modeled last-level cache: off (default), on, or "
                 "LINE:WAYS:SETS (e.g. 64:8:64) — adds llc hit/miss "
                 "counters to profiles (docs/SIMULATOR.md)",
                 "off");
  cli.add_flag("verify", "check the result against the sequential reference");
  cli.add_flag("timeline", "print the kernel launch timeline");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("%s", cli.usage("eclp-run").c_str());
    return 0;
  }

  // Resolved first, so an unknown name fails before anything is written.
  const algos::Entry& algo = algos::entry(algos::parse_algo(cli.get("algo")));
  algos::GraphSource src;
  src.file = cli.get("graph");
  src.input = cli.get("input");
  ECLP_CHECK_MSG(!src.label().empty(),
                 "pass --graph=<file> or --input=<suite name>");
  if (src.file.empty()) src.scale = gen::parse_scale(cli.get("scale"));
  src.weights_seed = static_cast<u64>(cli.get_int("weights"));
  src.reorder = cli.get("reorder");
  const auto spec = graph::ReorderSpec::parse(src.reorder);
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(static_cast<u32>(cli.get_int("sim-threads")));
  }
  if (!cli.get("build-threads").empty()) {
    set_build_threads(static_cast<u32>(cli.get_int("build-threads")));
  }
  if (!cli.get("graph-cache").empty()) {
    graph::set_cache_dir(cli.get("graph-cache"));
  }
  if (!cli.get("gen-chunks").empty()) {
    gen::set_gen_chunks(static_cast<u64>(cli.get_int("gen-chunks")));
  }
  const u64 seed = static_cast<u64>(cli.get_int("seed"));
  sim::CostModel cost;
  cost.cache = sim::parse_cache_config(cli.get("llc"));
  sim::Device dev(cost, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  sim::Trace trace;
  if (cli.get_flag("timeline")) dev.set_trace(&trace);

  std::string profile_path = cli.get("profile");
  if (profile_path.empty()) {
    const char* env = std::getenv("ECLP_PROFILE");
    if (env != nullptr) profile_path = env;
  }
  std::unique_ptr<profile::Session> session;
  if (!profile_path.empty()) {
    session = std::make_unique<profile::Session>(dev);
    session->set_meta("tool", "eclp-run");
    session->set_meta("algo", algo.name);
    session->set_meta("seed", cli.get("seed"));
    session->set_meta("graph", src.label());
    if (!spec.is_natural()) session->set_meta("reorder", spec.canonical());
    if (cost.cache.enabled) {
      session->set_meta("llc", sim::cache_config_label(cost.cache));
    }
    session->set_output(profile_path);
  }

  Timer wall;
  const graph::Csr g = algos::prepare(algo, src, {}, [](const auto& note) {
    std::printf("note: %s\n", note.c_str());
  });
  const algos::Outcome out = algo.run(dev, g);
  std::printf("%s%s, %llu modeled cycles, %.0f ms wall\n",
              out.summary.c_str(), out.detail.c_str(),
              static_cast<unsigned long long>(out.modeled_cycles),
              wall.milliseconds());
  if (!out.note.empty()) std::printf("%s\n", out.note.c_str());
  if (cli.get_flag("verify")) {
    ECLP_CHECK_MSG(out.verify(), algo.name << " verify FAILED");
    std::printf("%s\n", algo.verified);
  }

  if (cli.get_flag("timeline")) {
    std::printf("\n%s", trace.summary().to_text().c_str());
    std::printf("\n%s", trace.load_balance().to_text().c_str());
  }
  if (session != nullptr) {
    session.reset();  // finalize + write both artifacts
    std::printf("profile: %s (+ %s)\n", profile_path.c_str(),
                profile::Session::trace_path_for(profile_path).c_str());
  }
  std::printf("atomics: %llu total, CAS failure rate %.1f%%\n",
              static_cast<unsigned long long>(dev.atomic_stats().total()),
              100.0 * dev.atomic_stats().cas_failure_rate());
  // The bounded-memory smoke (tests/gen_smoke.cmake) asserts a ceiling on
  // this line; 0 means procfs is unavailable and the smoke skips.
  std::printf("peak rss: %llu MiB\n",
              static_cast<unsigned long long>(peak_rss_bytes() >> 20));
  if (cost.cache.enabled) {
    const u64 total = dev.llc_hits() + dev.llc_misses();
    std::printf("llc(%s): %llu hits, %llu misses (hit rate %.1f%%)\n",
                sim::cache_config_label(cost.cache).c_str(),
                static_cast<unsigned long long>(dev.llc_hits()),
                static_cast<unsigned long long>(dev.llc_misses()),
                total == 0 ? 100.0
                           : 100.0 * static_cast<double>(dev.llc_hits()) /
                                 static_cast<double>(total));
  }
  return 0;
}

}  // namespace

ECLP_TOOL_MAIN("eclp-run", run)
