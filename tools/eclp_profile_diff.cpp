// eclp-profile-diff — validate and gate eclp.profile artifacts.
//
//   $ eclp-profile-diff --check run.json
//       validate the artifact against the eclp.profile v1 schema
//   $ eclp-profile-diff base.json candidate.json
//       compare per-kernel and per-counter; exit 1 when the candidate
//       regresses beyond tolerance (see --cycle-tol / --counter-tol)
//
// The gated metrics are purely modeled (cycles, launches, atomics, registry
// counters) and therefore bit-stable run to run; wall-clock and worker
// utilization are reported by the artifacts but never gated. A profile
// diffed against itself always exits 0 — that self-diff is part of the
// profile-smoke ctest label.
//
// Exit codes: 0 ok, 1 regressions found, 2 usage/IO/validation error.
#include <cstdio>
#include <string>
#include <vector>

#include "profile/diff.hpp"
#include "support/cli.hpp"
#include "support/file.hpp"

using namespace eclp;

namespace {

json::Value load_json(const std::string& path) {
  return json::Value::parse(read_file(path));
}

}  // namespace

static int run(int argc, char** argv) {
  Cli cli;
  cli.add_option("cycle-tol",
                 "allowed growth of modeled-cycle metrics, percent", "2");
  cli.add_option("counter-tol",
                 "allowed growth of counter/atomic metrics, percent", "0");
  cli.add_option("check", "validate this profile against the schema and exit",
                 "");
  cli.add_flag("all", "print unchanged metrics too");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("usage: eclp-profile-diff [options] <base.json> <cand.json>\n"
                "       eclp-profile-diff --check <profile.json>\n\n%s",
                cli.usage("eclp-profile-diff").c_str());
    return 0;
  }

  if (!cli.get("check").empty()) {
    const json::Value doc = load_json(cli.get("check"));
    profile::validate_profile(doc);
    std::printf("%s: valid eclp.profile v%llu (%zu spans, %zu kernels)\n",
                cli.get("check").c_str(),
                static_cast<unsigned long long>(doc.at("version").as_u64()),
                doc.at("spans").items().size(),
                doc.at("kernels").items().size());
    return 0;
  }

  const auto& files = cli.positional();
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: eclp-profile-diff <base.json> <candidate.json> "
                 "(or --check <profile.json>)\n");
    return 2;
  }
  profile::DiffOptions options;
  options.cycle_tolerance_pct = cli.get_double("cycle-tol");
  options.counter_tolerance_pct = cli.get_double("counter-tol");

  const json::Value base = load_json(files[0]);
  const json::Value cand = load_json(files[1]);
  const profile::DiffReport report =
      profile::diff_profiles(base, cand, options);
  std::printf("%s", report.to_string(cli.get_flag("all")).c_str());
  return report.regressions() == 0 ? 0 : 1;
}

ECLP_TOOL_MAIN("eclp-profile-diff", run)
