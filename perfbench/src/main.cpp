// perfbench — the repository benchmark. Runs one workload in-process
// through the libraries' public functions, checks every output, and prints
// its metrics; the last line of stdout is the JSON result object.
//
//   perfbench --workload=oneshot-cold --seed=1 --seconds=10 --trace=0
//
// Normally driven by perfbench/run.py, which builds this binary first. See
// perfbench/README.md for the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "gen/stream.hpp"
#include "sim/pool.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/parallel_for.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

eclp::json::Value provenance(const Context& ctx, const std::string& commit) {
  eclp::json::Value p = eclp::json::Value::object();
  p.set("workload", ctx.workload);
  p.set("seed", ctx.seed);
  p.set("seconds", ctx.seconds);
  p.set("traced", ctx.traced);
  p.set("nproc", static_cast<u64>(std::thread::hardware_concurrency()));
  p.set("compiler", compiler());
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("eclp_hardened", ECLP_HARDENED != 0);
  eclp::json::Value pools = eclp::json::Value::object();
  pools.set("build", static_cast<u64>(eclp::build_threads()));
  pools.set("sim", static_cast<u64>(eclp::sim::sim_threads()));
  pools.set("serve", static_cast<u64>(ctx.threads));
  pools.set("load_generator", static_cast<u64>(1));
  pools.set("gen_chunks", eclp::gen::gen_chunks());
  p.set("threads", std::move(pools));
  p.set("git_commit", commit);
  p.set("utc_date", utc_now());
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  eclp::Cli cli;
  cli.add_option("workload",
                 "oneshot-cold | huge-ingest | serve-mixed | locality", "");
  cli.add_option("seed", "workload seed (drives every random choice)", "1");
  cli.add_option("seconds", "measurement budget of one run", "10");
  cli.add_option("trace", "1 = traced run reporting per-layer metrics", "0");
  cli.add_option("work-dir", "scratch directory (removed at exit)",
                 ".bench_build/perfbench-work");
  cli.add_option("trace-out", "span file of a traced run",
                 ".bench_build/perfbench-trace.jsonl");
  cli.add_option("commit", "source commit recorded in the provenance",
                 "unknown");
  cli.add_option("manifest", "BENCHMARK.json that lists the metrics",
                 "BENCHMARK.json");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("%s", cli.usage("perfbench").c_str());
    return 0;
  }

  MetricLists metrics;
  try {
    metrics = load_metric_lists(cli.get("manifest"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Tracer tracer(false);
  Checks checks;
  Report report(std::move(metrics));
  Context ctx;
  ctx.workload = cli.get("workload");
  ctx.seed = static_cast<u64>(cli.get_int("seed"));
  ctx.seconds = cli.get_double("seconds");
  ctx.traced = cli.get_int("trace") != 0;
  ctx.work_dir = cli.get("work-dir");
  ctx.trace_path = cli.get("trace-out");
  ctx.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  ctx.tracer = &tracer;
  ctx.checks = &checks;
  ctx.report = &report;

  eclp::set_build_threads(ctx.threads);
  eclp::sim::set_sim_threads(ctx.threads);

  void (*workload)(Context&) = nullptr;
  if (ctx.workload == "oneshot-cold") workload = run_oneshot_cold;
  if (ctx.workload == "huge-ingest") workload = run_huge_ingest;
  if (ctx.workload == "serve-mixed") workload = run_serve_mixed;
  if (ctx.workload == "locality") workload = run_locality;
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "unknown --workload=%s (oneshot-cold | huge-ingest | "
                 "serve-mixed | locality)\n",
                 ctx.workload.c_str());
    return 2;
  }

  std::printf("provenance %s\n",
              provenance(ctx, cli.get("commit")).dump().c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);
  int code = 0;
  try {
    workload(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", ctx.workload.c_str(),
                 e.what());
    code = 2;
  }
  std::filesystem::remove_all(ctx.work_dir);
  if (code != 0) return code;

  report.set("bench.failed_frac", checks.failed_frac());
  std::printf("%s", report.human(ctx.traced).c_str());
  std::printf("%s\n", report.result_line(checks, ctx.traced).c_str());
  return checks.exit_code();
}
