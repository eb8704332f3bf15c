// oneshot-cold: an in-process replica of eclp-run with no graph cache.
//
// A fixed list of ten jobs runs all five algorithms over default-scale
// power-law (Kronecker, preferential attachment), road and mesh inputs.
// Half the jobs generate their graph through gen::, half parse a .mtx/.gr
// file written at setup through graph::load_any. Every job records a
// profile::Session to disk and runs its verifier, as
// `eclp-run --profile=... --verify` does.
#include <filesystem>
#include <memory>

#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "profile/session.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using eclp::graph::Csr;

struct Job {
  const char* algo;
  const char* input;
  bool parse;     ///< parse the file written at setup instead of generating
  bool shuffled;  ///< seeded shuffled schedule instead of eclp-run's default
};

constexpr Job kJobs[] = {
    {"cc", "kron", false, true},    {"gc", "kron", true, false},
    {"mis", "social", false, true}, {"mst", "social", true, false},
    {"cc", "road", true, false},    {"gc", "road", false, true},
    {"mis", "road", true, false},   {"mst", "road", false, false},
    {"scc", "wedge", false, false}, {"scc", "hex", true, false},
};

/// The suite's default-scale parameters of kron_g500-logn21,
/// soc-LiveJournal1, USA-road-d.USA, toroid-wedge and toroid-hex, with
/// generator seeds drawn from the workload seed.
Csr generate(const std::string& input, u64 seed) {
  namespace gen = eclp::gen;
  if (input == "kron") return gen::kronecker(16, u64{22} << 16, sub_seed(seed, 1));
  if (input == "social") {
    return gen::preferential_attachment(150000, 10, sub_seed(seed, 2));
  }
  if (input == "road") return gen::road_network(550, 0.20, sub_seed(seed, 3));
  if (input == "wedge") return gen::toroid_wedge(256, sub_seed(seed, 4));
  return gen::toroid_hex(320, sub_seed(seed, 5));
}

std::string file_for(const std::string& dir, const std::string& input) {
  return dir + "/" + input + (input == "road" ? ".gr" : ".mtx");
}

u64 weight_seed(u64 seed) { return sub_seed(seed, 6); }

/// Setup: write the inputs of the parse jobs. DIMACS .gr carries weights,
/// so the road file gets this seed's MST weights.
void write_inputs(const std::string& dir, u64 seed) {
  for (const std::string input : {"kron", "social", "road", "hex"}) {
    Csr g = generate(input, seed);
    if (input == "road") {
      g = eclp::graph::with_random_weights(g, weight_seed(seed));
    }
    eclp::graph::save_any(g, file_for(dir, input));
  }
}

struct JobResult {
  AlgoOutcome outcome;
  u64 parsed_bytes = 0;
  u64 profile_bytes = 0;
};

/// One job, shaped like eclp-run: session first, then graph acquisition,
/// preparation (symmetrize, MST weights), run, verify, session write.
JobResult run_job(Context& ctx, const Job& job, u64 op,
                  const std::string& dir, const std::string& profile_dir,
                  u64* sim_threads, u64* cas_failures, u64* cas_total) {
  Tracer& tr = *ctx.tracer;
  JobResult r;
  const std::string algo = job.algo;
  // eclp-run's default device seed 0 runs the deterministic schedule; the
  // shuffled jobs draw their device seed from the workload seed.
  const u64 dev_seed =
      job.shuffled ? 1 + sub_seed(ctx.seed, 0x100 + op) % 1000 : 0;
  eclp::sim::Device dev({}, dev_seed,
                        job.shuffled ? eclp::sim::ScheduleMode::kShuffled
                                     : eclp::sim::ScheduleMode::kDeterministic);
  const std::string profile_path =
      profile_dir + "/job" + std::to_string(op) + ".json";
  std::unique_ptr<eclp::profile::Session> session;
  {
    Tracer::Scope s(tr, Layer::kProfile, "profile.session_open", op);
    session = std::make_unique<eclp::profile::Session>(dev);
    session->set_meta("tool", "perfbench");
    session->set_meta("algo", algo);
    session->set_meta("graph", job.input);
    session->set_meta("seed", std::to_string(dev_seed));
    session->set_output(profile_path);
  }
  SimObserver observer(tr, op);
  if (tr.enabled()) observer.attach(dev);

  const bool want_directed = algo == "scc";
  Csr g;
  if (job.parse) {
    const std::string path = file_for(dir, job.input);
    Tracer::Scope s(tr, Layer::kGraph, "graph.parse", op);
    g = eclp::graph::load_any(path, want_directed);
    r.parsed_bytes = file_bytes(path);
  } else {
    Tracer::Scope s(tr, Layer::kGen, "gen.generate", op);
    g = generate(job.input, ctx.seed);
  }
  {
    Tracer::Scope s(tr, Layer::kGraph, "graph.prepare", op);
    if (!want_directed && g.directed()) g = eclp::graph::symmetrize(g);
    if (algo == "mst" && !g.weighted()) {
      g = eclp::graph::with_random_weights(g, weight_seed(ctx.seed));
    }
  }
  r.outcome = run_algo(tr, algo, dev, g, op, /*verify=*/true,
                       /*mst_iteration_metrics=*/true);
  {
    Tracer::Scope s(tr, Layer::kProfile, "profile.session_close", op);
    session.reset();
  }
  r.profile_bytes =
      file_bytes(profile_path) +
      file_bytes(eclp::profile::Session::trace_path_for(profile_path));
  if (tr.enabled()) {
    add_sim_metrics(*ctx.report, dev, &observer);
    *sim_threads += observer.sim_threads;
    *cas_failures +=
        dev.atomic_stats().count(eclp::sim::AtomicOutcome::kCasFailure);
    *cas_total += dev.atomic_stats().cas_total();
  }
  return r;
}

}  // namespace

void run_oneshot_cold(Context& ctx) {
  Report& report = *ctx.report;
  eclp::graph::set_cache_dir("");  // cold: no graph cache
  const std::string dir = ctx.work_dir + "/inputs";
  const std::string profile_dir = ctx.work_dir + "/profiles";
  fs::create_directories(dir);

  SetupTimer setup([&] { write_inputs(dir, ctx.seed); });
  setup.run(2);

  constexpr usize kNumJobs = sizeof(kJobs) / sizeof(kJobs[0]);
  std::vector<AlgoOutcome> digest(kNumJobs);
  u64 parsed_bytes = 0;
  u64 profile_bytes = 0;
  u64 sim_threads = 0;
  u64 cas_failures = 0;
  u64 cas_total = 0;
  u64 pass_begin_ns = 0;
  u64 pass_end_ns = 0;
  bool warmup = true;
  // Per-job times of every untraced pass, the warm-up included; wall_s is
  // the sum of the per-job medians.
  std::vector<std::vector<double>> job_s(kNumJobs);

  // One pass over the job list. The warm-up pass takes the digest of
  // modeled cycles and checksums that every later pass must repeat.
  const auto pass = [&]() -> double {
    fs::remove_all(profile_dir);
    fs::create_directories(profile_dir);
    parsed_bytes = 0;
    profile_bytes = 0;
    pass_begin_ns = eclp::monotonic_ns();
    for (usize i = 0; i < kNumJobs; ++i) {
      const double job_begin = now_s();
      const Job& job = kJobs[i];
      const JobResult r =
          run_job(ctx, job, i + 1, dir, profile_dir, &sim_threads,
                  &cas_failures, &cas_total);
      const std::string what = std::string(job.algo) + " on " + job.input;
      bool ok = r.outcome.verified && r.profile_bytes > 0;
      if (warmup) {
        digest[i] = r.outcome;
      } else {
        ok = ok && r.outcome.modeled_cycles == digest[i].modeled_cycles &&
             r.outcome.checksum == digest[i].checksum;
      }
      ctx.checks->op(ok, what + ": verify, profile written, digest match");
      parsed_bytes += r.parsed_bytes;
      profile_bytes += r.profile_bytes;
      // Each eclp-run starts with a fresh heap: keep one job's freed pages
      // from counting toward the next job's peak.
      trim_heap();
      if (!ctx.tracer->enabled()) job_s[i].push_back(now_s() - job_begin);
    }
    pass_end_ns = eclp::monotonic_ns();
    return static_cast<double>(pass_end_ns - pass_begin_ns) / 1e9;
  };

  pass();
  warmup = false;
  start_rss_window();
  const PassTimes times = run_passes(ctx, pass);
  fs::remove_all(profile_dir);

  report.set("wall_s", sum_of_medians(job_s));
  report.set("peak_rss_mb", peak_rss_mib());
  if (!ctx.traced) setup.run(2);
  report.set("setup_s", setup.median_s());
  report.note("jobs_per_pass", static_cast<double>(kNumJobs), "count");
  report.note("passes", static_cast<double>(times.untraced.size()), "count");
  if (ctx.traced) {
    const std::vector<Span> spans = ctx.tracer->spans();
    finish_sim_metrics(report, sim_threads, cas_failures, cas_total);
    add_span_totals(report, spans);
    const double parse_s = report.get("graph.parse_s");
    report.set("graph.parse_mb_per_s",
               parse_s > 0 ? static_cast<double>(parsed_bytes) / 1e6 / parse_s
                           : 0.0);
    report.set("profile.bytes_written", static_cast<double>(profile_bytes));
    report_overhead(report, times.traced, times.untraced.front());
    summarize_trace(ctx, spans, pass_begin_ns, pass_end_ns);
  }
}

}  // namespace perfbench
