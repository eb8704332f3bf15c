// locality: the reorder suite on one skewed and one road input, each
// reordered graph then running CC and GC with the modeled LLC on.
//
// The skewed input is RMAT with rmat16.sym's parameters at scale 12
// (between its tiny and small sizes), the road input a road_network of
// side 320 (between USA-road-d.USA small and default). The reorder cost
// depends on degree skew: gorder is far slower on the skewed input. The
// inputs are small enough for about eight passes in a 10-second run and
// for a working set near the per-core L2, which keeps the run-to-run
// spread of wall_s low on a shared host.
#include "gen/generators.hpp"
#include "graph/reorder.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using eclp::graph::Csr;

const char* const kSpecs[] = {"hub", "hubcluster", "bfs", "degree", "gorder"};
const char* const kAlgos[] = {"cc", "gc"};

struct Input {
  const char* name;
  Csr graph;
};

std::vector<Input> make_inputs(u64 seed) {
  std::vector<Input> in;
  in.push_back({"skewed", eclp::gen::rmat(12, u64{8} << 12, 0.45, 0.22, 0.22,
                                          sub_seed(seed, 1))});
  in.push_back({"road", eclp::gen::road_network(320, 0.20, sub_seed(seed, 2))});
  return in;
}

/// What must repeat exactly from one pass to the next.
struct CaseDigest {
  double locality = 0.0;
  double affinity = 0.0;
  std::vector<AlgoOutcome> runs;
};

bool same(const CaseDigest& a, const CaseDigest& b) {
  if (a.locality != b.locality || a.affinity != b.affinity) return false;
  for (usize i = 0; i < a.runs.size(); ++i) {
    const AlgoOutcome& x = a.runs[i];
    const AlgoOutcome& y = b.runs[i];
    if (x.llc_hits != y.llc_hits || x.llc_misses != y.llc_misses ||
        x.modeled_cycles != y.modeled_cycles || x.checksum != y.checksum) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_locality(Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tr = *ctx.tracer;
  eclp::graph::set_cache_dir("");  // every reorder is computed, not loaded

  std::vector<Input> inputs;
  SetupTimer setup([&] { inputs = make_inputs(ctx.seed); });
  setup.run(4);

  eclp::sim::CostModel cost;
  cost.cache = eclp::sim::parse_cache_config("on");
  const usize cases = inputs.size() * std::size(kSpecs);
  std::vector<CaseDigest> digest;
  u64 sim_threads = 0;
  u64 cas_failures = 0;
  u64 cas_total = 0;
  u64 pass_begin_ns = 0;
  u64 pass_end_ns = 0;
  // Per-case times of every untraced pass, the warm-up included; wall_s
  // is the sum of the per-case medians.
  std::vector<std::vector<double>> case_s(cases);

  const auto pass = [&]() -> double {
    const bool traced = tr.enabled();
    pass_begin_ns = eclp::monotonic_ns();
    for (usize c = 0; c < cases; ++c) {
      const double case_begin = now_s();
      const Input& in = inputs[c / std::size(kSpecs)];
      const std::string spec_name = kSpecs[c % std::size(kSpecs)];
      const u64 op = c + 1;
      CaseDigest d;
      Csr g;
      {
        Tracer::Scope s(tr, Layer::kGraph,
                        ("graph.reorder." + spec_name).c_str(), op);
        g = eclp::graph::apply_reorder(
            in.graph, eclp::graph::ReorderSpec::parse(spec_name));
      }
      {
        Tracer::Scope s(tr, Layer::kGraph, "graph.locality", op);
        d.locality = eclp::graph::locality_score(g);
        d.affinity = eclp::graph::block_affinity(g, 256);
      }
      bool verified = true;
      for (const char* algo : kAlgos) {
        const u64 dev_seed = 1 + sub_seed(ctx.seed, 0x200 + op) % 1000;
        eclp::sim::Device dev(cost, dev_seed,
                              eclp::sim::ScheduleMode::kShuffled);
        SimObserver observer(tr, op);
        if (traced) observer.attach(dev);
        d.runs.push_back(run_algo(tr, algo, dev, g, op, /*verify=*/true,
                                  /*mst_iteration_metrics=*/false));
        verified = verified && d.runs.back().verified;
        if (traced) {
          add_sim_metrics(report, dev, &observer);
          sim_threads += observer.sim_threads;
          cas_failures +=
              dev.atomic_stats().count(eclp::sim::AtomicOutcome::kCasFailure);
          cas_total += dev.atomic_stats().cas_total();
        }
      }
      if (traced) {
        const double n = static_cast<double>(inputs.size());
        report.add("graph.locality_score." + spec_name, d.locality / n);
        report.add("graph.block_affinity." + spec_name, d.affinity / n);
      }
      const bool repeats = digest.size() <= c || same(d, digest[c]);
      ctx.checks->op(verified && repeats,
                     std::string(in.name) + " reordered by " + spec_name +
                         ": CC/GC verify, LLC counts repeat");
      if (digest.size() <= c) digest.push_back(std::move(d));
      if (!traced) case_s[c].push_back(now_s() - case_begin);
    }
    pass_end_ns = eclp::monotonic_ns();
    return static_cast<double>(pass_end_ns - pass_begin_ns) / 1e9;
  };

  pass();  // warm-up pass: takes the digest
  start_rss_window();
  const PassTimes times = run_passes(ctx, pass);

  report.set("wall_s", sum_of_medians(case_s));
  report.set("peak_rss_mb", peak_rss_mib());
  if (!ctx.traced) setup.run(4);
  report.set("setup_s", setup.median_s());
  report.note("passes", static_cast<double>(times.untraced.size()), "count");
  if (ctx.traced) {
    const std::vector<Span> spans = tr.spans();
    finish_sim_metrics(report, sim_threads, cas_failures, cas_total);
    add_span_totals(report, spans);
    report_overhead(report, times.traced, times.untraced.front());
    summarize_trace(ctx, spans, pass_begin_ns, pass_end_ns);
  }
}

}  // namespace perfbench
