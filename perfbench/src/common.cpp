#include "common.hpp"

#include <sys/stat.h>

#include <fstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "stats.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"

namespace perfbench {

double now_s() { return static_cast<double>(eclp::monotonic_ns()) / 1e9; }

void SetupTimer::run(int reps) {
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup_();
    times_.push_back(now_s() - t0);
  }
}

double SetupTimer::median_s() const { return median(times_); }

u64 file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<u64>(st.st_size);
}

void SimObserver::attach(eclp::sim::Device& dev) {
  next_ = dev.launch_observer();
  dev.set_launch_observer(this);
}

void SimObserver::on_launch(const eclp::sim::KernelStats& stats,
                            const eclp::sim::TraceEvent& event) {
  const u64 end = eclp::monotonic_ns();
  const u64 start = end - std::min(end, event.wall_ns);
  tracer_.record(Layer::kSim, "sim.launch " + stats.name, start, end,
                 tracer_.current(), op_);
  ++launches;
  wall_ns += event.wall_ns;
  sim_threads += stats.config.total_threads();
  if (next_ != nullptr) next_->on_launch(stats, event);
}

void add_sim_metrics(Report& report, const eclp::sim::Device& dev,
                     const SimObserver* observer) {
  report.add("sim.modeled_cycles", static_cast<double>(dev.total_cycles()));
  report.add("sim.atomics", static_cast<double>(dev.atomic_stats().total()));
  report.add("sim.llc_hits", static_cast<double>(dev.llc_hits()));
  report.add("sim.llc_misses", static_cast<double>(dev.llc_misses()));
  if (observer != nullptr) {
    report.add("sim.launches", static_cast<double>(observer->launches));
    report.add("sim.kernel_busy_s",
               static_cast<double>(observer->wall_ns) / 1e9);
  }
}

void finish_sim_metrics(Report& report, u64 sim_threads, u64 cas_failures,
                        u64 cas_total) {
  const double busy_ns = report.get("sim.kernel_busy_s") * 1e9;
  const double launches = report.get("sim.launches");
  report.set("sim.ns_per_launch", launches > 0 ? busy_ns / launches : 0.0);
  report.set("sim.ns_per_sim_thread",
             sim_threads > 0 ? busy_ns / static_cast<double>(sim_threads)
                             : 0.0);
  report.set("sim.cas_failure_ratio",
             cas_total > 0 ? static_cast<double>(cas_failures) /
                                 static_cast<double>(cas_total)
                           : 0.0);
}

PassTimes run_passes(Context& ctx, const std::function<double()>& pass) {
  PassTimes t;
  const double begin = now_s();
  do {
    t.untraced.push_back(pass());
  } while (!ctx.traced && now_s() - begin < ctx.seconds);
  if (ctx.traced) {
    ctx.tracer->set_enabled(true);
    t.traced = pass();
    ctx.tracer->set_enabled(false);
  }
  return t;
}

void summarize_trace(Context& ctx, const std::vector<Span>& spans,
                     u64 begin_ns, u64 end_ns, u64 idle_ns) {
  Report& r = *ctx.report;
  const double window = static_cast<double>(end_ns - begin_ns);
  const double busy_scale = window / (window - static_cast<double>(idle_ns));
  r.set("bench.idle_frac", static_cast<double>(idle_ns) / window);
  const auto self = layer_self_seconds(spans);
  for (usize l = 0; l < kLayers; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    r.set("self." + name + "_s", self[l]);
    std::vector<Span> mine;
    for (const Span& s : spans) {
      if (static_cast<usize>(s.layer) == l) mine.push_back(s);
    }
    r.set("cover." + name, coverage(mine, begin_ns, end_ns) * busy_scale);
  }
  r.set("bench.coverage", coverage(spans, begin_ns, end_ns) * busy_scale);
  std::ofstream os(ctx.trace_path);
  os << spans_jsonl(spans);
  if (!os.good()) {
    std::fprintf(stderr, "warning: cannot write %s\n",
                 ctx.trace_path.c_str());
  }
}

void report_overhead(Report& report, double traced_s, double untraced_s) {
  report.set("bench.traced_wall_s", traced_s);
  report.set("bench.untraced_wall_s", untraced_s);
  report.set("bench.trace_overhead_s", traced_s - untraced_s);
}

AlgoOutcome run_algo(Tracer& tracer, const std::string& algo,
                     eclp::sim::Device& dev, const eclp::graph::Csr& g,
                     u64 op, bool verify, bool mst_iteration_metrics) {
  namespace algos = eclp::algos;
  AlgoOutcome out;
  const std::string run_name = "algos." + algo + ".run";
  // Run under the run span, then verify under its own span; the result
  // object lives until the verifier is done.
  const auto finish = [&](auto&& res, auto&& solution, auto&& verifier) {
    out.modeled_cycles = res.modeled_cycles;
    out.checksum = checksum_of(solution);
    if (verify) {
      Tracer::Scope s(tracer, Layer::kAlgos, "algos.verify", op);
      out.verified = verifier();
    }
  };
  if (algo == "cc") {
    Tracer::Scope s(tracer, Layer::kAlgos, run_name.c_str(), op);
    const auto res = algos::cc::run(dev, g);
    s.end();
    finish(res, res.labels, [&] { return algos::cc::verify(g, res.labels); });
  } else if (algo == "gc") {
    Tracer::Scope s(tracer, Layer::kAlgos, run_name.c_str(), op);
    const auto res = algos::gc::run(dev, g);
    s.end();
    finish(res, res.colors, [&] { return algos::gc::verify(g, res.colors); });
  } else if (algo == "mis") {
    Tracer::Scope s(tracer, Layer::kAlgos, run_name.c_str(), op);
    const auto res = algos::mis::run(dev, g);
    s.end();
    finish(res, res.status, [&] { return algos::mis::verify(g, res.status); });
  } else if (algo == "mst") {
    algos::mst::Options opt;
    opt.record_iteration_metrics = mst_iteration_metrics;
    Tracer::Scope s(tracer, Layer::kAlgos, run_name.c_str(), op);
    const auto res = algos::mst::run(dev, g, opt);
    s.end();
    finish(res, res.in_mst, [&] { return algos::mst::verify(g, res); });
  } else {
    ECLP_CHECK_MSG(algo == "scc", "unknown algorithm " << algo);
    Tracer::Scope s(tracer, Layer::kAlgos, run_name.c_str(), op);
    const auto res = algos::scc::run(dev, g);
    s.end();
    finish(res, res.scc_id, [&] { return algos::scc::verify(g, res.scc_id); });
  }
  out.llc_hits = dev.llc_hits();
  out.llc_misses = dev.llc_misses();
  return out;
}

void add_span_totals(Report& report, const std::vector<Span>& spans) {
  static const char* const kSums[][2] = {
      {"gen.generate", "gen.generate_s"},
      {"gen.stream_emit", "gen.stream_emit_busy_s"},
      {"graph.parse", "graph.parse_s"},
      {"graph.prepare", "graph.prepare_s"},
      {"graph.stream_build", "graph.stream_build_s"},
      {"graph.cache_store", "graph.cache_store_s"},
      {"graph.cache_load", "graph.cache_load_s"},
      {"graph.reorder.hub", "graph.reorder_s.hub"},
      {"graph.reorder.hubcluster", "graph.reorder_s.hubcluster"},
      {"graph.reorder.bfs", "graph.reorder_s.bfs"},
      {"graph.reorder.degree", "graph.reorder_s.degree"},
      {"graph.reorder.gorder", "graph.reorder_s.gorder"},
      {"algos.cc.run", "algos.cc.run_s"},
      {"algos.gc.run", "algos.gc.run_s"},
      {"algos.mis.run", "algos.mis.run_s"},
      {"algos.mst.run", "algos.mst.run_s"},
      {"algos.scc.run", "algos.scc.run_s"},
      {"algos.verify", "algos.verify_s"},
      {"profile.session_close", "profile.session_close_s"},
  };
  for (const auto& [span, metric] : kSums) {
    report.set(metric, total_seconds(spans, span));
  }
  double run_s = 0.0;
  for (const char* a : {"cc", "gc", "mis", "mst", "scc"}) {
    run_s += report.get(std::string("algos.") + a + ".run_s");
  }
  report.set("algos.host_s", run_s - report.get("sim.kernel_busy_s"));
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void start_rss_window() {
  trim_heap();
  eclp::reset_peak_rss();
}

double peak_rss_mib() {
  return static_cast<double>(eclp::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
