// Shared plumbing of the four workloads: the run context, the fixed-work
// pass loop, launch observation and the per-layer summary of a traced pass.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "graph/cache.hpp"
#include "report.hpp"
#include "sim/device.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory inside the checkout; the workload may fill it and
  /// main() removes it at exit.
  std::string work_dir;
  /// Where a traced run writes its spans (JSONL).
  std::string trace_path;
  /// Thread count of every pool (build, sim, serving) and of the load
  /// generator: min(4, hardware threads).
  u32 threads = 1;
  Tracer* tracer = nullptr;
  Checks* checks = nullptr;
  Report* report = nullptr;
};

/// Seconds on the monotonic clock.
double now_s();

/// Times a workload's set-up. The host's speed drifts over seconds, so
/// back-to-back set-ups all see one moment of it: a run times some
/// set-ups before its measured phase and, untraced, as many after it, and
/// reports the median of all of them as setup_s.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}
  /// Run and time the set-up `reps` times.
  void run(int reps);
  /// Median duration of every set-up run so far, in seconds.
  double median_s() const;

 private:
  std::function<void()> setup_;
  std::vector<double> times_;
};

/// Size of a file in bytes (0 when missing).
u64 file_bytes(const std::string& path);

/// 32-hex fingerprint of a solution vector, computed exactly as the
/// server computes a response checksum.
template <typename T>
std::string checksum_of(const std::vector<T>& v) {
  eclp::graph::CacheKey key;
  key.mix(std::string_view(reinterpret_cast<const char*>(v.data()),
                           v.size() * sizeof(T)));
  return key.hex();
}

/// Launch observer the traced passes attach to devices: it forwards every
/// launch to `next` (a profile session, when one owns the device), records
/// a sim span under the calling thread's open span, and sums the launch
/// counts and wall time.
class SimObserver : public eclp::sim::LaunchObserver {
 public:
  SimObserver(Tracer& tracer, u64 op) : tracer_(tracer), op_(op) {}
  void attach(eclp::sim::Device& dev);
  void on_launch(const eclp::sim::KernelStats& stats,
                 const eclp::sim::TraceEvent& event) override;

  u64 launches = 0;
  u64 wall_ns = 0;
  u64 sim_threads = 0;  ///< simulated threads over all launches

 private:
  Tracer& tracer_;
  u64 op_;
  eclp::sim::LaunchObserver* next_ = nullptr;
};

/// Fold a device's modeled counters and an observer's launch totals into
/// the report's sim.* metrics.
void add_sim_metrics(Report& report, const eclp::sim::Device& dev,
                     const SimObserver* observer);
/// Derive sim.ns_per_launch, sim.ns_per_sim_thread and
/// sim.cas_failure_ratio once every device has been added.
void finish_sim_metrics(Report& report, u64 sim_threads, u64 cas_failures,
                        u64 cas_total);

/// Pass times of a fixed-work workload. `pass(traced)` does the work once
/// and returns its wall time in seconds.
struct PassTimes {
  std::vector<double> untraced;
  double traced = 0.0;
};

/// Untraced run: passes until `seconds` have elapsed (at least one).
/// Traced run: one untraced pass, then one traced pass, so the traced
/// pass's spans describe the work and the difference is the tracing
/// overhead.
PassTimes run_passes(Context& ctx, const std::function<double()>& pass);

/// Per-layer summary of the traced spans over [begin_ns, end_ns): self
/// time per layer, the share of the busy window each layer's spans cover,
/// and the overall coverage. `idle_ns` is time inside the window when the
/// workload had nothing outstanding (open-loop gaps between arrivals); it
/// is reported as bench.idle_frac and left out of the coverage base.
/// Writes the spans to ctx.trace_path as JSONL.
void summarize_trace(Context& ctx, const std::vector<Span>& spans,
                     u64 begin_ns, u64 end_ns, u64 idle_ns = 0);

/// Sets bench.traced_wall_s / untraced_wall_s / trace_overhead_s.
void report_overhead(Report& report, double traced_s, double untraced_s);

/// Result of one algorithm run, as far as the checks need it.
struct AlgoOutcome {
  u64 modeled_cycles = 0;
  u64 llc_hits = 0;
  u64 llc_misses = 0;
  std::string checksum;
  bool verified = true;
};

/// Run `algo` ("cc" | "gc" | "mis" | "mst" | "scc") on `g` under an
/// "algos.<algo>.run" span, then (with `verify`) its verifier under an
/// "algos.verify" span. `mst_iteration_metrics` mirrors eclp-run, which
/// records MST iteration metrics; the server does not.
AlgoOutcome run_algo(Tracer& tracer, const std::string& algo,
                     eclp::sim::Device& dev, const eclp::graph::Csr& g,
                     u64 op, bool verify, bool mst_iteration_metrics);

/// Per-layer totals that are sums of span durations, by span name:
/// gen.generate, gen.stream_emit, graph.parse, graph.prepare,
/// graph.stream_build, graph.cache_store, graph.cache_load,
/// graph.reorder.<spec>, algos.<algo>.run, algos.verify,
/// profile.session_close. algos.host_s is the algorithm run time not
/// spent in kernels, so call it after the sim.* metrics are added.
void add_span_totals(Report& report, const std::vector<Span>& spans);

/// Return freed heap pages to the kernel (glibc malloc_trim).
void trim_heap();
/// Trim the heap and reset the peak-RSS watermark (measured phase starts
/// here).
void start_rss_window();
/// Peak resident set since start_rss_window(), in MiB.
double peak_rss_mib();

}  // namespace perfbench
