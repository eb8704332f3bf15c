// serve-mixed: one serve::Server with a pool warmed at setup, serving a
// seeded mix of many short requests (cc/gc/mis/mst on small graphs) and a
// minority of long SCC-on-mesh requests, some with the modeled LLC on.
//
// Two phases follow the setup and the reference pass (a direct
// algos::*::run of every distinct request, which every served response
// must match):
//  * batch: a batch list through Server::serve, as `eclp-serve --requests`
//    does, kBatchPasses times, each pass in its own seeded order;
//  * open loop: Server::submit on a seeded Poisson schedule at kOpenRate
//    requests per second, each request timed from its due time.
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "schedule.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = eclp::serve;
using eclp::graph::Csr;

/// Offered rate of the open-loop phase, requests per second. Below the
/// batch capacity on a 4-thread host, so the queue must not grow.
constexpr double kOpenRate = 140.0;
/// Open-loop request counts per class: enough short requests that their
/// p99 has 10 samples beyond it.
constexpr usize kOpenShort = 1032;
constexpr usize kOpenLong = 68;
constexpr usize kBatchShort = 600;
constexpr usize kBatchLong = 40;
/// How the long requests fall between wave barriers depends on the order,
/// so each pass draws its own order and wall_s is the median pass.
constexpr usize kBatchPasses = 5;
/// Latency limits per class, from the due time.
constexpr double kShortSloMs = 100.0;
constexpr double kLongSloMs = 1500.0;

const char* const kShortAlgos[] = {"cc", "gc", "mis", "mst"};
const char* const kShortInputs[] = {"kron", "rmat", "road", "social"};
const char* const kLongInputs[] = {"wedge", "flow"};

Csr generate(const std::string& input, u64 seed) {
  namespace gen = eclp::gen;
  if (input == "kron") return gen::kronecker(12, u64{22} << 12, sub_seed(seed, 11));
  if (input == "rmat") {
    return gen::rmat(12, u64{8} << 12, 0.45, 0.22, 0.22, sub_seed(seed, 12));
  }
  if (input == "road") return gen::road_network(160, 0.40, sub_seed(seed, 13));
  if (input == "social") {
    return gen::preferential_attachment(8000, 7, sub_seed(seed, 14));
  }
  if (input == "wedge") return gen::toroid_wedge(96, sub_seed(seed, 15));
  return gen::cold_flow(80, sub_seed(seed, 16));
}

/// One distinct request shape; every served request is one of these.
struct Combo {
  std::string algo;
  std::string input;
  u64 seed = 0;
  bool llc = false;
  bool is_long() const { return algo == "scc"; }
};

std::vector<Combo> make_combos(u64 seed) {
  std::vector<Combo> combos;
  const u64 shuffled_seed = 1 + sub_seed(seed, 21) % 1000;
  for (const char* algo : kShortAlgos) {
    for (const char* input : kShortInputs) {
      for (const u64 s : {u64{0}, shuffled_seed}) {
        combos.push_back({algo, input, s, false});
      }
    }
  }
  for (const char* input : kLongInputs) {
    for (const bool llc : {false, true}) {
      combos.push_back({"scc", input, 0, llc});
    }
  }
  return combos;
}

struct Planned {
  usize combo = 0;
  serve::Request request;
};

serve::Request to_request(const Combo& c, const std::string& id,
                          const std::string& dir, u64 weights_seed) {
  serve::Request r;
  r.id = id;
  r.algo = serve::parse_algo(c.algo);
  r.file = dir + "/" + c.input + ".eclg";
  r.seed = c.seed;
  r.weights_seed = weights_seed;
  r.llc = c.llc ? "on" : "";
  return r;
}

/// A request list with exactly n_short short and n_long long requests,
/// every combo of a class equally often (so the work does not depend on the
/// seed), in seeded order.
std::vector<Planned> plan(const std::vector<Combo>& combos, u64 seed,
                          const std::string& prefix, usize n_short,
                          usize n_long, const std::string& dir,
                          u64 weights_seed) {
  std::vector<usize> shorts;
  std::vector<usize> longs;
  for (usize i = 0; i < combos.size(); ++i) {
    (combos[i].is_long() ? longs : shorts).push_back(i);
  }
  std::vector<usize> picks;
  for (usize i = 0; i < n_short; ++i) picks.push_back(shorts[i % shorts.size()]);
  for (usize i = 0; i < n_long; ++i) picks.push_back(longs[i % longs.size()]);
  eclp::Rng rng(seed);
  rng.shuffle(picks);
  std::vector<Planned> out;
  for (usize i = 0; i < picks.size(); ++i) {
    out.push_back({picks[i], to_request(combos[picks[i]],
                                        prefix + std::to_string(i), dir,
                                        weights_seed)});
  }
  return out;
}

/// The graph a request runs on, built exactly as Server::build_graph does.
Csr reference_graph(const serve::Request& req) {
  const bool want_directed = req.algo == serve::Algo::kScc;
  Csr g = eclp::graph::load_any(req.file, want_directed || req.directed);
  if (!want_directed && g.directed()) g = eclp::graph::symmetrize(g);
  if (req.algo == serve::Algo::kMst && !g.weighted()) {
    g = eclp::graph::with_random_weights(g, req.weights_seed);
  }
  return g;
}

bool matches(const serve::Response& r, const AlgoOutcome& ref) {
  return r.status == serve::Status::kOk &&
         r.modeled_cycles == ref.modeled_cycles && r.checksum == ref.checksum &&
         r.llc_hits == ref.llc_hits && r.llc_misses == ref.llc_misses;
}

/// Per-request lifecycle timestamps parsed from the server's TraceLog.
struct Lifecycle {
  double admitted_us = -1;
  double started_us = -1;
  double finished_us = -1;
};

std::map<std::string, Lifecycle> parse_trace_log(const std::string& text) {
  std::map<std::string, Lifecycle> out;
  usize pos = 0;
  while (pos < text.size()) {
    usize end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) {
      const auto v = eclp::json::Value::parse(text.substr(pos, end - pos));
      Lifecycle& l = out[v.at("id").as_string()];
      const std::string& event = v.at("event").as_string();
      const double ts = v.at("ts_us").as_number();
      if (event == "admitted") l.admitted_us = ts;
      if (event == "started") l.started_us = ts;
      if (event == "finished") l.finished_us = ts;
    }
    pos = end + 1;
  }
  return out;
}

u64 counter(const eclp::metrics::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

eclp::metrics::Histogram::Merged histogram(const eclp::metrics::Snapshot& s,
                                           const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return h.data;
  }
  return {};
}

}  // namespace

void run_serve_mixed(Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tr = *ctx.tracer;
  eclp::graph::set_cache_dir("");
  const std::string dir = ctx.work_dir + "/inputs";
  fs::create_directories(dir);
  const u64 weights_seed = sub_seed(ctx.seed, 22);
  const std::vector<Combo> combos = make_combos(ctx.seed);

  eclp::metrics::Registry registry;
  std::unique_ptr<serve::TraceLog> trace_log;
  std::unique_ptr<serve::Server> server;
  // Every served response, with the combo it must match.
  std::vector<std::pair<usize, serve::Response>> served;

  // Setup: write the graph files, start a server and warm its graph pool
  // by serving every distinct request once.
  SetupTimer setup([&] {
    server.reset();
    trace_log.reset();
    for (const char* input :
         {"kron", "rmat", "road", "social", "wedge", "flow"}) {
      eclp::graph::save_any(generate(input, ctx.seed),
                            dir + "/" + input + ".eclg");
    }
    serve::ServerOptions opt;
    opt.threads = ctx.threads;
    if (ctx.traced) {
      trace_log = std::make_unique<serve::TraceLog>();
      opt.metrics = &registry;
      opt.trace = trace_log.get();
    }
    server = std::make_unique<serve::Server>(opt);
    std::vector<serve::Request> warm;
    for (usize i = 0; i < combos.size(); ++i) {
      warm.push_back(
          to_request(combos[i], "w" + std::to_string(i), dir, weights_seed));
    }
    auto responses = server->serve(warm);
    for (usize i = 0; i < responses.size(); ++i) {
      served.emplace_back(i, std::move(responses[i]));
    }
  });
  setup.run(4);

  std::vector<std::vector<Planned>> batches;
  for (usize p = 0; p < kBatchPasses; ++p) {
    batches.push_back(plan(combos, sub_seed(ctx.seed, 100 + p),
                           "b" + std::to_string(p) + "-", kBatchShort,
                           kBatchLong, dir, weights_seed));
  }
  const std::vector<Planned> open =
      plan(combos, sub_seed(ctx.seed, 24), "o", kOpenShort, kOpenLong, dir,
           weights_seed);
  const std::vector<double> due =
      arrival_schedule(sub_seed(ctx.seed, 25), open.size(), kOpenRate);

  const auto batch_pass = [&](const std::vector<Planned>& batch) -> double {
    std::vector<serve::Request> requests;
    for (const Planned& p : batch) requests.push_back(p.request);
    const double t0 = now_s();
    std::vector<serve::Response> responses;
    {
      Tracer::Scope s(tr, Layer::kServe, "serve.serve");
      responses = server->serve(std::move(requests));
    }
    const double wall = now_s() - t0;
    for (usize i = 0; i < responses.size(); ++i) {
      served.emplace_back(batch[i].combo, std::move(responses[i]));
    }
    return wall;
  };

  double untraced_batch = 0.0;
  if (ctx.traced) untraced_batch = batch_pass(batches[0]);
  tr.set_enabled(ctx.traced);
  const u64 window_begin_ns = eclp::monotonic_ns();

  // Reference pass: a direct run of every distinct request.
  std::vector<AlgoOutcome> reference(combos.size());
  u64 sim_threads = 0;
  u64 cas_failures = 0;
  u64 cas_total = 0;
  {
    std::map<std::string, Csr> graphs;
    for (usize i = 0; i < combos.size(); ++i) {
      const serve::Request req =
          to_request(combos[i], "ref", dir, weights_seed);
      const std::string key = serve::Server::graph_key(req);
      if (graphs.count(key) == 0) {
        Tracer::Scope s(tr, Layer::kGraph, "graph.prepare", i + 1);
        graphs[key] = reference_graph(req);
      }
      eclp::sim::CostModel cost;
      cost.cache = eclp::sim::parse_cache_config(req.llc);
      eclp::sim::Device dev(cost, req.seed,
                            req.seed == 0
                                ? eclp::sim::ScheduleMode::kDeterministic
                                : eclp::sim::ScheduleMode::kShuffled);
      SimObserver observer(tr, i + 1);
      if (tr.enabled()) observer.attach(dev);
      reference[i] = run_algo(tr, combos[i].algo, dev, graphs[key], i + 1,
                              /*verify=*/true,
                              /*mst_iteration_metrics=*/false);
      ctx.checks->op(reference[i].verified,
                     "reference " + combos[i].algo + " on " +
                         combos[i].input + " verifies");
      if (tr.enabled()) {
        add_sim_metrics(report, dev, &observer);
        sim_threads += observer.sim_threads;
        cas_failures +=
            dev.atomic_stats().count(eclp::sim::AtomicOutcome::kCasFailure);
        cas_total += dev.atomic_stats().cas_total();
      }
    }
  }

  // Batch phase. peak_rss_mb covers the server's work from here on, not
  // the reference pass's copies of the graphs.
  start_rss_window();
  const serve::ServerStats before_batch = server->stats();
  const eclp::metrics::Snapshot snap_before = registry.snapshot();
  std::vector<double> batch_walls;
  for (usize p = 0; p < (ctx.traced ? 1 : kBatchPasses); ++p) {
    batch_walls.push_back(batch_pass(batches[p]));
  }

  // Open-loop phase: this thread submits on schedule; a collector thread
  // waits for the responses in submission order.
  const usize n = open.size();
  std::vector<std::future<serve::Response>> futures(n);
  std::vector<double> lag_ms(n, 0.0);
  std::vector<u64> depth(n, 0);
  std::vector<serve::Response> open_responses(n);
  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  usize submitted = 0;  // guarded by ready_mutex, like futures and aborted
  bool aborted = false;
  const serve::ServerStats before_open = server->stats();
  const double open_t0 = now_s() + 0.01;
  double open_end = open_t0;
  // Time the collector waits for a request not yet submitted is time with
  // nothing outstanding: the open loop is idle until the next arrival.
  u64 idle_ns = 0;
  std::thread collector([&] {
    for (usize i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(ready_mutex);
        const u64 wait_start = eclp::monotonic_ns();
        ready_cv.wait(lk, [&] { return submitted > i || aborted; });
        idle_ns += eclp::monotonic_ns() - wait_start;
        if (submitted <= i) return;
      }
      Tracer::Scope s(tr, Layer::kServe, "serve.await", i + 1);
      open_responses[i] = futures[i].get();
    }
    open_end = now_s();
  });
  try {
    for (usize i = 0; i < n; ++i) {
      const double due_s = open_t0 + due[i];
      const double wait = due_s - now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      {
        Tracer::Scope s(tr, Layer::kServe, "serve.submit", i + 1);
        depth[i] = server->stats().queue_depth;
        lag_ms[i] = (now_s() - due_s) * 1e3;
        auto f = server->submit(open[i].request);
        std::lock_guard<std::mutex> lk(ready_mutex);
        futures[i] = std::move(f);
        submitted = i + 1;
      }
      ready_cv.notify_one();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(ready_mutex);
      aborted = true;
    }
    ready_cv.notify_one();
    collector.join();
    throw;
  }
  collector.join();
  const u64 window_end_ns = eclp::monotonic_ns();
  tr.set_enabled(false);
  const serve::ServerStats after_open = server->stats();
  server.reset();  // joins the dispatcher; final metrics are complete
  const double peak_rss_mb = peak_rss_mib();
  // The traced run keeps its server's TraceLog for the figures below.
  if (!ctx.traced) setup.run(4);
  report.set("setup_s", setup.median_s());

  // Open-loop latencies from the due time: generator lateness plus the
  // server's admission-to-completion wall time.
  std::vector<double> all_ms;
  std::vector<double> short_ms;
  usize within_slo = 0;
  for (usize i = 0; i < n; ++i) {
    const serve::Response& r = open_responses[i];
    const bool is_long = combos[open[i].combo].is_long();
    const double ms = lag_ms[i] + r.wall_ms;
    const bool ok = r.status == serve::Status::kOk;
    all_ms.push_back(ms);
    if (!is_long) short_ms.push_back(ms);
    if (ok && ms <= (is_long ? kLongSloMs : kShortSloMs)) ++within_slo;
    served.emplace_back(open[i].combo, r);
  }
  for (const auto& [combo, r] : served) {
    ctx.checks->op(matches(r, reference[combo]),
                   "served " + r.id + " (" + combos[combo].algo + " on " +
                       combos[combo].input + ") matches its direct run");
  }

  const double batch_wall = median(batch_walls);
  const double open_wall = open_end - open_t0;
  report.set("wall_s", batch_wall);
  report.set("serve.p50_ms", median(all_ms));
  report.set("peak_rss_mb", peak_rss_mb);
  report.set("serve.batch_rps",
             static_cast<double>(kBatchShort + kBatchLong) / batch_wall);
  report.set("serve.p99_ms", tail_quantile(all_ms, 0.99).value_or(0.0));
  report.set("serve.short_p99_ms",
             tail_quantile(short_ms, 0.99).value_or(0.0));
  report.set("serve.slo_frac",
             static_cast<double>(within_slo) / static_cast<double>(n));
  report.set("serve.rejected",
             static_cast<double>(after_open.rejected - before_open.rejected));
  report.set("bench.gen_lag_p99_ms", tail_quantile(lag_ms, 0.99).value_or(0.0));
  // Backlog: queue depth over the last tenth of the submits against the
  // first tenth. Growth past everything seen at the start means the
  // offered rate was above capacity.
  const usize tenth = std::max<usize>(1, n / 10);
  std::vector<double> head(depth.begin(), depth.begin() + static_cast<long>(tenth));
  std::vector<double> tail(depth.end() - static_cast<long>(tenth), depth.end());
  const double head_max = *std::max_element(head.begin(), head.end());
  report.set("bench.backlog_growth", median(tail) - median(head));
  const bool overloaded = median(tail) > head_max;
  report.set("bench.overloaded", overloaded ? 1.0 : 0.0);
  if (overloaded) {
    std::printf("WARNING: open-loop queue grew from %.0f to %.0f: the "
                "offered rate %.0f/s is above capacity\n",
                head_max, median(tail), kOpenRate);
  }
  report.note("open_loop_rate", kOpenRate, "req/s");
  report.note("open_loop_requests", static_cast<double>(n), "count");
  report.note("open_loop_wall_s", open_wall, "s");
  report.note("queue_peak_open_loop",
              *std::max_element(depth.begin(), depth.end()), "count");

  if (ctx.traced) {
    const std::vector<Span> spans = tr.spans();
    finish_sim_metrics(report, sim_threads, cas_failures, cas_total);
    add_span_totals(report, spans);
    report_overhead(report, batch_walls.front(), untraced_batch);
    summarize_trace(ctx, spans, window_begin_ns, window_end_ns, idle_ns);

    // Server-side figures of the open loop from its TraceLog.
    const auto life = parse_trace_log(trace_log->text());
    std::vector<double> wait_ms;
    std::vector<double> exec_ms;
    double busy_ms = 0.0;
    for (const Planned& p : open) {
      const auto it = life.find(p.request.id);
      if (it == life.end() || it->second.finished_us < 0) continue;
      const Lifecycle& l = it->second;
      wait_ms.push_back((l.started_us - l.admitted_us) / 1e3);
      exec_ms.push_back((l.finished_us - l.started_us) / 1e3);
      busy_ms += exec_ms.back();
    }
    report.set("serve.queue_wait_p99_ms",
               tail_quantile(wait_ms, 0.99).value_or(0.0));
    report.set("serve.exec_p50_ms", median(exec_ms));
    report.set("serve.exec_p99_ms", tail_quantile(exec_ms, 0.99).value_or(0.0));
    report.set("serve.worker_busy_frac",
               busy_ms / (1e3 * open_wall * static_cast<double>(ctx.threads)));
    report.set("serve.queue_peak",
               *std::max_element(depth.begin(), depth.end()));

    // Registry deltas over the batch and open-loop phases.
    const eclp::metrics::Snapshot snap_after = registry.snapshot();
    report.set("serve.waves",
               static_cast<double>(counter(snap_after, "serve.waves") -
                                   counter(snap_before, "serve.waves")));
    auto waves = histogram(snap_after, "serve.wave_us");
    const auto waves_before = histogram(snap_before, "serve.wave_us");
    waves.count -= waves_before.count;
    for (usize b = 0; b < waves.buckets.size(); ++b) {
      waves.buckets[b] -= waves_before.buckets[b];
    }
    report.set("serve.wave_p99_ms",
               static_cast<double>(waves.quantile_floor(0.99)) / 1e3);
    const u64 pool_requests =
        after_open.graphs.requests - before_batch.graphs.requests;
    report.set("graph.pool_hit_ratio",
               pool_requests == 0
                   ? 0.0
                   : static_cast<double>(after_open.graphs.hits -
                                         before_batch.graphs.hits) /
                         static_cast<double>(pool_requests));
    report.set("graph.pool_evictions",
               static_cast<double>(after_open.graphs.evictions -
                                   before_batch.graphs.evictions));
  }
}

}  // namespace perfbench
