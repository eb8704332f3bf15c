// huge-ingest: streamed scale=huge builds, each written to and read back
// from a fresh graph cache directory.
//
// A Kronecker graph (gen::kronecker_streamed, the kron_g500-logn21 huge
// parameterization, about 8.6e7 arcs) and a preferential-attachment graph
// (gen::preferential_attachment_streamed, the as-skitter huge
// parameterization, about 2.9e7 arcs) are built through
// graph::build_from_chunks, stored with graph::cache_store and loaded with
// graph::cache_load. No algorithm runs. Untraced and traced passes build
// from the same chunk source; the traced pass times its emits.
#include <atomic>
#include <filesystem>
#include <optional>

#include "gen/stream.hpp"
#include "graph/stream_build.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using eclp::vidx;
using eclp::graph::Csr;

/// A chunk source that times every emit as a gen span under the build
/// span and counts the edges it emits. Used by the traced pass only.
template <typename S>
class TimedSource {
 public:
  TimedSource(const S& inner, Tracer& tracer, i32 parent, u64 op,
              std::atomic<u64>& edges)
      : inner_(inner), tracer_(tracer), parent_(parent), op_(op),
        edges_(edges) {}

  vidx num_vertices() const { return inner_.num_vertices(); }
  u64 num_chunks() const { return inner_.num_chunks(); }
  u64 estimated_edges() const { return inner_.estimated_edges(); }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    const u64 start = eclp::monotonic_ns();
    u64 emitted = 0;
    inner_.emit(chunk, [&](vidx u, vidx v) {
      ++emitted;
      sink(u, v);
    });
    tracer_.record(Layer::kGen, "gen.stream_emit", start,
                   eclp::monotonic_ns(), parent_, op_);
    edges_.fetch_add(emitted, std::memory_order_relaxed);
  }

 private:
  const S& inner_;
  Tracer& tracer_;
  i32 parent_;
  u64 op_;
  std::atomic<u64>& edges_;
};

const char* const kFamilies[] = {"kron", "pa"};
/// Set-up builds each family 2^kSetupShift times smaller.
constexpr u32 kSetupShift = 3;
/// The stream identity check builds each family 2^kIdentityShift times
/// smaller.
constexpr u32 kIdentityShift = 8;

/// Call `f` with the chunk source of one family at 1/2^shift of its huge
/// size: the stream that gen::kronecker_streamed (Kronecker is RMAT with
/// a = 0.57, b = c = 0.19) or gen::preferential_attachment_streamed
/// builds for the same arguments.
template <typename F>
Csr with_stream(const std::string& family, u64 seed, u32 shift, F&& f) {
  const u64 s = sub_seed(seed, family == "kron" ? 1 : 2);
  if (family == "kron") {
    const u32 scale = 21 - shift;
    return f(eclp::gen::RmatStream(scale, u64{22} << scale, 0.57, 0.19,
                                   0.19, s));
  }
  return f(eclp::gen::PreferentialAttachmentStream(vidx{1} << (21 - shift),
                                                   7, s));
}

/// Build one family at 1/2^shift of its huge size through
/// graph::build_from_chunks under a graph.stream_build span. While `tr` is
/// enabled the source sits behind a TimedSource.
Csr build(const std::string& family, u64 seed, u32 shift, Tracer& tr,
          u64 op, std::atomic<u64>& edges) {
  return with_stream(family, seed, shift, [&](const auto& src) {
    Tracer::Scope span(tr, Layer::kGraph, "graph.stream_build", op);
    if (!tr.enabled()) return eclp::graph::build_from_chunks(src);
    return eclp::graph::build_from_chunks(
        TimedSource(src, tr, span.id(), op, edges));
  });
}

/// The same graph as build(), from the public gen:: entry point.
Csr build_public(const std::string& family, u64 seed, u32 shift) {
  const u64 s = sub_seed(seed, family == "kron" ? 1 : 2);
  const u32 scale = 21 - shift;
  return family == "kron"
             ? eclp::gen::kronecker_streamed(scale, u64{22} << scale, s)
             : eclp::gen::preferential_attachment_streamed(vidx{1} << scale,
                                                           7, s);
}

u64 csr_bytes(const Csr& g) {
  return (static_cast<u64>(g.num_vertices()) + 1 + g.num_edges()) * 4;
}

}  // namespace

void run_huge_ingest(Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tr = *ctx.tracer;
  const fs::path root = fs::path(ctx.work_dir) / "cache";

  // Store g in a fresh cache directory and load it back; true when the
  // loaded graph is byte-identical to g.
  const auto round_trip = [&](const Csr& g, const std::string& family,
                              const std::string& dir, u64 op,
                              u64* stored_bytes) {
    fs::remove_all(dir);
    eclp::graph::set_cache_dir(dir);
    eclp::graph::CacheKey key;
    key.mix("perfbench-huge").mix(family).mix_u64(ctx.seed);
    {
      Tracer::Scope s(tr, Layer::kGraph, "graph.cache_store", op);
      eclp::graph::cache_store(key, g);
    }
    *stored_bytes = file_bytes(dir + "/" + key.hex() + ".eclg");
    std::optional<Csr> loaded;
    {
      Tracer::Scope s(tr, Layer::kGraph, "graph.cache_load", op);
      loaded = eclp::graph::cache_load(key);
    }
    const bool same = loaded.has_value() && *loaded == g;
    loaded.reset();
    fs::remove_all(dir);
    eclp::graph::set_cache_dir("");
    return same;
  };

  // The measured builds stream through build_from_chunks directly (so a
  // traced pass can wrap the source); check at a small scale that they
  // build what the public gen:: entry points build.
  std::atomic<u64> edges_emitted{0};
  for (const std::string family : kFamilies) {
    ctx.checks->op(build(family, ctx.seed, kIdentityShift, tr, 0,
                         edges_emitted) ==
                       build_public(family, ctx.seed, kIdentityShift),
                   family + " stream builds the gen:: entry point's graph");
  }

  // Setup: warm the build pool, the allocator and the cache directory with
  // 1/8-scale builds of both families.
  SetupTimer setup([&] {
    for (const std::string family : kFamilies) {
      const Csr g = build(family, ctx.seed, kSetupShift, tr, 0, edges_emitted);
      u64 bytes = 0;
      ctx.checks->op(
          round_trip(g, family, (root / "setup").string(), 0, &bytes),
          "set-up round trip of " + family);
    }
  });
  setup.run(2);

  std::vector<u64> digest_arcs;
  u64 stored_bytes_total = 0;
  double rss_ratio_sum = 0.0;
  u64 pass_begin_ns = 0;
  u64 pass_end_ns = 0;
  int pass_index = 0;

  const auto pass = [&]() -> double {
    const bool traced = tr.enabled();
    stored_bytes_total = 0;
    pass_begin_ns = eclp::monotonic_ns();
    for (usize i = 0; i < std::size(kFamilies); ++i) {
      const std::string family = kFamilies[i];
      const u64 op = i + 1;
      u64 rss_before = 0;
      if (traced) {
        start_rss_window();
        rss_before = eclp::current_rss_bytes();
      }
      Csr g = build(family, ctx.seed, 0, tr, op, edges_emitted);
      if (traced) {
        const u64 peak = eclp::peak_rss_bytes();
        rss_ratio_sum += peak > rss_before
                             ? static_cast<double>(peak - rss_before) /
                                   static_cast<double>(csr_bytes(g))
                             : 0.0;
      }
      const u64 arcs = g.num_edges();
      u64 stored = 0;
      const std::string dir =
          (root / (family + std::to_string(pass_index))).string();
      bool ok = round_trip(g, family, dir, op, &stored);
      stored_bytes_total += stored;
      if (digest_arcs.size() <= i) digest_arcs.push_back(arcs);
      ok = ok && arcs == digest_arcs[i];
      ctx.checks->op(ok, family + " huge build: cache round trip "
                                  "byte-identical, arc count " +
                             std::to_string(arcs));
      g = Csr();
    }
    pass_end_ns = eclp::monotonic_ns();
    ++pass_index;
    return static_cast<double>(pass_end_ns - pass_begin_ns) / 1e9;
  };

  start_rss_window();
  const PassTimes times = run_passes(ctx, pass);

  report.set("wall_s", median(times.untraced));
  report.set("peak_rss_mb", peak_rss_mib());
  if (!ctx.traced) setup.run(2);
  report.set("setup_s", setup.median_s());
  report.note("passes", static_cast<double>(times.untraced.size()), "count");
  for (usize i = 0; i < digest_arcs.size(); ++i) {
    report.note(std::string("arcs.") + kFamilies[i],
                static_cast<double>(digest_arcs[i]), "count");
  }
  if (ctx.traced) {
    const std::vector<Span> spans = tr.spans();
    add_span_totals(report, spans);
    report.set("gen.stream_edges_emitted",
               static_cast<double>(edges_emitted.load()));
    report.set("graph.stream_rss_over_csr",
               rss_ratio_sum / static_cast<double>(std::size(kFamilies)));
    const double load_s = report.get("graph.cache_load_s");
    report.set("graph.cache_load_mb_per_s",
               load_s > 0 ? static_cast<double>(stored_bytes_total) / 1e6 /
                                load_s
                          : 0.0);
    report_overhead(report, times.traced, times.untraced.front());
    summarize_trace(ctx, spans, pass_begin_ns, pass_end_ns);
  }
}

}  // namespace perfbench
