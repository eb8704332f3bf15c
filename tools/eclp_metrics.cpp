// eclp-metrics — render and gate eclp.metrics telemetry snapshots.
//
//   $ eclp-metrics --check metrics.jsonl
//       validate every snapshot line against the eclp.metrics v1 schema
//   $ eclp-metrics metrics.jsonl
//       render the last snapshot as counter/gauge/histogram tables
//   $ eclp-metrics base.jsonl candidate.jsonl
//       compare the last snapshots; exit 1 when the candidate regresses
//       beyond tolerance (see --counter-tol / --latency-tol)
//
// The gated set is deliberately small — the metrics whose growth means the
// serving layer got *worse*, not just busier: the serve.failed /
// serve.rejected / pool.misses / pool.evictions counters (relative to
// serve.submitted where that makes sense would be nicer, but absolute
// growth with a percent tolerance matches the eclp-profile-diff
// convention) and every latency histogram's p99. Throughput-shaped
// counters (submitted, completed, waves, hits) are reported, never gated.
//
// Exit codes: 0 ok, 1 regressions found, 2 usage/IO/validation error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/telemetry.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace eclp;

namespace {

/// Parse a metrics JSONL file, validating every line; returns the
/// snapshots in file order. Throws CheckFailure on IO/parse/schema errors.
std::vector<json::Value> load_snapshots(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ECLP_CHECK_MSG(static_cast<bool>(in), "cannot open '" << path << "'");
  std::vector<json::Value> snapshots;
  std::string line;
  usize line_no = 0;
  while (std::getline(in, line)) {
    line_no++;
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::Value::parse(line);
      serve::validate_metrics_snapshot(doc);
    } catch (const CheckFailure& e) {
      throw CheckFailure(path + ":" + std::to_string(line_no) + ": " +
                         e.what());
    }
    snapshots.push_back(std::move(doc));
  }
  ECLP_CHECK_MSG(!snapshots.empty(), path << " contains no snapshots");
  return snapshots;
}

void render(const json::Value& snap) {
  std::printf("snapshot seq %llu\n",
              static_cast<unsigned long long>(snap.at("seq").as_u64()));
  Table counters("counters");
  counters.set_header({"name", "value"});
  for (const auto& [name, value] : snap.at("counters").members()) {
    counters.add_row({name, fmt::grouped(value.as_u64())});
  }
  if (counters.rows() > 0) std::printf("%s", counters.to_text().c_str());
  Table gauges("gauges");
  gauges.set_header({"name", "value"});
  for (const auto& [name, value] : snap.at("gauges").members()) {
    gauges.add_row({name, fmt::grouped(value.as_u64())});
  }
  if (gauges.rows() > 0) std::printf("%s", gauges.to_text().c_str());
  Table hists("histograms");
  hists.set_header({"name", "count", "sum", "mean", "p50", "p90", "p99"});
  for (const auto& [name, h] : snap.at("histograms").members()) {
    const u64 count = h.at("count").as_u64();
    const u64 sum = h.at("sum").as_u64();
    const double mean =
        count == 0 ? 0.0
                   : static_cast<double>(sum) / static_cast<double>(count);
    hists.add_row({name, fmt::grouped(count), fmt::grouped(sum),
                   fmt::fixed(mean, 1), fmt::grouped(h.at("p50").as_u64()),
                   fmt::grouped(h.at("p90").as_u64()),
                   fmt::grouped(h.at("p99").as_u64())});
  }
  if (hists.rows() > 0) std::printf("%s", hists.to_text().c_str());
}

u64 counter_or_zero(const json::Value& snap, const std::string& name) {
  const json::Value* v = snap.at("counters").find(name);
  return v == nullptr ? 0 : v->as_u64();
}

/// Percent growth of candidate over base; a zero base with a nonzero
/// candidate is unbounded growth (reported as such, always over tolerance).
double growth_pct(u64 base, u64 cand) {
  if (base == 0) return cand == 0 ? 0.0 : 1e9;
  return 100.0 * (static_cast<double>(cand) - static_cast<double>(base)) /
         static_cast<double>(base);
}

int diff(const json::Value& base, const json::Value& cand,
         double counter_tol, double latency_tol) {
  usize regressions = 0;
  const auto gate = [&](const std::string& what, u64 b, u64 c, double tol) {
    const double pct = growth_pct(b, c);
    const bool bad = pct > tol;
    if (bad) regressions++;
    std::printf("  %-28s %12llu -> %-12llu %s%s\n", what.c_str(),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(c),
                b == 0 && c != 0 ? "new" : fmt::signed_pct(pct).c_str(),
                bad ? "  REGRESSION" : "");
  };
  std::printf("gated counters (tolerance %+.1f%%):\n", counter_tol);
  for (const char* name :
       {"serve.failed", "serve.rejected", "pool.misses", "pool.evictions"}) {
    gate(name, counter_or_zero(base, name), counter_or_zero(cand, name),
         counter_tol);
  }
  std::printf("latency p99 (tolerance %+.1f%%):\n", latency_tol);
  for (const auto& [name, h] : cand.at("histograms").members()) {
    const json::Value* bh = base.at("histograms").find(name);
    if (bh == nullptr) continue;  // new histogram: nothing to regress from
    gate(name + " p99", bh->at("p99").as_u64(), h.at("p99").as_u64(),
         latency_tol);
  }
  if (regressions == 0) {
    std::printf("no regressions\n");
    return 0;
  }
  std::printf("%zu regression%s\n", regressions,
              regressions == 1 ? "" : "s");
  return 1;
}

}  // namespace

static int run(int argc, char** argv) {
  Cli cli;
  cli.add_option("check",
                 "validate every snapshot in this JSONL file and exit", "");
  cli.add_option("counter-tol",
                 "allowed growth of gated failure/miss counters, percent",
                 "0");
  cli.add_option("latency-tol",
                 "allowed growth of histogram p99s, percent", "10");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("usage: eclp-metrics <metrics.jsonl>\n"
                "       eclp-metrics <base.jsonl> <candidate.jsonl>\n"
                "       eclp-metrics --check <metrics.jsonl>\n\n%s",
                cli.usage("eclp-metrics").c_str());
    return 0;
  }

  if (!cli.get("check").empty()) {
    const auto snapshots = load_snapshots(cli.get("check"));
    std::printf("%s: %zu valid eclp.metrics snapshot%s\n",
                cli.get("check").c_str(), snapshots.size(),
                snapshots.size() == 1 ? "" : "s");
    return 0;
  }

  const auto& files = cli.positional();
  if (files.size() == 1) {
    render(load_snapshots(files[0]).back());
    return 0;
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: eclp-metrics <metrics.jsonl> | <base.jsonl> "
                 "<cand.jsonl> | --check <metrics.jsonl>\n");
    return 2;
  }
  return diff(load_snapshots(files[0]).back(),
              load_snapshots(files[1]).back(),
              cli.get_double("counter-tol"), cli.get_double("latency-tol"));
}

ECLP_TOOL_MAIN("eclp-metrics", run)
