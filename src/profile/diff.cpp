#include "profile/diff.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace eclp::profile {

namespace {

/// Fetch doc[path...] asserting presence; used by the validator so every
/// failure names the offending field.
const json::Value& require_member(const json::Value& obj, const char* key,
                                  const char* where) {
  const json::Value* v = obj.find(key);
  ECLP_CHECK_MSG(v != nullptr, "profile: missing '" << where << "." << key
                                                    << "'");
  return *v;
}

void require_number(const json::Value& obj, const char* key,
                    const char* where) {
  ECLP_CHECK_MSG(require_member(obj, key, where).is_number(),
                 "profile: '" << where << "." << key << "' must be a number");
}

void require_string(const json::Value& obj, const char* key,
                    const char* where) {
  ECLP_CHECK_MSG(require_member(obj, key, where).is_string(),
                 "profile: '" << where << "." << key << "' must be a string");
}

/// Name-keyed map of the "kernels" array.
std::map<std::string, const json::Value*> kernels_by_name(
    const json::Value& doc) {
  std::map<std::string, const json::Value*> out;
  for (const json::Value& k : doc.at("kernels").items()) {
    out.emplace(k.at("name").as_string(), &k);
  }
  return out;
}

}  // namespace

const char* diff_status_name(DiffStatus status) {
  switch (status) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kImproved: return "improved";
    case DiffStatus::kRegressed: return "REGRESSED";
    case DiffStatus::kAdded: return "added";
    case DiffStatus::kRemoved: return "removed";
  }
  return "unknown";
}

void DiffReport::gate(std::string metric, double base, double cand,
                      double tol_pct) {
  DiffEntry e;
  e.metric = std::move(metric);
  e.base = base;
  e.cand = cand;
  e.delta_pct = base == 0.0 ? 0.0 : (cand - base) / base * 100.0;
  if (cand > base) {
    const bool within =
        std::isinf(tol_pct) || (base != 0.0 && e.delta_pct <= tol_pct);
    e.status = within ? DiffStatus::kOk : DiffStatus::kRegressed;
  } else if (cand < base) {
    e.status = DiffStatus::kImproved;
  }
  entries.push_back(std::move(e));
}

void DiffReport::gate_members(
    const std::string& prefix, const std::string& suffix,
    const json::Value& base, const json::Value& cand,
    const std::function<double(const json::Value&)>& value,
    const std::function<double(const std::string&)>& tol_pct) {
  std::map<std::string, std::pair<const json::Value*, const json::Value*>>
      sides;
  for (const auto& [name, v] : base.members()) sides[name].first = &v;
  for (const auto& [name, v] : cand.members()) sides[name].second = &v;
  for (const auto& [name, pair] : sides) {
    const auto& [b, c] = pair;
    if (b == nullptr) {
      entries.push_back({prefix + name, 0.0, value(*c), 0.0,
                         DiffStatus::kAdded});
    } else if (c == nullptr) {
      entries.push_back({prefix + name, value(*b), 0.0, 0.0,
                         DiffStatus::kRemoved});
    } else {
      gate(prefix + name + suffix, value(*b), value(*c), tol_pct(name));
    }
  }
}

u32 DiffReport::regressions() const {
  u32 n = 0;
  for (const DiffEntry& e : entries) {
    if (e.status == DiffStatus::kRegressed) ++n;
  }
  return n;
}

std::string DiffReport::to_string(bool all) const {
  std::string out;
  char line[256];
  for (const DiffEntry& e : entries) {
    if (!all && e.status == DiffStatus::kOk) continue;
    // Growth from zero and a metric missing from the candidate have no
    // percentage.
    char delta[32] = "new";
    if (e.status == DiffStatus::kRemoved) {
      std::snprintf(delta, sizeof(delta), "gone");
    } else if (e.base != 0.0 || e.cand <= 0.0) {
      std::snprintf(delta, sizeof(delta), "%+.2f%%", e.delta_pct);
    }
    std::snprintf(line, sizeof(line), "%-10s %-48s %14.0f -> %14.0f (%s)\n",
                  diff_status_name(e.status), e.metric.c_str(), e.base, e.cand,
                  delta);
    out += line;
  }
  const u32 n = regressions();
  std::snprintf(line, sizeof(line), "%u regression%s\n", n, n == 1 ? "" : "s");
  out += line;
  return out;
}

void validate_profile(const json::Value& doc) {
  ECLP_CHECK_MSG(doc.is_object(), "profile: document must be an object");
  require_string(doc, "schema", "$");
  ECLP_CHECK_MSG(doc.at("schema").as_string() == "eclp.profile",
                 "profile: schema tag is '" << doc.at("schema").as_string()
                                            << "', expected 'eclp.profile'");
  require_number(doc, "version", "$");
  ECLP_CHECK_MSG(doc.at("version").as_u64() == 1,
                 "profile: unsupported version " << doc.at("version").as_u64());

  ECLP_CHECK_MSG(require_member(doc, "meta", "$").is_object(),
                 "profile: 'meta' must be an object");
  for (const auto& [key, value] : doc.at("meta").members()) {
    ECLP_CHECK_MSG(value.is_string(),
                   "profile: 'meta." << key << "' must be a string");
  }

  const json::Value& totals = require_member(doc, "totals", "$");
  ECLP_CHECK_MSG(totals.is_object(), "profile: 'totals' must be an object");
  require_number(totals, "modeled_cycles", "totals");
  require_number(totals, "launches", "totals");
  require_number(totals, "atomics", "totals");
  require_number(totals, "spans", "totals");

  const json::Value& spans = require_member(doc, "spans", "$");
  ECLP_CHECK_MSG(spans.is_array(), "profile: 'spans' must be an array");
  ECLP_CHECK_MSG(spans.items().size() == totals.at("spans").as_u64(),
                 "profile: totals.spans says "
                     << totals.at("spans").as_u64() << " but 'spans' holds "
                     << spans.items().size());
  for (const json::Value& s : spans.items()) {
    ECLP_CHECK_MSG(s.is_object(), "profile: span entries must be objects");
    require_number(s, "id", "spans[]");
    require_number(s, "parent", "spans[]");
    require_string(s, "kind", "spans[]");
    require_string(s, "name", "spans[]");
    require_number(s, "start_cycles", "spans[]");
    require_number(s, "cycles", "spans[]");
    const std::string& kind = s.at("kind").as_string();
    ECLP_CHECK_MSG(kind == "algorithm" || kind == "phase" ||
                       kind == "iteration" || kind == "operator" ||
                       kind == "kernel",
                   "profile: unknown span kind '" << kind << "'");
    const double parent = s.at("parent").as_number();
    ECLP_CHECK_MSG(parent >= -1.0 && parent < s.at("id").as_number(),
                   "profile: span " << s.at("id").as_number()
                                    << " has invalid parent " << parent);
  }

  const json::Value& kernels = require_member(doc, "kernels", "$");
  ECLP_CHECK_MSG(kernels.is_array(), "profile: 'kernels' must be an array");
  for (const json::Value& k : kernels.items()) {
    ECLP_CHECK_MSG(k.is_object(), "profile: kernel entries must be objects");
    require_string(k, "name", "kernels[]");
    require_number(k, "launches", "kernels[]");
    require_number(k, "modeled_cycles", "kernels[]");
    require_number(k, "atomics", "kernels[]");
  }

  const json::Value& counters = require_member(doc, "counters", "$");
  ECLP_CHECK_MSG(counters.is_object(), "profile: 'counters' must be an object");
  for (const auto& [key, value] : counters.members()) {
    ECLP_CHECK_MSG(value.is_number(),
                   "profile: 'counters." << key << "' must be a number");
  }

  const json::Value& workers = require_member(doc, "workers", "$");
  ECLP_CHECK_MSG(workers.is_array(), "profile: 'workers' must be an array");
  for (const json::Value& w : workers.items()) {
    ECLP_CHECK_MSG(w.is_object(), "profile: worker entries must be objects");
    require_number(w, "worker", "workers[]");
    require_number(w, "busy_ns", "workers[]");
  }
}

DiffReport diff_profiles(const json::Value& base, const json::Value& cand,
                         const DiffOptions& options) {
  validate_profile(base);
  validate_profile(cand);
  DiffReport report;

  const json::Value& bt = base.at("totals");
  const json::Value& ct = cand.at("totals");
  report.gate("totals/modeled_cycles", bt.at("modeled_cycles").as_number(),
              ct.at("modeled_cycles").as_number(),
              options.cycle_tolerance_pct);
  report.gate("totals/launches", bt.at("launches").as_number(),
              ct.at("launches").as_number(), options.counter_tolerance_pct);
  report.gate("totals/atomics", bt.at("atomics").as_number(),
              ct.at("atomics").as_number(), options.counter_tolerance_pct);

  const auto base_kernels = kernels_by_name(base);
  const auto cand_kernels = kernels_by_name(cand);
  for (const auto& [name, bk] : base_kernels) {
    const auto it = cand_kernels.find(name);
    if (it == cand_kernels.end()) {
      report.entries.push_back({"kernel/" + name,
                                bk->at("modeled_cycles").as_number(), 0.0, 0.0,
                                DiffStatus::kRemoved});
      continue;
    }
    const json::Value& ck = *it->second;
    report.gate("kernel/" + name + "/modeled_cycles",
                bk->at("modeled_cycles").as_number(),
                ck.at("modeled_cycles").as_number(),
                options.cycle_tolerance_pct);
    report.gate("kernel/" + name + "/launches", bk->at("launches").as_number(),
                ck.at("launches").as_number(), options.counter_tolerance_pct);
    report.gate("kernel/" + name + "/atomics", bk->at("atomics").as_number(),
                ck.at("atomics").as_number(), options.counter_tolerance_pct);
    // Modeled-LLC misses are optional (emitted only when the cache
    // classified something); gate them whenever either side recorded any,
    // treating the absent side as zero. Hits are informational — more hits
    // are not a regression — so only misses are gated per kernel.
    const json::Value* bm = bk->find("llc_misses");
    const json::Value* cm = ck.find("llc_misses");
    if (bm != nullptr || cm != nullptr) {
      report.gate("kernel/" + name + "/llc_misses",
                  bm == nullptr ? 0.0 : bm->as_number(),
                  cm == nullptr ? 0.0 : cm->as_number(),
                  options.counter_tolerance_pct);
    }
  }
  for (const auto& [name, ck] : cand_kernels) {
    if (base_kernels.count(name) == 0) {
      report.entries.push_back({"kernel/" + name, 0.0,
                                ck->at("modeled_cycles").as_number(), 0.0,
                                DiffStatus::kAdded});
    }
  }

  // llc.hits is informational: hit growth usually means *better* locality
  // (llc.misses carries the regression gate), so it is reported under an
  // infinite tolerance, never gated.
  report.gate_members(
      "counter/", "", base.at("counters"), cand.at("counters"),
      [](const json::Value& v) { return v.as_number(); },
      [&](const std::string& name) {
        return name == "llc.hits" ? std::numeric_limits<double>::infinity()
                                  : options.counter_tolerance_pct;
      });

  return report;
}

}  // namespace eclp::profile
