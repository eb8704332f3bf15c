#include "report.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace perfbench {

MetricLists load_metric_lists(const std::string& manifest_path) {
  std::ifstream is(manifest_path);
  ECLP_CHECK_MSG(is.good(), "cannot read " << manifest_path);
  std::stringstream text;
  text << is.rdbuf();
  const auto manifest = eclp::json::Value::parse(text.str());
  const auto list = [&](const char* key) {
    std::vector<MetricDef> defs;
    for (const auto& m : manifest.at(key).items()) {
      defs.push_back({m.at("name").as_string(), m.at("unit").as_string()});
    }
    return defs;
  };
  return {list("end_to_end"), list("per_layer")};
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool Report::declared(const std::string& name) const {
  for (const bool traced : {false, true}) {
    for (const MetricDef& d : of_mode(traced)) {
      if (d.name == name) return true;
    }
  }
  return false;
}

void Report::set(const std::string& name, double value) {
  ECLP_CHECK_MSG(declared(name), "undeclared metric " << name);
  values_[name] = value;
}

void Report::add(const std::string& name, double value) {
  ECLP_CHECK_MSG(declared(name), "undeclared metric " << name);
  values_[name] += value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, {value, unit}});
}

std::string Report::human(bool traced) const {
  std::string out;
  for (const MetricDef& d : of_mode(traced)) {
    out += "metric " + d.name + " = " + format_number(get(d.name)) + " " +
           d.unit + "\n";
  }
  // Figures of the other mode that this workload measured anyway.
  for (const MetricDef& d : of_mode(!traced)) {
    if (values_.count(d.name) != 0) {
      out += "also   " + d.name + " = " + format_number(get(d.name)) + " " +
             d.unit + "\n";
    }
  }
  for (const auto& [name, vu] : notes_) {
    out += "note   " + name + " = " + format_number(vu.first) + " " +
           vu.second + "\n";
  }
  return out;
}

std::string Report::result_line(const Checks& checks, bool traced) const {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : of_mode(traced)) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + d.name + "\": {\"value\": " + format_number(get(d.name)) +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
