// Metric definitions and the run's printed result.
//
// The end-to-end and per-layer metric lists are read from BENCHMARK.json.
// An untraced run prints every end-to-end metric, a traced run every
// per-layer metric; a per-layer metric the workload does not exercise
// reads 0.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "support/json.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

struct MetricLists {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

/// The "end_to_end" and "per_layer" lists of a BENCHMARK.json file
/// (CHECK-fails when it cannot be read or parsed).
MetricLists load_metric_lists(const std::string& manifest_path);

/// Shortest decimal that reads back as the same double.
std::string format_number(double v);

class Report {
 public:
  explicit Report(MetricLists metrics) : metrics_(std::move(metrics)) {}

  /// Set a declared metric (CHECK-fails on an undeclared name).
  void set(const std::string& name, double value);
  /// Add to a declared metric.
  void add(const std::string& name, double value);
  double get(const std::string& name) const;
  /// A figure printed for people only, outside the result object.
  void note(const std::string& name, double value, const std::string& unit);

  /// Human-readable lines: the metrics of this mode, then the notes.
  std::string human(bool traced) const;
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_line(const Checks& checks, bool traced) const;

 private:
  bool declared(const std::string& name) const;
  const std::vector<MetricDef>& of_mode(bool traced) const {
    return traced ? metrics_.per_layer : metrics_.end_to_end;
  }

  MetricLists metrics_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> notes_;
};

}  // namespace perfbench
