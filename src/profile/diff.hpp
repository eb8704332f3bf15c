// Run-to-run regression gating over eclp.profile documents.
//
// eclp_profile_diff (tools/) compares a candidate profile against a
// baseline per-kernel and per-counter, with configurable tolerances, and
// exits non-zero on regression. The comparison itself lives here as a
// library so tests can gate without spawning processes. DiffReport::gate
// is the one tolerance rule of the tree: eclp-metrics gates telemetry
// snapshots through it too (serve::diff_metrics_snapshots).
//
// What is gated (all purely modeled, so bit-stable across machines and
// sim-thread counts — wall_ns and workers are deliberately ignored):
//  * totals.modeled_cycles and per-kernel modeled_cycles, against
//    cycle_tolerance_pct;
//  * totals.atomics, per-kernel atomics, and every entry of "counters"
//    except llc.hits, against counter_tolerance_pct (default 0: counters
//    are deterministic, any growth is a real behavior change);
//  * llc.hits is reported but never gated: more hits usually mean better
//    locality, and llc.misses carries the gate;
//  * kernels/counters present only on one side are reported as added /
//    removed — informational, never a regression by themselves (renames
//    and phase restructuring should not fail the gate; their cost shows
//    up in the totals).
// Decreases are reported as improvements and never fail the gate. Growth
// from a zero baseline has no percentage, so it regresses at any finite
// tolerance and is listed as "new".
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/types.hpp"

namespace eclp::profile {

struct DiffOptions {
  /// Allowed growth of modeled-cycle metrics, in percent.
  double cycle_tolerance_pct = 2.0;
  /// Allowed growth of event-count metrics (atomics, counters, launches),
  /// in percent. Zero by default: modeled counts are deterministic.
  double counter_tolerance_pct = 0.0;
};

enum class DiffStatus : u8 {
  kOk,        ///< within tolerance (including unchanged)
  kImproved,  ///< decreased — reported, never gated
  kRegressed, ///< grew beyond tolerance
  kAdded,     ///< only in the candidate (informational)
  kRemoved,   ///< only in the baseline (informational)
};
const char* diff_status_name(DiffStatus status);

struct DiffEntry {
  std::string metric;  ///< e.g. "kernel/cc_compute_low/modeled_cycles"
  double base = 0.0;
  double cand = 0.0;
  double delta_pct = 0.0;  ///< (cand - base) / base * 100; 0 when base == 0
  DiffStatus status = DiffStatus::kOk;
};

struct DiffReport {
  std::vector<DiffEntry> entries;
  /// Compare one metric and append the entry. Growth beyond `tol_pct`
  /// percent regresses; growth from a zero `base` regresses at any finite
  /// tolerance; an infinite tolerance reports without gating. Decreases
  /// are improvements.
  void gate(std::string metric, double base, double cand, double tol_pct);
  /// Compare two name-keyed objects over the union of their member names,
  /// in name order. A name on one side only is listed as added or removed
  /// under "<prefix><name>"; a name on both sides gates value(member) as
  /// "<prefix><name><suffix>" with tolerance tol_pct(name).
  void gate_members(const std::string& prefix, const std::string& suffix,
                    const json::Value& base, const json::Value& cand,
                    const std::function<double(const json::Value&)>& value,
                    const std::function<double(const std::string&)>& tol_pct);
  u32 regressions() const;
  /// Human-readable listing; `all` includes unchanged metrics.
  std::string to_string(bool all = false) const;
};

/// Structural validation of an eclp.profile document: schema tag, version,
/// required sections and their field types. Throws CheckFailure with a
/// field-path message on the first violation.
void validate_profile(const json::Value& doc);

/// Compare candidate against baseline. Both documents are validated first.
DiffReport diff_profiles(const json::Value& base, const json::Value& cand,
                         const DiffOptions& options = {});

}  // namespace eclp::profile
