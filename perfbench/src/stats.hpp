// Order statistics for the benchmark's reports.
#pragma once

#include <optional>
#include <vector>

#include "support/types.hpp"

namespace perfbench {

using eclp::usize;

/// Median of the samples (mean of the middle two for even counts); 0 for
/// an empty list.
double median(std::vector<double> v);

/// Nearest-rank quantile: the sample at rank ceil(q * n). Nullopt when
/// fewer than `min_beyond` samples lie above that rank, so a tail
/// percentile is only reported when it rests on enough samples (p99 needs
/// at least 1000 samples for 10 beyond it).
std::optional<double> tail_quantile(std::vector<double> v, double q,
                                    usize min_beyond = 10);

/// Sum over items of each item's median sample. Timing every item of a
/// fixed work list on every pass and summing the per-item medians leaves
/// out a burst of host noise that slowed a few items of one pass.
double sum_of_medians(const std::vector<std::vector<double>>& per_item);

}  // namespace perfbench
