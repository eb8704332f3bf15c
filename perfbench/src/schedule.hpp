// Seeded open-loop arrival schedule.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace perfbench {

/// Due times, in seconds from the start of the phase, of `n` requests
/// arriving as a Poisson process at `rate` per second. A pure function of
/// (seed, n, rate).
std::vector<double> arrival_schedule(eclp::u64 seed, eclp::usize n,
                                     double rate);

/// Derive an independent sub-seed for one use of the workload seed.
eclp::u64 sub_seed(eclp::u64 seed, eclp::u64 purpose);

}  // namespace perfbench
