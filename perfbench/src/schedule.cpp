#include "schedule.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/prng.hpp"

namespace perfbench {

std::vector<double> arrival_schedule(eclp::u64 seed, eclp::usize n,
                                     double rate) {
  ECLP_CHECK_MSG(rate > 0.0, "arrival rate must be positive");
  eclp::Rng rng(sub_seed(seed, 0xa77));
  std::vector<double> due(n);
  double t = 0.0;
  for (double& d : due) {
    d = t;
    // Exponential gap; 1 - unit() lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.unit()) / rate;
  }
  return due;
}

eclp::u64 sub_seed(eclp::u64 seed, eclp::u64 purpose) {
  return eclp::splitmix64(eclp::splitmix64(seed) ^ purpose);
}

}  // namespace perfbench
