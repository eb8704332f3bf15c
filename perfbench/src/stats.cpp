#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_quantile(std::vector<double> v, double q,
                                    usize min_beyond) {
  const usize n = v.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps q * n == 990.0000000000001 at rank 990.
  const auto rank = static_cast<usize>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - std::min(rank, n) < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double sum_of_medians(const std::vector<std::vector<double>>& per_item) {
  double sum = 0.0;
  for (const std::vector<double>& v : per_item) sum += median(v);
  return sum;
}

}  // namespace perfbench
