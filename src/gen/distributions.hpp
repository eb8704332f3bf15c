// Distribution kernels shared by the materializing generators
// (generators.cpp) and their chunked streaming ports (stream.hpp). One
// definition keeps the two paths sampling identical distributions even
// though their RNG streams differ (sequential vs. per-block seeding).
#pragma once

#include <cmath>
#include <utility>

#include "support/prng.hpp"
#include "support/types.hpp"

namespace eclp::gen {

/// RMAT edge sampler for a 2^scale x 2^scale adjacency matrix: descend
/// the matrix one bit per level, picking a quadrant with probabilities
/// (a, b, c, 1-a-b-c) from one Rng draw per level.
///
/// The quadrant choice is the compare chain `r < a`, `r < a+b`,
/// `r < a+b+c` on r = rng.unit(), done in integers: unit() is k * 2^-53
/// with k = draw >> 11, and for any double p, `k * 2^-53 < p` holds
/// exactly when `k < ceil(p * 2^53)`. The thresholds use the same double
/// sums as the chain, so every draw picks the same quadrant and the edge
/// sequence is unchanged; the integer compares let each level pick its
/// two bits without branches.
class RmatSampler {
 public:
  RmatSampler(u32 scale, double a, double b, double c)
      : scale_(scale),
        t_a_(threshold(a)),
        t_ab_(threshold(a + b)),
        t_abc_(threshold(a + b + c)) {
    ECLP_CHECK(a >= 0 && b >= 0 && c >= 0);
  }

  /// One edge from `gen`'s next `scale` 64-bit draws (Gen is Rng, or a
  /// scripted word source in tests).
  template <typename Gen>
  std::pair<vidx, vidx> operator()(Gen& gen) const {
    vidx u = 0, v = 0;
    for (u32 bit = 0; bit < scale_; ++bit) {
      const u64 k = gen() >> 11;
      const vidx ge_a = k >= t_a_;
      const vidx ge_ab = k >= t_ab_;
      const vidx ge_abc = k >= t_abc_;
      // Quadrants in threshold order: 00, 01, 10, 11 (u bit, v bit).
      u = (u << 1) | ge_ab;
      v = (v << 1) | (ge_a ^ ge_ab ^ ge_abc);
    }
    return {u, v};
  }

  /// ceil(p * 2^53), clamped to [0, 2^53]: the smallest k with
  /// k * 2^-53 >= p. Scaling by a power of two is exact in doubles.
  static u64 threshold(double p) {
    constexpr double kOne = 0x1.0p53;
    if (!(p > 0)) return 0;
    if (p >= 1) return u64{1} << 53;
    return static_cast<u64>(std::ceil(p * kOne));
  }

 private:
  u32 scale_;
  u64 t_a_, t_ab_, t_abc_;
};

}  // namespace eclp::gen
