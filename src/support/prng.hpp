// Deterministic pseudo-random number generation.
//
// All randomness in the library (graph generation, scheduler interleavings)
// flows through these generators so every experiment is reproducible from a
// single seed. SplitMix64 is used for seeding/hashing; Xoshiro256** is the
// workhorse stream generator (fast, passes BigCrush, trivially copyable).
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace eclp {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used to derive independent seeds and as a stateless integer hash.
constexpr u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = u64;

  explicit Rng(u64 seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  /// Re-seed the full 256-bit state from one 64-bit seed via SplitMix64.
  void reseed(u64 seed) {
    u64 x = seed;
    for (auto& word : state_) {
      x = splitmix64(x);
      word = x;
    }
    // Xoshiro must not start from the all-zero state.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
      state_[0] = 1;
    }
  }

  /// The first operator()() output of Rng(seed), computed without
  /// building the state: it reads only state word 1, the second
  /// SplitMix64 step of the seed.
  static constexpr u64 first_output(u64 seed) {
    return rotl(splitmix64(splitmix64(seed)) * 5, 7) * 9;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~u64{0}; }

  result_type operator()() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction
  /// with rejection to avoid modulo bias. Hot path (one call per shuffled
  /// element): the precondition is an ECLP_ASSERT, stripped in bench builds.
  u64 below(u64 bound) {
    ECLP_ASSERT(bound > 0);
    // 128-bit multiply-high reduction.
    u64 x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    u64 lo = static_cast<u64>(m);
    if (lo < bound) {
      const u64 threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<u64>(m);
      }
    }
    return static_cast<u64>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi) {
    ECLP_ASSERT(lo <= hi);
    return lo + static_cast<i64>(below(static_cast<u64>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double unit() {
    // 53 high bits -> [0,1) with full double precision.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return unit() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (usize i = v.size(); i > 1; --i) {
      const usize j = static_cast<usize>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<u32> permutation(u32 n) {
    std::vector<u32> p(n);
    for (u32 i = 0; i < n; ++i) p[i] = i;
    shuffle(p);
    return p;
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

}  // namespace eclp
