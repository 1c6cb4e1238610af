#pragma once

#include <cstdint>
#include <limits>

namespace condyn {

/// SplitMix64: tiny, fast, full-period 2^64 generator. Used to seed the main
/// generator and wherever a cheap stateless hash of a counter is needed.
struct SplitMix64 {
  uint64_t state;

  explicit constexpr SplitMix64(uint64_t seed) noexcept : state(seed) {}

  constexpr uint64_t next() noexcept {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Stateless mix of a 64-bit value (SplitMix64 finalizer). Useful to derive
/// per-thread / per-item seeds from (base_seed, index).
constexpr uint64_t mix64(uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256**: the workhorse PRNG for treap priorities, graph generation
/// and workload sampling. Deterministic given the seed; not for cryptography.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256(uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() noexcept { return next(); }

  uint64_t next() noexcept {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  uint64_t next_below(uint64_t bound) noexcept {
    if (bound == 0) return 0;
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) noexcept { return next_double() < p; }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

/// Per-thread generator seeded from a global seed + thread id; declared here,
/// defined in random.cpp. Intended for contexts (e.g. treap priority draws
/// inside concurrent structures) where passing a generator through every call
/// would pollute the API.
Xoshiro256& thread_rng() noexcept;

}  // namespace condyn
