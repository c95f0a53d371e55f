// Deterministic, fast pseudo-random number generation.
//
// mlqr experiments must be reproducible run-to-run, so every stochastic
// component receives an Rng seeded from the experiment configuration rather
// than from global state. The generator is xoshiro256++ (Blackman/Vigna),
// seeded through SplitMix64 so correlated small seeds still decorrelate.
#pragma once

#include <cstdint>
#include <vector>

namespace mlqr {

/// xoshiro256++ PRNG with convenience samplers for the distributions used
/// across the simulator and trainers. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Raw 64 bits.
  std::uint64_t operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n) — n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed waiting time with the given rate (>0).
  double exponential(double rate);

  /// Fisher–Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t next();

  std::uint64_t s_[4]{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mlqr
