#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mobidist::sim {

/// Deterministic xoshiro256** PRNG (Blackman & Vigna).
///
/// Used instead of std::mt19937 so that simulation results are
/// reproducible across standard libraries and platforms. Seeding goes
/// through splitmix64, so any 64-bit seed (including 0) is safe.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling, so the distribution is exactly uniform.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Fork an independent, deterministic child stream. Children of the
  /// same parent are distinct; the parent advances one step per spawn.
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Zipf distribution over ranks [0, n): rank r has weight 1/(r+1)^s.
/// The weights are computed once per table, so a draw costs one
/// uniform01() and an inverse-CDF scan. Used by the hotspot and
/// commuter mobility models.
class ZipfTable {
 public:
  /// Requires n > 0.
  ZipfTable(std::uint64_t n, double s);

  /// One rank drawn from `rng`; draws nothing when n == 1.
  [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept;

 private:
  std::vector<double> weights_;
  double total_ = 0.0;
};

}  // namespace mobidist::sim
