#include "sim/rng.hpp"

#include <cassert>
#include <cmath>

namespace mobidist::sim {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // The state is the first four outputs of a splitmix64 stream.
  for (auto& word : s_) {
    word = splitmix64(seed);
    seed += kSplitmixGamma;
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire-style rejection: discard the biased low zone.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0);
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Rng Rng::split() noexcept {
  return Rng(next());
}

ZipfTable::ZipfTable(std::uint64_t n, double s) {
  assert(n > 0);
  weights_.reserve(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    weights_.push_back(1.0 / std::pow(static_cast<double>(r + 1), s));
    total_ += weights_.back();
  }
}

std::uint64_t ZipfTable::draw(Rng& rng) const noexcept {
  if (weights_.size() == 1) return 0;
  // Inverse-CDF over the harmonic weights; n is a cell or host count, so
  // the linear scan is fine.
  double target = rng.uniform01() * total_;
  for (std::uint64_t r = 0; r < weights_.size(); ++r) {
    target -= weights_[r];
    if (target <= 0.0) return r;
  }
  return weights_.size() - 1;
}

}  // namespace mobidist::sim
