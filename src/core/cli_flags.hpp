#pragma once

// Numeric settings of the command-line tools and the benches: a flag's
// value, or an environment variable such as MOBIDIST_JOBS. A value is
// read as one whole token and checked against its range; anything else —
// a sign on a count, trailing text ("1e6" for an integer), a value out of
// range — throws std::invalid_argument naming the setting, and the
// program prints the error and exits 1 instead of running on a wrapped or
// defaulted number.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mobidist::core {

/// The most workers mobidist_sweep's --jobs and the benches'
/// MOBIDIST_JOBS accept (0 means hardware concurrency).
inline constexpr std::uint64_t kMaxJobs = 1024;

/// `text` as an unsigned decimal integer in [0, max].
inline std::uint64_t uint_flag(std::string_view flag, std::string_view text,
                               std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc{} || ptr != last || value > max) {
    throw std::invalid_argument(std::string(flag) + " needs an integer in [0, " +
                                std::to_string(max) + "], got '" + std::string(text) +
                                "'");
  }
  return value;
}

/// `text` as a finite real number >= 0.
inline double real_flag(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc{} || ptr != last || !std::isfinite(value) ||
      value < 0.0) {
    throw std::invalid_argument(std::string(flag) + " needs a finite number >= 0, got '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace mobidist::core
