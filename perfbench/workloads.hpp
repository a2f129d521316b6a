#pragma once

// The benchmark's three workloads: a scenario built from the seed, and the
// invariants a correct run's harvested metrics satisfy. README.md says
// why each was chosen and which layers it loads.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

/// A run's observables, under exp::RunResult's metric names.
using Metrics = decltype(mobidist::exp::RunResult::metrics);

/// kFull is what the benchmark measures; kTiny shrinks the same shapes
/// for the self-test.
enum class Size { kFull, kTiny };

/// One benchmark workload.
struct Workload {
  std::string_view name;
  /// The scenario for a seed; the seed is the scenario's network seed.
  mobidist::exp::ScenarioSpec (*spec)(std::uint64_t seed, Size size);
  /// The workload's invariants on a finished run: one line per violation.
  std::vector<std::string> (*check)(const mobidist::exp::ScenarioSpec& spec,
                                    const Metrics& metrics);
};

/// Every workload, in the order the benchmark lists them.
[[nodiscard]] std::span<const Workload> workloads();
/// The workload called `name`; nullptr when there is none.
[[nodiscard]] const Workload* find_workload(std::string_view name);
/// metrics[key], or 0 when the run did not record `key`.
[[nodiscard]] double metric_or_zero(const Metrics& metrics, std::string_view key);

}  // namespace perfbench
