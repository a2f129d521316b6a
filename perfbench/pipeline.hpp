#pragma once

// The benchmark's view of exp::run_scenario: the spec the runner
// resolves, its set-up on its own, and its whole call sequence with a
// span around each call into a layer.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

/// A copy of the built-in workload library whose builders also record
/// the spec exp::run_scenario hands them: the spec as the runner resolved
/// it, engine choice included. The builders hold `this`, so the object
/// neither copies nor moves.
class SpecCapture {
 public:
  SpecCapture();
  SpecCapture(const SpecCapture&) = delete;
  SpecCapture& operator=(const SpecCapture&) = delete;

  [[nodiscard]] const mobidist::exp::WorkloadLibrary& library() const noexcept {
    return library_;
  }
  /// The spec the latest run's builder received; nullopt before any run.
  [[nodiscard]] const std::optional<mobidist::exp::ScenarioSpec>& spec() const noexcept {
    return spec_;
  }

 private:
  mobidist::exp::WorkloadLibrary library_;
  std::optional<mobidist::exp::ScenarioSpec> spec_;
};

/// Host seconds of the set-up exp::run_scenario does before the
/// simulation starts: Network construction, fault-plane install, the
/// workload builder and the whole-population mobility set-up. `spec` must
/// be a resolved spec (SpecCapture::spec). Tear-down is not timed.
[[nodiscard]] double time_setup(const mobidist::exp::ScenarioSpec& spec);

/// One call into a layer, timed in seconds since the traced run began.
struct Span {
  std::string_view name;
  double begin_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double seconds() const noexcept { return end_s - begin_s; }
};

/// What one traced run recorded.
struct TracedRun {
  std::vector<Span> spans;            ///< one per layer_span_names() entry, in order
  Metrics metrics;                    ///< harvested under exp::run_scenario's names
  std::vector<std::string> failures;  ///< trace-checker violations
};

/// The names of the layer spans run_traced records, in call order.
[[nodiscard]] std::span<const std::string_view> layer_span_names();

/// exp::run_scenario's call sequence, made through each layer's public
/// API with a span around every call. `spec` must be a resolved spec.
/// Builders that register after-start hooks or a run_until horizon are
/// not supported; no benchmark workload does either.
[[nodiscard]] TracedRun run_traced(const mobidist::exp::ScenarioSpec& spec);

}  // namespace perfbench
