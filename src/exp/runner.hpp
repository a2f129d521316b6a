#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.hpp"
#include "net/network.hpp"

namespace mobidist::exp {

/// Flat numeric snapshot of one finished run. Everything the aggregator
/// summarizes is a (name, value) pair: ledger totals under the spec's
/// cost params ("cost.total", "ledger.fixed_msgs", ...), every registry
/// counter and gauge by its own name, histogram digests
/// ("<name>.mean"/".max"/".count"), scheduler and event-stream totals,
/// and the workload's own observables under "workload.*".
struct RunResult {
  std::size_t index = 0;
  std::string cell;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;  ///< checker violations or thrown setup errors
  std::map<std::string, double, std::less<>> metrics;
  /// Host wall-clock seconds spent driving the simulation (start + run;
  /// excludes setup and checker validation). Nondeterministic, so it
  /// lives outside `metrics` and never reaches the deterministic
  /// artifact body or the baseline regression gate.
  double wall_sec = 0.0;
};

/// Everything a workload builder may touch while wiring one run. The
/// builder constructs algorithm objects with emplace() (owned until the
/// harvest is done), schedules all activity through net().sched(), and
/// registers post-run observables with metric(). It must NOT call
/// Network::start()/run() — the runner owns the lifecycle.
class ScenarioContext {
 public:
  ScenarioContext(const ScenarioSpec& spec, net::Network& network)
      : spec_(spec), net_(network) {}

  /// The scenario this run was planned from.
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  /// The run's own Network, built from spec().net.
  [[nodiscard]] net::Network& net() noexcept { return net_; }

  /// Construct an object that must outlive the simulation (an algorithm,
  /// a monitor, a driver) and keep it owned by this run.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto owned = std::make_shared<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    owned_.push_back(std::move(owned));
    return ref;
  }

  /// Register a post-run observable, emitted as "workload.<name>".
  void metric(std::string name, std::function<double()> producer) {
    extras_.emplace_back(std::move(name), std::move(producer));
  }

  /// Truncate the run at virtual time `t` instead of draining the
  /// scheduler (deliberate-stall scenarios).
  void run_until(sim::SimTime t) noexcept { run_until_ = t; }

  /// Invoked by the runner right after Network::start() (mobility
  /// drivers schedule their first departures here).
  void after_start(std::function<void()> hook) { after_start_.push_back(std::move(hook)); }

  [[nodiscard]] const std::vector<std::pair<std::string, std::function<double()>>>&
  extras() const noexcept {
    return extras_;
  }

 private:
  friend RunResult run_scenario(const RunPlan& plan, const class WorkloadLibrary& workloads);

  const ScenarioSpec& spec_;
  net::Network& net_;
  std::vector<std::shared_ptr<void>> owned_;
  std::vector<std::pair<std::string, std::function<double()>>> extras_;
  std::vector<std::function<void()>> after_start_;
  sim::SimTime run_until_ = 0;  ///< 0 = drain
};

/// Named collection of workload builders — an explicit object rather
/// than a process-global registry, so concurrent runners cannot observe
/// each other's registrations.
class WorkloadLibrary {
 public:
  /// Wires one run of a workload into its ScenarioContext.
  using Builder = std::function<void(ScenarioContext&)>;

  /// All built-in workload kinds: "mutex" (l1|l2), "ring"
  /// (r1|r2|r2p|r2pp), "delivery", "relay_burst", "lazy_proxy",
  /// "multicast" (flood|search), "group" (pure_search|always_inform|
  /// location_view), "proxy_mutex" (local_mss|fixed_home|lazy_home),
  /// "scale" (echo|timers).
  [[nodiscard]] static const WorkloadLibrary& builtin();

  /// `shard_safe` marks a workload that drives only static-topology,
  /// lane-local traffic and may therefore run on the sharded engine.
  /// run_scenario() collapses NetConfig::shards to 0 (legacy) for every
  /// other workload — and for shard-safe ones combined with mobility or
  /// a fault profile — so the shards axis is a pure no-op there.
  void add(std::string name, Builder builder, bool shard_safe = false);
  /// The builder registered as `name`; nullptr when there is none.
  [[nodiscard]] const Builder* find(std::string_view name) const;
  /// True when `name` was registered shard-safe (false for unknown names).
  [[nodiscard]] bool shard_safe(std::string_view name) const;
  /// Every registered name, in name order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Entry {
    Builder builder;
    bool shard_safe = false;
  };
  std::map<std::string, Entry, std::less<>> builders_;
};

/// Execute one plan end to end: build the Network (per-run instance —
/// no state shared with any other run), install the fault plane when the
/// profile is non-trivial, invoke the workload builder, drive the
/// scheduler, gate on every obs trace checker, then harvest metrics.
/// When MOBIDIST_TRACE_DIR is set the event stream is exported as
/// TRACE_<name>_<index>_<cell>.jsonl (+ Chrome trace).
/// Never throws: failures come back as ok=false results.
[[nodiscard]] RunResult run_scenario(const RunPlan& plan,
                                     const WorkloadLibrary& workloads =
                                         WorkloadLibrary::builtin());

/// Fixed-size thread pool executing independent plans concurrently.
/// results[i] always corresponds to plans[i], and every run derives all
/// randomness from its plan's seed, so the output is a pure function of
/// the plan list — independent of `jobs` and of thread scheduling.
class ParallelRunner {
 public:
  /// Executes one plan; must be safe to call from several threads.
  using RunFn = std::function<RunResult(const RunPlan&)>;

  /// `jobs` = 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(unsigned jobs = 0);

  /// Worker threads used (at least 1).
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Run `fn` on every plan; result i belongs to plans[i].
  [[nodiscard]] std::vector<RunResult> run(const std::vector<RunPlan>& plans,
                                           const RunFn& fn) const;
  /// Convenience: run with the built-in workload library.
  [[nodiscard]] std::vector<RunResult> run(const std::vector<RunPlan>& plans) const;

 private:
  unsigned jobs_;
};

}  // namespace mobidist::exp
