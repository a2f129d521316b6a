#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "cost/cost_model.hpp"
#include "exp/json.hpp"
#include "fault/fault_plane.hpp"
#include "mobility/mobility_model.hpp"
#include "net/network.hpp"

namespace mobidist::exp {

/// Declarative description of one simulated run: everything the
/// experiment runner needs to build a Network, attach an algorithm
/// workload, drive it, and meter the result. A spec is a pure value —
/// constructible in code, loadable from a small JSON file, and cheap to
/// copy per grid cell.
struct ScenarioSpec {
  std::string name = "scenario";  ///< artifact / display name
  std::string workload = "mutex";  ///< registered workload kind (see runner.hpp)
  std::string variant = "l2";      ///< workload-specific algorithm variant

  net::NetConfig net;        ///< topology, latencies, search mode; seed is per-run
  cost::CostParams cost;     ///< constants the ledger is totalled under
  fault::FaultProfile fault; ///< installed only when non-trivial

  bool mobility = false;             ///< drive background mobility?
  mobility::MobilityConfig mob;      ///< the model; group workloads use it even when off

  /// Free-form numeric workload knobs ("requests", "messages", ...).
  /// Each workload reads the keys it knows with param(); nothing checks
  /// the rest, so a misspelled key ("requets") is ignored and its knob
  /// keeps its default.
  std::map<std::string, double, std::less<>> params;

  /// The param named `key`; `fallback` when it is not set.
  [[nodiscard]] double param(std::string_view key, double fallback) const;
  /// param() for counts: throws std::runtime_error unless the set value
  /// is a non-negative integer.
  [[nodiscard]] std::uint64_t param_u64(std::string_view key, std::uint64_t fallback) const;

  /// True when the fault profile would perturb the run (mirrors
  /// FaultProfile::trivial(), which the runner uses to decide whether to
  /// install a plane at all).
  [[nodiscard]] bool has_faults() const noexcept { return !fault.trivial(); }
};

/// Set one field by dotted path ("topology.num_mh", "latency.wired_min",
/// "cost.c_search", "fault.wireless_loss", "mobility.mean_pause",
/// "params.requests", "variant", ...). Throws std::runtime_error on an
/// unknown path or a value of the wrong type. This is the single
/// override mechanism shared by scenario-file parsing and sweep axes.
void apply_override(ScenarioSpec& spec, std::string_view key, const json::Value& value);

/// Build a spec from a parsed scenario document. Unknown keys throw (so
/// a misspelled field fails loudly); the "sweep" member is ignored here
/// (see sweep.hpp). Structured fault members ("fault.crashes",
/// "fault.partitions") are parsed from arrays of objects.
[[nodiscard]] ScenarioSpec scenario_from_json(const json::Value& doc);

/// Convenience: parse `text` and build the spec; throws on syntax errors.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);

/// Deterministic JSON rendering of a spec (name-ordered, fixed floating
/// precision) for embedding in artifacts.
[[nodiscard]] std::string to_json(const ScenarioSpec& spec);

}  // namespace mobidist::exp
