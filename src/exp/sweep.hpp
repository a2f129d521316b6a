#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/scenario.hpp"

namespace mobidist::exp {

/// One sweep dimension: a dotted ScenarioSpec path and the values it
/// takes. Values are JSON values so one axis type covers numeric knobs
/// ("topology.num_mh") and enumerations ("variant") alike.
struct SweepAxis {
  std::string key;
  std::vector<json::Value> values;

  /// An axis over numeric values.
  [[nodiscard]] static SweepAxis numbers(std::string key, std::vector<double> values);
  /// An axis over string values (variants, patterns, ...).
  [[nodiscard]] static SweepAxis strings(std::string key, std::vector<std::string> values);
};

/// Display form of an axis value ("l1", "16", "0.05"): integers render
/// without a fraction so cell names stay short and stable.
[[nodiscard]] std::string value_label(const json::Value& value);

/// Deterministic per-run seed stream: splitmix64 over (base, index).
/// Expansion derives every run's seed up front, single-threaded, so the
/// seeds — and therefore the results — cannot depend on which thread
/// later executes which run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;
/// The first `count` seeds of derive_seed(base, ·), in index order.
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t base, std::size_t count);

/// One fully resolved run: the spec with every axis override and the
/// seed applied. `cell` identifies the aggregation cell (all axes except
/// the seed), so seeds within a cell are summarized together.
struct RunPlan {
  ScenarioSpec spec;
  std::string cell;       ///< "variant=l1,topology.num_mh=16" or "base"
  std::uint64_t seed = 0; ///< == spec.net.seed
  std::size_t index = 0;  ///< position in the expanded matrix
};

/// The run matrix: a seed list crossed with zero or more spec axes.
/// Expansion order is deterministic: axes vary outermost-first in
/// declaration order, seeds innermost, so runs of one cell are adjacent.
struct SweepGrid {
  std::vector<std::uint64_t> seeds;  ///< explicit seed list (>= 1 entry)
  std::vector<SweepAxis> axes;

  /// Single-seed grid with no axes (one run).
  [[nodiscard]] static SweepGrid single(std::uint64_t seed);

  /// Cross-product expansion; throws std::runtime_error on an unknown
  /// axis key or an empty seed list / axis.
  [[nodiscard]] std::vector<RunPlan> expand(const ScenarioSpec& base) const;
};

/// Parse the "sweep" member of a scenario document:
///   "sweep": {"seeds": [1,2,3], "axes": [{"key": "...", "values": [...]}]}
/// or "seeds": {"base": 42, "count": 8} for a derived stream. A missing
/// "sweep" member yields single(base-spec seed). Throws on malformed input.
[[nodiscard]] SweepGrid sweep_from_json(const json::Value& doc, std::uint64_t default_seed);

}  // namespace mobidist::exp
