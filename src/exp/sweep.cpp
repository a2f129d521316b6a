#include "exp/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "exp/json.hpp"
#include "sim/rng.hpp"

namespace mobidist::exp {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error("sweep: " + what); }

}  // namespace

SweepAxis SweepAxis::numbers(std::string key, std::vector<double> values) {
  SweepAxis axis;
  axis.key = std::move(key);
  axis.values.reserve(values.size());
  for (const double v : values) axis.values.emplace_back(v);
  return axis;
}

SweepAxis SweepAxis::strings(std::string key, std::vector<std::string> values) {
  SweepAxis axis;
  axis.key = std::move(key);
  axis.values.reserve(values.size());
  for (auto& v : values) axis.values.emplace_back(std::move(v));
  return axis;
}

std::string value_label(const json::Value& value) {
  switch (value.kind()) {
    case json::Value::Kind::kString: return value.as_string();
    case json::Value::Kind::kBool: return value.as_bool() ? "true" : "false";
    case json::Value::Kind::kNumber: {
      const double n = value.as_number();
      if (n == std::floor(n) && std::abs(n) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
        return buf;
      }
      // Shortest round-trip form: locale-independent, and two distinct
      // axis values can never collapse into one cell label the way
      // "%g"'s six significant digits could.
      return json::format_double(n);
    }
    default: return "?";
  }
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // Output `index` of a splitmix64 stream seeded with `base`; the mixer's
  // own gamma step keeps (base=0, index=0) away from the all-zero fixed
  // point of the finalizer.
  return sim::splitmix64(base + index * sim::kSplitmixGamma);
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(derive_seed(base, i));
  return seeds;
}

SweepGrid SweepGrid::single(std::uint64_t seed) {
  SweepGrid grid;
  grid.seeds = {seed};
  return grid;
}

std::vector<RunPlan> SweepGrid::expand(const ScenarioSpec& base) const {
  if (seeds.empty()) fail("empty seed list");
  for (const auto& axis : axes) {
    if (axis.values.empty()) fail("axis '" + axis.key + "' has no values");
  }

  // Odometer over the axes (outermost = first axis), seeds innermost.
  std::vector<RunPlan> plans;
  std::size_t cells = 1;
  for (const auto& axis : axes) cells *= axis.values.size();
  plans.reserve(cells * seeds.size());

  std::vector<std::size_t> pick(axes.size(), 0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    ScenarioSpec cell_spec = base;
    std::string cell_name;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const auto& value = axes[a].values[pick[a]];
      apply_override(cell_spec, axes[a].key, value);
      if (!cell_name.empty()) cell_name += ',';
      cell_name += axes[a].key + "=" + value_label(value);
    }
    if (cell_name.empty()) cell_name = "base";

    for (const std::uint64_t seed : seeds) {
      RunPlan plan;
      plan.spec = cell_spec;
      plan.spec.net.seed = seed;
      plan.cell = cell_name;
      plan.seed = seed;
      plan.index = plans.size();
      plans.push_back(std::move(plan));
    }

    // Advance the odometer: last axis spins fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++pick[a] < axes[a].values.size()) break;
      pick[a] = 0;
    }
  }
  return plans;
}

SweepGrid sweep_from_json(const json::Value& doc, std::uint64_t default_seed) {
  const auto* sweep = doc.find("sweep");
  if (sweep == nullptr) return SweepGrid::single(default_seed);
  if (!sweep->is_object()) fail("'sweep' must be an object");

  SweepGrid grid;
  for (const auto& [key, value] : sweep->as_object()) {
    if (key == "seeds") {
      if (value.is_array()) {
        for (const auto& seed : value.as_array()) {
          const auto exact = seed.as_u64();
          if (!exact) fail("'sweep.seeds' entries must be integers in [0, 2^64)");
          grid.seeds.push_back(*exact);
        }
      } else if (value.is_object()) {
        const auto* base = value.find("base");
        const auto* count = value.find("count");
        if (base == nullptr || count == nullptr || !base->is_number() ||
            !count->is_number()) {
          fail("derived seeds need numeric 'base' and 'count'");
        }
        const auto base_seed = base->as_u64();
        if (!base_seed) fail("'sweep.seeds.base' must be an integer in [0, 2^64)");
        const auto seed_count = count->as_u64();
        if (!seed_count) fail("'sweep.seeds.count' must be an integer in [0, 2^64)");
        grid.seeds = derive_seeds(*base_seed, *seed_count);
      } else {
        fail("'seeds' must be an array or {base, count}");
      }
      continue;
    }
    if (key == "axes") {
      if (!value.is_array()) fail("'axes' must be an array");
      for (const auto& item : value.as_array()) {
        const auto* axis_key = item.find("key");
        const auto* values = item.find("values");
        if (axis_key == nullptr || !axis_key->is_string() || values == nullptr ||
            !values->is_array()) {
          fail("each axis needs a string 'key' and an array 'values'");
        }
        SweepAxis axis;
        axis.key = axis_key->as_string();
        axis.values = values->as_array();
        grid.axes.push_back(std::move(axis));
      }
      continue;
    }
    fail("unknown sweep field '" + key + "'");
  }
  if (grid.seeds.empty()) grid.seeds = {default_seed};
  return grid;
}

}  // namespace mobidist::exp
