// mobidist_gen: deterministic scenario generator for the mobility model
// library. Emits a valid ScenarioSpec JSON file — topology, mobility
// model, phase schedule, region count, and a sweep block — sized for
// 1e5-1e6 mobile hosts, directly consumable by mobidist_sweep.
//
//   mobidist_gen --model commuter --mh 100000 --out scenarios/gen.json
//       [--mss M] [--seed S] [--seeds K] [--regions R] [--name NAME]
//       [--group-size G] [--messages N] [--moves-per-host N]
//       [--sweep-models] [--no-sweep-variants] [--set key=value]...
//
// Numeric flags are whole unsigned decimal tokens: the counts --mh, --mss,
// --seeds, --regions and --group-size up to 2^32 - 1, --seed, --messages
// and --moves-per-host up to 2^64 - 1. Anything else is a usage error
// (exit 1), never a wrapped or truncated value.
//
// The output is a pure function of the flags (no clocks, no git, no
// environment), so the same invocation always produces byte-identical
// files — the property the generator round-trip ctest pins. Before
// writing, the tool re-parses its own output through exp::parse_scenario
// and exp::sweep_from_json and fails loudly if the round trip drifts.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli_flags.hpp"
#include "core/report.hpp"
#include "exp/exp.hpp"
#include "mobility/models.hpp"

namespace {

using namespace mobidist;

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

int usage(const char* argv0) {
  std::string models;
  for (const auto name : mobility::kMovePatternNames) {
    if (!models.empty()) models += '|';
    models += name;
  }
  std::fprintf(stderr,
               "usage: %s --model %s --mh N --out FILE\n"
               "          [--mss M] [--seed S] [--seeds K] [--regions R]\n"
               "          [--name NAME] [--group-size G] [--messages N]\n"
               "          [--moves-per-host N] [--sweep-models]\n"
               "          [--no-sweep-variants] [--set key=value]...\n",
               argv0, models.c_str());
  return 1;
}

/// Apply a --set key=value override: the value parses as a JSON scalar
/// when it can (numbers, booleans), else as a string — so both
/// --set mobility.phase_period=4000 and --set variant=pure_search work.
void apply_set(exp::ScenarioSpec& spec, const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("--set needs key=value, got '" + text + "'");
  }
  const std::string key = text.substr(0, eq);
  const std::string value = text.substr(eq + 1);
  auto parsed = exp::json::parse(value);
  if (!parsed) parsed = exp::json::parse('"' + value + '"');
  if (!parsed) throw std::runtime_error("--set value '" + value + "' is not parseable");
  exp::apply_override(spec, key, *parsed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string model;
  std::string name;
  std::string out_path;
  std::uint64_t seed = 4242;
  std::uint32_t mh = 0;
  std::uint32_t mss = 0;
  std::uint32_t seeds = 3;
  std::uint32_t regions = 8;
  std::uint32_t group_size = 64;
  std::uint64_t messages = 24;
  std::uint64_t moves_per_host = 2;
  bool sweep_models = false;
  bool sweep_variants = true;
  std::vector<std::string> sets;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", arg.c_str());
          std::exit(1);
        }
        return argv[++i];
      };
      const auto u64 = [&] { return core::uint_flag(arg, next(), kMaxU64); };
      const auto u32 = [&] {
        return static_cast<std::uint32_t>(core::uint_flag(arg, next(), kMaxU32));
      };
      if (arg == "--model") model = next();
      else if (arg == "--name") name = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--seed") seed = u64();
      else if (arg == "--mh") mh = u32();
      else if (arg == "--mss") mss = u32();
      else if (arg == "--seeds") seeds = u32();
      else if (arg == "--regions") regions = u32();
      else if (arg == "--group-size") group_size = u32();
      else if (arg == "--messages") messages = u64();
      else if (arg == "--moves-per-host") moves_per_host = u64();
      else if (arg == "--sweep-models") sweep_models = true;
      else if (arg == "--no-sweep-variants") sweep_variants = false;
      else if (arg == "--set") sets.emplace_back(next());
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else {
        std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return usage(argv[0]);
  }

  if (model.empty() || mh == 0 || out_path.empty()) return usage(argv[0]);
  const auto pattern = mobility::pattern_from_name(model);
  if (!pattern) {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    return usage(argv[0]);
  }

  exp::ScenarioSpec spec;
  try {
    // Backbone sized sub-linearly in the host count unless pinned: one
    // MSS per ~1.5k hosts, clamped to [16, 512] — a million MHs get a
    // 512-cell wired mesh, a 1e5 run 64 cells.
    if (mss == 0) {
      mss = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          512, std::max<std::uint64_t>(16, mh / 1500)));
    }
    spec.name = name.empty() ? "gen_" + model + "_" + std::to_string(mh) + "mh" : name;
    spec.workload = "group_mobility";
    spec.variant = "location_view";
    spec.net.num_mss = mss;
    spec.net.num_mh = mh;
    spec.net.seed = seed;
    spec.mobility = true;
    spec.mob.pattern = *pattern;
    spec.mob.regions = regions;
    // Event budget control: every host makes moves_per_host moves, with
    // pauses long enough that the move stream and the message schedule
    // overlap instead of front-loading.
    spec.mob.max_moves_per_host = moves_per_host;
    spec.mob.mean_pause = 150.0;
    spec.mob.mean_transit = 8.0;
    spec.params["group_size"] = static_cast<double>(std::min(group_size, mh));
    spec.params["messages"] = static_cast<double>(messages);
    for (const auto& text : sets) apply_set(spec, text);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }

  // Render the spec, then splice the sweep block in before the closing
  // brace (to_json has no sweep member — the runner parses it from the
  // same document separately, exactly like hand-written scenarios).
  std::string body = exp::to_json(spec);
  std::string sweep = ",\"sweep\":{\"seeds\":{\"base\":" + std::to_string(seed) +
                      ",\"count\":" + std::to_string(seeds) + "}";
  std::string axes;
  if (sweep_variants) {
    axes += "{\"key\":\"variant\",\"values\":[\"pure_search\",\"always_inform\","
            "\"location_view\"]}";
  }
  if (sweep_models) {
    if (!axes.empty()) axes += ',';
    axes += "{\"key\":\"mobility.pattern\",\"values\":[";
    for (std::size_t i = 0; i < std::size(mobility::kMovePatternNames); ++i) {
      if (i != 0) axes += ',';
      axes += '"';
      axes += mobility::kMovePatternNames[i];
      axes += '"';
    }
    axes += "]}";
  }
  if (!axes.empty()) sweep += ",\"axes\":[" + axes + ']';
  sweep += '}';
  body.insert(body.size() - 1, sweep);
  body += '\n';

  // Self-check: the emitted document must parse back to the same spec
  // and expand to a non-empty grid before it is allowed on disk.
  try {
    const auto reparsed = exp::parse_scenario(body);
    if (exp::to_json(reparsed) != exp::to_json(spec)) {
      std::fprintf(stderr, "internal error: generated spec does not round-trip\n");
      return 1;
    }
    const auto doc = exp::json::parse(body);
    const auto grid = exp::sweep_from_json(*doc, reparsed.net.seed);
    const auto plans = grid.expand(reparsed);
    if (plans.empty()) {
      std::fprintf(stderr, "internal error: generated sweep expands to zero runs\n");
      return 1;
    }
    std::fprintf(stderr, "%s: %u MSS x %u MH, model=%s, %zu planned runs\n",
                 spec.name.c_str(), mss, mh, model.c_str(), plans.size());
  } catch (const std::exception& err) {
    std::fprintf(stderr, "internal error: generated scenario rejected: %s\n", err.what());
    return 1;
  }

  try {
    core::write_text_file(out_path, body);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
