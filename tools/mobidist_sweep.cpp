// mobidist_sweep: run a scenario file's sweep grid on the parallel
// experiment runner, aggregate the seed distributions, and optionally
// gate against a committed baseline artifact.
//
//   mobidist_sweep --scenario scenarios/mutex_smoke.json --jobs 4
//       [--out BENCH_sweep.json] [--baseline old.json] [--tolerance 0.01]
//       [--deterministic] [--shards N] [--list-workloads]
//
// --jobs takes 0 (hardware concurrency) to 1024, --shards an unsigned
// 32-bit count, --tolerance a finite number >= 0; any other value is a
// usage error (exit 1).
//
// --shards N requests the sharded engine for every run (honoured only by
// shard-safe workloads; the rest collapse to the legacy engine, see
// exp::run_scenario). The deterministic artifact body is identical for
// every N on the same scenario — the shard_independence test gate pins
// exactly that.
//
// Exit codes: 0 ok, 1 usage/setup error, 2 run failures, 3 regression
// gate failed (or incompatible baseline).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/cli_flags.hpp"
#include "core/report.hpp"
#include "exp/exp.hpp"

namespace {

using namespace mobidist;

/// A worker is an OS thread; more than this is a typo, not a request.
/// The scenario file's own range for topology.shards.
constexpr std::uint64_t kMaxShards = std::numeric_limits<std::uint32_t>::max();

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario FILE [--jobs N] [--out FILE]\n"
               "          [--baseline FILE] [--tolerance REL] [--deterministic]\n"
               "          [--shards N] [--list-workloads]\n",
               argv0);
  return 1;
}

std::string read_file(const std::string& path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "'";
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string out_path;
  std::string baseline_path;
  double tolerance = 0.01;
  unsigned jobs = 0;
  unsigned shards = 0;
  bool deterministic = false;
  bool list_workloads = false;

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
      const auto count = [&](std::uint64_t max) {
        return static_cast<unsigned>(core::uint_flag(arg, next(), max));
      };
      if (arg == "--scenario") scenario_path = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--baseline") baseline_path = next();
      else if (arg == "--tolerance") tolerance = core::real_flag(arg, next());
      else if (arg == "--jobs") jobs = count(core::kMaxJobs);
      else if (arg == "--shards") shards = count(kMaxShards);
      else if (arg == "--deterministic") deterministic = true;
      else if (arg == "--list-workloads") list_workloads = true;
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

  if (list_workloads) {
    for (const auto& name : exp::WorkloadLibrary::builtin().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (scenario_path.empty()) return usage(argv[0]);

  std::string error;
  const std::string text = read_file(scenario_path, error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto doc = exp::json::parse(text);
  if (!doc) {
    std::fprintf(stderr, "error: '%s' is not valid JSON\n", scenario_path.c_str());
    return 1;
  }

  exp::ScenarioSpec spec;
  exp::SweepGrid grid;
  try {
    spec = exp::scenario_from_json(*doc);
    grid = exp::sweep_from_json(*doc, spec.net.seed);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s: %s\n", scenario_path.c_str(), err.what());
    return 1;
  }

  // Applied before expansion so every cell of the grid carries the
  // requested count; run_scenario collapses it per-workload.
  if (shards != 0) spec.net.shards = shards;

  const auto plans = grid.expand(spec);
  const exp::ParallelRunner runner(jobs);
  std::fprintf(stderr, "%s: %zu runs (%zu seeds), %u jobs\n", spec.name.c_str(),
               plans.size(), grid.seeds.size(), runner.jobs());

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = runner.run(plans);
  const auto t1 = std::chrono::steady_clock::now();

  std::size_t failed = 0;
  for (const auto& result : results) {
    if (!result.ok) {
      ++failed;
      std::fprintf(stderr, "FAIL [%s seed=%llu]: %s\n", result.cell.c_str(),
                   static_cast<unsigned long long>(result.seed), result.error.c_str());
    }
  }

  auto report = exp::aggregate(spec.name, grid, plans, results);
  report.jobs = runner.jobs();
  report.shards = shards;
  report.wall_clock_sec = std::chrono::duration<double>(t1 - t0).count();
  report.git_sha = exp::resolve_git_sha();

  const std::string body = deterministic ? report.deterministic_json() : report.json();
  if (out_path.empty()) {
    const std::string dir = core::resolve_env_dir("MOBIDIST_BENCH_DIR", "");
    out_path = dir + "BENCH_" + spec.name + ".json";
  }
  try {
    core::write_text_file(out_path, body + "\n");
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu cells, %.2fs)\n", out_path.c_str(),
               report.cells.size(), report.wall_clock_sec);

  int rc = failed != 0 ? 2 : 0;

  if (!baseline_path.empty()) {
    const auto baseline = exp::load_artifact(baseline_path, error);
    if (!baseline) {
      std::fprintf(stderr, "baseline error: %s\n", error.c_str());
      return 3;
    }
    const auto cmp = exp::compare_to_baseline(report, *baseline, tolerance);
    if (!cmp.compatible) {
      std::fprintf(stderr, "baseline incompatible: %s\n", cmp.incompatibility.c_str());
      return 3;
    }
    if (!cmp.regressions.empty()) {
      std::fprintf(stderr, "regression: %zu metric(s) drifted beyond %.4g (of %zu compared):\n",
                   cmp.regressions.size(), tolerance, cmp.metrics_compared);
      for (const auto& reg : cmp.regressions) {
        std::fprintf(stderr, "  %s\n", reg.to_string().c_str());
      }
      return 3;
    }
    std::fprintf(stderr, "baseline ok: %zu metrics within %.4g\n", cmp.metrics_compared,
                 tolerance);
  }
  return rc;
}
