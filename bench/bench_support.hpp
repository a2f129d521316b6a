#pragma once

// Shared harness for the bench binaries. Every bench describes its run
// matrix as ScenarioSpec cells, executes them concurrently on the
// exp::ParallelRunner, reads measurements back from the aggregated
// summaries, and writes the versioned BENCH_<name>.json sweep artifact
// (exp::SweepReport, the one artifact writer; provenance.git_sha comes
// from exp::resolve_git_sha, like mobidist_sweep's). Failures are loud:
// any run that trips an obs trace checker (or throws during setup)
// aborts the bench.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "exp/exp.hpp"

namespace mobidist::bench {

/// MOBIDIST_JOBS caps bench parallelism; unset = hardware concurrency.
inline unsigned jobs_from_env() {
  if (const char* env = std::getenv("MOBIDIST_JOBS"); env != nullptr) {
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  return 0;
}

class Sections {
 public:
  explicit Sections(std::string name) : name_(std::move(name)) {}

  /// Append one cell running `spec` once under its own net.seed.
  void add(std::string cell, const exp::ScenarioSpec& spec) {
    add(std::move(cell), spec, {spec.net.seed});
  }

  /// Append one cell running `spec` once per seed (seeds stay adjacent
  /// in plan order, which the aggregator requires).
  void add(std::string cell, const exp::ScenarioSpec& spec,
           const std::vector<std::uint64_t>& seeds) {
    for (const std::uint64_t seed : seeds) {
      exp::RunPlan plan;
      plan.spec = spec;
      plan.spec.net.seed = seed;
      plan.cell = cell;
      plan.seed = seed;
      plan.index = plans_.size();
      plans_.push_back(std::move(plan));
      if (std::find(grid_.seeds.begin(), grid_.seeds.end(), seed) == grid_.seeds.end()) {
        grid_.seeds.push_back(seed);
      }
    }
  }

  /// Run every plan (parallel across cells and seeds) and aggregate.
  void run() {
    const auto t0 = std::chrono::steady_clock::now();
    const exp::ParallelRunner runner(jobs_from_env());
    results_ = runner.run(plans_);
    bool failed = false;
    for (const auto& result : results_) {
      if (!result.ok) {
        std::cerr << name_ << ": run failed [" << result.cell << " seed=" << result.seed
                  << "]: " << result.error << "\n";
        failed = true;
      }
    }
    if (failed) std::exit(1);
    report_ = exp::aggregate(name_, grid_, plans_, results_);
    report_.jobs = runner.jobs();
    report_.wall_clock_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    report_.git_sha = exp::resolve_git_sha();
  }

  /// Mean of `metric` across the seeds of `cell`; aborts on a missing
  /// cell or metric so a typo cannot silently read as 0.
  [[nodiscard]] double metric(std::string_view cell, std::string_view name) const {
    const auto* summary = report_.find_cell(cell);
    if (summary == nullptr) {
      std::cerr << name_ << ": no such cell '" << cell << "'\n";
      std::exit(1);
    }
    const auto it = summary->metrics.find(name);
    if (it == summary->metrics.end()) {
      std::cerr << name_ << ": cell '" << cell << "' has no metric '" << name << "'\n";
      std::exit(1);
    }
    return it->second.mean;
  }

  /// Per-run access for per-seed tables.
  [[nodiscard]] std::vector<const exp::RunResult*> runs(std::string_view cell) const {
    std::vector<const exp::RunResult*> out;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plans_[i].cell == cell) out.push_back(&results_[i]);
    }
    return out;
  }

  [[nodiscard]] const exp::SweepReport& report() const noexcept { return report_; }

  /// Mutable access for provenance fields the bench sets after run()
  /// (e.g. SweepReport::shards for sharded-engine cells).
  [[nodiscard]] exp::SweepReport& report() noexcept { return report_; }

  /// Write BENCH_<name>.json to $MOBIDIST_BENCH_DIR (cwd if unset).
  std::string write() const {
    const std::string path =
        core::resolve_env_dir("MOBIDIST_BENCH_DIR", ".") + "BENCH_" + name_ + ".json";
    core::write_text_file(path, report_.json() + "\n");
    return path;
  }

 private:
  std::string name_;
  exp::SweepGrid grid_;
  std::vector<exp::RunPlan> plans_;
  std::vector<exp::RunResult> results_;
  exp::SweepReport report_;
};

}  // namespace mobidist::bench
