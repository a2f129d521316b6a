#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace mobidist::exp {

/// Artifact format version. Bumped whenever the aggregated-JSON layout
/// changes incompatibly; baseline comparison refuses artifacts whose
/// version differs.
inline constexpr int kSweepSchemaVersion = 1;

/// Distribution of one metric across the seeds of one cell.
struct MetricSummary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< nearest-rank percentiles over the seed sample
  double p99 = 0.0;

  /// Summarize a non-empty sample (order irrelevant).
  [[nodiscard]] static MetricSummary of(std::vector<double> sample);
};

/// All runs of one sweep cell (same spec, different seeds) summarized
/// per metric. Metrics are name-ordered for byte-stable serialization.
struct CellSummary {
  std::string cell;
  std::vector<std::uint64_t> seeds;        ///< seeds that produced ok runs
  std::size_t failed = 0;                  ///< runs with ok == false
  std::vector<std::string> errors;         ///< distinct error strings (capped)
  std::map<std::string, MetricSummary, std::less<>> metrics;
  /// Host wall-clock seconds per ok run and derived scheduler throughput
  /// (sched.fired / wall_sec). Nondeterministic provenance: serialized
  /// by json() only, never part of the deterministic body or the
  /// baseline gate.
  MetricSummary wall_sec;
  MetricSummary events_per_sec;
};

/// The whole aggregated artifact: deterministic body plus optional
/// provenance. deterministic_json() omits wall_clock/git_sha/jobs and the
/// host's hardware_concurrency, so the bytes are a pure function of the
/// plan list and the simulation.
struct SweepReport {
  std::string name;
  std::vector<std::uint64_t> seeds;              ///< the grid's seed list
  std::vector<std::pair<std::string, std::string>> axes;  ///< key -> joined labels
  std::vector<CellSummary> cells;                ///< expansion (cell) order

  // Provenance (excluded from deterministic output).
  unsigned jobs = 0;
  double wall_clock_sec = 0.0;
  std::string git_sha;
  /// Shard count requested for the sweep (mobidist_sweep --shards); 0 =
  /// legacy engine. Provenance because the deterministic body is
  /// guaranteed identical across shard counts — recording which count
  /// produced an artifact must not change its gated bytes.
  std::uint32_t shards = 0;
  /// Telemetry-sink totals summed across ok runs (emitted/dropped from
  /// the per-run events.* metrics, bytes = retained × record size):
  /// lets artifact consumers spot a truncated event stream behind the
  /// numbers. Deterministic, but kept in provenance with the other
  /// sink-health facts rather than in the gated body.
  std::uint64_t binlog_emitted = 0;
  std::uint64_t binlog_dropped = 0;
  std::uint64_t binlog_bytes = 0;

  /// The artifact body only: byte-identical for identical plans and
  /// simulations, whatever the host, job count or shard count.
  [[nodiscard]] std::string deterministic_json() const;
  /// The full artifact: the deterministic body plus `provenance`.
  [[nodiscard]] std::string json() const;

  /// The summary of the cell named `cell`; nullptr when there is none.
  [[nodiscard]] const CellSummary* find_cell(std::string_view cell) const;
};

/// Best-effort provenance for SweepReport::git_sha: MOBIDIST_GIT_SHA
/// wins (CI sets it), else `git rev-parse --short HEAD` in the working
/// directory, else empty. Never fails the run.
[[nodiscard]] std::string resolve_git_sha();

/// Group position-stable results by cell (plan order preserved) and
/// summarize every metric across each cell's ok seeds.
[[nodiscard]] SweepReport aggregate(const std::string& name, const SweepGrid& grid,
                                    const std::vector<RunPlan>& plans,
                                    const std::vector<RunResult>& results);

/// One baseline-vs-current discrepancy.
struct Regression {
  std::string cell;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;  ///< (current - baseline) / max(|baseline|, eps)
  /// One human-readable line: cell, metric, both means and the signed
  /// percent change.
  [[nodiscard]] std::string to_string() const;
};

/// Outcome of comparing a fresh report against a committed baseline
/// artifact. `compatible` is false when the artifacts cannot be compared
/// at all (schema version, scenario name, seed list, or cell set
/// mismatch) — callers must treat that as failure, not as a pass.
struct BaselineComparison {
  bool compatible = false;
  std::string incompatibility;     ///< why, when !compatible
  std::vector<Regression> regressions;  ///< metric means drifted > tolerance
  std::size_t metrics_compared = 0;

  /// True when the artifacts were comparable and no metric drifted.
  [[nodiscard]] bool ok() const noexcept { return compatible && regressions.empty(); }
};

/// Compare metric means cell-by-cell. Any |relative delta| > tolerance
/// is reported — improvements too, because an unexplained drift in a
/// deterministic simulation is a behavior change either way. Metrics
/// present on only one side are ignored (new metrics may be added
/// freely); cells must match exactly.
[[nodiscard]] BaselineComparison compare_to_baseline(const SweepReport& current,
                                                     const json::Value& baseline,
                                                     double tolerance);

/// Parse an aggregated artifact back from disk for use as a baseline.
/// Returns std::nullopt (with a message in `error`) on malformed input.
[[nodiscard]] std::optional<json::Value> load_artifact(const std::string& path,
                                                       std::string& error);

}  // namespace mobidist::exp
