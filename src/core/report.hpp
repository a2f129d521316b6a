#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.hpp"

namespace mobidist::core {

/// Fixed-width text table used by the experiment benches to print the
/// paper-formula vs. simulated-measurement comparisons.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row, padded or truncated to the header count.
  Table& row(std::vector<std::string> cells);

  /// Render with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

  /// Number of rows appended so far.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double compactly ("12.5", "3", "0.042").
[[nodiscard]] std::string num(double value);
/// Format a ratio as "x1.37".
[[nodiscard]] std::string ratio(double value);

/// One-line summary of a ledger under given params:
/// "fixed=12 wireless=6 searches=3 total=96".
[[nodiscard]] std::string summarize(const cost::CostLedger& ledger,
                                    const cost::CostParams& params);

// --- artifact files ---------------------------------------------------------

/// Resolve an artifact directory from environment variable `var`,
/// normalized to end in '/'. Unset or empty falls back to `fallback`
/// (returned unnormalized when itself empty, so callers can treat "" as
/// "feature disabled"). Shared by MOBIDIST_BENCH_DIR and
/// MOBIDIST_TRACE_DIR so the two cannot drift semantically.
[[nodiscard]] std::string resolve_env_dir(const char* var, std::string_view fallback);

/// On-disk format for TRACE_* artifacts when MOBIDIST_TRACE_DIR is set.
enum class TraceFormat {
  kJsonl,   ///< TRACE_*.jsonl + Perfetto .trace.json (the default)
  kBinlog,  ///< compact TRACE_*.binlog; decode with tools/trace_dump
};

/// Read MOBIDIST_TRACE_FORMAT: unset/"" / "jsonl" -> kJsonl, "binlog"
/// -> kBinlog; anything else throws (a typo must not silently disable
/// trace artifacts). Read by the experiment runner's TRACE_* writer.
[[nodiscard]] TraceFormat resolve_trace_format();

/// Write `content` to `path`, throwing std::runtime_error on any
/// failure (missing directory, unwritable file) so misconfigured
/// artifact dirs fail loudly instead of silently dropping output.
void write_text_file(const std::string& path, std::string_view content);

}  // namespace mobidist::core
