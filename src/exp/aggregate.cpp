#include "exp/aggregate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "obs/binlog.hpp"

namespace mobidist::exp {

namespace {

/// Shortest round-trip double rendering (json::format_double): the
/// snprintf "%.6f" it replaces honoured the process locale's decimal
/// separator and truncated to six fractional digits, so artifact bytes
/// could differ across environments and re-parsed values across runs.
std::string num(double v) { return json::format_double(v); }

void append_summary(std::string& out, const MetricSummary& s) {
  out += "{\"max\":" + num(s.max) + ",\"mean\":" + num(s.mean) +
         ",\"min\":" + num(s.min) + ",\"n\":" + std::to_string(s.n) +
         ",\"p50\":" + num(s.p50) + ",\"p99\":" + num(s.p99) +
         ",\"stddev\":" + num(s.stddev) + "}";
}

void append_body(std::string& out, const SweepReport& r) {
  out += "\"schema_version\":" + std::to_string(kSweepSchemaVersion);
  out += ",\"name\":" + json::quote(r.name);
  out += ",\"seeds\":[";
  for (std::size_t i = 0; i < r.seeds.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(r.seeds[i]);
  }
  out += "],\"axes\":[";
  for (std::size_t i = 0; i < r.axes.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"key\":" + json::quote(r.axes[i].first) +
           ",\"values\":" + json::quote(r.axes[i].second) + "}";
  }
  out += "],\"cells\":[";
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const auto& cell = r.cells[c];
    if (c != 0) out += ',';
    out += "{\"cell\":" + json::quote(cell.cell);
    out += ",\"seeds\":[";
    for (std::size_t i = 0; i < cell.seeds.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(cell.seeds[i]);
    }
    out += "],\"failed\":" + std::to_string(cell.failed);
    if (!cell.errors.empty()) {
      out += ",\"errors\":[";
      for (std::size_t i = 0; i < cell.errors.size(); ++i) {
        if (i != 0) out += ',';
        out += json::quote(cell.errors[i]);
      }
      out += ']';
    }
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, summary] : cell.metrics) {
      if (!first) out += ',';
      first = false;
      out += json::quote(name) + ":";
      append_summary(out, summary);
    }
    out += "}}";
  }
  out += ']';
}

}  // namespace

MetricSummary MetricSummary::of(std::vector<double> sample) {
  MetricSummary s;
  s.n = sample.size();
  if (sample.empty()) return s;
  std::sort(sample.begin(), sample.end());
  s.min = sample.front();
  s.max = sample.back();
  double sum = 0.0;
  for (const double v : sample) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n > 1) {
    double sq = 0.0;
    for (const double v : sample) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
  }
  // Nearest-rank percentile: smallest value with cumulative share >= p.
  const auto rank = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(s.n)));
    return sample[std::min(s.n - 1, idx == 0 ? 0 : idx - 1)];
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  return s;
}

SweepReport aggregate(const std::string& name, const SweepGrid& grid,
                      const std::vector<RunPlan>& plans,
                      const std::vector<RunResult>& results) {
  SweepReport report;
  report.name = name;
  report.seeds = grid.seeds;
  for (const auto& axis : grid.axes) {
    std::string joined;
    for (const auto& value : axis.values) {
      if (!joined.empty()) joined += ',';
      joined += value_label(value);
    }
    report.axes.emplace_back(axis.key, joined);
  }

  // Plans are expanded cell-major (seeds adjacent), so walking in plan
  // order yields each cell exactly once, in expansion order.
  for (std::size_t i = 0; i < plans.size() && i < results.size(); ++i) {
    const auto& plan = plans[i];
    const auto& result = results[i];
    if (report.cells.empty() || report.cells.back().cell != plan.cell) {
      CellSummary cell;
      cell.cell = plan.cell;
      report.cells.push_back(std::move(cell));
    }
    auto& cell = report.cells.back();
    if (!result.ok) {
      ++cell.failed;
      constexpr std::size_t kMaxErrors = 4;
      if (cell.errors.size() < kMaxErrors &&
          std::find(cell.errors.begin(), cell.errors.end(), result.error) ==
              cell.errors.end()) {
        cell.errors.push_back(result.error);
      }
      continue;
    }
    cell.seeds.push_back(result.seed);
    // Sink-health provenance: binlog counters ride in the harvested
    // events.* metrics; retained = emitted - dropped by construction.
    const auto emitted = result.metrics.find("events.emitted");
    const auto dropped = result.metrics.find("events.dropped");
    if (emitted != result.metrics.end() && dropped != result.metrics.end()) {
      report.binlog_emitted += static_cast<std::uint64_t>(emitted->second);
      report.binlog_dropped += static_cast<std::uint64_t>(dropped->second);
      report.binlog_bytes += static_cast<std::uint64_t>(emitted->second - dropped->second) *
                             sizeof(obs::BinRecord);
    }
  }

  // Second pass per cell: collect each metric's sample across ok runs.
  std::size_t cursor = 0;
  for (auto& cell : report.cells) {
    std::map<std::string, std::vector<double>, std::less<>> samples;
    std::vector<double> walls;
    std::vector<double> rates;
    while (cursor < plans.size() && plans[cursor].cell == cell.cell) {
      const auto& result = results[cursor];
      if (result.ok) {
        for (const auto& [metric, value] : result.metrics) {
          samples[metric].push_back(value);
        }
        if (result.wall_sec > 0.0) {
          walls.push_back(result.wall_sec);
          if (const auto it = result.metrics.find("sched.fired");
              it != result.metrics.end()) {
            rates.push_back(it->second / result.wall_sec);
          }
        }
      }
      ++cursor;
    }
    for (auto& [metric, sample] : samples) {
      cell.metrics.emplace(metric, MetricSummary::of(std::move(sample)));
    }
    if (!walls.empty()) cell.wall_sec = MetricSummary::of(std::move(walls));
    if (!rates.empty()) cell.events_per_sec = MetricSummary::of(std::move(rates));
  }
  return report;
}

std::string SweepReport::deterministic_json() const {
  std::string out = "{";
  append_body(out, *this);
  out += '}';
  return out;
}

std::string SweepReport::json() const {
  std::string out = "{";
  append_body(out, *this);
  out += ",\"provenance\":{\"git_sha\":" + json::quote(git_sha) +
         ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"jobs\":" + std::to_string(jobs) +
         ",\"shards\":" + std::to_string(shards) +
         ",\"wall_clock_sec\":" + num(wall_clock_sec) +
         ",\"binlog\":{\"emitted\":" + std::to_string(binlog_emitted) +
         ",\"dropped\":" + std::to_string(binlog_dropped) +
         ",\"bytes\":" + std::to_string(binlog_bytes) + "}";
  // Per-cell host timing (wall seconds and scheduler events/sec). Kept
  // under provenance so the deterministic body — and therefore the
  // jobs-independence guarantee and the regression gate — never sees a
  // machine-dependent number.
  out += ",\"timing\":[";
  bool first = true;
  for (const auto& cell : cells) {
    if (cell.wall_sec.n == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"cell\":" + json::quote(cell.cell) + ",\"wall_sec\":";
    append_summary(out, cell.wall_sec);
    out += ",\"events_per_sec\":";
    append_summary(out, cell.events_per_sec);
    out += '}';
  }
  out += "]}";
  out += '}';
  return out;
}

const CellSummary* SweepReport::find_cell(std::string_view cell) const {
  for (const auto& c : cells) {
    if (c.cell == cell) return &c;
  }
  return nullptr;
}

std::string resolve_git_sha() {
  if (const char* env = std::getenv("MOBIDIST_GIT_SHA"); env != nullptr) return env;
#if defined(_WIN32)
  return {};
#else
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return {};
  char buf[64] = {};
  std::string sha;
  if (std::fgets(buf, sizeof buf, pipe) != nullptr) sha = buf;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
#endif
}

std::string Regression::to_string() const {
  // Diagnostic text, but keep it locale-independent too: to_chars with
  // fixed precision instead of snprintf "%+.2f".
  char buf[64];
  const double pct = rel_delta * 100.0;
  buf[0] = pct >= 0 ? '+' : '-';
  const auto [ptr, ec] =
      std::to_chars(buf + 1, buf + sizeof buf - 1, std::abs(pct), std::chars_format::fixed, 2);
  std::string delta = ec == std::errc{} ? std::string(buf, ptr) : std::string("?");
  return cell + " / " + metric + ": baseline " + num(baseline) + " -> current " +
         num(current) + " (" + delta + "%)";
}

BaselineComparison compare_to_baseline(const SweepReport& current,
                                       const json::Value& baseline,
                                       double tolerance) {
  BaselineComparison cmp;
  const auto incompatible = [&cmp](std::string why) {
    cmp.compatible = false;
    cmp.incompatibility = std::move(why);
    return cmp;
  };

  const auto* version = baseline.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return incompatible("baseline has no schema_version");
  }
  if (static_cast<int>(version->as_number()) != kSweepSchemaVersion) {
    return incompatible("baseline schema_version " +
                        value_label(*version) + " != current " +
                        std::to_string(kSweepSchemaVersion));
  }
  const auto* name = baseline.find("name");
  if (name == nullptr || !name->is_string() || name->as_string() != current.name) {
    return incompatible("baseline is for scenario '" +
                        (name != nullptr && name->is_string() ? name->as_string()
                                                              : std::string("?")) +
                        "', current is '" + current.name + "'");
  }
  const auto* seeds = baseline.find("seeds");
  if (seeds == nullptr || !seeds->is_array()) {
    return incompatible("baseline has no seed list");
  }
  std::vector<std::uint64_t> base_seeds;
  for (const auto& seed : seeds->as_array()) {
    if (seed.is_number()) base_seeds.push_back(seed.as_u64());
  }
  if (base_seeds != current.seeds) {
    return incompatible("seed lists differ (baseline " +
                        std::to_string(base_seeds.size()) + " seeds, current " +
                        std::to_string(current.seeds.size()) +
                        ") — distributions are not comparable");
  }
  const auto* cells = baseline.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return incompatible("baseline has no cells");
  }

  std::set<std::string> base_names;
  for (const auto& cell : cells->as_array()) {
    if (const auto* n = cell.find("cell"); n != nullptr && n->is_string()) {
      base_names.insert(n->as_string());
    }
  }
  std::set<std::string> cur_names;
  for (const auto& cell : current.cells) cur_names.insert(cell.cell);
  if (base_names != cur_names) {
    return incompatible("cell sets differ — the sweep grid changed");
  }

  cmp.compatible = true;
  constexpr double kEps = 1e-9;
  for (const auto& cell : cells->as_array()) {
    const auto* cell_name = cell.find("cell");
    const auto* metrics = cell.find("metrics");
    if (cell_name == nullptr || metrics == nullptr || !metrics->is_object()) continue;
    const auto* cur_cell = current.find_cell(cell_name->as_string());
    if (cur_cell == nullptr) continue;
    for (const auto& [metric, summary] : metrics->as_object()) {
      const auto it = cur_cell->metrics.find(metric);
      if (it == cur_cell->metrics.end()) continue;  // metric renamed/removed
      const auto* mean = summary.find("mean");
      if (mean == nullptr || !mean->is_number()) continue;
      ++cmp.metrics_compared;
      const double base_mean = mean->as_number();
      const double cur_mean = it->second.mean;
      const double denom = std::max(std::abs(base_mean), kEps);
      const double rel = (cur_mean - base_mean) / denom;
      if (std::abs(rel) > tolerance) {
        Regression reg;
        reg.cell = cell_name->as_string();
        reg.metric = metric;
        reg.baseline = base_mean;
        reg.current = cur_mean;
        reg.rel_delta = rel;
        cmp.regressions.push_back(std::move(reg));
      }
    }
  }
  return cmp;
}

std::optional<json::Value> load_artifact(const std::string& path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = json::parse(buf.str());
  if (!parsed) {
    error = "'" + path + "' is not valid JSON";
    return std::nullopt;
  }
  if (!parsed->is_object()) {
    error = "'" + path + "' is not a JSON object";
    return std::nullopt;
  }
  error.clear();
  return parsed;
}

}  // namespace mobidist::exp
