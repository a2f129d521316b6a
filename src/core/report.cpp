#include "core/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mobidist::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

namespace {
bool looks_numeric(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-' &&
        c != '+' && c != 'x' && c != 'e' && c != '%') {
      return false;
    }
  }
  return true;
}
}  // namespace

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t pad = widths[i] - cells[i].size();
      os << "  ";
      if (looks_numeric(cells[i])) {
        os << std::string(pad, ' ') << cells[i];
      } else {
        os << cells[i] << std::string(pad, ' ');
      }
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string num(double value) {
  if (std::abs(value - std::round(value)) < 1e-9 && std::abs(value) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(std::llround(value));
    return os.str();
  }
  std::ostringstream os;
  os.precision(value < 1.0 ? 3 : 4);
  os << value;
  return os.str();
}

std::string ratio(double value) { return "x" + num(value); }

std::string summarize(const cost::CostLedger& ledger, const cost::CostParams& params) {
  std::ostringstream os;
  os << "fixed=" << ledger.fixed_msgs() << " wireless=" << ledger.wireless_msgs()
     << " searches=" << ledger.searches() << " total=" << num(ledger.total(params));
  return os.str();
}

// --- artifact files ---------------------------------------------------------

std::string resolve_env_dir(const char* var, std::string_view fallback) {
  const char* value = std::getenv(var);
  std::string dir = (value != nullptr && *value != '\0') ? std::string(value)
                                                         : std::string(fallback);
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir;
}

TraceFormat resolve_trace_format() {
  const char* value = std::getenv("MOBIDIST_TRACE_FORMAT");
  const std::string_view text = (value != nullptr) ? value : "";
  if (text.empty() || text == "jsonl") return TraceFormat::kJsonl;
  if (text == "binlog") return TraceFormat::kBinlog;
  throw std::runtime_error("MOBIDIST_TRACE_FORMAT must be \"jsonl\" or \"binlog\", got \"" +
                           std::string(text) + '"');
}

void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace mobidist::core
