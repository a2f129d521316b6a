#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mobidist::exp::json {

/// Minimal immutable JSON value tree. Parses the subset this repo
/// actually writes (objects, arrays, strings, finite numbers, bools,
/// null) — enough to load ScenarioSpec files and committed BENCH_*.json
/// baselines without an external dependency. Numbers are kept as double;
/// the artifacts only store integers that fit a double exactly plus
/// reals written by format_double (shortest round-trip form), so
/// nothing is lost.
class Value {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  /// Name-ordered so re-serialization is deterministic.
  using Object = std::map<std::string, Value, std::less<>>;

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::kNumber), num_(n) {}
  /// Unsigned-integer literal: keeps the exact 64-bit value alongside the
  /// double view, so seeds (full splitmix64 range, beyond double's 53-bit
  /// mantissa) survive an artifact round-trip.
  Value(double n, std::uint64_t exact)
      : kind_(Kind::kNumber), num_(n), u64_(exact), has_u64_(true) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept {
    return is_number() ? num_ : fallback;
  }
  /// Exact unsigned view of an integer literal; falls back to a cast of
  /// the double value for numbers not parsed as unsigned integers.
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept {
    if (!is_number()) return fallback;
    return has_u64_ ? u64_ : static_cast<std::uint64_t>(num_);
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  /// Dotted-path lookup ("timing.wall_clock_ms"); nullptr when any hop
  /// is missing.
  [[nodiscard]] const Value* at_path(std::string_view dotted) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  bool has_u64_ = false;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse one JSON document (surrounding whitespace allowed). Returns
/// nullopt on any syntax error or trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// Render a double for a JSON artifact: std::to_chars shortest
/// round-trip form — locale-independent (always '.' as the decimal
/// separator, unlike snprintf "%f" under e.g. a de_DE locale) and exact
/// (parsing the text recovers the identical bits, where %.6f silently
/// truncated to six fractional digits). Non-finite values, which JSON
/// cannot represent, render as "null".
[[nodiscard]] std::string format_double(double value);

/// Render `text` as a quoted JSON string literal via
/// obs::append_json_string, the library's one string escaper.
[[nodiscard]] std::string quote(std::string_view text);

}  // namespace mobidist::exp::json
