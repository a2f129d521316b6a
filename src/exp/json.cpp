#include "exp/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>

#include "obs/events.hpp"

namespace mobidist::exp::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const Value* Value::at_path(std::string_view dotted) const noexcept {
  const Value* node = this;
  while (!dotted.empty()) {
    const auto dot = dotted.find('.');
    const auto head = dotted.substr(0, dot);
    node = node->find(head);
    if (node == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return node;
}

namespace {

/// Recursive-descent parser over a string_view cursor. Depth-capped so a
/// hostile input cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> document() {
    auto value = parse_value(0);
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Value> parse_value(int depth) {  // NOLINT(misc-no-recursion)
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto str = parse_string();
        if (!str) return std::nullopt;
        return Value(std::move(*str));
      }
      case 't': return literal("true") ? std::optional<Value>(Value(true)) : std::nullopt;
      case 'f': return literal("false") ? std::optional<Value>(Value(false)) : std::nullopt;
      case 'n': return literal("null") ? std::optional<Value>(Value{}) : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<Value> parse_object(int depth) {  // NOLINT(misc-no-recursion)
    if (!eat('{')) return std::nullopt;
    Value::Object members;
    skip_ws();
    if (eat('}')) return Value(std::move(members));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      members.insert_or_assign(std::move(*key), std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return Value(std::move(members));
      return std::nullopt;
    }
  }

  std::optional<Value> parse_array(int depth) {  // NOLINT(misc-no-recursion)
    if (!eat('[')) return std::nullopt;
    Value::Array items;
    skip_ws();
    if (eat(']')) return Value(std::move(items));
    while (true) {
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      items.push_back(std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return Value(std::move(items));
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const auto [ptr, ec] = std::from_chars(first, first + 4, code, 16);
          if (ec != std::errc{} || ptr != first + 4) return std::nullopt;
          pos_ += 4;
          // The repo's writers only escape control characters, so a
          // plain one-byte append covers everything we produce.
          out += static_cast<char>(code);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' || c == 'e' ||
          c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    // Plain unsigned-integer literals keep their exact 64-bit value too
    // (seeds exceed double's 53-bit mantissa).
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!token.empty() && token.find_first_not_of("0123456789") == std::string_view::npos) {
      std::uint64_t exact = 0;
      const auto [uptr, uec] = std::from_chars(first, last, exact);
      if (uec == std::errc{} && uptr == last) return Value(value, exact);
    }
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) { return Parser(text).document(); }

std::string format_double(double value) {
  if (!std::isfinite(value)) return "null";
  // Longest shortest-round-trip double is 24 chars ("-2.2250738585072014e-308").
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  if (ec != std::errc{}) return "0";  // cannot happen with this buffer size
  return std::string(buf.data(), ptr);
}

std::string quote(std::string_view text) {
  std::string out;
  obs::append_json_string(out, text);
  return out;
}

}  // namespace mobidist::exp::json
