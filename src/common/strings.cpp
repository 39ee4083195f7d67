#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace miro {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char delimiter) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::int64_t> parse_i64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text.front() == '-' || text.front() == '+') {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  auto magnitude = parse_u64(text);
  if (!magnitude) return std::nullopt;
  if (negative) {
    if (*magnitude > static_cast<std::uint64_t>(INT64_MAX) + 1)
      return std::nullopt;
    return static_cast<std::int64_t>(0 - *magnitude);
  }
  if (*magnitude > static_cast<std::uint64_t>(INT64_MAX)) return std::nullopt;
  return static_cast<std::int64_t>(*magnitude);
}

std::optional<double> parse_finite(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace miro
