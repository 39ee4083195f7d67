// String helpers for the loaders, the policy-language lexer, and output
// formatting. Kept allocation-light: split/trim return string_views into the
// caller's buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace miro {

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view text, char delimiter);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string_view> split_whitespace(std::string_view text);

/// Parses a non-negative decimal integer; nullopt on any malformed input.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Parses a signed decimal integer; nullopt on any malformed input.
std::optional<std::int64_t> parse_i64(std::string_view text);

/// Parses a finite real number ("0.25", "-3", "1e-3") spanning the whole
/// token; nullopt on trailing junk, a leading sign of '+', whitespace,
/// overflow, inf or nan.
std::optional<double> parse_finite(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// True when `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

}  // namespace miro
