// Command-line value parsing shared by the qpf_* tools and the qpf_run
// runner.
//
// std::stoull accepts a leading '-' and wraps it ("-1" parses as
// 2^64-1), skips leading whitespace and ignores trailing junk, so a
// typo could turn into a huge trial count or thread count.  parse_count
// accepts only what a count looks like — decimal digits, nothing else —
// and rejects overflow, so every tool turns a bad value into its usage
// error (exit 2).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qpf::cli {

/// If `argument` starts with `prefix`, store the rest in `value`.
inline bool consume_prefix(std::string_view argument, std::string_view prefix,
                           std::string& value) {
  if (argument.substr(0, prefix.size()) != prefix) {
    return false;
  }
  value = argument.substr(prefix.size());
  return true;
}

/// `text` as an unsigned decimal count no larger than `max`: one or more
/// digits and nothing else (no sign, no whitespace, no trailing junk).
[[nodiscard]] inline std::optional<std::uint64_t> parse_count(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept {
  if (text.empty()) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

/// parse_count for option values: throws std::invalid_argument (which
/// the tools report as a usage error) instead of returning nullopt.
[[nodiscard]] inline std::uint64_t count_arg(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (const std::optional<std::uint64_t> value = parse_count(text, max)) {
    return *value;
  }
  throw std::invalid_argument("not a count in [0, " + std::to_string(max) +
                              "]: '" + std::string(text) + "'");
}

}  // namespace qpf::cli
