// Small string helpers shared by reports, tables and serialisers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mars {

/// Join `parts` with `sep` ("a, b, c").
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// Fixed-precision double formatting without trailing-zero noise
/// ("1.5", "0.832", "12").
[[nodiscard]] std::string format_double(double value, int max_decimals = 3);

/// Human-readable count with SI suffix ("61.1M", "3.68G", "727M").
[[nodiscard]] std::string si_count(double value, int decimals = 3);

/// Percentage with sign, paper style ("-32.2%").
[[nodiscard]] std::string signed_percent(double fraction, int decimals = 1);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(const std::string& text, const std::string& prefix);

/// Split on a single character, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(const std::string& text, char sep);

// The only text-to-number conversions in MARS. Every spec grammar, input
// file and flag reads its numbers through these, so all of them share one
// rule: the whole field is one decimal number, with no space, '+' sign,
// hex prefix or trailing text, and (for doubles) finite, so "nan" and
// "inf" are rejected. Each returns nullopt for anything else.

/// `text` as a decimal `Int` (int, long long or std::uint64_t): digits,
/// with a leading '-' allowed for a signed Int, inside Int's range.
template <typename Int = int>
[[nodiscard]] std::optional<Int> parse_int(const std::string& text);

/// parse_int<std::uint64_t>: digits only, at most 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);

/// `text` as a finite decimal double.
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

}  // namespace mars
