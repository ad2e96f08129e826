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

/// `text` as a decimal uint64 when it is one whole: digits only (no sign,
/// space or prefix) and at most 2^64 - 1. nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);

/// `text` as a finite double when it is one whole decimal number (no space
/// or '+' sign; "nan" and "inf" are not finite). nullopt otherwise.
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

}  // namespace mars
