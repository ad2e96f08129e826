#include "mars/util/strings.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mars {

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int max_decimals) {
  // Sized from snprintf's own count: a huge value prints in full.
  const int length = std::snprintf(nullptr, 0, "%.*f", max_decimals, value);
  std::string text(static_cast<std::size_t>(std::max(length, 0)), '\0');
  std::snprintf(text.data(), text.size() + 1, "%.*f", max_decimals, value);
  if (text.find('.') != std::string::npos) {
    while (!text.empty() && text.back() == '0') text.pop_back();
    if (!text.empty() && text.back() == '.') text.pop_back();
  }
  if (text == "-0") text = "0";
  return text;
}

std::string si_count(double value, int decimals) {
  struct Scale {
    double factor;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "K"}};
  for (const auto& scale : kScales) {
    if (std::abs(value) >= scale.factor) {
      return format_double(value / scale.factor, decimals) + scale.suffix;
    }
  }
  return format_double(value, decimals);
}

std::string signed_percent(double fraction, int decimals) {
  double percent = fraction * 100.0;
  std::string body = format_double(std::abs(percent), decimals);
  return (percent < 0 ? "-" : "+") + body + "%";
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

template <typename Int>
std::optional<Int> parse_int(const std::string& text) {
  Int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return std::nullopt;
  return value;
}
template std::optional<int> parse_int(const std::string&);
template std::optional<long long> parse_int(const std::string&);
template std::optional<std::uint64_t> parse_int(const std::string&);

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  return parse_int<std::uint64_t>(text);
}

std::optional<double> parse_double(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace mars
