#include "mars/util/strings.h"

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
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", max_decimals, value);
  std::string text(buffer);
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

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return std::nullopt;
  return value;
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
