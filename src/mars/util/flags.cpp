#include "mars/util/flags.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars::util {
namespace {

/// The value of a kNumber (finite) or kInteger (int) flag, or nullopt.
std::optional<double> to_number(const std::string& text, FlagKind kind) {
  if (kind == FlagKind::kNumber) return parse_double(text);
  return parse_int(text);
}

/// The range as an interval: "(0, inf)", "[1, 1024]".
std::string describe(const FlagRange& range) {
  return (range.min_open || std::isinf(range.min) ? "(" : "[") +
         format_double(range.min) + ", " + format_double(range.max) +
         (range.max_open || std::isinf(range.max) ? ")" : "]");
}

void check_value(const FlagRow& row, const std::string& value) {
  const std::string flag = "--" + row.name;
  const std::string got = ", got '" + value + "'";
  if (row.kind == FlagKind::kSeed && !parse_u64(value)) {
    throw InvalidArgument(flag + " needs a non-negative integer" + got);
  }
  if (row.kind != FlagKind::kNumber && row.kind != FlagKind::kInteger) return;
  const std::optional<double> number = to_number(value, row.kind);
  if (!number) {
    throw InvalidArgument(flag +
                          (row.kind == FlagKind::kNumber
                               ? " needs a finite number"
                               : " needs an integer") +
                          got);
  }
  const FlagRange& range = row.range;
  if (*number < range.min || (range.min_open && *number == range.min) ||
      *number > range.max || (range.max_open && *number == range.max)) {
    throw InvalidArgument(flag + " must be in " + describe(range) + got);
  }
}

}  // namespace

bool Flags::has(const std::string& name) const {
  MARS_CHECK(kinds_.contains(name), "flag --" << name << " is not declared");
  return values_.contains(name);
}

const std::vector<std::string>* Flags::values(const std::string& name,
                                              FlagKind kind) const {
  const auto declared = kinds_.find(name);
  MARS_CHECK(declared != kinds_.end() && declared->second == kind,
             "flag --" << name << " is not declared as this kind");
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::text(const std::string& name,
                        const std::string& fallback) const {
  const std::vector<std::string>* given = values(name, FlagKind::kText);
  return given ? given->back() : fallback;
}

double Flags::number(const std::string& name, double fallback) const {
  const std::vector<std::string>* given = values(name, FlagKind::kNumber);
  return given ? *parse_double(given->back()) : fallback;
}

int Flags::integer(const std::string& name, int fallback) const {
  const std::vector<std::string>* given = values(name, FlagKind::kInteger);
  return given ? static_cast<int>(*to_number(given->back(), FlagKind::kInteger))
               : fallback;
}

std::uint64_t Flags::seed(const std::string& name,
                          std::uint64_t fallback) const {
  const std::vector<std::string>* given = values(name, FlagKind::kSeed);
  return given ? *parse_u64(given->back()) : fallback;
}

std::vector<std::string> Flags::all(const std::string& name) const {
  const std::vector<std::string>* given = values(name, FlagKind::kRepeatable);
  return given ? *given : std::vector<std::string>{};
}

Flags parse_flags(const FlagTable& table,
                  const std::vector<std::string>& args) {
  Flags flags;
  for (const FlagRow& row : table) {
    MARS_CHECK(flags.kinds_.emplace(row.name, row.kind).second,
               "flag --" << row.name << " is declared twice");
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token == "--help" || token == "-h") {
      flags.help_ = true;
      return flags;
    }
    if (!starts_with(token, "--")) {
      // A token after a switch lands here: say why it was not its value.
      const bool after_switch = i > 0 && starts_with(args[i - 1], "--");
      throw InvalidArgument(
          "unexpected argument '" + token + "'" +
          (after_switch ? " (" + args[i - 1] + " takes no value)" : ""));
    }
    const auto row = std::find_if(
        table.begin(), table.end(),
        [&](const FlagRow& r) { return "--" + r.name == token; });
    if (row == table.end()) {
      throw InvalidArgument(token + " is not a flag of this command");
    }
    std::vector<std::string>& values = flags.values_[row->name];
    if (row->kind == FlagKind::kSwitch) continue;
    const bool given = i + 1 < args.size() && !starts_with(args[i + 1], "--");
    if (!given && row->bare.empty()) {
      throw InvalidArgument(token + " needs a value");
    }
    const std::string value = given ? args[++i] : row->bare;
    check_value(*row, value);
    if (row->kind != FlagKind::kRepeatable) values.clear();
    values.push_back(value);
  }
  return flags;
}

}  // namespace mars::util
