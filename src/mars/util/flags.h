// Typed command-line flags: a command declares the flags it reads as a
// table of {name, kind, range} rows, and parse_flags() checks the whole
// argument list against it in one pass, so no caller re-validates a value.
//
// Every rejection is a named InvalidArgument:
//   - a flag the table does not list (unknown, or not read by this command);
//   - a positional token (anything not starting with "--");
//   - a value flag with no value (end of input, or a next token that
//     starts with "--"), unless its row names a bare value;
//   - a kNumber that is not a finite decimal inside its range (NaN and
//     infinities included);
//   - a kInteger that is not a whole decimal int inside its range;
//   - a kSeed that is not a whole decimal uint64 (mars::parse_u64).
// A repeated flag keeps its last value, except kRepeatable flags, which
// keep every occurrence in order. "--help" or "-h" stops parsing and sets
// Flags::help().
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mars::util {

enum class FlagKind { kSwitch, kText, kNumber, kInteger, kSeed, kRepeatable };

/// The values a kNumber or kInteger flag accepts. Each end is inclusive
/// unless marked open; the default range accepts every finite value.
struct FlagRange {
  double min = -std::numeric_limits<double>::infinity();
  bool min_open = false;
  double max = std::numeric_limits<double>::infinity();
  bool max_open = false;
};

/// [least, +inf).
constexpr FlagRange at_least(double least) { return {least}; }
/// (bound, +inf).
constexpr FlagRange above(double bound) { return {bound, true}; }

/// One row of a command's flag table. `bare` (kText only) is the value the
/// flag takes when given without one; empty means a value is required.
struct FlagRow {
  std::string name;  ///< without the leading "--"
  FlagKind kind = FlagKind::kSwitch;
  FlagRange range{};
  std::string bare{};
};

using FlagTable = std::vector<FlagRow>;

/// Checked flag values. A table that declares a name twice, or reading a
/// flag the table does not declare or as another kind, is a program bug
/// and throws InternalError.
class Flags {
 public:
  /// "--help" or "-h" was given.
  [[nodiscard]] bool help() const { return help_; }
  /// The flag was given at least once (any kind).
  [[nodiscard]] bool has(const std::string& name) const;
  /// The last value of a kText flag, or `fallback` when absent.
  [[nodiscard]] std::string text(const std::string& name,
                                 const std::string& fallback = "") const;
  [[nodiscard]] double number(const std::string& name, double fallback) const;
  [[nodiscard]] int integer(const std::string& name, int fallback) const;
  [[nodiscard]] std::uint64_t seed(const std::string& name,
                                   std::uint64_t fallback) const;
  /// Every value of a kRepeatable flag, in argument order.
  [[nodiscard]] std::vector<std::string> all(const std::string& name) const;

 private:
  friend Flags parse_flags(const FlagTable& table,
                           const std::vector<std::string>& args);
  /// The values of `name`, nullptr when absent; checks the declared kind.
  const std::vector<std::string>* values(const std::string& name,
                                         FlagKind kind) const;

  std::map<std::string, FlagKind> kinds_;
  std::map<std::string, std::vector<std::string>> values_;
  bool help_ = false;
};

/// Parses `args` (the tokens after the command) against `table`.
[[nodiscard]] Flags parse_flags(const FlagTable& table,
                                const std::vector<std::string>& args);

}  // namespace mars::util
