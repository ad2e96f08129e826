// Error handling primitives for MARS.
//
// MARS uses exceptions for error reporting (invalid user input, violated
// invariants). A failed MARS_CHECK is a MARS bug: its InternalError message
// names the condition and source location. A failed MARS_CHECK_ARG is a
// user error: its InvalidArgument message is the check's message alone,
// and the condition and location move to origin().
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace mars {

/// Base exception type for all MARS errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a caller violates a documented precondition. what() is the
/// plain message, fit to show a user as is; origin() names the failed check
/// and its source location ("MARS_CHECK_ARG failed: (n >= 1) at
/// <file>:<line>"), and is empty for an InvalidArgument thrown directly.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what, std::string origin = {})
      : Error(what), origin_(std::move(origin)) {}

  [[nodiscard]] const std::string& origin() const { return origin_; }

 private:
  std::string origin_;
};

/// Raised when an internal invariant breaks (a MARS bug, not a user error).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* kind, const char* cond,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << cond << ") at " << file << ':' << line;
  if (std::string(kind) == "MARS_CHECK_ARG") {
    throw InvalidArgument(msg.empty() ? cond : msg, os.str());
  }
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace mars

/// Check an internal invariant; throws InternalError with location on failure.
#define MARS_CHECK(cond, msg)                                                  \
  do {                                                                         \
    if (!(cond)) {                                                             \
      std::ostringstream mars_check_os_;                                       \
      mars_check_os_ << msg; /* NOLINT */                                      \
      ::mars::detail::throw_check_failure("MARS_CHECK", #cond, __FILE__,       \
                                          __LINE__, mars_check_os_.str());     \
    }                                                                          \
  } while (false)

/// Check a caller-supplied precondition; throws InvalidArgument on failure,
/// whose what() is `msg` (the condition text when `msg` is empty).
#define MARS_CHECK_ARG(cond, msg)                                              \
  do {                                                                         \
    if (!(cond)) {                                                             \
      std::ostringstream mars_check_os_;                                       \
      mars_check_os_ << msg; /* NOLINT */                                      \
      ::mars::detail::throw_check_failure("MARS_CHECK_ARG", #cond, __FILE__,   \
                                          __LINE__, mars_check_os_.str());     \
    }                                                                          \
  } while (false)

/// Unconditionally throw an InternalError with a formatted message.
#define MARS_THROW(msg)                                                        \
  do {                                                                         \
    std::ostringstream mars_throw_os_;                                         \
    mars_throw_os_ << msg; /* NOLINT */                                        \
    throw ::mars::InternalError(mars_throw_os_.str());                         \
  } while (false)
