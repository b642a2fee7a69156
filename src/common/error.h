// Error handling primitives.
//
// The library throws `paserta::Error` for user-visible misuse (malformed
// graphs, infeasible deadlines) and uses PASERTA_ASSERT for internal
// invariants that indicate a library bug.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace paserta {

/// Exception thrown on invalid input (malformed graph, bad configuration,
/// infeasible deadline, ...). The message describes the violated rule.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_error(const std::string& msg);
[[noreturn]] void fail_assert(const char* file, int line, const char* expr,
                              const std::string& msg);
}  // namespace detail

/// Validate a user-facing precondition; throws paserta::Error on failure.
/// The message is the rule alone, without a source location: it reaches
/// users verbatim (CLI errors, serve's error responses).
#define PASERTA_REQUIRE(cond, msg)                                      \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::std::ostringstream oss_;                                        \
      oss_ << msg;                                                      \
      ::paserta::detail::throw_error(oss_.str());                       \
    }                                                                   \
  } while (0)

/// Internal invariant; failure indicates a bug in paserta itself.
#define PASERTA_ASSERT(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::std::ostringstream oss_;                                           \
      oss_ << msg;                                                         \
      ::paserta::detail::fail_assert(__FILE__, __LINE__, #cond, oss_.str()); \
    }                                                                      \
  } while (0)

}  // namespace paserta
