// Error types shared by every P2G module.
//
// All recoverable failures in P2G are reported through p2g::Error, carrying
// an ErrorKind so callers (and tests) can dispatch on the failure class
// without parsing message strings.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace p2g {

/// Classification of P2G failures.
enum class ErrorKind {
  kInternal,            ///< invariant violation inside the framework
  kWriteOnceViolation,  ///< second store to the same (field, age, element)
  kTypeMismatch,        ///< element type of a fetch/store disagrees with the field
  kShapeMismatch,       ///< rank or extent disagreement
  kOutOfRange,          ///< index outside a sealed extent
  kInvalidArgument,     ///< malformed user input to a public API
  kParse,               ///< kernel-language lexical/syntactic error
  kSema,                ///< kernel-language semantic error
  kIo,                  ///< file or stream failure
  kProtocol,            ///< malformed message on the simulated cluster bus
  kDeadline,            ///< deadline expired
  kCancelled,           ///< runtime shut down while the operation was pending
};

/// Human-readable name of an ErrorKind (stable, used in messages and tests).
std::string_view to_string(ErrorKind kind);

/// Exception type used across P2G. Prefer the factory helpers below.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message);

  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

/// Throws Error with the given kind; message is prefixed by the kind name.
[[noreturn]] void throw_error(ErrorKind kind, const std::string& message);

/// Throws ErrorKind::kInternal. Use for broken framework invariants.
[[noreturn]] void internal_error(const std::string& message);

}  // namespace p2g

// Checks are macros so the message expression is evaluated only when the
// check fails: a passing check on a hot path builds no string. The call
// shape is that of a function, `check_argument(condition, message)`;
// `condition` is evaluated exactly once, `message` only on failure.

/// Checks a framework invariant; throws kInternal when `condition` is false.
#define check_internal(condition, message)                 \
  do {                                                     \
    if (!(condition)) ::p2g::internal_error((message));    \
  } while (false)

/// Checks a user-facing precondition; throws kInvalidArgument when false.
#define check_argument(condition, message)                                  \
  do {                                                                      \
    if (!(condition)) {                                                     \
      ::p2g::throw_error(::p2g::ErrorKind::kInvalidArgument, (message));    \
    }                                                                       \
  } while (false)
