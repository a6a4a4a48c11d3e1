// Status and Result<T>: exception-free error handling for the OpenDMX library.
//
// Follows the Arrow/RocksDB idiom: every fallible operation returns a Status or
// a Result<T>; the DMX_RETURN_IF_ERROR / DMX_ASSIGN_OR_RETURN macros propagate
// failures up the call stack.

#ifndef DMX_COMMON_STATUS_H_
#define DMX_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace dmx {

/// Error categories used across the provider stack.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed something malformed.
  kParseError,        ///< DMX / SQL / SHAPE text did not parse.
  kBindError,         ///< Names or schemas failed to bind (unknown column, ...).
  kNotFound,          ///< Named object (model, table, service, file) missing.
  kAlreadyExists,     ///< CREATE of an object whose name is taken.
  kNotSupported,      ///< Capability not provided by this service/provider.
  kInvalidState,      ///< Operation illegal in the object's current state.
  kIOError,           ///< Filesystem / serialization failure.
  kCorruption,        ///< Stored data failed a checksum / format check.
  kResourceExhausted, ///< Out of a finite resource (disk space, quota).
  kCancelled,         ///< Statement cancelled cooperatively by the caller.
  kDeadlineExceeded,  ///< Statement overran its wall-clock deadline.
  kUnavailable,       ///< Object temporarily unserveable (degraded/quarantined).
  kInternal,          ///< Invariant violation inside the library.
};

/// Number of StatusCode values, kOk included. The codes are a CLOSED set:
/// the fuzzer's differential oracle and the exhaustiveness test in
/// status_test.cc rely on every value in [0, kStatusCodeCount) having a
/// distinct name and well-defined semantics. Append new codes before
/// kInternal's successor and keep this in sync (the test catches drift).
inline constexpr int kStatusCodeCount =
    static_cast<int>(StatusCode::kInternal) + 1;

/// Returns a short human-readable name ("Parse error", ...) for a code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: OK, or a code plus message.
///
/// Statuses are cheap to copy in the OK case (no allocation).
///
/// The type is [[nodiscard]]: a call site that receives a Status must test
/// it, propagate it, or explicitly drop it with a `(void)` cast (reserved
/// for documented best-effort paths). DMX_WERROR builds turn a silently
/// ignored Status into a compile error (-Werror=unused-result).
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_shared<Rep>(Rep{code, std::move(message), {}})) {}

  static Status OK() { return Status(); }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// \brief Returns a copy carrying one more frame of context, innermost
  /// first ("appending WAL record", then "journaling statement", ...).
  ///
  /// OK statuses pass through unchanged, so the helper can be applied
  /// unconditionally on return paths:
  ///   return store->Append(rec).WithContext("journaling statement");
  Status WithContext(std::string context) const;

  /// Context frames attached via WithContext, innermost first. Empty when OK.
  const std::vector<std::string>& context() const {
    static const std::vector<std::string> kEmpty;
    return rep_ ? rep_->context : kEmpty;
  }

  /// "OK" or "<code name>: <message>", plus any context frames rendered as
  /// "; while <frame>" innermost-first.
  std::string ToString() const;

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsBindError() const { return code() == StatusCode::kBindError; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsInvalidState() const { return code() == StatusCode::kInvalidState; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
    std::vector<std::string> context;  ///< WithContext frames, innermost first.
  };
  std::shared_ptr<const Rep> rep_;
};

namespace internal {

/// Stream-style message builder backing the status factory helpers.
class StatusBuilder {
 public:
  explicit StatusBuilder(StatusCode code) : code_(code) {}

  template <typename T>
  StatusBuilder& operator<<(const T& piece) {
    stream_ << piece;
    return *this;
  }

  operator Status() const { return Status(code_, stream_.str()); }  // NOLINT

 private:
  StatusCode code_;
  std::ostringstream stream_;
};

}  // namespace internal

// Factory helpers: `return InvalidArgument() << "bad count " << n;`
inline internal::StatusBuilder InvalidArgument() {
  return internal::StatusBuilder(StatusCode::kInvalidArgument);
}
inline internal::StatusBuilder ParseError() {
  return internal::StatusBuilder(StatusCode::kParseError);
}
inline internal::StatusBuilder BindError() {
  return internal::StatusBuilder(StatusCode::kBindError);
}
inline internal::StatusBuilder NotFound() {
  return internal::StatusBuilder(StatusCode::kNotFound);
}
inline internal::StatusBuilder AlreadyExists() {
  return internal::StatusBuilder(StatusCode::kAlreadyExists);
}
inline internal::StatusBuilder NotSupported() {
  return internal::StatusBuilder(StatusCode::kNotSupported);
}
inline internal::StatusBuilder InvalidState() {
  return internal::StatusBuilder(StatusCode::kInvalidState);
}
inline internal::StatusBuilder IOError() {
  return internal::StatusBuilder(StatusCode::kIOError);
}
inline internal::StatusBuilder Corruption() {
  return internal::StatusBuilder(StatusCode::kCorruption);
}
inline internal::StatusBuilder ResourceExhausted() {
  return internal::StatusBuilder(StatusCode::kResourceExhausted);
}
inline internal::StatusBuilder Cancelled() {
  return internal::StatusBuilder(StatusCode::kCancelled);
}
inline internal::StatusBuilder DeadlineExceeded() {
  return internal::StatusBuilder(StatusCode::kDeadlineExceeded);
}
inline internal::StatusBuilder Unavailable() {
  return internal::StatusBuilder(StatusCode::kUnavailable);
}
inline internal::StatusBuilder Internal() {
  return internal::StatusBuilder(StatusCode::kInternal);
}

/// \brief A value of type T, or the Status explaining why there is none.
/// [[nodiscard]] for the same reason Status is: dropping one silently
/// swallows the error explaining the missing value.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }
  Result(const internal::StatusBuilder& builder)  // NOLINT
      : Result(Status(builder)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value, or `fallback` when this result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

#define DMX_CONCAT_IMPL(x, y) x##y
#define DMX_CONCAT(x, y) DMX_CONCAT_IMPL(x, y)

/// Propagates a non-OK Status to the caller.
#define DMX_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::dmx::Status _dmx_status = (expr);           \
    if (!_dmx_status.ok()) return _dmx_status;    \
  } while (false)

#define DMX_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                              \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).value()

/// `DMX_ASSIGN_OR_RETURN(auto x, ComputeX());` — unwraps a Result or returns.
#define DMX_ASSIGN_OR_RETURN(lhs, rexpr) \
  DMX_ASSIGN_OR_RETURN_IMPL(DMX_CONCAT(_dmx_result_, __LINE__), lhs, rexpr)

}  // namespace dmx

#endif  // DMX_COMMON_STATUS_H_
