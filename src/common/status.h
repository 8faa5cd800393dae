// Status / Result error-handling vocabulary, in the style of database
// engines (Arrow, RocksDB, LevelDB): recoverable errors travel as values,
// never as exceptions, and a Result<T> carries either a payload or a Status.

#ifndef SIMJOIN_COMMON_STATUS_H_
#define SIMJOIN_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace simjoin {

/// Machine-readable error category.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kIoError = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kUnavailable = 7,        ///< transient overload; retry later
  kDeadlineExceeded = 8,   ///< request deadline elapsed before completion
};

/// Human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation: OK, or a code plus message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a T or an error Status.  Accessing the value of an errored Result
/// is a fatal logic error (checked).
template <typename T>
class Result {
 public:
  /// Implicit from value.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from non-OK status.
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    SIMJOIN_CHECK(!std::get<Status>(payload_).ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  const T& value() const& {
    SIMJOIN_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(payload_);
  }
  T& value() & {
    SIMJOIN_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(payload_);
  }
  T&& value() && {
    SIMJOIN_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(std::move(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

/// Propagates a non-OK Status out of the enclosing function.  Each
/// expansion names its temporary uniquely, so a lambda inside `expr` may
/// use the macro again without shadowing the outer temporary.
#define SIMJOIN_RETURN_NOT_OK(expr) \
  SIMJOIN_RETURN_NOT_OK_IMPL_(expr, SIMJOIN_CONCAT_(_st_, __COUNTER__))
#define SIMJOIN_RETURN_NOT_OK_IMPL_(expr, st) \
  do {                                        \
    ::simjoin::Status st = (expr);            \
    if (!st.ok()) return st;                  \
  } while (0)

/// Assigns the value of a Result expression to lhs, or propagates its error.
#define SIMJOIN_ASSIGN_OR_RETURN(lhs, rexpr)       \
  auto SIMJOIN_CONCAT_(_res_, __LINE__) = (rexpr); \
  if (!SIMJOIN_CONCAT_(_res_, __LINE__).ok())      \
    return SIMJOIN_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(SIMJOIN_CONCAT_(_res_, __LINE__)).value()

#define SIMJOIN_CONCAT_IMPL_(a, b) a##b
#define SIMJOIN_CONCAT_(a, b) SIMJOIN_CONCAT_IMPL_(a, b)

}  // namespace simjoin

#endif  // SIMJOIN_COMMON_STATUS_H_
