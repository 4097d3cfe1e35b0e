/// \file status.h
/// \brief Error-handling primitives in the RocksDB/Arrow idiom.
///
/// AliGraph core paths do not throw: fallible operations return a Status
/// (for procedures) or a Result<T> (for functions producing a value).
/// Programmer errors (broken invariants) abort via the CHECK macros in
/// logging.h instead.

#ifndef ALIGRAPH_COMMON_STATUS_H_
#define ALIGRAPH_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace aligraph {

/// \brief Machine-readable error category carried by a Status.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kResourceExhausted = 6,
  kInternal = 7,
  kNotSupported = 8,
  kIoError = 9,
  /// A (simulated) remote worker failed to answer within the retry budget.
  /// Distinct from kResourceExhausted (local backpressure, e.g. a serve
  /// request shed at admission): Unavailable means retrying elsewhere or
  /// degrading; ResourceExhausted means backing off and retrying later.
  kUnavailable = 10,
};

/// \brief Returns a short human-readable name for a StatusCode.
const char* StatusCodeName(StatusCode code);

/// \brief The outcome of a fallible operation: either OK or a coded error
/// with a message.
///
/// Status is cheap to copy when OK (one byte of state plus an empty string)
/// and cheap to move always. Typical use:
///
/// \code
///   Status s = builder.AddEdge(src, dst);
///   if (!s.ok()) return s;
/// \endcode
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief Either a value of type T or an error Status.
///
/// Result replaces the (Status, out-parameter) pattern for value-producing
/// functions. Accessing the value of an error Result aborts, so callers must
/// check ok() first:
///
/// \code
///   Result<Graph> g = LoadGraph(path);
///   if (!g.ok()) return g.status();
///   Use(g.value());
/// \endcode
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error Status keeps call
  /// sites terse ("return MakeGraph();" / "return Status::NotFound(...)").
  Result(T value) : var_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : var_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(var_); }

  /// Returns OK when holding a value, the stored error otherwise.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(var_);
  }

  const T& value() const& { return std::get<T>(var_); }
  T& value() & { return std::get<T>(var_); }
  T&& value() && { return std::get<T>(std::move(var_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value when OK, otherwise the provided fallback.
  T value_or(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> var_;
};

/// Propagates an error Status out of the enclosing function.
#define ALIGRAPH_RETURN_NOT_OK(expr)                 \
  do {                                               \
    ::aligraph::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                       \
  } while (0)

#define ALIGRAPH_CONCAT_IMPL(a, b) a##b
#define ALIGRAPH_CONCAT(a, b) ALIGRAPH_CONCAT_IMPL(a, b)

/// Evaluates a Result expression, propagating errors, else binds the value.
#define ALIGRAPH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) {                                     \
    return tmp.status();                               \
  }                                                    \
  lhs = std::move(tmp).value();

#define ALIGRAPH_ASSIGN_OR_RETURN(lhs, expr) \
  ALIGRAPH_ASSIGN_OR_RETURN_IMPL(ALIGRAPH_CONCAT(_res_, __LINE__), lhs, expr)

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_STATUS_H_
