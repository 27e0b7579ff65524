// Status / Result error-handling primitives (Arrow / RocksDB idiom).
//
// Library code returns gum::Status (or gum::Result<T> when a value is
// produced) instead of throwing; exceptions are never used on hot paths.
// The GUM_RETURN_IF_ERROR / GUM_ASSIGN_OR_RETURN macros make propagation
// terse.

#ifndef GUM_COMMON_STATUS_H_
#define GUM_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace gum {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kInternal,
  kIoError,
  kInfeasible,  // optimization problem has no feasible solution
  kUnbounded,   // optimization problem is unbounded
};

// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

// A Status holds either success (Ok) or an error code plus message.
// Copying an error Status copies the message; Ok statuses are free.
class Status {
 public:
  Status() = default;  // Ok.

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_unique<Rep>(Rep{code, std::move(message)});
    }
  }

  Status(const Status& other) { *this = other; }
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Unbounded(std::string msg) {
    return Status(StatusCode::kUnbounded, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;  // null == Ok
};

// Result<T> holds either a T or an error Status. Accessing the value of an
// errored Result aborts (programming error), mirroring arrow::Result.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}              // NOLINT(runtime/explicit)
  Result(Status status) : var_(std::move(status)) {}       // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(var_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(var_);
  }

  T& value() & { return std::get<T>(var_); }
  const T& value() const& { return std::get<T>(var_); }
  T&& value() && { return std::get<T>(std::move(var_)); }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(var_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> var_;
};

}  // namespace gum

#define GUM_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::gum::Status _gum_status = (expr);             \
    if (!_gum_status.ok()) return _gum_status;      \
  } while (0)

#define GUM_CONCAT_IMPL(a, b) a##b
#define GUM_CONCAT(a, b) GUM_CONCAT_IMPL(a, b)

#define GUM_ASSIGN_OR_RETURN(lhs, expr)                        \
  auto GUM_CONCAT(_gum_result_, __LINE__) = (expr);            \
  if (!GUM_CONCAT(_gum_result_, __LINE__).ok())                \
    return GUM_CONCAT(_gum_result_, __LINE__).status();        \
  lhs = std::move(GUM_CONCAT(_gum_result_, __LINE__)).value()

#endif  // GUM_COMMON_STATUS_H_
