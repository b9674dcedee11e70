#ifndef AIRINDEX_COMMON_RESULT_H_
#define AIRINDEX_COMMON_RESULT_H_

#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace airindex {

/// A value-or-error type: either holds a T or a non-OK Status.
///
/// Usage:
///
///   Result<Dataset> r = Dataset::Generate(config);
///   if (!r.ok()) return r.status();
///   Dataset dataset = std::move(r).value();
///
/// Calling value() on an error Result aborts the process (this library is
/// exception-free; an unchecked error is a programming bug, not a
/// recoverable condition).
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs an error result from a non-OK status. Aborts if `status`
  /// is OK (an OK Result must carry a value).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) std::abort();
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  /// True if this result holds a value.
  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is present, the error otherwise.
  const Status& status() const { return status_; }

  /// The held value. Aborts if this result is an error.
  const T& value() const& {
    if (!ok()) std::abort();
    return *value_;
  }

  /// Moves the held value out. Aborts if this result is an error.
  T value() && {
    if (!ok()) std::abort();
    return std::move(*value_);
  }

  /// The held value (mutable). Aborts if this result is an error.
  T& value() & {
    if (!ok()) std::abort();
    return *value_;
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace airindex

#endif  // AIRINDEX_COMMON_RESULT_H_
