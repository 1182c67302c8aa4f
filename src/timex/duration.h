// Duration: the Δt bounds of the taxonomy.
//
// Section 3.1: "this time bound is a duration that may be fixed in length
// (e.g., 30 seconds, one day) or may be calendric-specific", e.g. one month,
// whose absolute length depends on the instant it is applied to. A Duration
// therefore carries a calendar-month component plus a fixed microsecond
// component, and is *applied to* a TimePoint rather than converted to a
// number.
#ifndef TEMPSPEC_TIMEX_DURATION_H_
#define TEMPSPEC_TIMEX_DURATION_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "timex/calendar.h"
#include "timex/time_point.h"
#include "util/result.h"

namespace tempspec {

/// \brief A signed span of time: `months` calendar months plus `micros`
/// microseconds, applied in that order.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration Micros(int64_t n) { return Duration(0, n); }
  static constexpr Duration Millis(int64_t n) { return Duration(0, n * 1000); }
  static constexpr Duration Seconds(int64_t n) {
    return Duration(0, n * kMicrosPerSecond);
  }
  static constexpr Duration Minutes(int64_t n) {
    return Duration(0, n * kMicrosPerMinute);
  }
  static constexpr Duration Hours(int64_t n) { return Duration(0, n * kMicrosPerHour); }
  static constexpr Duration Days(int64_t n) { return Duration(0, n * kMicrosPerDay); }
  static constexpr Duration Weeks(int64_t n) { return Duration(0, n * kMicrosPerWeek); }
  /// \brief Calendric months: 1992-01-31 + Months(1) = 1992-02-29.
  static constexpr Duration Months(int64_t n) { return Duration(n, 0); }
  static constexpr Duration Years(int64_t n) { return Duration(n * 12, 0); }
  static constexpr Duration Zero() { return Duration(); }

  constexpr int64_t months() const { return months_; }
  constexpr int64_t micros() const { return micros_; }

  /// \brief True if the duration has no calendric component and can therefore
  /// be treated as a fixed number of chronons.
  constexpr bool IsFixed() const { return months_ == 0; }
  constexpr bool IsZero() const { return months_ == 0 && micros_ == 0; }

  /// \brief Sign assuming both components agree or one is zero; mixed-sign
  /// durations are compared by their effect on the epoch.
  bool IsNegative() const;
  bool IsPositive() const { return !IsZero() && !IsNegative(); }

  constexpr Duration operator-() const { return Duration(-months_, -micros_); }
  constexpr Duration operator+(Duration other) const {
    return Duration(months_ + other.months_, micros_ + other.micros_);
  }
  constexpr Duration operator-(Duration other) const {
    return Duration(months_ - other.months_, micros_ - other.micros_);
  }
  constexpr Duration operator*(int64_t k) const {
    return Duration(months_ * k, micros_ * k);
  }

  friend constexpr bool operator==(Duration a, Duration b) = default;

  /// \brief e.g. "2mo+3d", "30s", "0".
  std::string ToString() const;

  /// \brief Parses "30s", "5min", "2h", "3d", "1w", "1mo", "2y", "250ms",
  /// "10us", and +-separated combinations like "1mo+2d". Signs allowed.
  static Result<Duration> Parse(const std::string& text);

 private:
  constexpr Duration(int64_t months, int64_t micros)
      : months_(months), micros_(micros) {}

  int64_t months_ = 0;
  int64_t micros_ = 0;
};

/// \brief Applies a duration to an instant: months first (day-clamped), then
/// the fixed component. Sentinel instants are absorbing, and a result past
/// either end of the time line saturates to Min()/Max().
TimePoint AddDuration(TimePoint tp, Duration d);

inline TimePoint operator+(TimePoint tp, Duration d) { return AddDuration(tp, d); }
inline TimePoint operator-(TimePoint tp, Duration d) { return AddDuration(tp, -d); }

/// \brief Fixed-duration difference between two instants (no calendric part).
inline Duration operator-(TimePoint a, TimePoint b) {
  return Duration::Micros(a.MicrosSince(b));
}

std::ostream& operator<<(std::ostream& os, Duration d);

}  // namespace tempspec

#endif  // TEMPSPEC_TIMEX_DURATION_H_
