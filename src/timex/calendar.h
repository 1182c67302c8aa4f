// Proleptic-Gregorian civil calendar arithmetic.
//
// The paper's bounds may be "calendric-specific", e.g. one month, whose length
// in days depends on the date it is applied to (Section 3.1). Supporting such
// bounds requires real calendar arithmetic; the conversions here follow the
// well-known Howard Hinnant civil-date algorithms.
#ifndef TEMPSPEC_TIMEX_CALENDAR_H_
#define TEMPSPEC_TIMEX_CALENDAR_H_

#include <cstdint>
#include <string>

#include "timex/time_point.h"
#include "util/result.h"

namespace tempspec {

/// \brief Broken-down UTC date-time.
struct CivilDateTime {
  int32_t year = 1970;
  int32_t month = 1;  // 1..12
  int32_t day = 1;    // 1..31
  int32_t hour = 0;
  int32_t minute = 0;
  int32_t second = 0;
  int32_t micro = 0;

  friend bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

/// \brief Days since 1970-01-01 for the given civil date (proleptic Gregorian).
int64_t DaysFromCivil(int32_t year, int32_t month, int32_t day);

/// \brief Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int32_t* year, int32_t* month, int32_t* day);

/// \brief True for Gregorian leap years.
bool IsLeapYear(int32_t year);

/// \brief Number of days in the given month (1..12).
int32_t DaysInMonth(int32_t year, int32_t month);

/// \brief Breaks a TimePoint into civil UTC fields. Sentinels are not allowed.
CivilDateTime ToCivil(TimePoint tp);

/// \brief Builds a TimePoint from civil UTC fields (fields must be in range).
TimePoint FromCivil(const CivilDateTime& c);

/// \brief Adds `months` calendar months, clamping the day-of-month to the
/// target month's length (1992-01-31 + 1 month = 1992-02-29). Sentinels
/// are absorbing; a result past either end of the time line saturates to
/// TimePoint::Min()/Max().
TimePoint AddMonths(TimePoint tp, int64_t months);

/// \brief Whole calendar months from `from` to `to` (floor), the inverse
/// notion used when checking calendric bounds.
int64_t WholeMonthsBetween(TimePoint from, TimePoint to);

/// \brief Parses "YYYY-MM-DD[ HH:MM[:SS[.ffffff]]]" (UTC; a leading "-"
/// negates the year). Every field is decimal digits, the fraction
/// keeps its first six digits, and any other text is InvalidArgument.
Result<TimePoint> ParseTimePoint(const std::string& text);

/// \brief Formats as "YYYY-MM-DD HH:MM:SS.ffffff".
std::string FormatTimePoint(TimePoint tp);

}  // namespace tempspec

#endif  // TEMPSPEC_TIMEX_CALENDAR_H_
