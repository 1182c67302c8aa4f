#include "timex/calendar.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace tempspec {

namespace {

// Floor division/modulo for possibly-negative microsecond counts.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

/// \brief FromCivil's microsecond count, or false when it leaves the
/// representable range: days * kMicrosPerDay overflows int64 beyond roughly
/// +/-292 000 years, and the +/-inf sentinels are not time points either.
bool CivilMicros(const CivilDateTime& c, int64_t* micros) {
  const int64_t time_of_day = c.hour * kMicrosPerHour +
                              c.minute * kMicrosPerMinute +
                              c.second * kMicrosPerSecond + c.micro;
  return !__builtin_mul_overflow(DaysFromCivil(c.year, c.month, c.day),
                                 kMicrosPerDay, micros) &&
         !__builtin_add_overflow(*micros, time_of_day, micros) &&
         *micros > TimePoint::Min().micros() &&
         *micros < TimePoint::Max().micros();
}

}  // namespace

int64_t DaysFromCivil(int32_t y, int32_t m, int32_t d) {
  // Hinnant's days_from_civil, shifting the year so the "era" starts Mar 1.
  int64_t yy = y;
  yy -= m <= 2;
  const int64_t era = (yy >= 0 ? yy : yy - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(yy - era * 400);             // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;   // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;             // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int32_t* year, int32_t* month, int32_t* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  *year = static_cast<int32_t>(y + (m <= 2));
  *month = static_cast<int32_t>(m);
  *day = static_cast<int32_t>(d);
}

bool IsLeapYear(int32_t year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

int32_t DaysInMonth(int32_t year, int32_t month) {
  static constexpr int32_t kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

CivilDateTime ToCivil(TimePoint tp) {
  CivilDateTime c;
  const int64_t micros = tp.micros();
  const int64_t days = FloorDiv(micros, kMicrosPerDay);
  int64_t rem = FloorMod(micros, kMicrosPerDay);
  CivilFromDays(days, &c.year, &c.month, &c.day);
  c.hour = static_cast<int32_t>(rem / kMicrosPerHour);
  rem %= kMicrosPerHour;
  c.minute = static_cast<int32_t>(rem / kMicrosPerMinute);
  rem %= kMicrosPerMinute;
  c.second = static_cast<int32_t>(rem / kMicrosPerSecond);
  c.micro = static_cast<int32_t>(rem % kMicrosPerSecond);
  return c;
}

TimePoint FromCivil(const CivilDateTime& c) {
  const int64_t days = DaysFromCivil(c.year, c.month, c.day);
  int64_t micros = days * kMicrosPerDay;
  micros += c.hour * kMicrosPerHour;
  micros += c.minute * kMicrosPerMinute;
  micros += c.second * kMicrosPerSecond;
  micros += c.micro;
  return TimePoint::FromMicros(micros);
}

TimePoint AddMonths(TimePoint tp, int64_t months) {
  if (tp.IsMin() || tp.IsMax()) return tp;
  // Results past the representable range saturate to the sentinels.
  const TimePoint saturated = months > 0 ? TimePoint::Max() : TimePoint::Min();
  CivilDateTime c = ToCivil(tp);
  int64_t linear = 0;
  if (__builtin_add_overflow(static_cast<int64_t>(c.year) * 12 + (c.month - 1),
                             months, &linear)) {
    return saturated;
  }
  const int64_t year = FloorDiv(linear, 12);
  if (year < INT32_MIN || year > INT32_MAX) return saturated;
  c.year = static_cast<int32_t>(year);
  c.month = static_cast<int32_t>(FloorMod(linear, 12)) + 1;
  const int32_t dim = DaysInMonth(c.year, c.month);
  if (c.day > dim) c.day = dim;
  int64_t micros = 0;
  if (!CivilMicros(c, &micros)) return saturated;
  return TimePoint::FromMicros(micros);
}

int64_t WholeMonthsBetween(TimePoint from, TimePoint to) {
  // Floor semantics: the largest k with AddMonths(from, k) <= to, valid for
  // either ordering of the operands. The civil-field estimate is off by at
  // most one month, so the adjustment loops run O(1) times.
  const CivilDateTime a = ToCivil(from);
  const CivilDateTime b = ToCivil(to);
  int64_t est = (static_cast<int64_t>(b.year) - a.year) * 12 + (b.month - a.month);
  while (AddMonths(from, est) > to) --est;
  while (AddMonths(from, est + 1) <= to) ++est;
  return est;
}

Result<TimePoint> ParseTimePoint(const std::string& text) {
  // The whole text must be "[-]Y-M-D[ h:m[:s[.fraction]]]" with every field
  // plain decimal digits: no signs inside fields, no trailing text.
  size_t pos = 0;
  const auto take = [&](char c) {
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  };
  const auto at_digit = [&] {
    return pos < text.size() && text[pos] >= '0' && text[pos] <= '9';
  };
  const auto number = [&](int32_t* out) {
    if (!at_digit()) return false;
    int64_t value = 0;
    while (at_digit()) {
      value = value * 10 + (text[pos++] - '0');
      if (value > INT32_MAX) return false;
    }
    *out = static_cast<int32_t>(value);
    return true;
  };
  CivilDateTime c;
  const bool negative_year = take('-');
  bool ok = number(&c.year) && take('-') && number(&c.month) && take('-') &&
            number(&c.day);
  if (ok && take(' ')) {
    ok = number(&c.hour) && take(':') && number(&c.minute);
    if (ok && take(':')) {
      ok = number(&c.second);
      if (ok && take('.')) {
        // Microseconds: the fraction's first six digits, right-padded.
        int places = 0;
        for (; at_digit(); ++pos) {
          if (places < 6) {
            c.micro = c.micro * 10 + (text[pos] - '0');
            ++places;
          }
        }
        ok = places > 0;
        for (; places < 6; ++places) c.micro *= 10;
      }
    }
  }
  if (!ok || pos != text.size()) {
    return Status::InvalidArgument("cannot parse time point: '", text, "'");
  }
  if (negative_year) c.year = -c.year;
  if (c.month < 1 || c.month > 12) {
    return Status::InvalidArgument("month out of range in '", text, "'");
  }
  if (c.day < 1 || c.day > DaysInMonth(c.year, c.month)) {
    return Status::InvalidArgument("day out of range in '", text, "'");
  }
  if (c.hour < 0 || c.hour > 23 || c.minute < 0 || c.minute > 59 || c.second < 0 ||
      c.second > 59) {
    return Status::InvalidArgument("time of day out of range in '", text, "'");
  }
  int64_t micros = 0;
  if (!CivilMicros(c, &micros)) {
    return Status::InvalidArgument("year out of range in '", text, "'");
  }
  return TimePoint::FromMicros(micros);
}

std::string FormatTimePoint(TimePoint tp) {
  if (tp.IsMin()) return "-inf";
  if (tp.IsMax()) return "+inf";
  const CivilDateTime c = ToCivil(tp);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%06d", c.year,
                c.month, c.day, c.hour, c.minute, c.second, c.micro);
  return buf;
}

}  // namespace tempspec
