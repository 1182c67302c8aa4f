#include "timex/duration.h"

#include <cctype>
#include <cinttypes>
#include <cstdlib>
#include <cstdio>

namespace tempspec {

bool Duration::IsNegative() const {
  if (months_ == 0) return micros_ < 0;
  if (micros_ == 0) return months_ < 0;
  if ((months_ < 0) == (micros_ < 0)) return months_ < 0;
  // Mixed signs: compare by effect on an arbitrary fixed anchor. A calendar
  // month spans 28..31 days, so the epoch (31-day January) gives the
  // magnitude we compare the fixed part against.
  const TimePoint anchor = TimePoint::FromMicros(0);
  return AddDuration(anchor, *this) < anchor;
}

std::string Duration::ToString() const {
  if (IsZero()) return "0";
  std::string out;
  char buf[32];
  if (months_ != 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "mo", months_);
    out += buf;
  }
  if (micros_ != 0) {
    if (!out.empty() && micros_ > 0) out += "+";
    int64_t us = micros_;
    if (us % kMicrosPerDay == 0) {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "d", us / kMicrosPerDay);
    } else if (us % kMicrosPerHour == 0) {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "h", us / kMicrosPerHour);
    } else if (us % kMicrosPerMinute == 0) {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "m", us / kMicrosPerMinute);
    } else if (us % kMicrosPerSecond == 0) {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "s", us / kMicrosPerSecond);
    } else {
      std::snprintf(buf, sizeof(buf), "%" PRId64 "us", us);
    }
    out += buf;
  }
  return out;
}

Result<Duration> Duration::Parse(const std::string& text) {
  if (text == "0") return Duration::Zero();  // ToString's zero form
  Duration total;
  size_t pos = 0;
  const std::string s = text;
  bool any = false;
  while (pos < s.size()) {
    // Optional sign, digits, unit letters; components separated by '+'.
    if (s[pos] == '+') {
      ++pos;
      continue;
    }
    int64_t sign = 1;
    if (s[pos] == '-') {
      sign = -1;
      ++pos;
    }
    size_t digits = pos;
    while (digits < s.size() && std::isdigit(static_cast<unsigned char>(s[digits]))) {
      ++digits;
    }
    if (digits == pos) {
      return Status::InvalidArgument("cannot parse duration: '", text, "'");
    }
    const int64_t count = sign * std::atoll(s.substr(pos, digits - pos).c_str());
    size_t unit_end = digits;
    while (unit_end < s.size() &&
           std::isalpha(static_cast<unsigned char>(s[unit_end]))) {
      ++unit_end;
    }
    const std::string unit = s.substr(digits, unit_end - digits);
    pos = unit_end;
    any = true;
    if (unit == "us" || unit == "usec") {
      total = total + Duration::Micros(count);
    } else if (unit == "ms") {
      total = total + Duration::Millis(count);
    } else if (unit == "s" || unit == "sec") {
      total = total + Duration::Seconds(count);
    } else if (unit == "min" || unit == "m") {
      total = total + Duration::Minutes(count);
    } else if (unit == "h" || unit == "hr") {
      total = total + Duration::Hours(count);
    } else if (unit == "d" || unit == "day" || unit == "days") {
      total = total + Duration::Days(count);
    } else if (unit == "w" || unit == "week" || unit == "weeks") {
      total = total + Duration::Weeks(count);
    } else if (unit == "mo" || unit == "month" || unit == "months") {
      total = total + Duration::Months(count);
    } else if (unit == "y" || unit == "yr" || unit == "year" || unit == "years") {
      total = total + Duration::Years(count);
    } else {
      return Status::InvalidArgument("unknown duration unit '", unit, "' in '",
                                     text, "'");
    }
  }
  if (!any) {
    return Status::InvalidArgument("empty duration: '", text, "'");
  }
  return total;
}

TimePoint AddDuration(TimePoint tp, Duration d) {
  if (tp.IsMin() || tp.IsMax()) return tp;  // sentinels absorb arithmetic
  TimePoint out = tp;
  if (d.months() != 0) out = AddMonths(out, d.months());
  if (d.micros() != 0 && !out.IsMin() && !out.IsMax()) {
    // Past either end of the time line the result saturates to the
    // sentinel: a window that reaches beyond it is unbounded on that side.
    int64_t micros = 0;
    if (__builtin_add_overflow(out.micros(), d.micros(), &micros)) {
      return d.micros() > 0 ? TimePoint::Max() : TimePoint::Min();
    }
    out = TimePoint::FromMicros(micros);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, Duration d) { return os << d.ToString(); }

}  // namespace tempspec
