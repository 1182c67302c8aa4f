#include "timex/calendar.h"
#include "timex/duration.h"

#include <gtest/gtest.h>

#include "testing.h"

namespace tempspec {
namespace {

using testing::Civil;

TEST(CalendarTest, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  int32_t y, m, d;
  CivilFromDays(0, &y, &m, &d);
  EXPECT_EQ(y, 1970);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(d, 1);
}

TEST(CalendarTest, KnownDates) {
  // 1992-02-03: the ICDE'92 era.
  EXPECT_EQ(DaysFromCivil(1992, 2, 3), 8068);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
}

class CivilRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(CivilRoundTripTest, DaysRoundTrip) {
  const int64_t days = GetParam();
  int32_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  EXPECT_EQ(DaysFromCivil(y, m, d), days);
  EXPECT_GE(m, 1);
  EXPECT_LE(m, 12);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, DaysInMonth(y, m));
}

INSTANTIATE_TEST_SUITE_P(SweepDays, CivilRoundTripTest,
                         ::testing::Values(-1000000, -100000, -1, 0, 1, 59,
                                           8068, 10957, 11016, 11017, 18262,
                                           100000, 1000000));

TEST(CalendarTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(1992));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(1991));
  EXPECT_EQ(DaysInMonth(1992, 2), 29);
  EXPECT_EQ(DaysInMonth(1991, 2), 28);
  EXPECT_EQ(DaysInMonth(1992, 1), 31);
  EXPECT_EQ(DaysInMonth(1992, 4), 30);
}

TEST(CalendarTest, ToCivilAndBack) {
  const TimePoint tp = Civil(1992, 2, 3, 10, 30, 15) + Duration::Micros(123456);
  const CivilDateTime c = ToCivil(tp);
  EXPECT_EQ(c.year, 1992);
  EXPECT_EQ(c.month, 2);
  EXPECT_EQ(c.day, 3);
  EXPECT_EQ(c.hour, 10);
  EXPECT_EQ(c.minute, 30);
  EXPECT_EQ(c.second, 15);
  EXPECT_EQ(c.micro, 123456);
  EXPECT_EQ(FromCivil(c), tp);
}

TEST(CalendarTest, NegativeTimesDecodeCorrectly) {
  const TimePoint tp = Civil(1969, 12, 31, 23, 59, 59);
  const CivilDateTime c = ToCivil(tp);
  EXPECT_EQ(c.year, 1969);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 31);
  EXPECT_EQ(c.hour, 23);
}

TEST(CalendarTest, AddMonthsBasic) {
  EXPECT_EQ(AddMonths(Civil(1992, 1, 15), 1), Civil(1992, 2, 15));
  EXPECT_EQ(AddMonths(Civil(1992, 1, 15), 12), Civil(1993, 1, 15));
  EXPECT_EQ(AddMonths(Civil(1992, 1, 15), -1), Civil(1991, 12, 15));
}

TEST(CalendarTest, AddMonthsClampsDayOfMonth) {
  // "a month in the Gregorian calendar contains 28 to 31 days, depending on
  // the date to which the duration is added" (Section 3.1).
  EXPECT_EQ(AddMonths(Civil(1992, 1, 31), 1), Civil(1992, 2, 29));  // leap
  EXPECT_EQ(AddMonths(Civil(1991, 1, 31), 1), Civil(1991, 2, 28));
  EXPECT_EQ(AddMonths(Civil(1992, 3, 31), 1), Civil(1992, 4, 30));
}

TEST(CalendarTest, AddMonthsAcrossYearBoundary) {
  EXPECT_EQ(AddMonths(Civil(1992, 11, 30), 3), Civil(1993, 2, 28));
  EXPECT_EQ(AddMonths(Civil(1992, 2, 29), -2), Civil(1991, 12, 29));
}

TEST(CalendarTest, ArithmeticPastTheEndsOfTimeSaturates) {
  // TimePoint::Min() is -290308-12-22 and Max() 294247-01-10 (int64
  // microseconds around 1970); a result beyond either end is the
  // sentinel, never a wrapped int64. Sentinels absorb arithmetic.
  const TimePoint late = ParseTimePoint("294247-01-08 00:00:00").ValueOrDie();
  const TimePoint early = ParseTimePoint("-290308-12-25 00:00:00").ValueOrDie();
  EXPECT_EQ(late + Duration::Days(5), TimePoint::Max());
  EXPECT_EQ(late + Duration::Months(1), TimePoint::Max());
  EXPECT_EQ(late + Duration::Years(400000), TimePoint::Max());
  EXPECT_EQ(early - Duration::Days(5), TimePoint::Min());
  EXPECT_EQ(early - Duration::Months(1), TimePoint::Min());
  EXPECT_EQ(AddMonths(TimePoint::Max(), -1), TimePoint::Max());
  EXPECT_EQ(AddMonths(TimePoint::Min(), 1), TimePoint::Min());
  // In range, nothing changes.
  EXPECT_EQ(late + Duration::Days(1),
            ParseTimePoint("294247-01-09 00:00:00").ValueOrDie());
}

TEST(CalendarTest, WholeMonthsBetween) {
  EXPECT_EQ(WholeMonthsBetween(Civil(1992, 1, 1), Civil(1992, 3, 1)), 2);
  EXPECT_EQ(WholeMonthsBetween(Civil(1992, 1, 1), Civil(1992, 2, 29)), 1);
  EXPECT_EQ(WholeMonthsBetween(Civil(1992, 1, 15), Civil(1992, 2, 14)), 0);
  EXPECT_EQ(WholeMonthsBetween(Civil(1992, 3, 1), Civil(1992, 1, 1)), -2);
}

TEST(CalendarTest, ParseFull) {
  ASSERT_OK_AND_ASSIGN(TimePoint tp,
                       ParseTimePoint("1992-02-03 10:30:15.250000"));
  EXPECT_EQ(tp, Civil(1992, 2, 3, 10, 30, 15) + Duration::Micros(250000));
}

TEST(CalendarTest, ParseDateOnly) {
  ASSERT_OK_AND_ASSIGN(TimePoint tp, ParseTimePoint("1992-02-03"));
  EXPECT_EQ(tp, Civil(1992, 2, 3));
}

TEST(CalendarTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTimePoint("not a date").ok());
  EXPECT_FALSE(ParseTimePoint("1992-13-01").ok());
  EXPECT_FALSE(ParseTimePoint("1992-02-30").ok());
  EXPECT_FALSE(ParseTimePoint("1992-02-03 25:00:00").ok());
}

TEST(CalendarTest, ParseRejectsMalformedFractionsAndTrailingText) {
  // Neither a signed or empty fraction nor trailing text may be read as
  // some nearby instant.
  for (const char* bad :
       {"2020-01-01 00:00:00.-5", "2020-01-01 00:00:00.xyz",
        "2020-01-01 00:00:00.", "2020-01-01 00:00:00.5x",
        "2020-01-01 garbage", "2020-01-01 00:00:00 garbage",
        "2020-01-01 00:00:00Z", "2020-01-01 10", "2020-01-01 10:-5",
        "2020-+1-01", " 2020-01-01", "2020-01-01 "}) {
    EXPECT_TRUE(ParseTimePoint(bad).status().IsInvalidArgument()) << bad;
  }
}

TEST(CalendarTest, ParseAcceptsEveryDocumentedForm) {
  EXPECT_EQ(ParseTimePoint("2020-01-01").ValueOrDie(), Civil(2020, 1, 1));
  EXPECT_EQ(ParseTimePoint("2020-01-01 10:20").ValueOrDie(),
            Civil(2020, 1, 1, 10, 20));
  EXPECT_EQ(ParseTimePoint("2020-01-01 10:20:30").ValueOrDie(),
            Civil(2020, 1, 1, 10, 20, 30));
  // A fraction of any length: its first six digits are microseconds.
  EXPECT_EQ(ParseTimePoint("2020-01-01 10:20:30.5").ValueOrDie(),
            Civil(2020, 1, 1, 10, 20, 30) + Duration::Micros(500000));
  EXPECT_EQ(ParseTimePoint("2020-01-01 10:20:30.000007").ValueOrDie(),
            Civil(2020, 1, 1, 10, 20, 30) + Duration::Micros(7));
  EXPECT_EQ(ParseTimePoint("2020-01-01 10:20:30.123456789").ValueOrDie(),
            Civil(2020, 1, 1, 10, 20, 30) + Duration::Micros(123456));
}

TEST(CalendarTest, FormatRoundTrip) {
  const TimePoint tp = Civil(1992, 2, 3, 4, 5, 6) + Duration::Micros(7);
  ASSERT_OK_AND_ASSIGN(TimePoint back, ParseTimePoint(FormatTimePoint(tp)));
  EXPECT_EQ(back, tp);
}

TEST(CalendarTest, FormatSentinels) {
  EXPECT_EQ(FormatTimePoint(TimePoint::Min()), "-inf");
  EXPECT_EQ(FormatTimePoint(TimePoint::Max()), "+inf");
}

}  // namespace
}  // namespace tempspec
