#include <gtest/gtest.h>

#include "testing.h"
#include "timex/calendar.h"
#include "timex/clock.h"
#include "timex/duration.h"
#include "timex/granularity.h"
#include "timex/interval.h"
#include "timex/time_point.h"

namespace tempspec {
namespace {

using testing::Civil;
using testing::T;

TEST(TimePointTest, OrderingAndSentinels) {
  EXPECT_LT(T(1), T(2));
  EXPECT_LT(TimePoint::Min(), T(-1000));
  EXPECT_LT(T(1000), TimePoint::Max());
  EXPECT_TRUE(TimePoint::Max().IsMax());
  EXPECT_TRUE(TimePoint::Min().IsMin());
  EXPECT_FALSE(T(0).IsMax());
}

TEST(TimePointTest, Arithmetic) {
  EXPECT_EQ(T(10).MicrosSince(T(4)), 6'000'000);
  EXPECT_EQ(T(4) + Duration::Seconds(6), T(10));
  EXPECT_EQ(T(10) - Duration::Seconds(6), T(4));
  EXPECT_EQ((T(10) - T(4)).micros(), 6'000'000);
}

TEST(TimePointTest, ParseRejectsYearsOutsideTheRepresentableRange) {
  // int64 microseconds span roughly +/-292 000 years around the epoch; a
  // parsed year beyond that must not wrap around into some other instant.
  EXPECT_TRUE(ParseTimePoint("300000-01-01").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTimePoint("-300000-01-01").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTimePoint("2147483647-12-31").status().IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(TimePoint far, ParseTimePoint("200000-01-01"));
  EXPECT_LT(Civil(1992, 1, 1), far);
  EXPECT_LT(far, TimePoint::Max());
}

TEST(DurationTest, Factories) {
  EXPECT_EQ(Duration::Seconds(2).micros(), 2'000'000);
  EXPECT_EQ(Duration::Minutes(1).micros(), 60'000'000);
  EXPECT_EQ(Duration::Hours(1), Duration::Minutes(60));
  EXPECT_EQ(Duration::Days(1), Duration::Hours(24));
  EXPECT_EQ(Duration::Weeks(1), Duration::Days(7));
  EXPECT_EQ(Duration::Years(1), Duration::Months(12));
  EXPECT_TRUE(Duration::Zero().IsZero());
}

TEST(DurationTest, Signs) {
  EXPECT_TRUE(Duration::Seconds(1).IsPositive());
  EXPECT_TRUE(Duration::Seconds(-1).IsNegative());
  EXPECT_TRUE(Duration::Months(1).IsPositive());
  EXPECT_TRUE(Duration::Months(-2).IsNegative());
  EXPECT_FALSE(Duration::Zero().IsPositive());
  EXPECT_FALSE(Duration::Zero().IsNegative());
  // Mixed signs resolved by effect: one month minus one day is positive.
  EXPECT_TRUE((Duration::Months(1) - Duration::Days(1)).IsPositive());
  EXPECT_TRUE((Duration::Days(1) - Duration::Months(1)).IsNegative());
}

TEST(DurationTest, CalendricApplication) {
  EXPECT_EQ(Civil(1992, 1, 31) + Duration::Months(1), Civil(1992, 2, 29));
  EXPECT_EQ(Civil(1992, 1, 31) - Duration::Months(1), Civil(1991, 12, 31));
  // Months apply before the fixed part.
  EXPECT_EQ(Civil(1992, 1, 31) + (Duration::Months(1) + Duration::Days(1)),
            Civil(1992, 3, 1));
}

TEST(DurationTest, SentinelsAbsorb) {
  EXPECT_EQ(TimePoint::Max() + Duration::Days(5), TimePoint::Max());
  EXPECT_EQ(TimePoint::Min() - Duration::Days(5), TimePoint::Min());
}

TEST(DurationTest, ToStringPicksNaturalUnit) {
  EXPECT_EQ(Duration::Seconds(30).ToString(), "30s");
  EXPECT_EQ(Duration::Days(3).ToString(), "3d");
  EXPECT_EQ(Duration::Months(2).ToString(), "2mo");
  EXPECT_EQ(Duration::Zero().ToString(), "0");
  EXPECT_EQ(Duration::Micros(-5).ToString(), "-5us");
}

TEST(DurationTest, ParseSimpleUnits) {
  EXPECT_EQ(Duration::Parse("30s").ValueOrDie(), Duration::Seconds(30));
  EXPECT_EQ(Duration::Parse("5min").ValueOrDie(), Duration::Minutes(5));
  EXPECT_EQ(Duration::Parse("2h").ValueOrDie(), Duration::Hours(2));
  EXPECT_EQ(Duration::Parse("3d").ValueOrDie(), Duration::Days(3));
  EXPECT_EQ(Duration::Parse("1w").ValueOrDie(), Duration::Weeks(1));
  EXPECT_EQ(Duration::Parse("1mo").ValueOrDie(), Duration::Months(1));
  EXPECT_EQ(Duration::Parse("2y").ValueOrDie(), Duration::Years(2));
  EXPECT_EQ(Duration::Parse("250ms").ValueOrDie(), Duration::Millis(250));
  EXPECT_EQ(Duration::Parse("10us").ValueOrDie(), Duration::Micros(10));
}

TEST(DurationTest, ParseCompoundAndSigned) {
  EXPECT_EQ(Duration::Parse("1mo+2d").ValueOrDie(),
            Duration::Months(1) + Duration::Days(2));
  EXPECT_EQ(Duration::Parse("-45s").ValueOrDie(), Duration::Seconds(-45));
  EXPECT_EQ(Duration::Parse("1h+-30min").ValueOrDie(), Duration::Minutes(30));
}

TEST(DurationTest, ParseRoundTripsToString) {
  for (Duration d : {Duration::Seconds(30), Duration::Days(3), Duration::Months(2),
                     Duration::Months(1) + Duration::Days(2),
                     Duration::Micros(-5)}) {
    ASSERT_OK_AND_ASSIGN(Duration back, Duration::Parse(d.ToString()));
    EXPECT_EQ(back, d) << d.ToString();
  }
}

TEST(DurationTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Duration::Parse("").ok());
  EXPECT_FALSE(Duration::Parse("fast").ok());
  EXPECT_FALSE(Duration::Parse("3 parsecs").ok());
  EXPECT_FALSE(Duration::Parse("12").ok());  // bare number: unit required
  EXPECT_FALSE(Duration::Parse("12xx").ok());
}

TEST(GranularityTest, FixedTruncate) {
  const Granularity g = Granularity::Minute();
  EXPECT_EQ(g.Truncate(Civil(1992, 2, 3, 10, 30, 45)), Civil(1992, 2, 3, 10, 30));
  EXPECT_EQ(g.Truncate(Civil(1992, 2, 3, 10, 30)), Civil(1992, 2, 3, 10, 30));
  EXPECT_EQ(g.NextGranule(Civil(1992, 2, 3, 10, 30, 45)),
            Civil(1992, 2, 3, 10, 31));
  EXPECT_EQ(g.Ceil(Civil(1992, 2, 3, 10, 30)), Civil(1992, 2, 3, 10, 30));
  EXPECT_EQ(g.Ceil(Civil(1992, 2, 3, 10, 30, 1)), Civil(1992, 2, 3, 10, 31));
}

TEST(GranularityTest, TruncateNegativeTimes) {
  const Granularity g = Granularity::Second();
  const TimePoint t = Civil(1969, 12, 31, 23, 59, 59) + Duration::Micros(500000);
  EXPECT_EQ(g.Truncate(t), Civil(1969, 12, 31, 23, 59, 59));
}

TEST(GranularityTest, CalendricTruncate) {
  EXPECT_EQ(Granularity::Month().Truncate(Civil(1992, 2, 17, 5)),
            Civil(1992, 2, 1));
  EXPECT_EQ(Granularity::Year().Truncate(Civil(1992, 7, 4)), Civil(1992, 1, 1));
  EXPECT_EQ(Granularity::Month().NextGranule(Civil(1992, 2, 17)),
            Civil(1992, 3, 1));
}

TEST(GranularityTest, MultiUnitGranules) {
  const Granularity quarter(Granularity::Unit::kMonth, 3);
  EXPECT_EQ(quarter.Truncate(Civil(1992, 5, 20)), Civil(1992, 4, 1));
  const Granularity q15(Granularity::Unit::kMinute, 15);
  EXPECT_EQ(q15.Truncate(Civil(1992, 1, 1, 10, 44)), Civil(1992, 1, 1, 10, 30));
}

TEST(GranularityTest, SameWithinGranule) {
  const Granularity g = Granularity::Second();
  EXPECT_TRUE(g.Same(T(5) + Duration::Micros(100), T(5) + Duration::Micros(900)));
  EXPECT_FALSE(g.Same(T(5), T(6)));
}

TEST(GranularityTest, Parse) {
  ASSERT_OK_AND_ASSIGN(Granularity g, ParseGranularity("15min"));
  EXPECT_EQ(g, Granularity(Granularity::Unit::kMinute, 15));
  ASSERT_OK_AND_ASSIGN(Granularity mo, ParseGranularity("month"));
  EXPECT_EQ(mo, Granularity::Month());
  EXPECT_FALSE(ParseGranularity("fortnight").ok());
  EXPECT_FALSE(ParseGranularity("0s").ok());
}

TEST(IntervalTest, ContainsAndOverlap) {
  const TimeInterval iv(T(10), T(20));
  EXPECT_TRUE(iv.Contains(T(10)));
  EXPECT_TRUE(iv.Contains(T(19)));
  EXPECT_FALSE(iv.Contains(T(20)));  // half-open
  EXPECT_FALSE(iv.Contains(T(9)));
  EXPECT_TRUE(iv.Overlaps(TimeInterval(T(19), T(30))));
  EXPECT_FALSE(iv.Overlaps(TimeInterval(T(20), T(30))));  // meets, no overlap
  EXPECT_TRUE(iv.Contains(TimeInterval(T(12), T(18))));
}

TEST(IntervalTest, MakeRejectsInverted) {
  EXPECT_FALSE(TimeInterval::Make(T(20), T(10)).ok());
  EXPECT_TRUE(TimeInterval::Make(T(10), T(10)).ok());  // empty allowed
}

TEST(IntervalTest, Intersect) {
  const TimeInterval a(T(0), T(10));
  const TimeInterval b(T(5), T(15));
  EXPECT_EQ(a.Intersect(b), TimeInterval(T(5), T(10)));
  EXPECT_TRUE(a.Intersect(TimeInterval(T(20), T(30))).IsEmpty());
}

TEST(ClockTest, LogicalClockMonotone) {
  LogicalClock clock(T(100), Duration::Seconds(1));
  EXPECT_EQ(clock.Next(), T(100));
  EXPECT_EQ(clock.Next(), T(101));
  EXPECT_EQ(clock.Last(), T(101));
}

TEST(ClockTest, LogicalClockClampsBackwardJumps) {
  LogicalClock clock(T(100), Duration::Seconds(1));
  clock.Next();  // 100
  clock.SetTo(T(50));
  const TimePoint next = clock.Next();
  EXPECT_GT(next, T(100));  // never goes backwards
}

TEST(ClockTest, LogicalClockAdvance) {
  LogicalClock clock(T(0), Duration::Seconds(1));
  clock.Advance(Duration::Hours(1));
  EXPECT_EQ(clock.Next(), T(3600));
}

TEST(ClockTest, EnsureAfter) {
  LogicalClock clock(T(0), Duration::Seconds(1));
  clock.EnsureAfter(T(500));
  EXPECT_GT(clock.Next(), T(500));
}

TEST(ClockTest, SystemClockStrictlyIncreasing) {
  SystemClock clock;
  TimePoint prev = clock.Next();
  for (int i = 0; i < 1000; ++i) {
    const TimePoint next = clock.Next();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

}  // namespace
}  // namespace tempspec
