#include "storage/encoding.h"

#include <gtest/gtest.h>

#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

TEST(VarintTest, RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16384ull,
                     0xFFFFFFFFull, ~0ull}) {
    std::string buf;
    PutVarint(v, &buf);
    std::string_view view = buf;
    EXPECT_EQ(GetVarint(&view).ValueOrDie(), v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, TruncatedDetected) {
  std::string buf;
  PutVarint(1u << 20, &buf);
  std::string_view view(buf.data(), buf.size() - 1);
  EXPECT_TRUE(GetVarint(&view).status().IsCorruption());
}

TEST(VarintTest, OverlongIsCorruptionNotTruncatedBits) {
  // Ten bytes carry 64 bits only when the tenth is 0 or 1.
  std::string max(9, '\xFF');
  max += '\x01';
  std::string_view view = max;
  EXPECT_EQ(GetVarint(&view).ValueOrDie(), ~0ull);
  for (const char tenth : {'\x02', '\x7F', '\x81'}) {
    std::string bad(9, '\x80');
    bad += tenth;
    bad += '\x00';  // a terminator after a continued tenth byte
    std::string_view in = bad;
    const Status st = GetVarint(&in).status();
    EXPECT_TRUE(st.IsCorruption()) << static_cast<int>(tenth);
    EXPECT_NE(st.ToString().find("overflows 64 bits"), std::string::npos)
        << st.ToString();
  }
  // No terminator within ten bytes at all.
  const std::string endless(16, '\x80');
  std::string_view in = endless;
  const Status st = GetVarint(&in).status();
  EXPECT_NE(st.ToString().find("overflows 64 bits"), std::string::npos)
      << st.ToString();
}

TEST(VarintTest, SizeMatchesTheEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 16383ull, 16384ull, ~0ull}) {
    std::string buf;
    PutVarint(v, &buf);
    EXPECT_EQ(VarintSize(v), buf.size()) << v;
  }
}

TEST(ZigZagTest, RoundTrip) {
  for (int64_t v : {0ll, 1ll, -1ll, 63ll, -64ll, 1ll << 40, -(1ll << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes stay small.
  EXPECT_LT(ZigZagEncode(-3), 10u);
}

std::vector<TimePoint> RegularStamps(size_t n, int64_t unit_s) {
  std::vector<TimePoint> out;
  for (size_t i = 0; i < n; ++i) out.push_back(T(1000 + i * unit_s));
  return out;
}

TEST(TimestampEncodingTest, RawRoundTrip) {
  const auto stamps = RegularStamps(100, 7);
  const std::string data = EncodeTimestampsRaw(stamps);
  EXPECT_EQ(data.size(), 4 + 100 * 8);
  ASSERT_OK_AND_ASSIGN(auto back, DecodeTimestampsRaw(data));
  EXPECT_EQ(back, stamps);
}

TEST(TimestampEncodingTest, DeltaRoundTripAndSmaller) {
  const auto stamps = RegularStamps(1000, 10);
  const std::string raw = EncodeTimestampsRaw(stamps);
  const std::string delta = EncodeTimestampsDelta(stamps);
  ASSERT_OK_AND_ASSIGN(auto back, DecodeTimestampsDelta(delta));
  EXPECT_EQ(back, stamps);
  // 10-second deltas need 4 varint bytes each vs 8 raw bytes.
  EXPECT_LT(delta.size(), raw.size() * 5 / 8);
}

TEST(TimestampEncodingTest, DeltaHandlesUnsortedAndNegative) {
  std::vector<TimePoint> stamps = {T(100), T(-50), T(3000), T(2999), T(0)};
  ASSERT_OK_AND_ASSIGN(auto back, DecodeTimestampsDelta(EncodeTimestampsDelta(stamps)));
  EXPECT_EQ(back, stamps);
}

TEST(TimestampEncodingTest, UnitEncodingRoundTripAndTiny) {
  const auto stamps = RegularStamps(1000, 60);  // one-minute unit
  ASSERT_OK_AND_ASSIGN(std::string unit,
                       EncodeTimestampsUnit(stamps, 60 * kMicrosPerSecond));
  ASSERT_OK_AND_ASSIGN(auto back, DecodeTimestampsUnit(unit));
  EXPECT_EQ(back, stamps);
  // Strictly regular stamps cost ~1 byte each (k-delta = 1).
  EXPECT_LT(unit.size(), 4 + 8 + 8 + 1000 * 2);
  const std::string delta = EncodeTimestampsDelta(stamps);
  EXPECT_LT(unit.size(), delta.size());
}

TEST(TimestampEncodingTest, UnitEncodingRejectsIrregularStamps) {
  std::vector<TimePoint> stamps = {T(0), T(60), T(95)};
  auto result = EncodeTimestampsUnit(stamps, 60 * kMicrosPerSecond);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TimestampEncodingTest, EmptyColumns) {
  ASSERT_OK_AND_ASSIGN(auto raw, DecodeTimestampsRaw(EncodeTimestampsRaw({})));
  EXPECT_TRUE(raw.empty());
  ASSERT_OK_AND_ASSIGN(auto delta, DecodeTimestampsDelta(EncodeTimestampsDelta({})));
  EXPECT_TRUE(delta.empty());
  ASSERT_OK_AND_ASSIGN(std::string unit, EncodeTimestampsUnit({}, 1000));
  ASSERT_OK_AND_ASSIGN(auto u, DecodeTimestampsUnit(unit));
  EXPECT_TRUE(u.empty());
}

TEST(TimestampEncodingTest, RandomizedNonStrictRegular) {
  Random rng(19);
  // Congruent but unevenly spaced (non-strict regularity).
  std::vector<TimePoint> stamps;
  int64_t k = 0;
  for (int i = 0; i < 500; ++i) {
    k += rng.Uniform(0, 20);
    stamps.push_back(T(500) + Duration::Seconds(k * 30));
  }
  ASSERT_OK_AND_ASSIGN(std::string unit,
                       EncodeTimestampsUnit(stamps, 30 * kMicrosPerSecond));
  ASSERT_OK_AND_ASSIGN(auto back, DecodeTimestampsUnit(unit));
  EXPECT_EQ(back, stamps);
  EXPECT_LT(unit.size(), EncodeTimestampsRaw(stamps).size());
}

}  // namespace
}  // namespace tempspec
