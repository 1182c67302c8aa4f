#include "storage/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "storage/backlog.h"
#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutDouble(3.14159);
  enc.PutString("hello");
  enc.PutTimePoint(T(123));
  enc.PutVarint(300);
  enc.PutSignedVarint(-300);

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(dec.GetU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64().ValueOrDie(), -42);
  EXPECT_DOUBLE_EQ(dec.GetDouble().ValueOrDie(), 3.14159);
  EXPECT_EQ(dec.GetString().ValueOrDie(), "hello");
  EXPECT_EQ(dec.GetTimePoint().ValueOrDie(), T(123));
  EXPECT_EQ(dec.GetVarint().ValueOrDie(), 300u);
  EXPECT_EQ(dec.GetSignedVarint().ValueOrDie(), -300);
  EXPECT_TRUE(dec.exhausted());
}

TEST(SerdeTest, UnderflowDetected) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU32(7);
  Decoder dec(buf);
  EXPECT_TRUE(dec.GetU64().status().IsCorruption());
  // String whose claimed length exceeds the remaining bytes.
  std::string bad;
  Encoder enc2(&bad);
  enc2.PutVarint(1000);
  bad += "short";
  Decoder dec2(bad);
  EXPECT_TRUE(dec2.GetString().status().IsCorruption());
  // A tuple count larger than the bytes left is refused before any
  // allocation is sized by it.
  std::string huge;
  Encoder enc3(&huge);
  enc3.PutVarint(std::numeric_limits<uint64_t>::max());
  Decoder dec3(huge);
  EXPECT_TRUE(DecodeTuple(&dec3).status().IsCorruption());
}

TEST(SerdeTest, ValuesRoundTrip) {
  const Value values[] = {Value::Null(), Value(true),   Value(int64_t{-7}),
                          Value(2.75),   Value("text"), Value(T(99))};
  for (const Value& v : values) {
    std::string buf;
    Encoder enc(&buf);
    EncodeValue(v, &enc);
    Decoder dec(buf);
    ASSERT_OK_AND_ASSIGN(Value back, DecodeValue(&dec));
    EXPECT_EQ(back, v) << v.ToString();
  }
}

TEST(SerdeTest, SmallIntsAndTimesTakeFewBytes) {
  // Tag plus a one-byte zigzag varint; a double stays 8 bytes.
  for (const Value& v : {Value(int64_t{-64}), Value(int64_t{63}),
                         Value(TimePoint::FromMicros(-1))}) {
    std::string buf;
    Encoder enc(&buf);
    EncodeValue(v, &enc);
    EXPECT_EQ(buf.size(), 2u) << v.ToString();
  }
  std::string buf;
  Encoder enc(&buf);
  EncodeValue(Value(0.5), &enc);
  EXPECT_EQ(buf.size(), 9u);
}

TEST(SerdeTest, TupleRoundTrip) {
  const Tuple t{int64_t{1}, "abc", 2.5, Value::Null()};
  std::string buf;
  Encoder enc(&buf);
  EncodeTuple(t, &enc);
  Decoder dec(buf);
  ASSERT_OK_AND_ASSIGN(Tuple back, DecodeTuple(&dec));
  EXPECT_EQ(back, t);
}

// --- The backlog record codec ----------------------------------------------

// base + offset, modulo 2^64 (stamps near the sentinels wrap).
TimePoint Shift(TimePoint base, int64_t offset) {
  return TimePoint::FromMicros(static_cast<int64_t>(
      static_cast<uint64_t>(base.micros()) + static_cast<uint64_t>(offset)));
}

TimePoint RandomStamp(Random& rng) {
  switch (rng.Uniform(0, 5)) {
    case 0:
      return TimePoint::Min();
    case 1:
      return TimePoint::Max();
    case 2:
      return TimePoint::FromMicros(static_cast<int64_t>(rng.engine()()));
    case 3:
      return T(rng.Uniform(-2'000'000'000, 2'000'000'000));
    case 4:
      return TimePoint::FromMicros(rng.Uniform(-1'000'000'000, 1'000'000'000));
    default:
      return TimePoint::FromMicros(rng.Uniform(-3, 3));
  }
}

// A stamp near `base` (whole seconds or microseconds apart) or anywhere.
TimePoint StampNear(TimePoint base, Random& rng) {
  switch (rng.Uniform(0, 2)) {
    case 0:
      return Shift(base, rng.Uniform(-7200, 7200) * kMicrosPerSecond);
    case 1:
      return Shift(base, rng.Uniform(-5'000'000, 5'000'000));
    default:
      return RandomStamp(rng);
  }
}

uint64_t RandomSurrogate(Random& rng) {
  switch (rng.Uniform(0, 4)) {
    case 0:
      return std::numeric_limits<uint64_t>::max();
    case 1:
      return static_cast<uint64_t>(rng.Uniform(0, 127));
    case 2:
      return static_cast<uint64_t>(rng.Uniform(128, 1 << 20));
    default:
      return rng.engine()();
  }
}

Value RandomValue(Random& rng) {
  switch (static_cast<ValueType>(rng.Uniform(0, 5))) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value(rng.OneIn(0.5));
    case ValueType::kInt64: {
      const int64_t edges[] = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max()};
      return rng.OneIn(0.3) ? Value(edges[rng.Uniform(0, 4)])
                            : Value(static_cast<int64_t>(rng.engine()()));
    }
    case ValueType::kDouble: {
      const double edges[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::denorm_min()};
      return rng.OneIn(0.3) ? Value(edges[rng.Uniform(0, 5)])
                            : Value(rng.Gaussian(0, 1e6));
    }
    case ValueType::kString: {
      const size_t lengths[] = {0, 1, 127, 128, 70'000};
      const size_t n = rng.OneIn(0.3)
                           ? lengths[rng.Uniform(0, 4)]
                           : static_cast<size_t>(rng.Uniform(0, 40));
      std::string s(n, '\0');
      for (char& c : s) c = static_cast<char>(rng.Uniform(0, 255));
      return Value(std::move(s));
    }
    case ValueType::kTime:
      return Value(RandomStamp(rng));
  }
  return Value::Null();
}

BacklogEntry RandomEntry(Random& rng) {
  BacklogEntry entry;
  if (rng.OneIn(0.2)) {
    entry.op = BacklogOpType::kLogicalDelete;
    entry.tt = rng.OneIn(0.5) ? T(rng.Uniform(0, 1'000'000)) : RandomStamp(rng);
    entry.target = RandomSurrogate(rng);
    return entry;
  }
  Element& e = entry.element;
  e.element_surrogate = RandomSurrogate(rng);
  e.object_surrogate = RandomSurrogate(rng);
  e.tt_begin = rng.OneIn(0.5) ? T(rng.Uniform(0, 1'000'000)) : RandomStamp(rng);
  entry.tt = rng.OneIn(0.7) ? e.tt_begin : StampNear(e.tt_begin, rng);
  const TimePoint vb = StampNear(e.tt_begin, rng);
  e.valid = rng.OneIn(0.5) ? ValidTime::Event(vb)
                           : ValidTime::IntervalUnchecked(vb, StampNear(vb, rng));
  e.tt_end = rng.OneIn(0.5) ? TimePoint::Max() : StampNear(e.tt_begin, rng);
  std::vector<Value> values;
  for (int64_t i = rng.Uniform(0, 6); i > 0; --i) values.push_back(RandomValue(rng));
  e.attributes = Tuple(std::move(values));
  return entry;
}

void ExpectSameEntry(const BacklogEntry& back, const BacklogEntry& sent) {
  EXPECT_EQ(back.op, sent.op);
  EXPECT_EQ(back.tt, sent.tt);
  if (sent.op == BacklogOpType::kLogicalDelete) {
    EXPECT_EQ(back.target, sent.target);
    return;
  }
  EXPECT_EQ(back.element.element_surrogate, sent.element.element_surrogate);
  EXPECT_EQ(back.element.object_surrogate, sent.element.object_surrogate);
  EXPECT_EQ(back.element.tt_begin, sent.element.tt_begin);
  EXPECT_EQ(back.element.tt_end, sent.element.tt_end);
  EXPECT_EQ(back.element.valid, sent.element.valid);
  EXPECT_EQ(back.element.attributes, sent.element.attributes);
}

TEST(RecordCodecTest, SeededRoundTripCoversEveryField) {
  Random rng(20);
  int types[6] = {};
  int deletes = 0, events = 0, intervals = 0, open = 0, closed = 0;
  int tt_apart = 0, max_surrogate = 0, sentinels = 0;
  for (int i = 0; i < 3000; ++i) {
    const BacklogEntry sent = RandomEntry(rng);
    const std::string bytes = sent.Encode();
    ASSERT_OK_AND_ASSIGN(BacklogEntry back, BacklogEntry::Decode(bytes));
    ExpectSameEntry(back, sent);
    EXPECT_EQ(back.Encode(), bytes) << "record " << i;
    if (::testing::Test::HasFailure()) FAIL() << "record " << i;

    const Element& e = sent.element;
    if (sent.op == BacklogOpType::kLogicalDelete) {
      ++deletes;
      max_surrogate += sent.target == std::numeric_limits<uint64_t>::max();
      sentinels += sent.tt.IsMin() || sent.tt.IsMax();
      continue;
    }
    (e.valid.is_event() ? events : intervals)++;
    (e.tt_end.IsMax() ? open : closed)++;
    tt_apart += sent.tt != e.tt_begin;
    max_surrogate += e.element_surrogate == std::numeric_limits<uint64_t>::max();
    sentinels += e.tt_begin.IsMin() || e.valid.begin().IsMax();
    for (const Value& v : e.attributes.values()) ++types[static_cast<int>(v.type())];
  }
  for (int t = 0; t < 6; ++t) EXPECT_GT(types[t], 0) << "value type " << t;
  EXPECT_GT(deletes, 0);
  EXPECT_GT(events, 0);
  EXPECT_GT(intervals, 0);
  EXPECT_GT(open, 0);
  EXPECT_GT(closed, 0);
  EXPECT_GT(tt_apart, 0);
  EXPECT_GT(max_surrogate, 0);
  EXPECT_GT(sentinels, 0);
}

TEST(RecordCodecTest, NanAttributeRoundTripsBitExactly) {
  BacklogEntry sent;
  sent.tt = T(10);
  sent.element = testing::MakeEventElement(T(10), T(5), 1);
  sent.element.attributes = Tuple{std::numeric_limits<double>::quiet_NaN()};
  const std::string bytes = sent.Encode();
  ASSERT_OK_AND_ASSIGN(BacklogEntry back, BacklogEntry::Decode(bytes));
  EXPECT_TRUE(std::isnan(back.element.attributes.at(0).AsDouble()));
  EXPECT_EQ(back.Encode(), bytes);
}

TEST(RecordCodecTest, EveryStrictPrefixAndATrailingByteAreCorruption) {
  Random rng(21);
  for (int i = 0; i < 300; ++i) {
    const std::string bytes = RandomEntry(rng).Encode();
    for (size_t len = 0; len < bytes.size(); ++len) {
      const auto cut = BacklogEntry::Decode(std::string_view(bytes).substr(0, len));
      ASSERT_TRUE(cut.status().IsCorruption())
          << "record " << i << " cut to " << len << " of " << bytes.size()
          << " bytes: " << cut.status().ToString();
    }
    for (const char extra : {'\0', '\x01', '\x80'}) {
      ASSERT_TRUE(BacklogEntry::Decode(bytes + extra).status().IsCorruption())
          << "record " << i << " with a trailing byte";
    }
  }
}

TEST(RecordCodecTest, UnknownFlagsAndAnInsertOnlyFlagOnADeleteAreCorruption) {
  EXPECT_TRUE(BacklogEntry::Decode("\x20").status().IsCorruption());
  BacklogEntry del;
  del.op = BacklogOpType::kLogicalDelete;
  del.tt = T(20);
  del.target = 3;
  std::string bytes = del.Encode();
  bytes[0] = static_cast<char>(bytes[0] | 0x02);  // the interval flag
  EXPECT_TRUE(BacklogEntry::Decode(bytes).status().IsCorruption());
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  // The canonical IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("hello"), Crc32("hellp"));
  EXPECT_NE(Crc32("ab"), Crc32("ba"));
}

}  // namespace
}  // namespace tempspec
