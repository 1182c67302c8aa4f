// Time-stamp column encodings.
//
// Regular relations (Section 3.2/3.3) restrict stamps to integral multiples
// of a time unit; storing the small multiplier k instead of a 64-bit chronon
// count is the storage win the Advisor recommends (EncodingAdvice::
// kDeltaUnit). bench_e8_regular measures the effect against raw encoding.
#ifndef TEMPSPEC_STORAGE_ENCODING_H_
#define TEMPSPEC_STORAGE_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "timex/time_point.h"
#include "util/result.h"

namespace tempspec {

/// \brief LEB128 variable-length unsigned integer. GetVarint consumes one
/// varint from the front of `*in`; a missing terminator and a value beyond
/// 64 bits are both Corruption.
void PutVarint(uint64_t v, std::string* out);
Result<uint64_t> GetVarint(std::string_view* in);

/// \brief Bytes PutVarint writes for `v` (1 to 10).
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// \brief ZigZag mapping so small negative deltas stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// \brief Encodes a column of time-stamps as raw little-endian 64-bit values.
std::string EncodeTimestampsRaw(std::span<const TimePoint> stamps);
Result<std::vector<TimePoint>> DecodeTimestampsRaw(std::string_view data);

/// \brief Delta encoding: first stamp raw, then zigzag-varint deltas.
std::string EncodeTimestampsDelta(std::span<const TimePoint> stamps);
Result<std::vector<TimePoint>> DecodeTimestampsDelta(std::string_view data);

/// \brief Unit-multiple encoding for regular columns: stores the unit, the
/// anchor, and the zigzag-varint multiplier deltas. Fails when a stamp is
/// not congruent to the anchor modulo the unit — i.e. when the declared
/// regularity does not actually hold.
Result<std::string> EncodeTimestampsUnit(std::span<const TimePoint> stamps,
                                         int64_t unit_micros);
Result<std::vector<TimePoint>> DecodeTimestampsUnit(std::string_view data);

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_ENCODING_H_
