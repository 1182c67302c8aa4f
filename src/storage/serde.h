// Binary serialization of model objects for the storage layer.
//
// Integers, times and lengths are LEB128 varints (signed ones zigzag-mapped),
// so small magnitudes cost one or two bytes; doubles and the fixed-width
// fields of headers and raw stamp columns are little-endian. The format is
// self-contained per record: a decoder never needs the schema to skip a
// record, only to interpret attribute values.
#ifndef TEMPSPEC_STORAGE_SERDE_H_
#define TEMPSPEC_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "model/element.h"
#include "storage/encoding.h"
#include "util/result.h"

namespace tempspec {

/// \brief Appends fixed-width, varint and length-prefixed fields to a
/// buffer.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutTimePoint(TimePoint tp) { PutI64(tp.micros()); }  // 8 bytes
  void PutVarint(uint64_t v) { ::tempspec::PutVarint(v, out_); }
  void PutSignedVarint(int64_t v) { PutVarint(ZigZagEncode(v)); }
  void PutString(std::string_view s);  // varint length prefix

 private:
  std::string* out_;
};

/// \brief Reads fields sequentially; all getters fail cleanly at end of input.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<TimePoint> GetTimePoint();
  Result<uint64_t> GetVarint() { return ::tempspec::GetVarint(&in_); }
  Result<int64_t> GetSignedVarint();
  Result<std::string> GetString();

  size_t remaining() const { return in_.size(); }
  bool exhausted() const { return in_.empty(); }

 private:
  Status Need(size_t n) const;

  std::string_view in_;
};

/// \brief Serializes a Value: a type tag, then ints and times as zigzag
/// varints, strings with a varint length, doubles as 8 bytes.
void EncodeValue(const Value& v, Encoder* enc);
Result<Value> DecodeValue(Decoder* dec);

/// \brief Serializes a Tuple (varint count + values).
void EncodeTuple(const Tuple& t, Encoder* enc);
Result<Tuple> DecodeTuple(Decoder* dec);

/// \brief CRC32 (IEEE polynomial) used by the WAL to detect torn writes.
uint32_t Crc32(std::string_view data);

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_SERDE_H_
