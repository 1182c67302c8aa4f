#include "storage/serde.h"

#include <array>
#include <cstring>

namespace tempspec {

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutVarint(s.size());
  out_->append(s.data(), s.size());
}

Status Decoder::Need(size_t n) const {
  if (in_.size() < n) {
    return Status::Corruption("decoder underflow: need ", n, " bytes, have ",
                              in_.size());
  }
  return Status::OK();
}

Result<uint8_t> Decoder::GetU8() {
  TS_RETURN_NOT_OK(Need(1));
  uint8_t v = static_cast<uint8_t>(in_[0]);
  in_.remove_prefix(1);
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  TS_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in_[i])) << (8 * i);
  }
  in_.remove_prefix(4);
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  TS_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in_[i])) << (8 * i);
  }
  in_.remove_prefix(8);
  return v;
}

Result<int64_t> Decoder::GetI64() {
  TS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::GetDouble() {
  TS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<int64_t> Decoder::GetSignedVarint() {
  TS_ASSIGN_OR_RETURN(uint64_t v, GetVarint());
  return ZigZagDecode(v);
}

Result<std::string> Decoder::GetString() {
  TS_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  TS_RETURN_NOT_OK(Need(len));
  std::string s(in_.substr(0, len));
  in_.remove_prefix(len);
  return s;
}

Result<TimePoint> Decoder::GetTimePoint() {
  TS_ASSIGN_OR_RETURN(int64_t micros, GetI64());
  return TimePoint::FromMicros(micros);
}

void EncodeValue(const Value& v, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      enc->PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      enc->PutSignedVarint(v.AsInt64());
      break;
    case ValueType::kDouble:
      enc->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      enc->PutString(v.AsString());
      break;
    case ValueType::kTime:
      enc->PutSignedVarint(v.AsTime().micros());
      break;
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  TS_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      TS_ASSIGN_OR_RETURN(uint8_t b, dec->GetU8());
      if (b > 1) return Status::Corruption("bad bool byte ", static_cast<int>(b));
      return Value(b == 1);
    }
    case ValueType::kInt64: {
      TS_ASSIGN_OR_RETURN(int64_t v, dec->GetSignedVarint());
      return Value(v);
    }
    case ValueType::kDouble: {
      TS_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return Value(v);
    }
    case ValueType::kString: {
      TS_ASSIGN_OR_RETURN(std::string s, dec->GetString());
      return Value(std::move(s));
    }
    case ValueType::kTime: {
      TS_ASSIGN_OR_RETURN(int64_t micros, dec->GetSignedVarint());
      return Value(TimePoint::FromMicros(micros));
    }
  }
  return Status::Corruption("unknown value type tag ", static_cast<int>(tag));
}

void EncodeTuple(const Tuple& t, Encoder* enc) {
  enc->PutVarint(t.size());
  for (const Value& v : t.values()) EncodeValue(v, enc);
}

Result<Tuple> DecodeTuple(Decoder* dec) {
  TS_ASSIGN_OR_RETURN(uint64_t n, dec->GetVarint());
  // Every value takes at least its tag byte: a larger count is corrupt, and
  // must not size the reservation below.
  if (n > dec->remaining()) {
    return Status::Corruption("tuple claims ", n, " values in ",
                              dec->remaining(), " bytes");
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(Value v, DecodeValue(dec));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

uint32_t Crc32(std::string_view data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) {
    crc = kTable[(crc ^ ch) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace tempspec
