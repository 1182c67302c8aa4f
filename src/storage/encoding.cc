#include "storage/encoding.h"

#include "storage/serde.h"

namespace tempspec {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(std::string_view* in) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (in->empty()) return Status::Corruption("truncated varint");
    const uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    // The tenth byte holds bit 63 only: anything more, a continuation bit
    // included, does not fit in 64 bits.
    if (shift == 63 && byte > 1) {
      return Status::Corruption("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

std::string EncodeTimestampsRaw(std::span<const TimePoint> stamps) {
  std::string out;
  Encoder enc(&out);
  enc.PutU32(static_cast<uint32_t>(stamps.size()));
  for (TimePoint tp : stamps) enc.PutTimePoint(tp);
  return out;
}

Result<std::vector<TimePoint>> DecodeTimestampsRaw(std::string_view data) {
  Decoder dec(data);
  TS_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  std::vector<TimePoint> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(TimePoint tp, dec.GetTimePoint());
    out.push_back(tp);
  }
  return out;
}

std::string EncodeTimestampsDelta(std::span<const TimePoint> stamps) {
  std::string out;
  Encoder enc(&out);
  enc.PutU32(static_cast<uint32_t>(stamps.size()));
  int64_t prev = 0;
  for (size_t i = 0; i < stamps.size(); ++i) {
    const int64_t micros = stamps[i].micros();
    if (i == 0) {
      enc.PutI64(micros);
    } else {
      PutVarint(ZigZagEncode(micros - prev), &out);
    }
    prev = micros;
  }
  return out;
}

Result<std::vector<TimePoint>> DecodeTimestampsDelta(std::string_view data) {
  Decoder dec(data);
  TS_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  std::vector<TimePoint> out;
  out.reserve(n);
  if (n == 0) return out;
  TS_ASSIGN_OR_RETURN(int64_t first, dec.GetI64());
  out.push_back(TimePoint::FromMicros(first));
  std::string_view rest = data.substr(data.size() - dec.remaining());
  int64_t prev = first;
  for (uint32_t i = 1; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(uint64_t zz, GetVarint(&rest));
    prev += ZigZagDecode(zz);
    out.push_back(TimePoint::FromMicros(prev));
  }
  return out;
}

Result<std::string> EncodeTimestampsUnit(std::span<const TimePoint> stamps,
                                         int64_t unit_micros) {
  if (unit_micros <= 0) {
    return Status::InvalidArgument("unit must be positive");
  }
  std::string out;
  Encoder enc(&out);
  enc.PutU32(static_cast<uint32_t>(stamps.size()));
  enc.PutI64(unit_micros);
  int64_t prev_k = 0;
  for (size_t i = 0; i < stamps.size(); ++i) {
    const int64_t micros = stamps[i].micros();
    if (i == 0) {
      enc.PutI64(micros);  // anchor
      prev_k = 0;
      continue;
    }
    const int64_t distance = micros - stamps[0].micros();
    if (distance % unit_micros != 0) {
      return Status::InvalidArgument(
          "stamp ", stamps[i].ToString(), " is not a multiple of ",
          unit_micros, "us from the anchor — declared regularity violated");
    }
    const int64_t k = distance / unit_micros;
    PutVarint(ZigZagEncode(k - prev_k), &out);
    prev_k = k;
  }
  return out;
}

Result<std::vector<TimePoint>> DecodeTimestampsUnit(std::string_view data) {
  Decoder dec(data);
  TS_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  TS_ASSIGN_OR_RETURN(int64_t unit, dec.GetI64());
  std::vector<TimePoint> out;
  out.reserve(n);
  if (n == 0) return out;
  TS_ASSIGN_OR_RETURN(int64_t anchor, dec.GetI64());
  out.push_back(TimePoint::FromMicros(anchor));
  std::string_view rest = data.substr(data.size() - dec.remaining());
  int64_t prev_k = 0;
  for (uint32_t i = 1; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(uint64_t zz, GetVarint(&rest));
    prev_k += ZigZagDecode(zz);
    out.push_back(TimePoint::FromMicros(anchor + prev_k * unit));
  }
  return out;
}

}  // namespace tempspec
