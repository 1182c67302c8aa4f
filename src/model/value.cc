#include "model/value.h"

#include <charconv>

namespace tempspec {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kTime:
      return "TIME";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      // The shortest text that parses back to the same bits.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof(buf), AsDouble()).ptr;
      return std::string(buf, end);
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
    case ValueType::kTime:
      return AsTime().ToString();
  }
  return "?";
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 1 + 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
    case ValueType::kTime:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + AsString().size();
  }
  return 1;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace tempspec
