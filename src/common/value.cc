#include "common/value.h"

#include <cmath>
#include <functional>

#include "common/nested_table.h"
#include "common/string_util.h"

namespace dmx {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kLong:
      return "LONG";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kText:
      return "TEXT";
    case DataType::kTable:
      return "TABLE";
  }
  return "UNKNOWN";
}

Result<DataType> DataTypeFromString(const std::string& s) {
  if (EqualsCi(s, "BOOL") || EqualsCi(s, "BOOLEAN")) return DataType::kBool;
  if (EqualsCi(s, "LONG") || EqualsCi(s, "INT") || EqualsCi(s, "INTEGER")) {
    return DataType::kLong;
  }
  if (EqualsCi(s, "DOUBLE") || EqualsCi(s, "FLOAT") || EqualsCi(s, "REAL")) {
    return DataType::kDouble;
  }
  if (EqualsCi(s, "TEXT") || EqualsCi(s, "STRING") || EqualsCi(s, "VARCHAR")) {
    return DataType::kText;
  }
  if (EqualsCi(s, "TABLE")) return DataType::kTable;
  return ParseError() << "unknown data type '" << s << "'";
}

Result<double> Value::AsDouble() const {
  switch (kind()) {
    case Kind::kBool:
      return bool_value() ? 1.0 : 0.0;
    case Kind::kLong:
      return static_cast<double>(long_value());
    case Kind::kDouble:
      return double_value();
    default:
      return InvalidArgument() << "value '" << ToString() << "' is not numeric";
  }
}

Result<int64_t> Value::AsLong() const {
  switch (kind()) {
    case Kind::kBool:
      return static_cast<int64_t>(bool_value());
    case Kind::kLong:
      return long_value();
    case Kind::kDouble: {
      double d = double_value();
      if (d != std::floor(d)) {
        return InvalidArgument() << "value " << ToString() << " is not integral";
      }
      return static_cast<int64_t>(d);
    }
    default:
      return InvalidArgument() << "value '" << ToString() << "' is not numeric";
  }
}

Result<Value> Value::CoerceTo(DataType type) const {
  if (is_null()) return *this;
  switch (type) {
    case DataType::kBool: {
      if (is_bool()) return *this;
      DMX_ASSIGN_OR_RETURN(int64_t i, AsLong());
      return Value::Bool(i != 0);
    }
    case DataType::kLong: {
      if (is_long()) return *this;
      DMX_ASSIGN_OR_RETURN(int64_t i, AsLong());
      return Value::Long(i);
    }
    case DataType::kDouble: {
      if (is_double()) return *this;
      DMX_ASSIGN_OR_RETURN(double d, AsDouble());
      return Value::Double(d);
    }
    case DataType::kText:
      if (is_text()) return *this;
      if (is_table()) {
        return InvalidArgument() << "cannot coerce a nested table to TEXT";
      }
      return Value::Text(ToString());
    case DataType::kTable:
      if (is_table()) return *this;
      return InvalidArgument() << "cannot coerce scalar '" << ToString()
                               << "' to TABLE";
  }
  return Internal() << "unreachable coercion";
}

namespace {

// Orders NaN after every other number and equal to itself, so numbers form
// a strict weak order (Equals still finds NaN unequal to everything).
int CompareDoubles(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) - std::isnan(b);
  return (a > b) - (a < b);
}

// Exact: `d` splits into an integral part, which int64_t holds exactly when
// |d| < 2^63, and a fraction, so `i` is never rounded to a double.
int CompareLongDouble(int64_t i, double d) {
  if (std::isnan(d) || d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const double whole = std::trunc(d);
  const auto w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return (whole > d) - (whole < d);
}

}  // namespace

bool Value::Equals(const Value& other) const {
  if (kind() != other.kind()) {
    // Numeric cross-kind equality (3 == 3.0) keeps dictionaries stable when a
    // column mixes longs and doubles (e.g. CSV reload). It is exact: a LONG
    // above 2^53 equals no DOUBLE it merely rounds to.
    if (is_numeric() && other.is_numeric() && !is_bool() && !other.is_bool()) {
      const Value& l = is_long() ? *this : other;
      const Value& d = is_long() ? other : *this;
      return CompareLongDouble(l.long_value(), d.double_value()) == 0;
    }
    return false;
  }
  switch (kind()) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_value() == other.bool_value();
    case Kind::kLong:
      return long_value() == other.long_value();
    case Kind::kDouble:
      return double_value() == other.double_value();
    case Kind::kText:
      return text_value() == other.text_value();
    case Kind::kTable: {
      const auto& a = table_value();
      const auto& b = other.table_value();
      if (a == b) return true;
      if (a == nullptr || b == nullptr) return false;
      return a->Equals(*b);
    }
  }
  return false;
}

namespace {
// Rank groups for the cross-kind total order.
int KindRank(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull:
      return 0;
    case Value::Kind::kBool:
      return 1;
    case Value::Kind::kLong:
    case Value::Kind::kDouble:
      return 2;
    case Value::Kind::kText:
      return 3;
    case Value::Kind::kTable:
      return 4;
  }
  return 5;
}
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = KindRank(kind());
  int rb = KindRank(other.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
    case Kind::kLong:
      if (other.is_long()) {
        return (long_value() > other.long_value()) -
               (long_value() < other.long_value());
      }
      return CompareLongDouble(long_value(), other.double_value());
    case Kind::kDouble:
      if (other.is_long()) {
        return -CompareLongDouble(other.long_value(), double_value());
      }
      return CompareDoubles(double_value(), other.double_value());
    case Kind::kText:
      return text_value().compare(other.text_value());
    case Kind::kTable: {
      const void* a = table_value().get();
      const void* b = other.table_value().get();
      if (a < b) return -1;
      return a == b ? 0 : 1;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (kind()) {
    case Kind::kNull:
      return 0x9e3779b9;
    case Kind::kBool:
      return std::hash<bool>()(bool_value());
    case Kind::kLong:
      // Hash longs as doubles so 3 and 3.0 collide, matching Equals. A LONG
      // that equals a DOUBLE converts to it exactly; longs that round to
      // the same double merely share a bucket.
      return std::hash<double>()(static_cast<double>(long_value()));
    case Kind::kDouble:
      return std::hash<double>()(double_value());
    case Kind::kText:
      return std::hash<std::string>()(text_value());
    case Kind::kTable:
      return std::hash<const void*>()(table_value().get());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NULL";
    case Kind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case Kind::kLong:
      return std::to_string(long_value());
    case Kind::kDouble:
      return FormatDouble(double_value());
    case Kind::kText:
      return text_value();
    case Kind::kTable: {
      const auto& t = table_value();
      return "#rows=" + std::to_string(t ? t->num_rows() : 0);
    }
  }
  return "?";
}

}  // namespace dmx
