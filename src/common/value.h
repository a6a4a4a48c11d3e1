// Value: the dynamically-typed cell used throughout rowsets, casesets and
// mining-model interfaces. A Value is NULL, a scalar (bool / 64-bit integer /
// double / text), or an immutable nested table — the TABLE content type of the
// paper's hierarchical casesets (Section 3.1).

#ifndef DMX_COMMON_VALUE_H_
#define DMX_COMMON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dmx {

class NestedTable;

/// Column data types. `kTable` marks a nested-table column (paper §3.2.1 f).
enum class DataType {
  kBool,
  kLong,    ///< 64-bit signed integer (DMX LONG).
  kDouble,  ///< IEEE double (DMX DOUBLE).
  kText,    ///< UTF-8 string (DMX TEXT).
  kTable,   ///< Nested table value.
};

/// Returns the DMX spelling: "LONG", "DOUBLE", "TEXT", "BOOL", "TABLE".
const char* DataTypeToString(DataType type);

/// Parses the DMX spelling (case-insensitive).
Result<DataType> DataTypeFromString(const std::string& s);

/// \brief One cell of a row.
///
/// Values are cheap to copy: strings are small in practice and nested tables
/// are shared immutably. NULL is a first-class state independent of the
/// column's declared type.
class Value {
 public:
  /// Runtime kind of the stored value.
  enum class Kind { kNull, kBool, kLong, kDouble, kText, kTable };

  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Payload(b)); }
  static Value Long(int64_t i) { return Value(Payload(i)); }
  static Value Double(double d) { return Value(Payload(d)); }
  static Value Text(std::string s) { return Value(Payload(std::move(s))); }
  static Value Table(std::shared_ptr<const NestedTable> t) {
    return Value(Payload(std::move(t)));
  }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_long() const { return kind() == Kind::kLong; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_text() const { return kind() == Kind::kText; }
  bool is_table() const { return kind() == Kind::kTable; }
  bool is_numeric() const { return is_long() || is_double() || is_bool(); }

  // Unchecked accessors; callers must test the kind first.
  bool bool_value() const { return std::get<bool>(v_); }
  int64_t long_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& text_value() const { return std::get<std::string>(v_); }
  const std::shared_ptr<const NestedTable>& table_value() const {
    return std::get<std::shared_ptr<const NestedTable>>(v_);
  }

  /// Numeric coercion: bool -> 0/1, long -> double, double -> itself.
  /// Fails on NULL, text and table values.
  Result<double> AsDouble() const;

  /// Integer coercion: bool -> 0/1, double -> truncated when integral.
  Result<int64_t> AsLong() const;

  /// Coerces this value to the given column type (identity when it already
  /// matches; numeric widening/narrowing and numeric<->text where lossless).
  Result<Value> CoerceTo(DataType type) const;

  /// Structural equality. Nested tables compare by contents.
  bool Equals(const Value& other) const;

  /// Total order over scalar values used by ORDER BY, SHAPE's RELATE and
  /// dictionaries: NULL < bools < numbers < text. Numbers compare exactly
  /// across long/double (a LONG is never rounded to a double); NaN sorts
  /// after every other number. Compare()==0 agrees with Equals() except that
  /// NaN equals nothing. Nested tables are ordered after text, by pointer,
  /// which is sufficient because no caller sorts on TABLE columns.
  int Compare(const Value& other) const;

  /// Hash consistent with Equals for scalar values (used by dictionaries and
  /// join/group hash maps; table values hash by pointer).
  size_t Hash() const;

  /// Display form: NULL -> "NULL", text verbatim, numbers via FormatDouble,
  /// nested table -> "#rows=<n>".
  std::string ToString() const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }

 private:
  using Payload = std::variant<std::monostate, bool, int64_t, double, std::string,
                               std::shared_ptr<const NestedTable>>;
  explicit Value(Payload payload) : v_(std::move(payload)) {}

  Payload v_;
};

/// Hash functor so `Value` can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// A row is a flat vector of cells positionally aligned with a Schema.
using Row = std::vector<Value>;

}  // namespace dmx

#endif  // DMX_COMMON_VALUE_H_
