#ifndef SQUID_STORAGE_VALUE_H_
#define SQUID_STORAGE_VALUE_H_

/// \file value.h
/// \brief Dynamically-typed cell value used at the engine boundary (query
/// constants, row materialization, CSV). Column storage itself is typed; see
/// table.h.

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>

#include "common/status.h"

namespace squid {

/// Column / value types supported by the engine.
enum class ValueType { kNull = 0, kInt64, kDouble, kString };

/// Returns a stable lowercase name ("int64", "double", "string", "null").
const char* ValueTypeName(ValueType type);

/// \brief A single dynamically-typed cell.
///
/// Ordering and equality follow SQL semantics except that NULL compares
/// equal to NULL and sorts first (the engine uses Value for group-by keys
/// and index keys, where total order is required).
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  ValueType type() const;

  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 and double both convert; anything else is an error.
  Result<double> ToNumeric() const;

  /// Renders for display/SQL ("NULL", 42, 3.5, 'text').
  std::string ToString() const;

  /// SQL literal rendering (strings quoted with '' escaping).
  std::string ToSqlLiteral() const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Three-way comparison. NULL < everything; numeric types compare by
  /// value across int64/double; otherwise compares within the same type.
  /// Comparing string with numeric orders by type id (stable, arbitrary).
  int Compare(const Value& other) const;

  /// Hash compatible with operator== (for unordered containers).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// std::hash adapter for Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Bit image of a double for packed 64-bit map keys, with -0.0 canonicalized
/// to +0.0 (they compare equal). The one definition shared by every
/// subsystem that keys on packed cells (FlatJoinHash build sides and PK
/// indexes, PropertyStats) — their key spaces must agree.
inline uint64_t PackedDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace squid

#endif  // SQUID_STORAGE_VALUE_H_
