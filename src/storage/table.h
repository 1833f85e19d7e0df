#ifndef SQUID_STORAGE_TABLE_H_
#define SQUID_STORAGE_TABLE_H_

/// \file table.h
/// \brief In-memory columnar table. Columns are typed vectors with a null
/// bitmap; rows are addressed by dense row id. String columns are
/// dictionary-encoded: cells store StringPool symbols, so equal values share
/// one arena copy and equality is integer comparison. This is the storage
/// substrate under the executor, the αDB, and the data generators.
///
/// A table can also carry two immutable access paths, built on request
/// (the αDB builds them at Build and at snapshot load) and never
/// serialized: a flat hash index over its primary key, and a row
/// permutation of one column in value order. Each covers the rows the
/// table had when it was built; once AppendRow adds more, the path reads
/// as absent until it is rebuilt, so no reader sees a stale one.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/string_pool.h"
#include "storage/value.h"

namespace squid {

class FlatJoinHash;  // storage/join_hash.h

/// \brief One typed column with a validity (non-null) mask.
///
/// Only the vector matching the declared type is populated. String columns
/// intern into the owning table's StringPool and store symbols.
class Column {
 public:
  Column(ValueType type, StringPool* pool) : type_(type), pool_(pool) {}

  ValueType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// Appends a dynamically-typed value; int64 widens to double when the
  /// column is double-typed. Type mismatches are an error.
  Status Append(const Value& v);

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  /// Appends `src`'s cell at `row`. `src` must have this column's type
  /// (int64 widens to double); strings of the same pool copy the symbol.
  void AppendFrom(const Column& src, size_t row);

  bool IsNull(size_t row) const { return !valid_[row]; }
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }

  /// The cell's string (valid for the pool's lifetime; no copy).
  std::string_view StringAt(size_t row) const { return pool_->View(syms_[row]); }

  /// The cell's dictionary symbol (string columns; null cells hold the
  /// empty-string symbol, check IsNull first).
  Symbol SymbolAt(size_t row) const { return syms_[row]; }

  /// The pool string symbols index into (shared by all columns of a table,
  /// and by all tables created through one Database).
  const StringPool* pool() const { return pool_; }

  /// Materializes the cell as a Value (kNull if invalid).
  Value ValueAt(size_t row) const;

  /// Three-way order of the cells at rows `a` and `b`, identical to
  /// ValueAt(a).Compare(ValueAt(b)) without materializing either: nulls
  /// first and equal to each other, numbers by value, strings equal on one
  /// symbol and otherwise in string_view order.
  int CompareRows(size_t a, size_t b) const {
    const bool a_null = !valid_[a];
    const bool b_null = !valid_[b];
    if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
    switch (type_) {
      case ValueType::kInt64:
        return ints_[a] < ints_[b] ? -1 : (ints_[a] > ints_[b] ? 1 : 0);
      case ValueType::kDouble:
        return doubles_[a] < doubles_[b] ? -1 : (doubles_[a] > doubles_[b] ? 1 : 0);
      case ValueType::kString: {
        if (syms_[a] == syms_[b]) return 0;
        const int c = pool_->View(syms_[a]).compare(pool_->View(syms_[b]));
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      case ValueType::kNull:
        return 0;
    }
    return 0;
  }

  /// Numeric view of the cell; 0.0 for nulls is NOT applied — call only on
  /// non-null cells of numeric columns.
  double NumericAt(size_t row) const {
    return type_ == ValueType::kInt64 ? static_cast<double>(ints_[row])
                                      : doubles_[row];
  }

  void Reserve(size_t n);

  // Raw vector views for the snapshot writer (storage/snapshot.cpp): the
  // on-disk column payload is these vectors verbatim. Only the vector
  // matching type() is populated; valid_raw() always has size() entries.
  const std::vector<uint8_t>& valid_raw() const { return valid_; }
  const std::vector<int64_t>& ints_raw() const { return ints_; }
  const std::vector<double>& doubles_raw() const { return doubles_; }
  const std::vector<Symbol>& syms_raw() const { return syms_; }

  /// Replaces the column contents wholesale (snapshot load). Validates the
  /// shape: the vector matching type() and `valid` must agree in length,
  /// the other vectors must be empty, and — for string columns — every
  /// symbol (null cells included; they hold the empty-string symbol) must
  /// be valid in the column's pool. The column must be empty.
  Status SnapshotRestore(std::vector<uint8_t> valid, std::vector<int64_t> ints,
                         std::vector<double> doubles, std::vector<Symbol> syms);

 private:
  ValueType type_;
  StringPool* pool_;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<Symbol> syms_;
};

/// \brief A relation instance: schema + columns of equal length.
class Table {
 public:
  /// When `pool` is null the table owns a fresh pool; Database::CreateTable
  /// passes the catalog's shared pool so symbols compare across tables.
  explicit Table(Schema schema, std::shared_ptr<StringPool> pool = nullptr);

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }
  const std::string& name() const { return schema_.relation_name(); }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return *columns_[i]; }
  Column* mutable_column(size_t i) { return columns_[i].get(); }

  /// Column by attribute name (error when missing).
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends a full row; the row must have one value per attribute.
  Status AppendRow(const std::vector<Value>& row);

  /// Materializes row `row` as values.
  std::vector<Value> RowValues(size_t row) const;

  Value ValueAt(size_t row, size_t col) const { return columns_[col]->ValueAt(row); }

  /// The table's string dictionary.
  const std::shared_ptr<StringPool>& pool() const { return pool_; }

  void Reserve(size_t n);

  /// Approximate heap footprint in bytes, excluding the (shared) string
  /// pool — Database::ApproxBytes adds the pool once.
  size_t ApproxBytes() const;

  /// Seals a column-wise fill (a snapshot load through
  /// Column::SnapshotRestore, or a bulk builder appending cells column by
  /// column): checks every column carries exactly `num_rows` cells and
  /// publishes the row count. The table must have been empty.
  Status FinishColumnFill(size_t num_rows);

  // ---- Access paths (not part of ApproxBytes or of any snapshot) ----

  /// Builds the PK index: a FlatJoinHash over every row of the primary-key
  /// column, each key's rows ascending. A no-op while a current one exists.
  /// InvalidArgument when the schema declares no primary key.
  Status BuildPkIndex();

  /// The PK index while it is current, else null. Its keys are
  /// pk_column()'s packed cells (PackCellKey); FlatJoinHash::Lookup probes
  /// it by Value.
  const FlatJoinHash* pk_index() const {
    return pk_rows_ == num_rows_ ? pk_index_.get() : nullptr;
  }

  /// The column the current PK index keys (null when none is current).
  const Column* pk_column() const {
    return pk_index() != nullptr ? pk_column_ : nullptr;
  }

  /// Builds the value order of column `attr`: every row id, ordered by
  /// Column::CompareRows (nulls first) and by row id within one value, so
  /// each value's rows are one ascending run. Linear time: the column's
  /// distinct values are ranked once and the rows counting-sorted by rank.
  /// Only string and int64 columns are ordered (a column of another type
  /// leaves the table without one). Replaces any earlier order.
  Status BuildValueOrder(const std::string& attr);

  /// The value order when it is current and `col` is the ordered column,
  /// else null.
  const std::vector<uint32_t>* ValueOrderOf(const Column* col) const {
    return col == ordered_column_ && value_order_.size() == num_rows_
               ? &value_order_
               : nullptr;
  }

 private:
  Schema schema_;
  std::shared_ptr<StringPool> pool_;
  std::vector<std::unique_ptr<Column>> columns_;
  size_t num_rows_ = 0;

  // PK index over column pk_column_, built when the table had pk_rows_ rows.
  std::shared_ptr<const FlatJoinHash> pk_index_;
  const Column* pk_column_ = nullptr;
  size_t pk_rows_ = 0;
  // Value order of ordered_column_; current while it covers every row.
  const Column* ordered_column_ = nullptr;
  std::vector<uint32_t> value_order_;
};

}  // namespace squid

#endif  // SQUID_STORAGE_TABLE_H_
