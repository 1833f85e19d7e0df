#ifndef SQUID_EXEC_RESULT_SET_H_
#define SQUID_EXEC_RESULT_SET_H_

/// \file result_set.h
/// \brief Materialized query output: the executor's emitted rows. Set
/// semantics (DISTINCT, GROUP BY, INTERSECT) are the executor's, on packed
/// cells before emission (exec/executor.h); a ResultSet only holds rows.

#include <string>
#include <vector>

#include "storage/value.h"

namespace squid {

/// \brief Ordered list of rows plus column names.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)) {}

  const std::vector<std::string>& column_names() const { return column_names_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return column_names_.size(); }

  void AddRow(std::vector<Value> row) { rows_.push_back(std::move(row)); }
  const std::vector<Value>& row(size_t i) const { return rows_[i]; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  /// Sorts rows lexicographically by Value order (deterministic output).
  void SortRows();

  /// Values of column `col` across rows (for single-column comparisons).
  std::vector<Value> ColumnValues(size_t col) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<std::vector<Value>> rows_;
};

}  // namespace squid

#endif  // SQUID_EXEC_RESULT_SET_H_
