#ifndef SQUID_EXEC_EXPRESSION_H_
#define SQUID_EXEC_EXPRESSION_H_

/// \file expression.h
/// \brief Bound predicate evaluation: resolves AST column references against
/// actual tables, and resolves each predicate once into typed scan kernels
/// over the column's raw vectors, so scans never materialize a Value.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace squid {

/// \brief One primitive test of a bound predicate, resolved against the
/// column's storage type at bind time.
///
/// Every kernel reproduces `EvalCompare(column->ValueAt(r), op, constant)`
/// exactly: int64 against int64 compares exactly, any other numeric pair
/// compares as doubles through a three-way result (so NaN compares equal),
/// numbers sort before strings, and NULL cells or constants never match.
struct ScanKernel {
  enum class Kind {
    kNoRows,   // NULL constant, impossible type order, or all-NULL column
    kNonNull,  // every non-null cell (type order decides for every cell)
    kSymbol,   // string = / <> : dictionary symbol equality
    kString,   // string ordering: StringAt views vs `text`
    kInt64,    // int64 cell vs int64 constant, exact
    kNumeric,  // numeric cell vs numeric constant, both as double
    kAnyOf,    // IN list: any of `any_of` (each an `=` kernel)
  };

  Kind kind = Kind::kNoRows;
  CompareOp op = CompareOp::kEq;
  Symbol symbol = kNoSymbol;  // kSymbol
  std::string text;           // kString
  int64_t int_value = 0;      // kInt64
  double num_value = 0.0;     // kNumeric
  std::vector<ScanKernel> any_of;
};

/// A predicate bound to a concrete column of a concrete table.
struct BoundPredicate {
  const Column* column = nullptr;
  Predicate predicate;
  /// Conjunction the predicate resolves to (BETWEEN = two kernels).
  std::vector<ScanKernel> kernels;

  /// True when row `r` of the bound table satisfies the predicate. This is
  /// the Value-semantics reference the kernels are tested against; scans go
  /// through FilterRows.
  bool Matches(size_t r) const {
    return predicate.Matches(column->ValueAt(r));
  }
};

/// Binds `pred` to `table` (alias must already be resolved) and resolves its
/// scan kernels.
Result<BoundPredicate> BindPredicate(const Table& table, const Predicate& pred);

/// Returns, in ascending order, the row ids of `table` satisfying all of
/// `preds`. When the table has a current value order (Table::ValueOrderOf)
/// and a predicate is an `=` comparison on that column whose kernel is
/// kSymbol or kInt64, the selection starts as that value's run of the
/// order (two binary searches; the run is ascending by row); otherwise the
/// first kernel scans the table. Every remaining kernel refines the
/// surviving rows. Without predicates this is the identity row list with no
/// per-row work. `rows_visited`, when non-null, is incremented by the rows
/// the selection started from — the run's length after a seek, the table's
/// row count after a scan, 0 without predicates — this feeds
/// ExecStats::rows_scanned, which counts work done, not table sizes.
std::vector<uint32_t> FilterRows(const Table& table,
                                 const std::vector<BoundPredicate>& preds,
                                 size_t* rows_visited = nullptr);

}  // namespace squid

#endif  // SQUID_EXEC_EXPRESSION_H_
