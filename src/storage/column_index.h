#ifndef SQUID_STORAGE_COLUMN_INDEX_H_
#define SQUID_STORAGE_COLUMN_INDEX_H_

/// \file column_index.h
/// \brief Sorted (B-tree-style) and hash indexes over single columns. The
/// αDB uses the hash index for primary-key lookups: resolving an entity key
/// to its row (from which its derived rows are a range, standing in for the
/// "point queries ... using B-tree indexes" of §7.2) and dereferencing
/// dimensions while computing statistics. The executor uses
/// neither: it scans with typed kernels (exec/expression.h) and joins
/// through per-query FlatJoinHash tables (exec/join_hash.h).

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace squid {

/// \brief Ordered index: value -> row ids, supporting point and range scans.
class SortedColumnIndex {
 public:
  /// Builds the index over `table.column(attr)`. Nulls are excluded.
  static Result<SortedColumnIndex> Build(const Table& table, const std::string& attr);

  /// Row ids with exactly this value.
  std::vector<size_t> Lookup(const Value& v) const;

  /// Row ids with lo <= value <= hi (either bound may be Null = unbounded).
  std::vector<size_t> Range(const Value& lo, const Value& hi) const;

  /// Number of distinct indexed values.
  size_t NumDistinct() const { return entries_.size(); }

  /// Number of indexed (non-null) rows.
  size_t NumRows() const { return num_rows_; }

  /// Smallest / largest indexed value (error if empty).
  Result<Value> MinValue() const;
  Result<Value> MaxValue() const;

 private:
  std::map<Value, std::vector<size_t>> entries_;
  size_t num_rows_ = 0;
};

/// \brief Hash index: value -> row ids, for equality-only probes (the αDB's
/// primary-key lookups).
///
/// Keys are packed to 64-bit integers instead of hashing Values: string
/// cells key by their dictionary Symbol (probes resolve through the pool
/// without copying), numeric cells by their bit pattern (int64 columns
/// exactly; double columns via the double image, preserving Value's
/// cross-type 1 == 1.0 equality for mixed probes).
class HashColumnIndex {
 public:
  static Result<HashColumnIndex> Build(const Table& table, const std::string& attr);

  /// Row ids with exactly this value (nullptr when absent).
  const std::vector<size_t>* Lookup(const Value& v) const;

  /// Symbol-probe fast path (string-keyed indexes only; `s` must be a
  /// symbol of the indexed column's pool).
  const std::vector<size_t>* LookupSymbol(Symbol s) const;

  size_t NumDistinct() const { return entries_.size(); }

 private:
  const std::vector<size_t>* LookupKey(uint64_t key) const;

  ValueType key_type_ = ValueType::kNull;
  std::shared_ptr<const StringPool> pool_;  // keeps symbol keys resolvable
  std::unordered_map<uint64_t, std::vector<size_t>> entries_;
};

}  // namespace squid

#endif  // SQUID_STORAGE_COLUMN_INDEX_H_
