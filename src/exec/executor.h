#ifndef SQUID_EXEC_EXECUTOR_H_
#define SQUID_EXEC_EXECUTOR_H_

/// \file executor.h
/// \brief Query executor over the columnar storage: selection pushdown,
/// vectorized hash equi-joins in connectivity order, group-by count
/// aggregation with HAVING, DISTINCT projection, and INTERSECT of blocks.
///
/// Pushed-down predicates are resolved once per query into typed scan
/// kernels over the raw column vectors (exec/expression.h): string = / <>
/// compare dictionary symbols, orderings compare string views, numerics
/// compare in place, and each kernel refines one selection vector — no
/// Value is built per scanned row. Intermediate tuples live in a columnar
/// TupleBuffer (exec/tuple_buffer.h) and joins probe a flat open-addressing
/// FlatJoinHash (exec/join_hash.h) in batches of packed keys — no per-tuple
/// allocation anywhere on the pipeline. Invariant: neither kernels nor
/// vectorization change results — for any given plan, every query result is
/// byte-identical to a per-tuple executor of that plan that filters through
/// Value comparisons (the golden-parity suite in tests/exec_parity_test.cpp
/// pins this). Plan *choices* may intentionally differ from older releases (the
/// start-alias fix reorders output for queries with join-disconnected FROM
/// entries).
///
/// This is the substrate both for evaluating ground-truth benchmark queries
/// and for running SQuID's abduced queries (Fig. 11 compares the two).

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/join_hash.h"
#include "exec/result_set.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace squid {

/// Execution statistics (exposed for tests and micro-benchmarks).
struct ExecStats {
  /// Rows actually visited by predicate scans (aliases without predicates
  /// prune the scan entirely and contribute 0).
  size_t rows_scanned = 0;
  /// Matches emitted by hash-join expansion steps.
  size_t rows_joined = 0;
  size_t groups = 0;
  size_t join_hashes_built = 0;
  size_t join_hashes_reused = 0;
  /// Probe-key chunks packed and probed through FlatJoinHash::ProbeBatch.
  size_t probe_batches = 0;
  /// Tuples appended to intermediate TupleBuffers by join and cartesian
  /// expansion (the initial single-alias buffer is not an expansion).
  size_t tuples_materialized = 0;
};

/// \brief Executes queries against a Database.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Runs a full (possibly INTERSECT) query.
  Result<ResultSet> Execute(const Query& query);

  /// Runs one select block.
  Result<ResultSet> ExecuteSelect(const SelectQuery& query);

  const ExecStats& stats() const { return stats_; }

 private:
  /// ExecuteSelect body; assumes the join-hash cache is valid for the
  /// current top-level call (tables unchanged since it was cleared).
  Result<ResultSet> ExecuteSelectImpl(const SelectQuery& query);

  const Database* db_;
  ExecStats stats_;
  // Build-side FlatJoinHash tables over unfiltered columns, reused across
  // the INTERSECT branches of one query (abduced queries repeat the same FK
  // joins in every branch). Keyed by column identity; cleared at every
  // top-level Execute/ExecuteSelect so table mutations between calls cannot
  // leave stale entries.
  std::unordered_map<const Column*, std::shared_ptr<const FlatJoinHash>>
      join_hash_cache_;
};

/// Convenience wrapper: one-shot execution.
Result<ResultSet> ExecuteQuery(const Database& db, const Query& query);
Result<ResultSet> ExecuteQuery(const Database& db, const SelectQuery& query);

}  // namespace squid

#endif  // SQUID_EXEC_EXECUTOR_H_
