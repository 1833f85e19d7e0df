#ifndef SQUID_EXEC_EXECUTOR_H_
#define SQUID_EXEC_EXECUTOR_H_

/// \file executor.h
/// \brief Query executor over the columnar storage: selection pushdown,
/// vectorized hash equi-joins in connectivity order, group-by count
/// aggregation with HAVING, DISTINCT projection, and INTERSECT of blocks.
///
/// GROUP BY, DISTINCT and INTERSECT share one row equality: packed
/// (type tag, symbol-or-bits) cells folded into a GroupKeyTable
/// (exec/group_table.h), so values of different column types never match
/// and -0.0 matches 0.0. Values are built only for the emitted rows.
///
/// Pushed-down predicates are resolved once per query into typed scan
/// kernels over the raw column vectors (exec/expression.h): string = / <>
/// compare dictionary symbols, orderings compare string views, numerics
/// compare in place, and each kernel refines one selection vector — no
/// Value is built per scanned row. Intermediate tuples live in a columnar
/// TupleBuffer (exec/tuple_buffer.h) and joins probe a flat open-addressing
/// FlatJoinHash (storage/join_hash.h) in batches of packed keys — no
/// per-tuple allocation anywhere on the pipeline.
///
/// The executor uses a table's access paths (storage/table.h) when it has
/// current ones, which the αDB builds on its tables: an `=` filter on a
/// value-ordered column seeks its run instead of scanning (FilterRows), and
/// a join on a table's primary key probes the table's PK index instead of
/// building a hash, dropping matches outside a filtered alias's surviving
/// rows. So an abduced αDB-form query — each derived alias filtered by
/// `value = v AND count >= θ`, joined to the entity on its key — touches
/// only its runs and probes indexes built once per αDB.
///
/// Invariant: neither kernels, access paths nor vectorization change
/// results — for any given plan, every query result is byte-identical to a
/// per-tuple executor of that plan that scans through Value comparisons and
/// builds a hash per join (the golden-parity suite in
/// tests/exec_parity_test.cpp pins this, on built and snapshot-loaded
/// αDBs). Plan *choices* may intentionally differ from older releases (the
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
#include "storage/join_hash.h"
#include "exec/result_set.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace squid {

/// Execution statistics (exposed for tests and micro-benchmarks).
struct ExecStats {
  /// Rows the predicate selections started from: a table's row count for a
  /// scan, the run's length for a value-order seek (see FilterRows), and 0
  /// for an alias without predicates (its scan is pruned entirely).
  size_t rows_scanned = 0;
  /// Matches emitted by hash-join expansion steps.
  size_t rows_joined = 0;
  size_t groups = 0;
  /// Per-query FlatJoinHash builds.
  size_t join_hashes_built = 0;
  /// Joins whose build side already existed: a table's PK index, or an
  /// unfiltered build side cached earlier in the same query.
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
  /// One select block's output before any Value is built (executor.cpp).
  struct Block;

  /// Runs one select block up to emission; assumes the join-hash cache is
  /// valid for the current top-level call (tables unchanged since it was
  /// cleared).
  Result<Block> ExecuteBlock(const SelectQuery& query);

  const Database* db_;
  ExecStats stats_;
  // Build-side FlatJoinHash tables over unfiltered columns that are not a
  // table's indexed primary key (PK joins probe Table::pk_index(), which
  // outlives every query), reused across the INTERSECT branches of one
  // query (abduced original-form queries repeat the same FK joins in every
  // branch). Keyed by column identity; cleared at every top-level
  // Execute/ExecuteSelect so table mutations between calls cannot leave
  // stale entries. Map nodes are stable, so a probe holds a plain pointer.
  std::unordered_map<const Column*, FlatJoinHash> join_hash_cache_;
};

/// Convenience wrapper: one-shot execution.
Result<ResultSet> ExecuteQuery(const Database& db, const Query& query);
Result<ResultSet> ExecuteQuery(const Database& db, const SelectQuery& query);

}  // namespace squid

#endif  // SQUID_EXEC_EXECUTOR_H_
