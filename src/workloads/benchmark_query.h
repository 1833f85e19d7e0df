#ifndef SQUID_WORKLOADS_BENCHMARK_QUERY_H_
#define SQUID_WORKLOADS_BENCHMARK_QUERY_H_

/// \file benchmark_query.h
/// \brief Benchmark-query registry (the Fig. 19/20/22 workloads) plus small
/// AST-building helpers shared by the per-dataset definitions.

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace squid {

/// \brief One benchmark query: ground-truth intent on the original schema.
struct BenchmarkQuery {
  std::string id;           // "IQ1", "DQ3", "AQ07"
  std::string description;  // the intent in words
  std::string entity_relation;
  std::string projection_attr;
  Query query;              // executable ground truth
  size_t num_joins = 0;     // J column (joining relations)
  size_t num_selections = 0;  // S column (selection predicates)
};

// --- AST-building helpers used by the workload definitions. ---

/// `SELECT DISTINCT alias.attr FROM relation alias`.
SelectQuery ProjectBlock(const std::string& relation, const std::string& alias,
                         const std::string& attr);

/// Adds `fact` joined on fact.in_attr = base_alias.base_key and
/// fact.out_attr = far_alias.far_key with `far` appended too.
void AddFactJoin(SelectQuery* q, const std::string& base_alias,
                 const std::string& base_key, const std::string& fact,
                 const std::string& fact_alias, const std::string& in_attr,
                 const std::string& out_attr, const std::string& far,
                 const std::string& far_alias, const std::string& far_key);

/// Adds `dim` joined on base_alias.fk = dim_alias.key plus the predicate
/// dim_alias.attr = value.
void AddDimEquals(SelectQuery* q, const std::string& base_alias,
                  const std::string& fk, const std::string& dim,
                  const std::string& dim_alias, const std::string& key,
                  const std::string& attr, const std::string& value);

/// Executes the ground truth with its first block DISTINCT and returns the
/// projected first column as a deduplicated, sorted ResultSet.
Result<ResultSet> GroundTruth(const Database& db, const BenchmarkQuery& query);

/// Finds a query by id (error when missing).
Result<const BenchmarkQuery*> FindQuery(const std::vector<BenchmarkQuery>& queries,
                                        const std::string& id);

}  // namespace squid

#endif  // SQUID_WORKLOADS_BENCHMARK_QUERY_H_
