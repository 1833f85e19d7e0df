#include "workloads/benchmark_query.h"

namespace squid {

SelectQuery ProjectBlock(const std::string& relation, const std::string& alias,
                         const std::string& attr) {
  SelectQuery q;
  q.distinct = true;
  q.from.push_back(TableRef{relation, alias});
  q.select_list.push_back(SelectItem{{alias, attr}});
  return q;
}

void AddFactJoin(SelectQuery* q, const std::string& base_alias,
                 const std::string& base_key, const std::string& fact,
                 const std::string& fact_alias, const std::string& in_attr,
                 const std::string& out_attr, const std::string& far,
                 const std::string& far_alias, const std::string& far_key) {
  q->from.push_back(TableRef{fact, fact_alias});
  q->join_predicates.push_back(
      JoinPredicate{{fact_alias, in_attr}, {base_alias, base_key}});
  q->from.push_back(TableRef{far, far_alias});
  q->join_predicates.push_back(
      JoinPredicate{{fact_alias, out_attr}, {far_alias, far_key}});
}

void AddDimEquals(SelectQuery* q, const std::string& base_alias,
                  const std::string& fk, const std::string& dim,
                  const std::string& dim_alias, const std::string& key,
                  const std::string& attr, const std::string& value) {
  q->from.push_back(TableRef{dim, dim_alias});
  q->join_predicates.push_back(JoinPredicate{{base_alias, fk}, {dim_alias, key}});
  q->where.push_back(
      Predicate::Compare({dim_alias, attr}, CompareOp::kEq, Value(value)));
}

Result<ResultSet> GroundTruth(const Database& db, const BenchmarkQuery& query) {
  Query distinct = query.query;
  if (!distinct.branches.empty()) distinct.branches[0].distinct = true;
  SQUID_ASSIGN_OR_RETURN(ResultSet rs, ExecuteQuery(db, distinct));
  rs.SortRows();
  return rs;
}

Result<const BenchmarkQuery*> FindQuery(const std::vector<BenchmarkQuery>& queries,
                                        const std::string& id) {
  for (const auto& q : queries) {
    if (q.id == id) return &q;
  }
  return Status::NotFound("no benchmark query '" + id + "'");
}

}  // namespace squid
