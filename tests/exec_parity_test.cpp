// Golden-parity suite for the vectorized executor (exec/tuple_buffer.h +
// storage/join_hash.h): a faithful copy of the historical per-tuple pipeline —
// one heap-allocated row-id vector per intermediate tuple, a chaining
// std::unordered_map per join edge, an unordered_map<vector<uint64_t>,...>
// group-by — runs every IMDb/DBLP benchmark query plus abduced SPJAI
// queries (INTERSECT, group-by/HAVING, anti-joins) and the results must be
// byte-identical, row for row, to the production Executor. The two
// pipelines share only the packed-key helpers (PackCellKey/PackProbeKey/
// JoinCellsEqual) and the plan logic; everything vectorized is independent,
// DISTINCT and INTERSECT compare emitted Values through the tests' own cell
// keys (testing::CellKeyOf) rather than the executor's GroupKeyTable,
// and the reference scans every row through Value comparisons
// (BoundPredicate::Matches) and builds its own map per join, so the typed
// scan kernels, the value-order seeks and the PK-index joins the αDB's
// access paths enable are checked too.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <unordered_map>

#include "bench/bench_util.h"
#include "core/squid.h"
#include "eval/sampler.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "sql/parser.h"
#include "storage/join_hash.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using bench::BuildDblpBench;
using bench::BuildImdbBench;
using bench::DblpBench;
using bench::ImdbBench;
using testing::ExactRowOf;
using testing::RowKeyOf;

/// FNV-1a over the packed group-key parts (the historical group-by hash).
struct GroupKeyHash {
  size_t operator()(const std::vector<uint64_t>& parts) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint64_t p : parts) {
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (p >> shift) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
    return static_cast<size_t>(h);
  }
};

using RowKey = std::vector<testing::CellKey>;

/// The reference's set semantics: the first occurrence of each distinct row
/// of `rs` (under RowKeyOf, on emitted Values) that `keep` accepts, in order.
template <typename Keep>
ResultSet KeepRows(const ResultSet& rs, Keep keep) {
  ResultSet out(rs.column_names());
  std::set<RowKey> seen;
  for (const auto& row : rs.rows()) {
    RowKey key = RowKeyOf(row);
    if (keep(key) && seen.insert(std::move(key)).second) out.AddRow(row);
  }
  return out;
}

/// The pre-vectorization select pipeline, per-tuple vectors and all. Plan
/// logic (start-alias choice, bind order, extra edges) matches the
/// production executor so output ordering is comparable byte-for-byte.
Result<ResultSet> ReferenceSelect(const Database& db, const SelectQuery& query) {
  if (query.from.empty()) return Status::InvalidArgument("empty FROM clause");
  const size_t num_aliases = query.from.size();

  std::vector<const Table*> tables(num_aliases);
  std::vector<std::vector<uint32_t>> rows(num_aliases);
  std::vector<bool> bound(num_aliases, false);
  std::vector<size_t> bound_order;
  std::vector<std::vector<uint32_t>> tuples;

  for (size_t i = 0; i < num_aliases; ++i) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db.GetTable(query.from[i].table_name));
    tables[i] = table;
    std::vector<BoundPredicate> preds;
    for (const auto& p : query.where) {
      if (p.column.table_alias != query.from[i].alias) continue;
      SQUID_ASSIGN_OR_RETURN(BoundPredicate bp, BindPredicate(*table, p));
      preds.push_back(std::move(bp));
    }
    // The reference's own scan: every row through the Value path
    // (BoundPredicate::Matches), never the production scan kernels.
    for (size_t r = 0; r < table->num_rows(); ++r) {
      bool ok = true;
      for (const auto& bp : preds) ok = ok && bp.Matches(r);
      if (ok) rows[i].push_back(static_cast<uint32_t>(r));
    }
  }

  // Start alias: smallest filtered join-connected relation (global fallback).
  std::vector<bool> in_join(num_aliases, false);
  for (const auto& j : query.join_predicates) {
    size_t li = *query.FindAlias(j.left.table_alias);
    size_t ri = *query.FindAlias(j.right.table_alias);
    if (li == ri) continue;  // self-edge: a filter, not a connection
    in_join[li] = true;
    in_join[ri] = true;
  }
  size_t start = num_aliases;
  for (size_t i = 0; i < num_aliases; ++i) {
    if (!in_join[i]) continue;
    if (start == num_aliases || rows[i].size() < rows[start].size()) start = i;
  }
  if (start == num_aliases) {
    start = 0;
    for (size_t i = 1; i < num_aliases; ++i) {
      if (rows[i].size() < rows[start].size()) start = i;
    }
  }
  bound[start] = true;
  bound_order.push_back(start);
  tuples.reserve(rows[start].size());
  for (uint32_t r : rows[start]) tuples.push_back({r});

  size_t bound_count = 1;
  while (bound_count < num_aliases) {
    ssize_t pick = -1;
    bool pick_left_bound = false;
    size_t next_alias = 0;
    for (size_t jp = 0; jp < query.join_predicates.size(); ++jp) {
      const auto& j = query.join_predicates[jp];
      size_t li = *query.FindAlias(j.left.table_alias);
      size_t ri = *query.FindAlias(j.right.table_alias);
      if (bound[li] && !bound[ri]) {
        pick = static_cast<ssize_t>(jp);
        pick_left_bound = true;
        next_alias = ri;
        break;
      }
      if (!bound[li] && bound[ri]) {
        pick = static_cast<ssize_t>(jp);
        pick_left_bound = false;
        next_alias = li;
        break;
      }
    }
    if (pick < 0) {
      for (size_t i = 0; i < num_aliases; ++i) {
        if (!bound[i]) {
          next_alias = i;
          break;
        }
      }
      std::vector<std::vector<uint32_t>> expanded;
      expanded.reserve(tuples.size() * rows[next_alias].size());
      for (const auto& t : tuples) {
        for (uint32_t r : rows[next_alias]) {
          auto nt = t;
          nt.push_back(r);
          expanded.push_back(std::move(nt));
        }
      }
      tuples = std::move(expanded);
      bound[next_alias] = true;
      bound_order.push_back(next_alias);
      ++bound_count;
      continue;
    }

    const auto& j = query.join_predicates[pick];
    const ColumnRef& bound_col = pick_left_bound ? j.left : j.right;
    const ColumnRef& new_col = pick_left_bound ? j.right : j.left;
    size_t bound_alias = *query.FindAlias(bound_col.table_alias);

    SQUID_ASSIGN_OR_RETURN(const Column* new_column,
                           tables[next_alias]->ColumnByName(new_col.attribute));
    std::unordered_map<uint64_t, std::vector<uint32_t>> hash;
    hash.reserve(rows[next_alias].size());
    uint64_t build_key = 0;
    for (uint32_t r : rows[next_alias]) {
      if (PackCellKey(*new_column, r, &build_key)) hash[build_key].push_back(r);
    }

    size_t bound_pos = 0;
    for (size_t i = 0; i < bound_order.size(); ++i) {
      if (bound_order[i] == bound_alias) {
        bound_pos = i;
        break;
      }
    }
    SQUID_ASSIGN_OR_RETURN(const Column* bound_column,
                           tables[bound_alias]->ColumnByName(bound_col.attribute));

    struct ExtraEdge {
      size_t tuple_pos;
      const Column* bound_column;
      const Column* new_column;
    };
    std::vector<ExtraEdge> extras;
    for (size_t jp = 0; jp < query.join_predicates.size(); ++jp) {
      if (jp == static_cast<size_t>(pick)) continue;
      const auto& e = query.join_predicates[jp];
      size_t li = *query.FindAlias(e.left.table_alias);
      size_t ri = *query.FindAlias(e.right.table_alias);
      const ColumnRef* bside = nullptr;
      const ColumnRef* nside = nullptr;
      if (li == next_alias && bound[ri]) {
        nside = &e.left;
        bside = &e.right;
      } else if (ri == next_alias && bound[li]) {
        nside = &e.right;
        bside = &e.left;
      } else {
        continue;
      }
      size_t balias = *query.FindAlias(bside->table_alias);
      size_t bpos = 0;
      for (size_t i = 0; i < bound_order.size(); ++i) {
        if (bound_order[i] == balias) {
          bpos = i;
          break;
        }
      }
      SQUID_ASSIGN_OR_RETURN(const Column* bcol,
                             tables[balias]->ColumnByName(bside->attribute));
      SQUID_ASSIGN_OR_RETURN(const Column* ncol,
                             tables[next_alias]->ColumnByName(nside->attribute));
      extras.push_back(ExtraEdge{bpos, bcol, ncol});
    }

    std::vector<std::vector<uint32_t>> joined;
    uint64_t probe_key = 0;
    for (const auto& t : tuples) {
      if (!PackProbeKey(*new_column, *bound_column, t[bound_pos], &probe_key)) continue;
      auto it = hash.find(probe_key);
      if (it == hash.end()) continue;
      for (uint32_t nr : it->second) {
        bool ok = true;
        for (const auto& ex : extras) {
          if (!JoinCellsEqual(*ex.bound_column, t[ex.tuple_pos], *ex.new_column, nr)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        auto nt = t;
        nt.push_back(nr);
        joined.push_back(std::move(nt));
      }
    }
    tuples = std::move(joined);
    bound[next_alias] = true;
    bound_order.push_back(next_alias);
    ++bound_count;
  }

  std::vector<size_t> alias_pos(num_aliases, 0);
  for (size_t i = 0; i < bound_order.size(); ++i) alias_pos[bound_order[i]] = i;

  // Same-alias equality edges are post-join filters (mirrors the executor).
  for (const auto& j : query.join_predicates) {
    size_t li = *query.FindAlias(j.left.table_alias);
    size_t ri = *query.FindAlias(j.right.table_alias);
    if (li != ri) continue;
    SQUID_ASSIGN_OR_RETURN(const Column* lcol,
                           tables[li]->ColumnByName(j.left.attribute));
    SQUID_ASSIGN_OR_RETURN(const Column* rcol,
                           tables[ri]->ColumnByName(j.right.attribute));
    size_t pos = alias_pos[li];
    std::vector<std::vector<uint32_t>> kept;
    kept.reserve(tuples.size());
    for (auto& t : tuples) {
      if (JoinCellsEqual(*lcol, t[pos], *rcol, t[pos])) kept.push_back(std::move(t));
    }
    tuples = std::move(kept);
  }

  for (const auto& aj : query.anti_join_predicates) {
    auto li = query.FindAlias(aj.left.table_alias);
    auto ri = query.FindAlias(aj.right.table_alias);
    if (!li || !ri) return Status::InvalidArgument("anti-join references unknown alias");
    SQUID_ASSIGN_OR_RETURN(const Column* lcol,
                           tables[*li]->ColumnByName(aj.left.attribute));
    SQUID_ASSIGN_OR_RETURN(const Column* rcol,
                           tables[*ri]->ColumnByName(aj.right.attribute));
    size_t lpos = alias_pos[*li], rpos = alias_pos[*ri];
    std::vector<std::vector<uint32_t>> kept;
    kept.reserve(tuples.size());
    for (auto& t : tuples) {
      if (!lcol->IsNull(t[lpos]) && !rcol->IsNull(t[rpos]) &&
          !JoinCellsEqual(*lcol, t[lpos], *rcol, t[rpos])) {
        kept.push_back(std::move(t));
      }
    }
    tuples = std::move(kept);
  }

  auto column_of = [&](const ColumnRef& ref) -> Result<std::pair<const Column*, size_t>> {
    auto alias_idx = query.FindAlias(ref.table_alias);
    if (!alias_idx) return Status::InvalidArgument("unknown alias '" + ref.table_alias + "'");
    SQUID_ASSIGN_OR_RETURN(const Column* col,
                           tables[*alias_idx]->ColumnByName(ref.attribute));
    return std::make_pair(col, alias_pos[*alias_idx]);
  };

  std::vector<std::string> names;
  names.reserve(query.select_list.size());
  for (const auto& item : query.select_list) names.push_back(item.column.ToString());
  ResultSet result(std::move(names));

  std::vector<std::pair<const Column*, size_t>> projections;
  for (const auto& item : query.select_list) {
    SQUID_ASSIGN_OR_RETURN(auto proj, column_of(item.column));
    projections.push_back(proj);
  }

  if (query.group_by.empty() && !query.having) {
    for (const auto& t : tuples) {
      std::vector<Value> row;
      row.reserve(projections.size());
      for (const auto& [col, pos] : projections) row.push_back(col->ValueAt(t[pos]));
      result.AddRow(std::move(row));
    }
  } else {
    std::vector<std::pair<const Column*, size_t>> keys;
    for (const auto& g : query.group_by) {
      SQUID_ASSIGN_OR_RETURN(auto key, column_of(g));
      keys.push_back(key);
    }
    struct Group {
      size_t count = 0;
      std::vector<uint32_t> first_tuple;
    };
    std::unordered_map<std::vector<uint64_t>, Group, GroupKeyHash> groups;
    std::vector<uint64_t> key_parts;
    for (const auto& t : tuples) {
      key_parts.clear();
      key_parts.reserve(keys.size() * 2);
      for (const auto& [col, pos] : keys) {
        uint64_t packed = 0;
        bool valid = PackCellKey(*col, t[pos], &packed);
        key_parts.push_back(valid ? 1 : 0);
        key_parts.push_back(valid ? packed : 0);
      }
      auto [it, inserted] = groups.try_emplace(key_parts);
      if (inserted) it->second.first_tuple = t;
      ++it->second.count;
    }
    for (const auto& [_, g] : groups) {
      if (query.having) {
        Value count_val(static_cast<int64_t>(g.count));
        Value target(query.having->value);
        if (!EvalCompare(count_val, query.having->op, target)) continue;
      }
      std::vector<Value> row;
      row.reserve(projections.size());
      for (const auto& [col, pos] : projections) {
        row.push_back(col->ValueAt(g.first_tuple[pos]));
      }
      result.AddRow(std::move(row));
    }
    result.SortRows();
  }

  if (query.distinct) result = KeepRows(result, [](const RowKey&) { return true; });
  return result;
}

Result<ResultSet> ReferenceExecute(const Database& db, const Query& query) {
  if (query.branches.empty()) return Status::InvalidArgument("query with no branches");
  SQUID_ASSIGN_OR_RETURN(ResultSet out, ReferenceSelect(db, query.branches[0]));
  // INTERSECT: branch 0's distinct rows, in order, found in every branch.
  for (size_t i = 1; i < query.branches.size(); ++i) {
    SQUID_ASSIGN_OR_RETURN(ResultSet other, ReferenceSelect(db, query.branches[i]));
    std::set<RowKey> found;
    for (const auto& row : other.rows()) found.insert(RowKeyOf(row));
    out = KeepRows(out, [&](const RowKey& key) { return found.count(key) > 0; });
  }
  return out;
}

/// Byte-identical comparison: column names, row count, and every row's
/// cells (type and the double's own bits or the string's bytes,
/// ExactRowOf, so -0.0 and 0.0 differ), in order.
void ExpectByteIdentical(const ResultSet& expected, const ResultSet& actual,
                         const std::string& label) {
  ASSERT_EQ(expected.column_names(), actual.column_names()) << label;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << label;
  for (size_t i = 0; i < expected.num_rows(); ++i) {
    ASSERT_EQ(ExactRowOf(expected.row(i)), ExactRowOf(actual.row(i))) << label << " row " << i;
  }
}

/// Shape counters: the suite must actually exercise INTERSECT, group-by /
/// HAVING, and anti-joins or the parity claim is hollow.
struct Coverage {
  size_t intersect = 0;
  size_t group_by = 0;
  size_t anti_join = 0;

  void Count(const Query& q) {
    if (q.branches.size() > 1) ++intersect;
    for (const auto& b : q.branches) {
      if (!b.group_by.empty() || b.having) ++group_by;
      if (!b.anti_join_predicates.empty()) ++anti_join;
    }
  }
};

void ExpectParityOverQueries(const Database& db,
                             const std::vector<BenchmarkQuery>& queries,
                             Coverage* coverage) {
  for (const auto& bq : queries) {
    auto expected = ReferenceExecute(db, bq.query);
    auto actual = ExecuteQuery(db, bq.query);
    ASSERT_EQ(expected.ok(), actual.ok()) << bq.id;
    if (!expected.ok()) continue;
    coverage->Count(bq.query);
    ExpectByteIdentical(expected.value(), actual.value(), bq.id);
  }
}

/// Abduced-query parity: discover from sampled examples, then execute both
/// abduced forms (αDB SPJ and original-schema SPJAI with INTERSECT/HAVING)
/// through both pipelines. `base` holds the original-schema relations.
void ExpectAbducedParity(const Database& base, const AbductionReadyDb& adb,
                         const BenchmarkQuery& bq, Coverage* coverage) {
  auto truth = GroundTruth(base, bq);
  ASSERT_TRUE(truth.ok()) << bq.id;
  Rng rng(42);
  auto examples = SampleExamples(truth.value(), 10, &rng);
  if (examples.size() < 2) return;
  Squid squid(&adb);
  auto abduced = squid.Discover(examples);
  if (!abduced.ok()) return;

  coverage->Count(abduced.value().adb_query);
  auto adb_expected = ReferenceExecute(adb.database(), abduced.value().adb_query);
  auto adb_actual = ExecuteQuery(adb.database(), abduced.value().adb_query);
  ASSERT_EQ(adb_expected.ok(), adb_actual.ok()) << bq.id << " adb form";
  if (adb_expected.ok()) {
    ExpectByteIdentical(adb_expected.value(), adb_actual.value(), bq.id + " adb form");
  }

  coverage->Count(abduced.value().original_query);
  auto orig_expected = ReferenceExecute(base, abduced.value().original_query);
  auto orig_actual = ExecuteQuery(base, abduced.value().original_query);
  ASSERT_EQ(orig_expected.ok(), orig_actual.ok()) << bq.id << " original form";
  if (orig_expected.ok()) {
    ExpectByteIdentical(orig_expected.value(), orig_actual.value(),
                        bq.id + " original form");
  }
}

/// Definition 2.1 (E ⊆ Q(D)) over a workload: for every query, seeded
/// example sets of sizes 2-7 are discovered and the αDB-form answer is
/// executed; every example must be in the result, and the result must be
/// byte-identical to the reference executor's. Returns the number of
/// answers checked.
size_t ExpectContainment(const Database& base, const AbductionReadyDb& adb,
                         const std::vector<BenchmarkQuery>& queries) {
  size_t checked = 0;
  Squid squid(&adb);
  for (const BenchmarkQuery& bq : queries) {
    auto truth = GroundTruth(base, bq);
    EXPECT_TRUE(truth.ok()) << bq.id;
    if (!truth.ok()) continue;
    for (size_t size = 2; size <= 7; ++size) {
      Rng rng(1000 + size);
      auto examples = SampleExamples(truth.value(), size, &rng);
      if (examples.size() < 2) continue;
      auto abduced = squid.Discover(examples);
      if (!abduced.ok()) continue;
      const std::string label = bq.id + " with " + std::to_string(size) + " examples";
      auto actual = ExecuteQuery(adb.database(), abduced.value().adb_query);
      auto expected = ReferenceExecute(adb.database(), abduced.value().adb_query);
      EXPECT_TRUE(actual.ok() && expected.ok()) << label;
      if (!actual.ok() || !expected.ok()) continue;
      ExpectByteIdentical(expected.value(), actual.value(), label);
      std::set<std::string> answer;
      for (size_t i = 0; i < actual.value().num_rows(); ++i) {
        answer.insert(actual.value().row(i)[0].ToString());
      }
      for (const std::string& e : examples) {
        EXPECT_TRUE(answer.count(e)) << label << " lost example " << e;
      }
      ++checked;
    }
  }
  return checked;
}

class ExecParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    imdb_ = new ImdbBench(BuildImdbBench(0.12));
    dblp_ = new DblpBench(BuildDblpBench(0.2));
    // The IMDb αDB booted from its snapshot: load rebuilds the access paths
    // (PK indexes, value orders) the executor runs on.
    const std::string path = ::testing::TempDir() + "squid_exec_parity.sqsnap";
    EXPECT_TRUE(imdb_->adb->SaveSnapshot(path).ok());
    auto loaded = AbductionReadyDb::LoadSnapshot(path);
    std::remove(path.c_str());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (loaded.ok()) imdb_loaded_ = std::move(loaded).value().release();
  }
  static void TearDownTestSuite() {
    delete imdb_;
    delete dblp_;
    delete imdb_loaded_;
    imdb_ = nullptr;
    dblp_ = nullptr;
    imdb_loaded_ = nullptr;
  }
  static ImdbBench* imdb_;
  static DblpBench* dblp_;
  static AbductionReadyDb* imdb_loaded_;
};
ImdbBench* ExecParityTest::imdb_ = nullptr;
DblpBench* ExecParityTest::dblp_ = nullptr;
AbductionReadyDb* ExecParityTest::imdb_loaded_ = nullptr;

TEST_F(ExecParityTest, ImdbBenchmarkQueries) {
  Coverage coverage;
  ExpectParityOverQueries(*imdb_->data.db, imdb_->queries, &coverage);
  EXPECT_GT(coverage.group_by, 0u);  // the IMDb workload has HAVING queries
}

TEST_F(ExecParityTest, DblpBenchmarkQueries) {
  Coverage coverage;
  ExpectParityOverQueries(*dblp_->data.db, dblp_->queries, &coverage);
}

TEST_F(ExecParityTest, AbducedQueriesBothForms) {
  Coverage coverage;
  for (const auto& bq : imdb_->queries) {
    ExpectAbducedParity(*imdb_->data.db, *imdb_->adb, bq, &coverage);
  }
  // Abduced SPJAI queries are where INTERSECT and HAVING branches live.
  EXPECT_GT(coverage.intersect + coverage.group_by, 0u);
}

TEST_F(ExecParityTest, AbducedQueriesBothFormsOnLoadedSnapshot) {
  ASSERT_NE(imdb_loaded_, nullptr);
  Coverage coverage;
  // The loaded αDB's database holds the base relations too.
  for (const auto& bq : imdb_->queries) {
    ExpectAbducedParity(imdb_loaded_->database(), *imdb_loaded_, bq, &coverage);
  }
  EXPECT_GT(coverage.intersect + coverage.group_by, 0u);
}

TEST_F(ExecParityTest, AbducedAnswersContainTheirExamples) {
  EXPECT_GT(ExpectContainment(*imdb_->data.db, *imdb_->adb, imdb_->queries), 40u);
  EXPECT_GT(ExpectContainment(*dblp_->data.db, *dblp_->adb, dblp_->queries), 10u);
}

TEST_F(ExecParityTest, HandWrittenIntersectAntiJoinGroupBy) {
  // Deterministic INTERSECT / anti-join / group-by shapes over the IMDb
  // base schema, independent of what discovery happens to abduce.
  const char* sqls[] = {
      // INTERSECT of two SPJ blocks.
      "SELECT DISTINCT p.name FROM person p, castinfo c, movie m "
      "WHERE c.person_id = p.id AND c.movie_id = m.id AND m.year >= 2000 "
      "INTERSECT "
      "SELECT DISTINCT p.name FROM person p, castinfo c, movie m "
      "WHERE c.person_id = p.id AND c.movie_id = m.id AND m.year <= 2005",
      // Anti-join: co-actor pairs excluding self-pairs.
      "SELECT p.name FROM person p, castinfo c1, castinfo c2, person q "
      "WHERE c1.person_id = p.id AND c2.movie_id = c1.movie_id AND "
      "c2.person_id = q.id AND q.id != p.id",
      // Group-by with HAVING over a join.
      "SELECT p.name FROM person p, castinfo c WHERE c.person_id = p.id "
      "GROUP BY p.id HAVING count(*) >= 3",
      // Cartesian alongside a join (disconnected FROM entry).
      "SELECT p.name FROM person p, castinfo c, genre g "
      "WHERE c.person_id = p.id",
      // Same-alias equality edge: a post-join filter, not a join.
      "SELECT c.movie_id FROM castinfo c, person p "
      "WHERE c.person_id = p.id AND c.movie_id = c.person_id",
  };
  Coverage coverage;
  for (const char* sql : sqls) {
    auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    coverage.Count(query.value());
    auto expected = ReferenceExecute(*imdb_->data.db, query.value());
    auto actual = ExecuteQuery(*imdb_->data.db, query.value());
    ASSERT_EQ(expected.ok(), actual.ok()) << sql;
    if (!expected.ok()) continue;
    ExpectByteIdentical(expected.value(), actual.value(), sql);
  }
  EXPECT_EQ(coverage.intersect, 1u);
  EXPECT_EQ(coverage.anti_join, 1u);
  EXPECT_EQ(coverage.group_by, 1u);
}

}  // namespace
}  // namespace squid
