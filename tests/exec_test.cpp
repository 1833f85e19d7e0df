#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/group_table.h"
#include "exec/join_hash.h"
#include "exec/tuple_buffer.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using testing::MakeAcademicsDb;
using testing::MakeMoviesDb;
using testing::NameSet;
using testing::NamesOf;

Result<ResultSet> RunSql(const Database& db, const std::string& sql) {
  auto q = ParseQuery(sql);
  if (!q.ok()) return q.status();
  return ExecuteQuery(db, q.value());
}

TEST(ExecutorTest, ScanAndProject) {
  auto db = MakeAcademicsDb();
  auto rs = RunSql(*db, "SELECT a.name FROM academics a");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 6u);
}

TEST(ExecutorTest, SelectionPushdown) {
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db, "SELECT p.name FROM person p WHERE p.gender = 'Female'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Emma Stone", "Laura Holt"}));
}

TEST(ExecutorTest, NumericRangeSelection) {
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db, "SELECT p.name FROM person p WHERE p.age BETWEEN 50 AND 60");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 4u);  // 60, 52, 58, 50
}

TEST(ExecutorTest, PaperExample11Join) {
  // Q2 of Example 1.1: academics with interest 'data management'.
  auto db = MakeAcademicsDb();
  auto rs = RunSql(*db,
                "SELECT a.name FROM academics a, research r, interest i "
                "WHERE r.aid = a.id AND r.interest_id = i.id AND "
                "i.name = 'data management'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Dan Susic", "Joe Hellman", "Sam Madsen"}));
}

TEST(ExecutorTest, TwoHopJoin) {
  // Persons who appeared in a Comedy.
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db,
                "SELECT DISTINCT p.name FROM person p, castinfo c, movie m, "
                "movietogenre mg, genre g WHERE c.person_id = p.id AND "
                "c.movie_id = m.id AND mg.movie_id = m.id AND "
                "mg.genre_id = g.id AND g.name = 'Comedy'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Emma Stone", "Ewan McGregg", "Jim Carris",
                                      "Laura Holt"}));
}

TEST(ExecutorTest, DistinctDeduplicates) {
  auto db = MakeMoviesDb();
  // Without DISTINCT, Jim Carris appears once per comedy.
  auto dup = RunSql(*db,
                 "SELECT p.name FROM person p, castinfo c, movie m, "
                 "movietogenre mg, genre g WHERE c.person_id = p.id AND "
                 "c.movie_id = m.id AND mg.movie_id = m.id AND "
                 "mg.genre_id = g.id AND g.name = 'Comedy'");
  ASSERT_TRUE(dup.ok());
  EXPECT_GT(dup.value().num_rows(), 4u);
}

TEST(ExecutorTest, GroupByHavingCount) {
  // Persons with at least 3 comedy appearances (Fig. 5's Jim Carris).
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db,
                "SELECT p.name FROM person p, castinfo c, movietogenre mg, "
                "genre g WHERE c.person_id = p.id AND "
                "mg.movie_id = c.movie_id AND mg.genre_id = g.id AND "
                "g.name = 'Comedy' GROUP BY p.id HAVING count(*) >= 3");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()), (std::vector<std::string>{"Jim Carris"}));
}

TEST(ExecutorTest, HavingOperatorVariants) {
  auto db = MakeMoviesDb();
  // Exactly one comedy appearance: Laura and Emma.
  auto rs = RunSql(*db,
                "SELECT p.name FROM person p, castinfo c, movietogenre mg, "
                "genre g WHERE c.person_id = p.id AND "
                "mg.movie_id = c.movie_id AND mg.genre_id = g.id AND "
                "g.name = 'Comedy' GROUP BY p.id HAVING count(*) <= 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Emma Stone", "Laura Holt"}));
}

TEST(ExecutorTest, Intersection) {
  auto db = MakeMoviesDb();
  // Cast of 'Mighty Bruce' ∩ cast of 'Phillip's Letters' = Jim, Ewan.
  auto rs = RunSql(*db,
                "SELECT DISTINCT p.name FROM person p, castinfo c, movie m "
                "WHERE c.person_id = p.id AND c.movie_id = m.id AND "
                "m.title = 'Mighty Bruce' "
                "INTERSECT "
                "SELECT DISTINCT p.name FROM person p, castinfo c, movie m "
                "WHERE c.person_id = p.id AND c.movie_id = m.id AND "
                "m.title = 'Phillip''s Letters'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Ewan McGregg", "Jim Carris"}));
}

TEST(ExecutorTest, AntiJoinExcludesSelf) {
  auto db = MakeMoviesDb();
  // Co-actors of anyone: pairs (p, q) sharing a movie with p != q.
  auto with_self = RunSql(*db,
                       "SELECT p.name FROM person p, castinfo c1, castinfo c2, "
                       "person q WHERE c1.person_id = p.id AND "
                       "c2.movie_id = c1.movie_id AND c2.person_id = q.id");
  auto without_self = RunSql(*db,
                          "SELECT p.name FROM person p, castinfo c1, castinfo "
                          "c2, person q WHERE c1.person_id = p.id AND "
                          "c2.movie_id = c1.movie_id AND c2.person_id = q.id "
                          "AND q.id != p.id");
  ASSERT_TRUE(with_self.ok());
  ASSERT_TRUE(without_self.ok());
  EXPECT_LT(without_self.value().num_rows(), with_self.value().num_rows());
}

TEST(ExecutorTest, DisconnectedFromIsCartesian) {
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db, "SELECT p.name FROM person p, genre g");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 6u * 3u);
}

TEST(ExecutorTest, CartesianOverflowIsOutOfRangeBeforeAllocating) {
  // 2000^3 = 8e9 tuples: the product is checked before any buffer for it
  // is reserved, so this returns OutOfRange instead of dying in bad_alloc.
  Database db("d");
  for (const char* name : {"a", "b", "c"}) {
    auto t = db.CreateTable(Schema(name, {{"k", ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    for (int64_t v = 0; v < 2000; ++v) {
      ASSERT_TRUE(t.value()->AppendRow({Value(v)}).ok());
    }
  }
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b, c c");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kOutOfRange);
}

TEST(ExecutorTest, EmptyResultIsOk) {
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db, "SELECT p.name FROM person p WHERE p.age > 200");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 0u);
}

TEST(ExecutorTest, UnknownTableErrors) {
  auto db = MakeMoviesDb();
  EXPECT_FALSE(RunSql(*db, "SELECT x.a FROM missing x").ok());
}

TEST(ExecutorTest, UnknownColumnErrors) {
  auto db = MakeMoviesDb();
  EXPECT_FALSE(RunSql(*db, "SELECT p.nope FROM person p").ok());
  EXPECT_FALSE(RunSql(*db, "SELECT p.name FROM person p WHERE p.nope = 1").ok());
}

TEST(ExecutorTest, JoinOnStringKeys) {
  // Build a tiny DB joined on string values.
  Database db("d");
  auto a = db.CreateTable(Schema("a", {{"k", ValueType::kString}}));
  auto b = db.CreateTable(
      Schema("b", {{"k", ValueType::kString}, {"v", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->AppendRow({Value("x")}).ok());
  ASSERT_TRUE(a.value()->AppendRow({Value("y")}).ok());
  ASSERT_TRUE(b.value()->AppendRow({Value("x"), Value(static_cast<int64_t>(1))}).ok());
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b WHERE a.k = b.k");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()), (std::vector<std::string>{"x"}));
}

TEST(ExecutorTest, NullJoinKeysNeverMatch) {
  Database db("d");
  auto a = db.CreateTable(Schema("a", {{"k", ValueType::kInt64}}));
  auto b = db.CreateTable(Schema("b", {{"k", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b.value()->AppendRow({Value::Null()}).ok());
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b WHERE a.k = b.k");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 0u);
}

TEST(ExecutorTest, MultiEdgeJoinAppliesAllConditions) {
  // Join on two attributes simultaneously.
  Database db("d");
  auto a = db.CreateTable(
      Schema("a", {{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  auto b = db.CreateTable(
      Schema("b", {{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto I = [](int64_t v) { return Value(v); };
  ASSERT_TRUE(a.value()->AppendRow({I(1), I(1)}).ok());
  ASSERT_TRUE(a.value()->AppendRow({I(1), I(2)}).ok());
  ASSERT_TRUE(b.value()->AppendRow({I(1), I(1)}).ok());
  auto rs = RunSql(db, "SELECT a.x FROM a a, b b WHERE a.x = b.x AND a.y = b.y");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 1u);
}

TEST(ExecutorTest, CrossPoolStringProbeDictionaryMiss) {
  // The probe table keeps its own StringPool (attached, not created through
  // the Database), so probes must translate through the build dictionary;
  // strings absent from it (the dictionary-miss path) match nothing.
  Database db("d");
  auto b = db.CreateTable(
      Schema("b", {{"k", ValueType::kString}, {"v", ValueType::kInt64}}));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value()->AppendRow({Value("x"), Value(static_cast<int64_t>(1))}).ok());
  ASSERT_TRUE(b.value()->AppendRow({Value("z"), Value(static_cast<int64_t>(2))}).ok());
  ASSERT_TRUE(b.value()->AppendRow({Value("w"), Value(static_cast<int64_t>(3))}).ok());

  auto a = std::make_shared<Table>(Schema("a", {{"k", ValueType::kString}}));
  ASSERT_TRUE(a->AppendRow({Value("x")}).ok());
  ASSERT_TRUE(a->AppendRow({Value("y")}).ok());  // not in db's dictionary
  ASSERT_NE(a->pool(), db.pool());
  ASSERT_TRUE(db.AttachTable(a).ok());

  // a (2 rows) starts, so b is the build side and a's foreign pool probes it.
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b WHERE a.k = b.k");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()), (std::vector<std::string>{"x"}));
}

TEST(ExecutorTest, IntDoubleKeyUnification) {
  // Double probes against an int build side unify on value (1 == 1.0);
  // fractional doubles match nothing; doubles beyond ±9.2e18 hit the
  // overflow guard instead of undefined casts.
  Database db("d");
  auto a = db.CreateTable(Schema("a", {{"k", ValueType::kInt64}}));
  auto b = db.CreateTable(Schema("b", {{"k", ValueType::kDouble}}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t v : {1, 3, 5, 7}) {
    ASSERT_TRUE(a.value()->AppendRow({Value(v)}).ok());
  }
  for (double d : {1.0, 2.5, 9.3e18, -9.3e18}) {
    ASSERT_TRUE(b.value()->AppendRow({Value(d)}).ok());
  }
  // b (4 rows) = probe side? No: a has 4 rows too, so the first
  // join-connected alias wins ties — a starts, b builds. Probe ints against
  // the double build dictionary unifies 1 with 1.0.
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b WHERE a.k = b.k");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().row(0)[0].AsInt64(), 1);

  // Now make b start (smaller), so doubles probe the int build side and the
  // overflow guard + fractional rejection must fire.
  auto c = db.CreateTable(Schema("c", {{"k", ValueType::kInt64}}));
  ASSERT_TRUE(c.ok());
  for (int64_t v : {1, 3, 5, 7, 9}) {
    ASSERT_TRUE(c.value()->AppendRow({Value(v)}).ok());
  }
  auto rs2 = RunSql(db, "SELECT b.k FROM b b, c c WHERE b.k = c.k");
  ASSERT_TRUE(rs2.ok());
  ASSERT_EQ(rs2.value().num_rows(), 1u);
  EXPECT_EQ(rs2.value().row(0)[0].AsDouble(), 1.0);
}

TEST(ExecutorTest, MultiEdgeExtraJoinsAcrossTwoBoundAliases) {
  // When the newly-bound alias joins two *different* already-bound aliases,
  // the second edge rides along as an extra in-pass filter.
  Database db("d");
  auto a = db.CreateTable(
      Schema("a", {{"x", ValueType::kInt64}, {"z", ValueType::kInt64}}));
  auto b = db.CreateTable(
      Schema("b", {{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  auto c = db.CreateTable(
      Schema("c", {{"y", ValueType::kInt64}, {"z", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  auto I = [](int64_t v) { return Value(v); };
  ASSERT_TRUE(a.value()->AppendRow({I(1), I(10)}).ok());
  ASSERT_TRUE(a.value()->AppendRow({I(2), I(20)}).ok());
  ASSERT_TRUE(b.value()->AppendRow({I(1), I(100)}).ok());
  ASSERT_TRUE(b.value()->AppendRow({I(2), I(200)}).ok());
  ASSERT_TRUE(c.value()->AppendRow({I(100), I(10)}).ok());   // matches a=1 chain
  ASSERT_TRUE(c.value()->AppendRow({I(200), I(999)}).ok());  // z mismatch: dropped
  auto rs = RunSql(db,
                   "SELECT a.x FROM a a, b b, c c WHERE a.x = b.x AND "
                   "b.y = c.y AND a.z = c.z");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().row(0)[0].AsInt64(), 1);
}

TEST(ExecutorTest, AntiJoinDropsNullsOnEitherSide) {
  // Anti-join semantics: a tuple survives only when BOTH cells are non-null
  // and unequal — a null on either side drops the tuple.
  Database db("d");
  auto a = db.CreateTable(
      Schema("a", {{"j", ValueType::kInt64}, {"k", ValueType::kInt64}}));
  auto b = db.CreateTable(
      Schema("b", {{"j", ValueType::kInt64}, {"k", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok() && b.ok());
  auto I = [](int64_t v) { return Value(v); };
  ASSERT_TRUE(a.value()->AppendRow({I(1), I(7)}).ok());
  ASSERT_TRUE(a.value()->AppendRow({I(1), Value::Null()}).ok());
  ASSERT_TRUE(b.value()->AppendRow({I(1), I(8)}).ok());
  ASSERT_TRUE(b.value()->AppendRow({I(1), Value::Null()}).ok());
  // Join on j pairs everything; the anti-join keeps only (7, 8).
  auto rs = RunSql(db, "SELECT a.k FROM a a, b b WHERE a.j = b.j AND a.k != b.k");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().row(0)[0].AsInt64(), 7);
}

TEST(ExecutorTest, SameAliasEqualityPredicateFilters) {
  // The parser routes any col = col comparison into join_predicates, but a
  // same-alias edge (t.x = t.y) never has exactly one side bound, so the
  // join bind loop can't pick it — it must be applied as a post-join
  // filter. Regression: it used to be silently dropped.
  Database db("d");
  auto t = db.CreateTable(
      Schema("t", {{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  auto I = [](int64_t v) { return Value(v); };
  ASSERT_TRUE(t.value()->AppendRow({I(1), I(1)}).ok());
  ASSERT_TRUE(t.value()->AppendRow({I(2), I(3)}).ok());
  ASSERT_TRUE(t.value()->AppendRow({I(4), Value::Null()}).ok());  // null != 4
  auto rs = RunSql(db, "SELECT t.x FROM t t WHERE t.x = t.y");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().row(0)[0].AsInt64(), 1);

  // Also applied when the alias participates in a real join.
  auto u = db.CreateTable(Schema("u", {{"x", ValueType::kInt64}}));
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(u.value()->AppendRow({I(1)}).ok());
  ASSERT_TRUE(u.value()->AppendRow({I(2)}).ok());
  auto joined =
      RunSql(db, "SELECT t.x FROM t t, u u WHERE t.x = u.x AND t.x = t.y");
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().num_rows(), 1u);
  EXPECT_EQ(joined.value().row(0)[0].AsInt64(), 1);
}

TEST(ExecutorTest, IntersectHasSetSemantics) {
  // INTERSECT output is a set even when both branches produce duplicates.
  auto db = MakeMoviesDb();
  auto rs = RunSql(*db,
                   "SELECT p.name FROM person p, castinfo c "
                   "WHERE c.person_id = p.id "
                   "INTERSECT "
                   "SELECT p.name FROM person p, castinfo c "
                   "WHERE c.person_id = p.id");
  ASSERT_TRUE(rs.ok());
  auto no_distinct = RunSql(*db,
                            "SELECT p.name FROM person p, castinfo c "
                            "WHERE c.person_id = p.id");
  ASSERT_TRUE(no_distinct.ok());
  EXPECT_GT(no_distinct.value().num_rows(), rs.value().num_rows());
  EXPECT_EQ(NameSet(rs.value()), NameSet(no_distinct.value()));
  // And each surviving row appears exactly once.
  ResultSet deduped = rs.value();
  deduped.Deduplicate();
  EXPECT_EQ(deduped.num_rows(), rs.value().num_rows());
}

// ---------- Plan statistics (pinning the executor's plan choices) ----------

TEST(ExecStatsTest, StartAliasAvoidsDisconnectedCartesian) {
  // c (1 row) is join-disconnected and globally smallest; the start pick
  // must ignore it and begin at b (smallest join-connected), so the hash
  // join prunes a to 5 tuples BEFORE the cartesian expansion with c.
  Database db("d");
  auto a = db.CreateTable(Schema("a", {{"k", ValueType::kInt64}}));
  auto b = db.CreateTable(Schema("b", {{"k", ValueType::kInt64}}));
  auto c = db.CreateTable(Schema("c", {{"v", ValueType::kInt64}}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  for (int64_t v = 0; v < 50; ++v) {
    ASSERT_TRUE(a.value()->AppendRow({Value(v)}).ok());
  }
  for (int64_t v = 0; v < 5; ++v) {
    ASSERT_TRUE(b.value()->AppendRow({Value(v)}).ok());
  }
  ASSERT_TRUE(c.value()->AppendRow({Value(static_cast<int64_t>(0))}).ok());

  auto q = ParseQuery("SELECT a.k FROM a a, b b, c c WHERE a.k = b.k");
  ASSERT_TRUE(q.ok());
  Executor exec(&db);
  auto rs = exec.Execute(q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 5u);
  // Plan pin: 5 join matches + 5 cartesian expansions — NOT the 50-tuple
  // cartesian a pre-fix start at c would have materialized.
  EXPECT_EQ(exec.stats().rows_joined, 5u);
  EXPECT_EQ(exec.stats().tuples_materialized, 10u);
  EXPECT_EQ(exec.stats().probe_batches, 1u);
  EXPECT_EQ(exec.stats().join_hashes_built, 1u);
}

TEST(ExecStatsTest, RowsScannedCountsOnlyPredicateVisits) {
  // Aliases without pushed-down predicates prune the scan entirely and
  // contribute nothing to rows_scanned.
  auto db = MakeMoviesDb();
  auto q = ParseQuery(
      "SELECT p.name FROM person p, castinfo c "
      "WHERE c.person_id = p.id AND p.gender = 'Female'");
  ASSERT_TRUE(q.ok());
  Executor exec(db.get());
  auto rs = exec.Execute(q.value());
  ASSERT_TRUE(rs.ok());
  const size_t person_rows = db->GetTable("person").value()->num_rows();
  EXPECT_EQ(exec.stats().rows_scanned, person_rows);  // castinfo adds 0
}

// ---------- Scan kernels vs Value semantics ----------

/// A table whose cells stress every corner of Value::Compare: NULLs in every
/// column, 0.0 / -0.0 / NaN / infinities, integers beyond 2^53 (where the
/// int64 -> double view rounds), and strings of several orders.
std::unique_ptr<Database> MakeEdgeDb() {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const int64_t k53 = int64_t{1} << 53;
  auto db = std::make_unique<Database>("edge");
  auto t = db->CreateTable(Schema("e", {{"i", ValueType::kInt64},
                                        {"d", ValueType::kDouble},
                                        {"s", ValueType::kString}}));
  EXPECT_TRUE(t.ok());
  const std::vector<std::vector<Value>> rows = {
      {Value::Null(), Value::Null(), Value::Null()},
      {Value(int64_t{0}), Value(0.0), Value("")},
      {Value(int64_t{-1}), Value(-0.0), Value("a")},
      {Value(int64_t{5}), Value(kNaN), Value::Null()},
      {Value(k53), Value(9007199254740992.0), Value("b")},
      {Value(k53 + 1), Value(9007199254740994.0), Value("abc")},
      {Value::Null(), Value(2.5), Value("B")},
      {Value(std::numeric_limits<int64_t>::max()), Value(kInf), Value("5")},
      {Value(std::numeric_limits<int64_t>::min()), Value(-kInf), Value("zz")},
      {Value(int64_t{2}), Value::Null(), Value("a")},
      {Value(int64_t{5}), Value(5.0), Value("abc")},
  };
  for (const auto& row : rows) EXPECT_TRUE(t.value()->AppendRow(row).ok());
  return db;
}

/// Constants of every kind: int64, double (incl. -0.0, NaN, infinities and
/// a value that 2^53 + 1 rounds to), NULL, pooled strings and a string that
/// is in no cell (absent from the pool).
std::vector<Value> EdgeConstants() {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const int64_t k53 = int64_t{1} << 53;
  return {Value(int64_t{0}),
          Value(int64_t{-1}),
          Value(int64_t{5}),
          Value(k53),
          Value(k53 + 1),
          Value(std::numeric_limits<int64_t>::max()),
          Value(std::numeric_limits<int64_t>::min()),
          Value(0.0),
          Value(-0.0),
          Value(kNaN),
          Value(2.5),
          Value(5.0),
          Value(9007199254740992.0),
          Value(kInf),
          Value(-kInf),
          Value::Null(),
          Value(""),
          Value("a"),
          Value("B"),
          Value("abc"),
          Value("5"),
          Value("absent from the pool")};
}

/// The Value-semantics answer: every row through BoundPredicate::Matches.
std::vector<uint32_t> MatchesLoop(const Table& table,
                                  const std::vector<BoundPredicate>& preds) {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool ok = true;
    for (const auto& p : preds) ok = ok && p.Matches(r);
    if (ok) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

void ExpectKernelsMatchValues(const Table& table,
                              const std::vector<Predicate>& preds) {
  std::vector<BoundPredicate> bound;
  std::string label;
  for (const auto& p : preds) {
    auto b = BindPredicate(table, p);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(b).value());
    label += p.ToString() + "; ";
  }
  EXPECT_EQ(FilterRows(table, bound), MatchesLoop(table, bound)) << label;
}

TEST(ScanKernelTest, CompareMatchesValueSemanticsForEveryOperator) {
  auto db = MakeEdgeDb();
  const Table& table = *db->GetTable("e").value();
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (const char* col : {"i", "d", "s"}) {
    for (const Value& c : EdgeConstants()) {
      for (CompareOp op : ops) {
        ExpectKernelsMatchValues(table, {Predicate::Compare({"e", col}, op, c)});
      }
    }
  }
}

TEST(ScanKernelTest, BetweenMatchesValueSemantics) {
  // Every (lo, hi) pair, so lo > hi, NULL bounds and mixed-type bounds are
  // all covered.
  auto db = MakeEdgeDb();
  const Table& table = *db->GetTable("e").value();
  const std::vector<Value> consts = EdgeConstants();
  for (const char* col : {"i", "d", "s"}) {
    for (const Value& lo : consts) {
      for (const Value& hi : consts) {
        ExpectKernelsMatchValues(table, {Predicate::Between({"e", col}, lo, hi)});
      }
    }
  }
}

TEST(ScanKernelTest, InListMatchesValueSemantics) {
  auto db = MakeEdgeDb();
  const Table& table = *db->GetTable("e").value();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const int64_t k53 = int64_t{1} << 53;
  const std::vector<std::vector<Value>> lists = {
      {},
      {Value::Null()},
      {Value(int64_t{5}), Value(2.5), Value("a"), Value::Null()},
      {Value(kNaN)},
      {Value("absent from the pool"), Value("abc"), Value(int64_t{-1})},
      {Value("b"), Value("zz"), Value("absent from the pool")},
      {Value(k53 + 1), Value(9007199254740992.0)},
      {Value(-0.0), Value("5")},
      {Value("absent from the pool")},
  };
  for (const char* col : {"i", "d", "s"}) {
    for (const auto& list : lists) {
      ExpectKernelsMatchValues(table, {Predicate::InList({"e", col}, list)});
    }
  }
}

TEST(ScanKernelTest, ConjunctionsRefineAcrossColumns) {
  // Later predicates refine the survivors of earlier ones, whose column may
  // be non-null where theirs is NULL.
  auto db = MakeEdgeDb();
  const Table& table = *db->GetTable("e").value();
  const std::vector<Predicate> preds = {
      Predicate::Compare({"e", "i"}, CompareOp::kGe, Value(int64_t{0})),
      Predicate::Compare({"e", "d"}, CompareOp::kNe, Value(5.0)),
      Predicate::Compare({"e", "s"}, CompareOp::kNe, Value("zz")),
      Predicate::Compare({"e", "s"}, CompareOp::kLt, Value(int64_t{1})),
      Predicate::Between({"e", "d"}, Value(int64_t{0}), Value(1e300)),
      Predicate::InList({"e", "s"}, {Value("a"), Value("abc"), Value("")}),
  };
  for (const auto& a : preds) {
    for (const auto& b : preds) {
      for (const auto& c : preds) ExpectKernelsMatchValues(table, {a, b, c});
    }
  }
}

TEST(ScanKernelTest, RowsVisitedCountsTableRowsOnlyWithPredicates) {
  auto db = MakeEdgeDb();
  const Table& table = *db->GetTable("e").value();
  size_t visited = 0;
  EXPECT_EQ(FilterRows(table, {}, &visited).size(), table.num_rows());
  EXPECT_EQ(visited, 0u);  // no predicates: the scan is pruned
  auto p = BindPredicate(
      table, Predicate::Compare({"e", "s"}, CompareOp::kEq, Value("absent")));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(FilterRows(table, {p.value()}, &visited).empty());
  EXPECT_EQ(visited, table.num_rows());
}

// ---------- FlatJoinHash / TupleBuffer ----------

TEST(FlatJoinHashTest, ProbeHitMissAndOrderPreservation) {
  Database db("d");
  auto t = db.CreateTable(Schema("t", {{"k", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  for (int64_t v : {7, 3, 7, 9, 3, 7}) {
    ASSERT_TRUE(t.value()->AppendRow({Value(v)}).ok());
  }
  std::vector<uint32_t> rows = {0, 1, 2, 3, 4, 5};
  auto hash = FlatJoinHash::Build(t.value()->column(0), rows);
  EXPECT_EQ(hash.num_keys(), 3u);
  EXPECT_EQ(hash.num_rows(), 6u);
  auto span7 = hash.Probe(static_cast<uint64_t>(7));
  ASSERT_EQ(span7.size, 3u);
  // Build order must be preserved within a key (output-order contract).
  EXPECT_EQ(std::vector<uint32_t>(span7.begin(), span7.end()),
            (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_TRUE(hash.Probe(static_cast<uint64_t>(8)).empty());

  uint64_t keys[3] = {3, 8, 9};
  uint8_t valid[3] = {1, 1, 0};
  FlatJoinHash::RowSpan spans[3];
  hash.ProbeBatch(keys, valid, 3, spans);
  EXPECT_EQ(spans[0].size, 2u);
  EXPECT_TRUE(spans[1].empty());
  EXPECT_TRUE(spans[2].empty());  // invalid probes come back empty
}

TEST(FlatJoinHashTest, EmptyAndNullOnlyBuilds) {
  Database db("d");
  auto t = db.CreateTable(Schema("t", {{"k", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->AppendRow({Value::Null()}).ok());
  auto empty = FlatJoinHash::Build(t.value()->column(0), {});
  EXPECT_TRUE(empty.Probe(0).empty());
  auto null_only = FlatJoinHash::Build(t.value()->column(0), {0});
  EXPECT_EQ(null_only.num_rows(), 0u);  // nulls never join
  EXPECT_TRUE(null_only.Probe(0).empty());
}

TEST(FlatJoinHashTest, ProbeBatchMatchesScalarProbeAndOracle) {
  Column col(ValueType::kInt64, nullptr);
  std::vector<uint32_t> rows;
  std::map<uint64_t, std::vector<uint32_t>> oracle;
  auto append = [&](int64_t v) {
    const uint32_t r = static_cast<uint32_t>(rows.size());
    col.AppendInt64(v);
    rows.push_back(r);
    oracle[static_cast<uint64_t>(v)].push_back(r);
  };
  for (int64_t i = 0; i < 5000; ++i) append(i % 1000);  // multi-row keys

  // Keys that share key 0's home bucket, so probes walk a collision chain.
  // The table the build sizes for 5000 + 6 rows has 16384 buckets.
  constexpr uint64_t kMask = 16383;
  const uint64_t home = MixJoinKey(0) & kMask;
  std::vector<uint64_t> chain;
  for (uint64_t k = 1000; chain.size() < 7; ++k) {
    if ((MixJoinKey(k) & kMask) == home) chain.push_back(k);
  }
  for (size_t c = 0; c + 1 < chain.size(); ++c) {
    append(static_cast<int64_t>(chain[c]));
  }
  FlatJoinHash hash = FlatJoinHash::Build(col, rows);

  // More probe keys than one executor chunk (1024): hits, misses, invalid
  // keys, every chain key, and a chain miss (the last chain key).
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 2500; ++k) keys.push_back(k);
  keys.insert(keys.end(), chain.begin(), chain.end());
  std::vector<uint8_t> valid;
  for (size_t i = 0; i < keys.size(); ++i) valid.push_back(i % 7 == 3 ? 0 : 1);

  std::vector<FlatJoinHash::RowSpan> out(keys.size());
  hash.ProbeBatch(keys.data(), valid.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!valid[i]) {
      EXPECT_TRUE(out[i].empty()) << i;
      continue;
    }
    FlatJoinHash::RowSpan scalar = hash.Probe(keys[i]);
    ASSERT_EQ(out[i].data, scalar.data) << "key=" << keys[i];
    ASSERT_EQ(out[i].size, scalar.size) << "key=" << keys[i];
    auto it = oracle.find(keys[i]);
    const std::vector<uint32_t> expected =
        it == oracle.end() ? std::vector<uint32_t>{} : it->second;
    EXPECT_EQ(std::vector<uint32_t>(out[i].begin(), out[i].end()), expected)
        << "key=" << keys[i];
  }
  EXPECT_TRUE(hash.Probe(chain.back()).empty());
  EXPECT_EQ(hash.Probe(chain.front()).size, 1u);
}

TEST(GroupKeyTableTest, AddBatchMatchesMapOracleAcrossRehashes) {
  // 4000 distinct keys among 10000 tuples, folded in batches of 1024 into a
  // table that starts with 16 slots: many rehashes land mid-batch.
  constexpr size_t kParts = 2;
  constexpr size_t kTuples = 10000;
  constexpr size_t kBatch = 1024;
  std::vector<uint64_t> packed(kTuples * kParts);
  for (size_t i = 0; i < kTuples; ++i) {
    packed[i * kParts] = 1;
    packed[i * kParts + 1] = (i * 2654435761u) % 4000;
  }
  GroupKeyTable table(kParts);
  for (size_t base = 0; base < kTuples; base += kBatch) {
    const size_t n = std::min(kBatch, kTuples - base);
    table.AddBatch(packed.data() + base * kParts, n,
                   static_cast<uint32_t>(base));
  }

  // Oracle: first tuple and count per key, and keys in first-occurrence
  // order.
  std::map<std::vector<uint64_t>, std::pair<uint32_t, uint32_t>> oracle;
  std::vector<std::vector<uint64_t>> order;
  for (size_t i = 0; i < kTuples; ++i) {
    std::vector<uint64_t> key(packed.begin() + i * kParts,
                              packed.begin() + (i + 1) * kParts);
    auto [it, inserted] =
        oracle.emplace(key, std::make_pair(static_cast<uint32_t>(i), 0u));
    if (inserted) order.push_back(key);
    ++it->second.second;
  }
  ASSERT_EQ(table.num_groups(), order.size());
  for (size_t g = 0; g < order.size(); ++g) {
    const GroupKeyTable::Group& group = table.groups()[g];
    EXPECT_EQ(group.first_tuple, oracle[order[g]].first) << "group " << g;
    EXPECT_EQ(group.count, oracle[order[g]].second) << "group " << g;
  }
}

TEST(TupleBufferTest, ExpandAndKeep) {
  TupleBuffer base;
  base.InitSingle({10, 11, 12});
  EXPECT_EQ(base.width(), 1u);
  EXPECT_EQ(base.size(), 3u);

  TupleBuffer wide;
  wide.InitEmpty(2, 4);
  uint32_t sel[] = {0, 0, 2};
  uint32_t rows[] = {100, 101, 102};
  wide.AppendExpanded(base, sel, rows, 3);
  EXPECT_EQ(wide.width(), 2u);
  EXPECT_EQ(wide.size(), 3u);
  EXPECT_EQ(wide.At(1, 0), 10u);
  EXPECT_EQ(wide.At(1, 1), 101u);
  EXPECT_EQ(wide.At(2, 0), 12u);

  uint32_t keep[] = {0, 2};
  wide.Keep(keep, 2);
  EXPECT_EQ(wide.size(), 2u);
  EXPECT_EQ(wide.At(1, 0), 12u);
  EXPECT_EQ(wide.At(1, 1), 102u);
}

// ---------- ResultSet ----------

TEST(ResultSetTest, DeduplicateAndSort) {
  ResultSet rs({"c"});
  rs.AddRow({Value("b")});
  rs.AddRow({Value("a")});
  rs.AddRow({Value("b")});
  rs.Deduplicate();
  EXPECT_EQ(rs.num_rows(), 2u);
  rs.SortRows();
  EXPECT_EQ(rs.row(0)[0].AsString(), "a");
}

TEST(ResultSetTest, IntersectWith) {
  ResultSet a({"c"}), b({"c"});
  a.AddRow({Value("x")});
  a.AddRow({Value("y")});
  b.AddRow({Value("y")});
  a.IntersectWith(b.ToSet());
  EXPECT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.row(0)[0].AsString(), "y");
}

TEST(ResultSetTest, EncodeRowDistinguishesTypes) {
  // int 1 and string "1" must encode differently; int 1 and double 1.0
  // compare equal and must encode identically... they do not need to: the
  // encoding is type-tagged, and mixed-type result columns do not occur.
  std::string int_row = ResultSet::EncodeRow({Value(static_cast<int64_t>(1))});
  std::string str_row = ResultSet::EncodeRow({Value("1")});
  EXPECT_NE(int_row, str_row);
}

TEST(ResultSetTest, EncodeRowIsSeparatorCollisionFree) {
  // Under the old separator-based encoding, ("a\x1f" "3b", "c") and
  // ("a", "b\x1f" "3c") concatenated to the same bytes: a '\x1f' inside a
  // string plus the type tag '3' forged a value boundary. The
  // length-prefixed encoding keeps them distinct.
  const std::string tricky1 = std::string("a\x1f") + "3b";
  const std::string tricky2 = std::string("b\x1f") + "3c";
  std::vector<Value> row1 = {Value(tricky1), Value("c")};
  std::vector<Value> row2 = {Value("a"), Value(tricky2)};
  EXPECT_NE(ResultSet::EncodeRow(row1), ResultSet::EncodeRow(row2));
  // Same trick across arities: one value embedding a forged boundary vs two.
  std::vector<Value> one = {Value(std::string("a\x1f") + "3b")};
  std::vector<Value> two = {Value("a"), Value("b")};
  EXPECT_NE(ResultSet::EncodeRow(one), ResultSet::EncodeRow(two));
  // Equal rows still encode identically.
  EXPECT_EQ(ResultSet::EncodeRow(row1), ResultSet::EncodeRow(row1));
}

TEST(ResultSetTest, DeduplicateKeepsAdversarialRowsDistinct) {
  // Regression: Deduplicate/IntersectWith silently merged the rows above.
  ResultSet rs({"x", "y"});
  rs.AddRow({Value(std::string("a\x1f") + "3b"), Value("c")});
  rs.AddRow({Value("a"), Value(std::string("b\x1f") + "3c")});
  rs.Deduplicate();
  EXPECT_EQ(rs.num_rows(), 2u);

  ResultSet keep({"x", "y"});
  keep.AddRow({Value(std::string("a\x1f") + "3b"), Value("c")});
  ResultSet probe({"x", "y"});
  probe.AddRow({Value("a"), Value(std::string("b\x1f") + "3c")});
  probe.IntersectWith(keep.ToSet());
  EXPECT_EQ(probe.num_rows(), 0u);  // distinct rows must not intersect
}

TEST(ResultSetTest, ColumnValues) {
  ResultSet rs({"a", "b"});
  rs.AddRow({Value("x"), Value(static_cast<int64_t>(1))});
  rs.AddRow({Value("y"), Value(static_cast<int64_t>(2))});
  auto col1 = rs.ColumnValues(1);
  ASSERT_EQ(col1.size(), 2u);
  EXPECT_EQ(col1[1].AsInt64(), 2);
}

}  // namespace
}  // namespace squid
