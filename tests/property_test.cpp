#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "adb/abduction_ready_db.h"
#include "common/rng.h"
#include "core/abduction_model.h"
#include "core/context_discovery.h"
#include "core/squid.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using testing::MakeMoviesDb;

// ---------- Parser/printer round-trip over randomized queries ----------

/// Generates a random query in the supported subset.
Query RandomQuery(Rng* rng) {
  static const char* kTables[] = {"person", "movie", "castinfo"};
  static const char* kAttrs[] = {"id", "name", "year"};
  Query query;
  size_t branches = 1 + static_cast<size_t>(rng->UniformInt(0, 1));
  for (size_t b = 0; b < branches; ++b) {
    SelectQuery block;
    block.distinct = rng->Bernoulli(0.5);
    size_t ntables = 1 + static_cast<size_t>(rng->UniformInt(0, 2));
    for (size_t t = 0; t < ntables; ++t) {
      std::string table = kTables[rng->UniformInt(0, 2)];
      block.from.push_back(TableRef{table, "t" + std::to_string(t)});
    }
    block.select_list.push_back(
        SelectItem{{block.from[0].alias, kAttrs[rng->UniformInt(0, 2)]}});
    for (size_t t = 1; t < ntables; ++t) {
      block.join_predicates.push_back(JoinPredicate{
          {block.from[t].alias, "id"}, {block.from[t - 1].alias, "id"}});
    }
    size_t npreds = static_cast<size_t>(rng->UniformInt(0, 3));
    for (size_t p = 0; p < npreds; ++p) {
      ColumnRef col{block.from[rng->UniformInt(0, ntables - 1)].alias,
                    kAttrs[rng->UniformInt(0, 2)]};
      switch (rng->UniformInt(0, 2)) {
        case 0:
          block.where.push_back(Predicate::Compare(
              col, CompareOp::kGe, Value(rng->UniformInt(0, 100))));
          break;
        case 1:
          block.where.push_back(Predicate::Between(col, Value(rng->UniformInt(0, 50)),
                                                   Value(rng->UniformInt(51, 100))));
          break;
        default:
          block.where.push_back(Predicate::InList(
              col, {Value("a"), Value(rng->UniformInt(0, 9))}));
      }
    }
    if (rng->Bernoulli(0.3)) {
      block.group_by.push_back(ColumnRef{block.from[0].alias, "id"});
      block.having = HavingCount{CompareOp::kGe,
                                 static_cast<double>(rng->UniformInt(1, 20))};
    }
    query.branches.push_back(std::move(block));
  }
  return query;
}

class RoundTripPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripPropertyTest, PrintParsePrintIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 20; ++i) {
    Query q = RandomQuery(&rng);
    std::string sql = ToSql(q);
    auto reparsed = ParseQuery(sql);
    ASSERT_TRUE(reparsed.ok()) << sql << " -> " << reparsed.status().ToString();
    EXPECT_EQ(sql, ToSql(reparsed.value())) << sql;
    EXPECT_EQ(q.NumPredicates(), reparsed.value().NumPredicates());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripPropertyTest, ::testing::Range(1, 9));

// ---------- Executor monotonicity: adding predicates shrinks results ----------

class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, ConjunctionNeverGrowsResult) {
  auto db = MakeMoviesDb();
  Rng rng(static_cast<uint64_t>(GetParam()) * 131);
  SelectQuery base;
  base.distinct = true;
  base.from.push_back(TableRef{"person", "p"});
  base.select_list.push_back(SelectItem{{"p", "name"}});
  auto base_rs = ExecuteQuery(*db, base);
  ASSERT_TRUE(base_rs.ok());
  size_t previous = base_rs.value().num_rows();
  // Add up to 3 random predicates; each must not increase the cardinality.
  static const char* kGenders[] = {"Male", "Female"};
  for (int step = 0; step < 3; ++step) {
    switch (rng.UniformInt(0, 1)) {
      case 0:
        base.where.push_back(Predicate::Compare(
            {"p", "gender"}, CompareOp::kEq,
            Value(std::string(kGenders[rng.UniformInt(0, 1)]))));
        break;
      default:
        base.where.push_back(Predicate::Between({"p", "age"},
                                                Value(rng.UniformInt(20, 50)),
                                                Value(rng.UniformInt(51, 95))));
    }
    auto rs = ExecuteQuery(*db, base);
    ASSERT_TRUE(rs.ok());
    EXPECT_LE(rs.value().num_rows(), previous);
    previous = rs.value().num_rows();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest, ::testing::Range(1, 11));

// ---------- Abduction invariants over random example subsets ----------

class AbductionInvariantTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeMoviesDb().release();
    auto adb = AbductionReadyDb::Build(*db_);
    ASSERT_TRUE(adb.ok());
    adb_ = adb.value().release();
  }
  static void TearDownTestSuite() {
    delete adb_;
    delete db_;
  }
  static Database* db_;
  static AbductionReadyDb* adb_;
};
Database* AbductionInvariantTest::db_ = nullptr;
AbductionReadyDb* AbductionInvariantTest::adb_ = nullptr;

TEST_P(AbductionInvariantTest, FiltersAreValidAndSelectivitiesBounded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 733);
  // Random subset of persons (ids 1..6).
  std::vector<Value> keys;
  for (int64_t id = 1; id <= 6; ++id) {
    if (rng.Bernoulli(0.5)) keys.push_back(Value(id));
  }
  if (keys.size() < 2) keys = {Value(static_cast<int64_t>(1)),
                               Value(static_cast<int64_t>(2))};
  SquidConfig config;
  auto contexts = DiscoverContexts(*adb_, "person", keys, config);
  ASSERT_TRUE(contexts.ok());
  AbductionModel model(adb_, config);
  auto filters = model.AbduceFilters(contexts.value(), keys.size());
  ASSERT_TRUE(filters.ok());
  for (const Filter& f : filters.value()) {
    // ψ ∈ (0, 1]: a valid filter is satisfied by at least the examples.
    EXPECT_GT(f.selectivity, 0.0) << f.property.ToString(*adb_);
    EXPECT_LE(f.selectivity, 1.0);
    // Prior components in range.
    EXPECT_GE(f.delta, 0.0);
    EXPECT_LE(f.delta, 1.0);
    EXPECT_TRUE(f.alpha == 0.0 || f.alpha == 1.0);
    EXPECT_TRUE(f.lambda == 0.0 || f.lambda == 1.0);
    // Algorithm 1's decision rule.
    EXPECT_EQ(f.included, f.include_score > f.exclude_score);
  }
}

TEST_P(AbductionInvariantTest, AbducedQueryContainsExamples) {
  // Lemma 3.1 + Definition 2.1: the conjunction of valid filters keeps
  // every example in the result, for any example subset.
  Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  const Table* person = db_->GetTable("person").value();
  std::vector<std::string> names;
  for (size_t r = 0; r < person->num_rows(); ++r) {
    if (rng.Bernoulli(0.5)) {
      names.emplace_back(person->ColumnByName("name").value()->StringAt(r));
    }
  }
  if (names.size() < 2) names = {"Jim Carris", "Ewan McGregg"};
  Squid squid(adb_);
  auto abduced = squid.Discover(names);
  ASSERT_TRUE(abduced.ok());
  auto rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  std::unordered_set<std::string> out;
  for (const Value& v : rs.value().ColumnValues(0)) out.insert(v.ToString());
  for (const auto& name : names) {
    EXPECT_TRUE(out.count(name)) << name;
  }
}

TEST_P(AbductionInvariantTest, PosteriorRespectsRhoMonotonicity) {
  // Raising ρ (more optimistic prior) can only add filters, never remove.
  Rng rng(static_cast<uint64_t>(GetParam()) * 389);
  std::vector<Value> keys = {Value(static_cast<int64_t>(1)),
                             Value(static_cast<int64_t>(2))};
  SquidConfig low, high;
  low.rho = 0.05;
  high.rho = 0.5;
  low.tau_a = high.tau_a = 1.0;
  auto contexts = DiscoverContexts(*adb_, "person", keys, low);
  ASSERT_TRUE(contexts.ok());
  AbductionModel low_model(adb_, low), high_model(adb_, high);
  auto low_filters = low_model.AbduceFilters(contexts.value(), 2);
  auto high_filters = high_model.AbduceFilters(contexts.value(), 2);
  ASSERT_TRUE(low_filters.ok());
  ASSERT_TRUE(high_filters.ok());
  ASSERT_EQ(low_filters.value().size(), high_filters.value().size());
  for (size_t i = 0; i < low_filters.value().size(); ++i) {
    if (low_filters.value()[i].included) {
      EXPECT_TRUE(high_filters.value()[i].included);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbductionInvariantTest, ::testing::Range(1, 13));

// ---------- Skewness / outlier math properties ----------

class SkewnessPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SkewnessPropertyTest, ScaleAndShiftInvariance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271);
  std::vector<double> thetas;
  size_t n = 4 + static_cast<size_t>(rng.UniformInt(0, 8));
  for (size_t i = 0; i < n; ++i) thetas.push_back(rng.UniformDouble(1, 50));
  double base = AbductionModel::Skewness(thetas);
  // Skewness is invariant to positive scaling and shifting.
  std::vector<double> scaled, shifted;
  for (double t : thetas) {
    scaled.push_back(t * 3.5);
    shifted.push_back(t + 100);
  }
  EXPECT_NEAR(AbductionModel::Skewness(scaled), base, 1e-9);
  EXPECT_NEAR(AbductionModel::Skewness(shifted), base, 1e-9);
  // Negating flips the sign.
  std::vector<double> negated;
  for (double t : thetas) negated.push_back(-t);
  EXPECT_NEAR(AbductionModel::Skewness(negated), -base, 1e-9);
}

TEST_P(SkewnessPropertyTest, OutlierRequiresDistanceAboveKSigma) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 613);
  std::vector<double> thetas;
  for (size_t i = 0; i < 10; ++i) thetas.push_back(rng.UniformDouble(5, 10));
  // The mean itself is never an outlier.
  double mean = 0;
  for (double t : thetas) mean += t;
  mean /= static_cast<double>(thetas.size());
  EXPECT_FALSE(AbductionModel::IsOutlier(mean, thetas, 2.0));
  // A point far beyond the spread always is.
  EXPECT_TRUE(AbductionModel::IsOutlier(1000, thetas, 2.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewnessPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace squid
