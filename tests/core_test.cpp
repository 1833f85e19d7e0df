#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "adb/abduction_ready_db.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/abduction_model.h"
#include "core/context_discovery.h"
#include "core/disambiguation.h"
#include "core/entity_lookup.h"
#include "core/query_builder.h"
#include "core/squid.h"
#include "eval/sampler.h"
#include "exec/executor.h"
#include "sql/printer.h"
#include "tests/test_util.h"
#include "workloads/benchmark_query.h"

namespace squid {
namespace {

using testing::MakeAcademicsDb;
using testing::MakeMoviesDb;
using testing::NamesOf;

class AcademicsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeAcademicsDb();
    auto adb = AbductionReadyDb::Build(*db_);
    ASSERT_TRUE(adb.ok()) << adb.status().ToString();
    adb_ = std::move(adb).value();
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<AbductionReadyDb> adb_;
};

class MoviesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeMoviesDb();
    auto adb = AbductionReadyDb::Build(*db_);
    ASSERT_TRUE(adb.ok()) << adb.status().ToString();
    adb_ = std::move(adb).value();
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<AbductionReadyDb> adb_;
};

// ---------- Entity lookup ----------

TEST_F(AcademicsFixture, LookupFindsCoveringMatch) {
  auto matches = LookupExamples(*adb_, {"Dan Susic", "Sam Madsen"});
  ASSERT_TRUE(matches.ok());
  ASSERT_GE(matches.value().size(), 1u);
  EXPECT_EQ(matches.value()[0].relation, "academics");
  EXPECT_EQ(matches.value()[0].attribute, "name");
}

TEST_F(AcademicsFixture, LookupIsCaseInsensitive) {
  auto matches = LookupExamples(*adb_, {"dan susic", "SAM MADSEN"});
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.value()[0].relation, "academics");
}

TEST_F(AcademicsFixture, LookupFailsWhenNoCommonRelation) {
  // One name, one interest: no single (relation, attribute) covers both.
  EXPECT_FALSE(LookupExamples(*adb_, {"Dan Susic", "data management"}).ok());
}

TEST_F(AcademicsFixture, LookupFailsForUnknownString) {
  EXPECT_FALSE(LookupExamples(*adb_, {"Dan Susic", "Nobody Nowhere"}).ok());
}

TEST_F(AcademicsFixture, LookupRejectsEmptyExampleSet) {
  EXPECT_FALSE(LookupExamples(*adb_, {}).ok());
}

// ---------- Disambiguation ----------

TEST(DisambiguationTest, PicksMostSimilarCandidates) {
  // Two movies share the title 'Twin'; one is a 2001 Comedy like the other
  // examples, the other a 1980 Drama. Disambiguation should pick the Comedy.
  auto db = std::make_unique<Database>("d");
  {
    Schema s("movie", {{"id", ValueType::kInt64},
                       {"title", ValueType::kString},
                       {"year", ValueType::kInt64},
                       {"kind", ValueType::kString}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("year");
    s.AddPropertyAttribute("kind");
    s.AddTextSearchAttribute("title");
    auto t = db->CreateTable(std::move(s));
    ASSERT_TRUE(t.ok());
    auto I = [](int64_t v) { return Value(v); };
    ASSERT_TRUE(t.value()->AppendRow({I(1), Value("Alpha"), I(2001), Value("Comedy")}).ok());
    ASSERT_TRUE(t.value()->AppendRow({I(2), Value("Beta"), I(2002), Value("Comedy")}).ok());
    ASSERT_TRUE(t.value()->AppendRow({I(3), Value("Twin"), I(2001), Value("Comedy")}).ok());
    ASSERT_TRUE(t.value()->AppendRow({I(4), Value("Twin"), I(1980), Value("Drama")}).ok());
  }
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  auto matches = LookupExamples(*adb.value(), {"Alpha", "Beta", "Twin"});
  ASSERT_TRUE(matches.ok());
  const EntityMatch& match = matches.value()[0];
  EXPECT_GT(match.NumCombinations(), 1.0);

  SquidConfig config;
  auto keys = DisambiguateEntities(*adb.value(), match, config);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys.value().size(), 3u);
  EXPECT_EQ(keys.value()[2].AsInt64(), 3);  // the Comedy twin

  // Without disambiguation the first posting wins (id 3 or 4, whichever was
  // indexed first — row order means id 3; emulate ambiguity by checking the
  // config path executes).
  config.enable_disambiguation = false;
  auto keys2 = DisambiguateEntities(*adb.value(), match, config);
  ASSERT_TRUE(keys2.ok());
}

bool Better(const std::pair<double, double>& a,
            const std::pair<double, double>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second > b.second;
}

/// The rows an ambiguous `match` resolves to when `score` rates each
/// combination of candidate profiles (profiles[i][c] is example i's
/// candidate c), with the same exhaustive / greedy enumeration and
/// tie-breaking as ResolveEntities.
template <typename Profile, typename ScoreFn>
std::vector<size_t> PickRowsBy(const EntityMatch& match, const SquidConfig& config,
                               const std::vector<std::vector<Profile>>& profiles,
                               ScoreFn&& score) {
  const size_t n = match.candidate_rows.size();
  std::vector<size_t> best(n, 0);
  std::pair<double, double> best_score{-1, -1};
  if (match.NumCombinations() <=
      static_cast<double>(config.max_disambiguation_combos)) {
    std::vector<size_t> current(n, 0);
    while (true) {
      std::vector<const Profile*> chosen(n);
      for (size_t i = 0; i < n; ++i) chosen[i] = &profiles[i][current[i]];
      auto rated = score(chosen);
      if (Better(rated, best_score)) {
        best_score = rated;
        best = current;
      }
      size_t d = 0;
      while (d < n && ++current[d] == match.candidate_rows[d].size()) {
        current[d] = 0;
        ++d;
      }
      if (d == n) break;
    }
  } else {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return match.candidate_rows[a].size() < match.candidate_rows[b].size();
    });
    const size_t seed_example = order[0];
    for (size_t seed = 0; seed < profiles[seed_example].size(); ++seed) {
      std::vector<size_t> current(n, 0);
      current[seed_example] = seed;
      std::vector<const Profile*> chosen = {&profiles[seed_example][seed]};
      for (size_t ex : order) {
        if (ex == seed_example) continue;
        std::pair<double, double> local_best{-1, -1};
        size_t local_pick = 0;
        for (size_t c = 0; c < profiles[ex].size(); ++c) {
          chosen.push_back(&profiles[ex][c]);
          auto rated = score(chosen);
          chosen.pop_back();
          if (Better(rated, local_best)) {
            local_best = rated;
            local_pick = c;
          }
        }
        current[ex] = local_pick;
        chosen.push_back(&profiles[ex][local_pick]);
      }
      auto rated = score(chosen);
      if (Better(rated, best_score)) {
        best_score = rated;
        best = current;
      }
    }
  }
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = match.candidate_rows[i][best[i]];
  return rows;
}

// The string-keyed scorer disambiguation used before it scored
// EntityContextProfiles, kept as the oracle of the differential tests below:
// every (descriptor, value) item is keyed "descriptor id \x1f
// Value::ToString()", so doubles compare by their 6-digit %g rendering.
namespace string_scorer {

using Profile = std::unordered_map<std::string, double>;

Value KeyAt(const AbductionReadyDb& adb, const std::string& relation,
            size_t row) {
  const Table* table = adb.database().GetTable(relation).value();
  return table->ColumnByName(*table->schema().primary_key())
      .value()
      ->ValueAt(row);
}

Profile BuildProfile(const AbductionReadyDb& adb, const std::string& relation,
                     size_t row) {
  Profile profile;
  Value key = KeyAt(adb, relation, row);
  for (const PropertyDescriptor* desc :
       adb.schema_graph().DescriptorsFor(relation)) {
    if (desc->hops.empty()) {
      auto value = adb.BasicValue(*desc, row);
      if (!value.ok() || value.value().is_null()) continue;
      profile[desc->id + "\x1f" + value.value().ToString()] = 1.0;
      continue;
    }
    auto values = adb.DerivedValues(*desc, key);
    if (!values.ok()) continue;
    for (const auto& [v, count] : values.value()) {
      profile[desc->id + "\x1f" + v.ToString()] = count;
    }
  }
  return profile;
}

std::pair<double, double> Score(const std::vector<const Profile*>& chosen) {
  double shared = 0, weight = 0;
  for (const auto& [item, w] : *chosen[0]) {
    double min_w = w;
    bool in_all = true;
    for (size_t i = 1; i < chosen.size() && in_all; ++i) {
      auto it = chosen[i]->find(item);
      in_all = it != chosen[i]->end();
      if (in_all) min_w = std::min(min_w, it->second);
    }
    if (in_all) {
      shared += 1;
      weight += min_w;
    }
  }
  return {shared, weight};
}

/// The rows the string scorer picks for an ambiguous `match`, with the same
/// exhaustive / greedy enumeration and tie-breaking as ResolveEntities.
std::vector<size_t> PickRows(const AbductionReadyDb& adb,
                             const EntityMatch& match,
                             const SquidConfig& config) {
  const size_t n = match.candidate_rows.size();
  std::vector<std::vector<Profile>> profiles(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t row : match.candidate_rows[i]) {
      profiles[i].push_back(BuildProfile(adb, match.relation, row));
    }
  }
  return PickRowsBy(match, config, profiles, Score);
}

}  // namespace string_scorer

TEST(DisambiguationTest, DoublesPastTheSixthDigitAreDistinctItems) {
  // The twins differ only in budget, past the 6th significant digit: %g
  // renders both as 1.23457e+06, so the string scorer sees a tie and keeps
  // the first twin. Exact equality shares the budget with the second twin.
  auto db = std::make_unique<Database>("d");
  {
    Schema s("movie", {{"id", ValueType::kInt64},
                       {"title", ValueType::kString},
                       {"budget", ValueType::kDouble}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("budget");
    s.AddTextSearchAttribute("title");
    auto t = db->CreateTable(std::move(s));
    ASSERT_TRUE(t.ok());
    auto I = [](int64_t v) { return Value(v); };
    ASSERT_TRUE(
        t.value()->AppendRow({I(1), Value("Alpha"), Value(1234567.0)}).ok());
    ASSERT_TRUE(
        t.value()->AppendRow({I(2), Value("Beta"), Value(1234567.0)}).ok());
    ASSERT_TRUE(
        t.value()->AppendRow({I(3), Value("Twin"), Value(1234568.0)}).ok());
    ASSERT_TRUE(
        t.value()->AppendRow({I(4), Value("Twin"), Value(1234567.0)}).ok());
  }
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  auto matches = LookupExamples(*adb.value(), {"Alpha", "Beta", "Twin"});
  ASSERT_TRUE(matches.ok());
  const EntityMatch& match = matches.value()[0];
  ASSERT_EQ(match.candidate_rows[2].size(), 2u);

  SquidConfig config;
  auto resolved = ResolveEntities(*adb.value(), match, config);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().keys[2].AsInt64(), 4);
  const std::vector<size_t> by_string =
      string_scorer::PickRows(*adb.value(), match, config);
  EXPECT_EQ(string_scorer::KeyAt(*adb.value(), "movie", by_string[2]).AsInt64(),
            3);
}

/// Ambiguous matches of example sets drawn from every benchmark query's
/// ground truth: ResolveEntities must pick the string scorer's rows, on
/// both the exhaustive and the greedy branch.
template <typename Bench>
void ExpectPicksMatchStringScorer(const Bench& bench, size_t* ambiguous) {
  for (const BenchmarkQuery& query : bench.queries) {
    auto truth = GroundTruth(*bench.data.db, query);
    ASSERT_TRUE(truth.ok()) << query.id;
    for (size_t k : {3u, 6u, 12u, 24u}) {
      for (uint64_t seed : {7u, 19u, 33u, 51u, 77u}) {
        Rng rng(seed);
        std::vector<std::string> examples =
            SampleExamples(truth.value(), k, &rng);
        auto matches = LookupExamples(*bench.adb, examples);
        if (!matches.ok()) continue;
        for (const EntityMatch& match : matches.value()) {
          if (match.NumCombinations() <= 1.0) continue;
          ++*ambiguous;
          for (size_t combos : {SquidConfig{}.max_disambiguation_combos,
                                size_t{1}}) {
            SquidConfig config;
            config.max_disambiguation_combos = combos;
            auto resolved = ResolveEntities(*bench.adb, match, config);
            ASSERT_TRUE(resolved.ok()) << query.id;
            EXPECT_EQ(resolved.value().rows,
                      string_scorer::PickRows(*bench.adb, match, config))
                << query.id << " k=" << k << " seed=" << seed
                << " combos=" << combos << " " << match.relation << "."
                << match.attribute;
          }
        }
      }
    }
  }
}

TEST(DisambiguationTest, ProfileScorerPicksTheStringScorersRows) {
  size_t ambiguous = 0;
  ExpectPicksMatchStringScorer(bench::BuildImdbBench(0.2), &ambiguous);
  ExpectPicksMatchStringScorer(bench::BuildDblpBench(0.2), &ambiguous);
  EXPECT_GT(ambiguous, 50u) << "too few ambiguous matches to compare";
}

TEST_F(MoviesFixture, UnambiguousExamplesPassThrough) {
  auto matches = LookupExamples(*adb_, {"Jim Carris", "Ewan McGregg"});
  ASSERT_TRUE(matches.ok());
  SquidConfig config;
  auto keys = DisambiguateEntities(*adb_, matches.value()[0], config);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value()[0].AsInt64(), 1);
  EXPECT_EQ(keys.value()[1].AsInt64(), 2);
}

// ---------- Context discovery ----------

TEST_F(MoviesFixture, SharedCategoricalContext) {
  SquidConfig config;
  auto contexts = DiscoverContexts(
      *adb_, "person",
      {Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(2))}, config);
  ASSERT_TRUE(contexts.ok());
  bool found_gender = false;
  for (const auto& ctx : contexts.value()) {
    if (ctx.property.descriptor->id == "person.gender") {
      found_gender = true;
      EXPECT_EQ(ctx.property.value.AsString(), "Male");
      EXPECT_EQ(ctx.support, 2u);
      EXPECT_FALSE(ctx.property.has_theta());
    }
  }
  EXPECT_TRUE(found_gender);
}

TEST_F(MoviesFixture, NoContextWhenValuesDiffer) {
  SquidConfig config;
  // Jim (Male) and Laura (Female): no shared gender context.
  auto contexts = DiscoverContexts(
      *adb_, "person",
      {Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(3))}, config);
  ASSERT_TRUE(contexts.ok());
  for (const auto& ctx : contexts.value()) {
    EXPECT_NE(ctx.property.descriptor->id, "person.gender");
  }
}

TEST_F(MoviesFixture, NumericRangeContextUsesTightestBounds) {
  SquidConfig config;
  // Ages 60 (Jim) and 52 (Ewan) -> [52, 60].
  auto contexts = DiscoverContexts(
      *adb_, "person",
      {Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(2))}, config);
  ASSERT_TRUE(contexts.ok());
  bool found_age = false;
  for (const auto& ctx : contexts.value()) {
    if (ctx.property.descriptor->id == "person.age") {
      found_age = true;
      EXPECT_EQ(ctx.property.lo, 52);
      EXPECT_EQ(ctx.property.hi, 60);
    }
  }
  EXPECT_TRUE(found_age);
}

TEST_F(MoviesFixture, DerivedContextTakesMinTheta) {
  SquidConfig config;
  // Jim has 3 comedies, Ewan 2 -> shared derived genre context θ = 2.
  auto contexts = DiscoverContexts(
      *adb_, "person",
      {Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(2))}, config);
  ASSERT_TRUE(contexts.ok());
  bool found_comedy = false;
  for (const auto& ctx : contexts.value()) {
    if (ctx.property.descriptor->terminal_relation == "genre" &&
        !ctx.property.value.is_null() &&
        ctx.property.value.ToString() == "Comedy" && ctx.property.has_theta()) {
      found_comedy = true;
      EXPECT_EQ(ctx.property.theta, 2);
    }
  }
  EXPECT_TRUE(found_comedy);
}

TEST_F(AcademicsFixture, MultiValuedContextIntersection) {
  SquidConfig config;
  // Academics 101 & 103 share only 'data management'.
  auto contexts = DiscoverContexts(
      *adb_, "academics",
      {Value(static_cast<int64_t>(101)), Value(static_cast<int64_t>(103))}, config);
  ASSERT_TRUE(contexts.ok());
  ASSERT_EQ(contexts.value().size(), 1u);
  EXPECT_EQ(contexts.value()[0].property.value.AsString(), "data management");
  EXPECT_FALSE(contexts.value()[0].property.has_theta());  // multi-valued basic
}

// Profiles as BuildEntityContextProfile built them before they became row
// ranges into the αDB's derived relations: every association copied out as
// a (Value, count) pair and stably sorted by value. The merge and scorer
// below are the ones that read them, kept as the oracle of the
// ProfileViewDifferentialTest below.
namespace value_profiles {

struct Observation {
  Value basic_value;
  std::vector<std::pair<Value, double>> values;
  double total = 0;
};

struct Profile {
  size_t row = 0;
  std::vector<Observation> observations;
};

/// A range observation re-expressed as (Value, count) pairs.
Observation FromView(const AbductionReadyDb& adb, const PropertyDescriptor& desc,
                     const DescriptorObservation& obs) {
  Observation out;
  out.basic_value = obs.basic_value;
  out.total = obs.rows.total;
  const AbductionReadyDb::DerivedColumns cols = adb.DerivedColumnsOf(desc);
  for (uint32_t r = obs.rows.begin; r < obs.rows.end; ++r) {
    out.values.emplace_back(cols.values->ValueAt(r),
                            static_cast<double>(cols.counts->Int64At(r)));
  }
  return out;
}

template <typename Fn>
void ForEachSharedValue(const std::vector<const Profile*>& profiles, size_t d,
                        std::vector<size_t>* at, Fn&& fn) {
  const std::vector<std::pair<Value, double>>& first =
      profiles[0]->observations[d].values;
  at->assign(profiles.size(), 0);
  for (size_t k = 0; k < first.size(); ++k) {
    const Value& v = first[k].first;
    if (k > 0 && first[k - 1].first == v) continue;  // first of equal values
    (*at)[0] = k;
    bool in_all = true;
    for (size_t i = 1; i < profiles.size() && in_all; ++i) {
      const std::vector<std::pair<Value, double>>& values =
          profiles[i]->observations[d].values;
      size_t& j = (*at)[i];
      while (j < values.size() && values[j].first < v) ++j;
      if (j == values.size()) return;
      in_all = values[j].first == v;
    }
    if (in_all) fn(*at);
  }
}

void MergeBasic(const PropertyDescriptor& desc, const std::vector<const Profile*>& profiles,
                size_t d, std::vector<SemanticContext>* out) {
  SemanticContext ctx;
  ctx.property.descriptor = &desc;
  ctx.support = profiles.size();
  if (desc.kind == PropertyKind::kInlineNumeric) {
    for (size_t i = 0; i < profiles.size(); ++i) {
      const Value& v = profiles[i]->observations[d].basic_value;
      if (v.is_null()) return;
      const double num = v.ToNumeric().value();
      ctx.property.lo = i == 0 ? num : std::min(ctx.property.lo, num);
      ctx.property.hi = i == 0 ? num : std::max(ctx.property.hi, num);
    }
  } else {
    for (size_t i = 0; i < profiles.size(); ++i) {
      const Value& v = profiles[i]->observations[d].basic_value;
      if (v.is_null()) return;
      if (i == 0) {
        ctx.property.value = v;
      } else if (!(ctx.property.value == v)) {
        return;
      }
    }
  }
  out->push_back(std::move(ctx));
}

std::vector<SemanticContext> Merge(const AbductionReadyDb& adb,
                                   const std::string& relation,
                                   const std::vector<const Profile*>& profiles,
                                   const SquidConfig& config) {
  std::vector<SemanticContext> contexts;
  const SchemaGraph& graph = adb.schema_graph();
  const std::vector<size_t>& ordinals = graph.OrdinalsFor(relation);
  std::vector<size_t> at;
  for (size_t d = 0; d < ordinals.size(); ++d) {
    const PropertyDescriptor* desc = &graph.descriptors()[ordinals[d]];
    if (!adb.Covers(*desc)) continue;
    if (desc->hops.empty()) {
      MergeBasic(*desc, profiles, d, &contexts);
      continue;
    }
    ForEachSharedValue(profiles, d, &at, [&](const std::vector<size_t>& idx) {
      double theta = 0, theta_norm = 0;
      for (size_t i = 0; i < profiles.size(); ++i) {
        const Observation& obs = profiles[i]->observations[d];
        const double count = obs.values[idx[i]].second;
        const double norm = obs.total > 0 ? count / obs.total : 0.0;
        theta = i == 0 ? count : std::min(theta, count);
        theta_norm = i == 0 ? norm : std::min(theta_norm, norm);
      }
      SemanticContext ctx;
      ctx.property.descriptor = desc;
      ctx.property.value = profiles.back()->observations[d].values[idx.back()].first;
      if (desc->derived) {
        ctx.property.theta = theta;
        if (config.normalize_association) ctx.property.theta_norm = theta_norm;
      }
      ctx.support = profiles.size();
      contexts.push_back(std::move(ctx));
    });
  }
  return contexts;
}

std::pair<double, double> Score(const std::vector<const Profile*>& chosen) {
  double shared = 0, weight = 0;
  std::vector<size_t> at;
  const std::vector<Observation>& first = chosen[0]->observations;
  for (size_t d = 0; d < first.size(); ++d) {
    const Value& basic = first[d].basic_value;
    if (!basic.is_null()) {
      bool in_all = true;
      for (size_t i = 1; i < chosen.size() && in_all; ++i) {
        in_all = chosen[i]->observations[d].basic_value == basic;
      }
      if (in_all) {
        shared += 1;
        weight += 1;
      }
      continue;
    }
    ForEachSharedValue(chosen, d, &at, [&](const std::vector<size_t>& idx) {
      double min_w = first[d].values[idx[0]].second;
      for (size_t i = 1; i < chosen.size(); ++i) {
        min_w = std::min(min_w, chosen[i]->observations[d].values[idx[i]].second);
      }
      shared += 1;
      weight += min_w;
    });
  }
  return {shared, weight};
}

}  // namespace value_profiles

// Hash-map merge MergeContextProfiles used before it intersected sorted
// values, kept as the oracle of value_profiles::Merge in the test below.
// Input values need not be sorted; the first of equal values counts.
std::vector<SemanticContext> HashMapMerge(
    const std::vector<const PropertyDescriptor*>& descs,
    const std::vector<const value_profiles::Profile*>& profiles,
    const SquidConfig& config) {
  std::vector<SemanticContext> contexts;
  const size_t support = profiles.size();
  for (size_t d = 0; d < descs.size(); ++d) {
    const PropertyDescriptor* desc = descs[d];
    if (desc->hops.empty()) {
      // Basic: all values non-null; numeric kinds range, others agree.
      SemanticContext ctx;
      ctx.property.descriptor = desc;
      ctx.support = support;
      bool shared = true;
      for (size_t i = 0; i < profiles.size() && shared; ++i) {
        const Value& v = profiles[i]->observations[d].basic_value;
        shared = !v.is_null();
        if (!shared) break;
        if (desc->kind == PropertyKind::kInlineNumeric) {
          double num = v.ToNumeric().value();
          ctx.property.lo = i == 0 ? num : std::min(ctx.property.lo, num);
          ctx.property.hi = i == 0 ? num : std::max(ctx.property.hi, num);
        } else if (i == 0) {
          ctx.property.value = v;
        } else {
          shared = ctx.property.value == v;
        }
      }
      if (shared) contexts.push_back(std::move(ctx));
      continue;
    }
    const value_profiles::Observation& first_obs = profiles[0]->observations[d];
    std::unordered_map<Value, std::pair<double, double>, ValueHash> shared;
    for (const auto& [v, count] : first_obs.values) {
      double norm = first_obs.total > 0 ? count / first_obs.total : 0.0;
      shared.emplace(v, std::make_pair(count, norm));
    }
    for (size_t i = 1; i < profiles.size() && !shared.empty(); ++i) {
      const value_profiles::Observation& obs = profiles[i]->observations[d];
      std::unordered_map<Value, std::pair<double, double>, ValueHash> narrowed;
      for (const auto& [v, count] : obs.values) {
        auto it = shared.find(v);
        if (it == shared.end()) continue;
        double norm = obs.total > 0 ? count / obs.total : 0.0;
        narrowed.emplace(v, std::make_pair(std::min(it->second.first, count),
                                           std::min(it->second.second, norm)));
      }
      shared = std::move(narrowed);
    }
    std::vector<std::pair<Value, std::pair<double, double>>> ordered(
        shared.begin(), shared.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [v, theta] : ordered) {
      SemanticContext ctx;
      ctx.property.descriptor = desc;
      ctx.property.value = v;
      if (desc->derived) {
        ctx.property.theta = theta.first;
        if (config.normalize_association) {
          ctx.property.theta_norm = theta.second;
        }
      }
      ctx.support = support;
      contexts.push_back(std::move(ctx));
    }
  }
  return contexts;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST_F(MoviesFixture, SortedMergeMatchesHashMapMergeOnRandomProfiles) {
  const std::vector<const PropertyDescriptor*> descs =
      adb_->schema_graph().DescriptorsFor("person");
  size_t derived = 0;
  for (const PropertyDescriptor* desc : descs) derived += !desc->hops.empty();
  ASSERT_GT(derived, 0u);
  ASSERT_LT(derived, descs.size());

  Rng rng(2024);
  // Small value pools force duplicates and overlaps; 2 and 2.0 are equal
  // values of different types, so the output's representation is checked.
  auto random_value = [&](bool numeric) {
    const int64_t k = rng.UniformInt(0, 5);
    if (!numeric) return Value("v" + std::to_string(k));
    return rng.Bernoulli(0.3) ? Value(static_cast<double>(k)) : Value(k);
  };
  size_t contexts_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
    const bool numeric = rng.Bernoulli(0.5);
    std::vector<value_profiles::Profile> unsorted(n);
    for (value_profiles::Profile& profile : unsorted) {
      profile.observations.resize(descs.size());
      for (size_t d = 0; d < descs.size(); ++d) {
        value_profiles::Observation& obs = profile.observations[d];
        if (descs[d]->hops.empty()) {
          if (rng.Bernoulli(0.8)) {
            obs.basic_value = descs[d]->kind == PropertyKind::kInlineNumeric
                                  ? Value(rng.UniformInt(20, 22))
                                  : Value(rng.Bernoulli(0.7) ? "M" : "F");
          }
          continue;
        }
        const int64_t size = rng.Bernoulli(0.15) ? 0 : rng.UniformInt(1, 8);
        for (int64_t j = 0; j < size; ++j) {
          obs.values.emplace_back(random_value(numeric),
                                  static_cast<double>(rng.UniformInt(1, 9)));
        }
        obs.total = rng.Bernoulli(0.2) ? 0.0 : rng.UniformInt(1, 40);
      }
    }
    // Profiles as the value-profile builder leaves them: stably sorted.
    std::vector<value_profiles::Profile> sorted = unsorted;
    for (value_profiles::Profile& profile : sorted) {
      for (value_profiles::Observation& obs : profile.observations) {
        std::stable_sort(
            obs.values.begin(), obs.values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
      }
    }
    std::vector<const value_profiles::Profile*> sorted_views, unsorted_views;
    for (size_t i = 0; i < n; ++i) {
      sorted_views.push_back(&sorted[i]);
      unsorted_views.push_back(&unsorted[i]);
    }
    for (bool normalize : {false, true}) {
      SquidConfig config;
      config.normalize_association = normalize;
      const std::vector<SemanticContext> merged =
          value_profiles::Merge(*adb_, "person", sorted_views, config);
      const std::vector<SemanticContext> expected =
          HashMapMerge(descs, unsorted_views, config);
      ASSERT_EQ(merged.size(), expected.size()) << "trial " << trial;
      contexts_seen += expected.size();
      for (size_t c = 0; c < expected.size(); ++c) {
        const SemanticProperty& got = merged[c].property;
        const SemanticProperty& want = expected[c].property;
        EXPECT_EQ(got.descriptor, want.descriptor);
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.value.type(), want.value.type());
        EXPECT_EQ(Bits(got.lo), Bits(want.lo));
        EXPECT_EQ(Bits(got.hi), Bits(want.hi));
        EXPECT_EQ(Bits(got.theta), Bits(want.theta));
        EXPECT_EQ(Bits(got.theta_norm), Bits(want.theta_norm));
        EXPECT_EQ(merged[c].support, expected[c].support);
      }
    }
  }
  EXPECT_GT(contexts_seen, 400u);
}

// ---------- Abduction model ----------

TEST(AbductionMathTest, SkewnessOfSymmetricIsZero) {
  EXPECT_NEAR(AbductionModel::Skewness({1, 2, 3}), 0.0, 1e-9);
  EXPECT_EQ(AbductionModel::Skewness({5, 5}), 0.0);     // n < 3
  EXPECT_EQ(AbductionModel::Skewness({5, 5, 5}), 0.0);  // s = 0
}

TEST(AbductionMathTest, SkewnessMatchesAppendixBFormula) {
  // Hand-computed values of the adjusted Fisher-Pearson formula (Appendix
  // B): n·Σ(ai−ā)³ / (s³(n−1)(n−2)).
  EXPECT_NEAR(AbductionModel::Skewness({30, 25, 3, 2, 1}), 0.6678, 1e-3);
  EXPECT_NEAR(AbductionModel::Skewness({12, 10, 10, 9, 9}), 1.3608, 1e-3);
  // Realistic families (one dominant θ over many weak ones) exceed the
  // default threshold τs = 2.
  EXPECT_GT(AbductionModel::Skewness({40, 3, 2, 2, 1, 1, 1}), 2.0);
}

TEST(AbductionMathTest, OutlierTestDiscriminatesFig8Cases) {
  // Fig. 8 Case A: the strong genres stand out as outliers...
  EXPECT_TRUE(AbductionModel::IsOutlier(30, {30, 3, 2, 2, 1, 1, 1}, 2.0));
  // ...whereas Case B's flat distribution has none.
  std::vector<double> case_b = {12, 10, 10, 9, 9};
  for (double t : case_b) {
    EXPECT_FALSE(AbductionModel::IsOutlier(t, case_b, 2.0)) << t;
  }
}

TEST(AbductionMathTest, OutlierDetection) {
  std::vector<double> thetas = {30, 3, 2, 1, 2, 3, 1, 2};
  EXPECT_TRUE(AbductionModel::IsOutlier(30, thetas, 2.0));
  EXPECT_FALSE(AbductionModel::IsOutlier(3, thetas, 2.0));
  // n < 3: everything is an outlier.
  EXPECT_TRUE(AbductionModel::IsOutlier(1, {1, 1}, 2.0));
}

// ---------- Ordinal-indexed abduction vs the string-keyed model ----------

// The string-keyed abduction pieces the ordinal-indexed AbductionModel
// replaced, kept as the oracle of the differential tests below: stats are
// resolved by descriptor id on every call, outlier families are grouped in a
// map keyed by id, and each family's skewness and s are recomputed once per
// member.
namespace string_abduction {

double Skewness(const std::vector<double>& thetas) {
  const size_t n = thetas.size();
  if (n < 3) return 0.0;
  double mean = 0;
  for (double t : thetas) mean += t;
  mean /= static_cast<double>(n);
  double m2 = 0, m3 = 0;
  for (double t : thetas) {
    double d = t - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  double s = std::sqrt(m2 / static_cast<double>(n - 1));
  if (s <= 0) return 0.0;
  return static_cast<double>(n) * m3 /
         (s * s * s * static_cast<double>(n - 1) * static_cast<double>(n - 2));
}

bool IsOutlier(double theta, const std::vector<double>& thetas, double k) {
  const size_t n = thetas.size();
  if (n < 3) return true;
  double mean = 0;
  for (double t : thetas) mean += t;
  mean /= static_cast<double>(n);
  double var = 0;
  for (double t : thetas) var += (t - mean) * (t - mean);
  double s = std::sqrt(var / static_cast<double>(n - 1));
  return (theta - mean) > k * s;
}

Result<double> Selectivity(const AbductionReadyDb& adb, const SquidConfig& config,
                           const SemanticProperty& p) {
  const PropertyDescriptor* desc = p.descriptor;
  if (desc == nullptr) return Status::InvalidArgument("property without descriptor");
  SQUID_ASSIGN_OR_RETURN(const PropertyStats* stats, adb.StatsFor(desc->id));
  switch (desc->kind) {
    case PropertyKind::kInlineCategorical:
    case PropertyKind::kDimCategorical:
      return stats->SelectivityEquals(p.value);
    case PropertyKind::kInlineNumeric:
      return stats->SelectivityRange(p.lo, p.hi);
    case PropertyKind::kMultiValued: {
      if (stats->total_entities() == 0) return 0.0;
      return static_cast<double>(stats->EntitiesWithValue(p.value)) /
             static_cast<double>(stats->total_entities());
    }
    case PropertyKind::kDerivedCategorical:
    case PropertyKind::kDerivedNumericBucket:
    case PropertyKind::kDerivedEntity:
      if (config.normalize_association && p.theta_norm >= 0) {
        return stats->SelectivityDerivedNormalized(p.value, p.theta_norm);
      }
      return stats->SelectivityDerived(p.value, p.theta);
  }
  return Status::Internal("unreachable");
}

Result<double> DomainCoverage(const AbductionReadyDb& adb, const SemanticProperty& p) {
  const PropertyDescriptor* desc = p.descriptor;
  SQUID_ASSIGN_OR_RETURN(const PropertyStats* stats, adb.StatsFor(desc->id));
  if (desc->kind == PropertyKind::kInlineNumeric) {
    double extent = stats->domain_max() - stats->domain_min();
    if (extent <= 0) return 1.0;
    return std::clamp((p.hi - p.lo) / extent, 0.0, 1.0);
  }
  size_t domain = stats->domain_size();
  if (domain == 0) return 1.0;
  return 1.0 / static_cast<double>(domain);
}

void ApplyOutlierImpact(const SquidConfig& config, std::vector<Filter>* filters) {
  if (!config.use_outlier_impact) return;
  std::map<std::string, std::vector<double>> family_thetas;
  for (const Filter& f : *filters) {
    if (!f.property.has_theta()) continue;
    if (f.property.descriptor->kind == PropertyKind::kDerivedEntity) continue;
    double t = config.normalize_association && f.property.theta_norm >= 0
                   ? f.property.theta_norm
                   : f.property.theta;
    family_thetas[f.property.descriptor->id].push_back(t);
  }
  for (Filter& f : *filters) {
    if (!f.property.has_theta() ||
        f.property.descriptor->kind == PropertyKind::kDerivedEntity) {
      f.lambda = 1.0;
      continue;
    }
    const std::vector<double>& thetas = family_thetas[f.property.descriptor->id];
    double t = config.normalize_association && f.property.theta_norm >= 0
                   ? f.property.theta_norm
                   : f.property.theta;
    if (thetas.size() < 3) {
      f.lambda = 1.0;
      continue;
    }
    bool skewed = Skewness(thetas) > config.tau_s;
    f.lambda = (skewed && IsOutlier(t, thetas, config.outlier_k)) ? 1.0 : 0.0;
  }
}

Result<std::vector<Filter>> AbduceFilters(const AbductionReadyDb& adb,
                                          const SquidConfig& config,
                                          const std::vector<SemanticContext>& contexts,
                                          size_t num_examples) {
  AbductionModel model(&adb, config);  // δ and α only: neither looks stats up
  std::vector<Filter> filters;
  for (const SemanticContext& ctx : contexts) {
    Filter f;
    f.property = ctx.property;
    SQUID_ASSIGN_OR_RETURN(f.selectivity, Selectivity(adb, config, f.property));
    SQUID_ASSIGN_OR_RETURN(double coverage, DomainCoverage(adb, f.property));
    f.delta = model.DeltaOf(coverage);
    f.alpha = model.AlphaOf(f.property);
    filters.push_back(std::move(f));
  }
  ApplyOutlierImpact(config, &filters);
  const double n = static_cast<double>(num_examples);
  for (Filter& f : filters) {
    f.prior = config.rho * f.delta * f.alpha * f.lambda;
    f.include_score = f.prior;
    f.exclude_score = (1.0 - f.prior) * std::pow(f.selectivity, n);
    f.included = f.include_score > f.exclude_score;
  }
  return filters;
}

}  // namespace string_abduction

// What a profile observes, read off the αDB's relations by scanning instead
// of through the descriptor records: each dim hop scans the dim table for
// its key, and derived values come from a per-descriptor entity -> rows map
// built here from the derived relation.
class ScanProfiler {
 public:
  explicit ScanProfiler(const AbductionReadyDb& adb) : adb_(adb) {}

  value_profiles::Observation Observe(const PropertyDescriptor& desc, size_t row,
                                      const Value& key) {
    value_profiles::Observation obs;
    const Database& db = adb_.database();
    if (desc.hops.empty()) {
      const Table* table = db.GetTable(desc.entity_relation).value();
      size_t r = row;
      for (const DimHop& dim : desc.dims) {
        const Column* from = table->ColumnByName(dim.from_attr).value();
        if (from->IsNull(r)) return obs;
        const Value fk = from->ValueAt(r);
        const Table* next = db.GetTable(dim.dim_relation).value();
        const Column* pk = next->ColumnByName(dim.dim_key).value();
        size_t found = next->num_rows();
        for (size_t i = 0; i < next->num_rows() && found == next->num_rows(); ++i) {
          if (!pk->IsNull(i) && pk->ValueAt(i) == fk) found = i;
        }
        EXPECT_LT(found, next->num_rows()) << desc.id;
        table = next;
        r = found;
      }
      obs.basic_value = table->ColumnByName(desc.terminal_attr).value()->ValueAt(r);
      return obs;
    }
    const Table* derived = db.GetTable(desc.derived_table).value();
    const Column* value = derived->ColumnByName("value").value();
    const Column* count = derived->ColumnByName("count").value();
    const Column* frac = derived->ColumnByName("frac").value();
    auto [it, fresh] = rows_by_entity_.try_emplace(desc.id);
    if (fresh) {
      const Column* entity = derived->ColumnByName("entity_id").value();
      for (size_t r = 0; r < derived->num_rows(); ++r) {
        it->second[entity->ValueAt(r)].push_back(r);
      }
    }
    auto rows = it->second.find(key);
    if (rows == it->second.end()) return obs;
    for (size_t r : rows->second) {
      const double c = static_cast<double>(count->Int64At(r));
      obs.values.emplace_back(value->ValueAt(r), c);
      if (obs.total == 0 && c > 0 && frac->DoubleAt(r) > 0) {
        obs.total = static_cast<double>(std::llround(c / frac->DoubleAt(r)));
      }
    }
    std::stable_sort(obs.values.begin(), obs.values.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    return obs;
  }

 private:
  const AbductionReadyDb& adb_;
  std::map<std::string, std::unordered_map<Value, std::vector<size_t>, ValueHash>>
      rows_by_entity_;
};

void ExpectSameValue(const Value& got, const Value& want, const std::string& where) {
  EXPECT_EQ(got.type(), want.type()) << where;
  EXPECT_TRUE(got == want) << where << ": " << got.ToString() << " vs "
                           << want.ToString();
  if (got.type() == ValueType::kDouble && want.type() == ValueType::kDouble) {
    EXPECT_EQ(Bits(got.AsDouble()), Bits(want.AsDouble())) << where;
  }
}

void ExpectSameObservation(const value_profiles::Observation& got,
                           const value_profiles::Observation& want,
                           const std::string& where) {
  ExpectSameValue(got.basic_value, want.basic_value, where);
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (size_t i = 0; i < got.values.size(); ++i) {
    ExpectSameValue(got.values[i].first, want.values[i].first, where);
    EXPECT_EQ(Bits(got.values[i].second), Bits(want.values[i].second)) << where;
  }
  EXPECT_EQ(Bits(got.total), Bits(want.total)) << where;
}

void ExpectSameFilters(const std::vector<Filter>& got, const std::vector<Filter>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    const Filter& g = got[i];
    const Filter& w = want[i];
    const std::string at = where + " filter " + std::to_string(i);
    EXPECT_EQ(g.property.descriptor, w.property.descriptor) << at;
    ExpectSameValue(g.property.value, w.property.value, at);
    EXPECT_EQ(Bits(g.property.lo), Bits(w.property.lo)) << at;
    EXPECT_EQ(Bits(g.property.hi), Bits(w.property.hi)) << at;
    EXPECT_EQ(Bits(g.property.theta), Bits(w.property.theta)) << at;
    EXPECT_EQ(Bits(g.property.theta_norm), Bits(w.property.theta_norm)) << at;
    EXPECT_EQ(Bits(g.selectivity), Bits(w.selectivity)) << at;
    EXPECT_EQ(Bits(g.delta), Bits(w.delta)) << at;
    EXPECT_EQ(Bits(g.alpha), Bits(w.alpha)) << at;
    EXPECT_EQ(Bits(g.lambda), Bits(w.lambda)) << at;
    EXPECT_EQ(Bits(g.prior), Bits(w.prior)) << at;
    EXPECT_EQ(Bits(g.include_score), Bits(w.include_score)) << at;
    EXPECT_EQ(Bits(g.exclude_score), Bits(w.exclude_score)) << at;
    EXPECT_EQ(g.included, w.included) << at;
  }
  EXPECT_EQ(Bits(AbductionModel::LogPosterior(got)),
            Bits(AbductionModel::LogPosterior(want)))
      << where;
}

/// Example sets of sizes 2-7 drawn from every benchmark query's ground
/// truth: each chosen entity's profile must match the scanned observations,
/// and abduction over the merged contexts must match the string-keyed model
/// bit for bit, with and without normalized association strengths.
template <typename Bench>
void ExpectOrdinalAbductionMatchesStringKeyed(const Bench& bench, size_t* sets) {
  const AbductionReadyDb& adb = *bench.adb;
  ScanProfiler scan(adb);
  for (const BenchmarkQuery& query : bench.queries) {
    auto truth = GroundTruth(*bench.data.db, query);
    ASSERT_TRUE(truth.ok()) << query.id;
    for (size_t k = 2; k <= 7; ++k) {
      for (uint64_t seed : {5u, 23u}) {
        Rng rng(seed * 31 + k);
        const std::vector<std::string> examples = SampleExamples(truth.value(), k, &rng);
        auto matches = LookupExamples(adb, examples);
        if (!matches.ok()) continue;
        for (const EntityMatch& match : matches.value()) {
          const std::string where = query.id + " k=" + std::to_string(k) +
                                    " seed=" + std::to_string(seed) + " " +
                                    match.relation + "." + match.attribute;
          auto resolved = ResolveEntities(adb, match, SquidConfig{});
          ASSERT_TRUE(resolved.ok()) << where;
          const std::vector<Value>& keys = resolved.value().keys;
          const std::vector<size_t>& ordinals =
              adb.schema_graph().OrdinalsFor(match.relation);
          std::vector<EntityContextProfile> profiles;
          for (size_t i = 0; i < keys.size(); ++i) {
            auto profile = BuildEntityContextProfile(adb, match.relation, keys[i],
                                                     &resolved.value().rows[i]);
            ASSERT_TRUE(profile.ok()) << where;
            ASSERT_EQ(profile.value().observations.size(), ordinals.size()) << where;
            for (size_t d = 0; d < ordinals.size(); ++d) {
              const PropertyDescriptor& desc = adb.schema_graph().descriptors()[ordinals[d]];
              ExpectSameObservation(
                  value_profiles::FromView(adb, desc, profile.value().observations[d]),
                  scan.Observe(desc, resolved.value().rows[i], keys[i]),
                  where + " " + desc.id);
            }
            profiles.push_back(std::move(profile).value());
          }
          std::vector<const EntityContextProfile*> views;
          for (const EntityContextProfile& p : profiles) views.push_back(&p);
          for (bool normalize : {false, true}) {
            SquidConfig config;
            config.normalize_association = normalize;
            auto contexts = MergeContextProfiles(adb, match.relation, views, config);
            ASSERT_TRUE(contexts.ok()) << where;
            auto got = AbductionModel(&adb, config).AbduceFilters(contexts.value(),
                                                                  keys.size());
            auto want = string_abduction::AbduceFilters(adb, config, contexts.value(),
                                                        keys.size());
            ASSERT_TRUE(got.ok()) << where;
            ASSERT_TRUE(want.ok()) << where;
            ExpectSameFilters(got.value(), want.value(),
                              where + (normalize ? " normalized" : ""));
            ++*sets;
          }
        }
      }
    }
  }
}

TEST(AbductionDifferentialTest, OrdinalModelMatchesStringKeyedModel) {
  size_t sets = 0;
  ExpectOrdinalAbductionMatchesStringKeyed(bench::BuildImdbBench(0.2), &sets);
  ExpectOrdinalAbductionMatchesStringKeyed(bench::BuildDblpBench(0.2), &sets);
  EXPECT_GT(sets, 200u) << "too few example sets to compare";
}

// ---------- range profiles against value profiles ----------

void ExpectSameContexts(const std::vector<SemanticContext>& got,
                        const std::vector<SemanticContext>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < got.size(); ++c) {
    const SemanticProperty& g = got[c].property;
    const SemanticProperty& w = want[c].property;
    const std::string at = where + " context " + std::to_string(c);
    EXPECT_EQ(g.descriptor, w.descriptor) << at;
    ExpectSameValue(g.value, w.value, at);
    EXPECT_EQ(Bits(g.lo), Bits(w.lo)) << at;
    EXPECT_EQ(Bits(g.hi), Bits(w.hi)) << at;
    EXPECT_EQ(Bits(g.theta), Bits(w.theta)) << at;
    EXPECT_EQ(Bits(g.theta_norm), Bits(w.theta_norm)) << at;
    EXPECT_EQ(got[c].support, want[c].support) << at;
  }
}

/// The value profile of the entity at `row`, one scanned observation per
/// descriptor in OrdinalsFor order (uncovered descriptors stay empty).
value_profiles::Profile BuildValueProfile(const AbductionReadyDb& adb, ScanProfiler* scan,
                                          const std::string& relation, size_t row) {
  value_profiles::Profile profile;
  profile.row = row;
  const Value key = string_scorer::KeyAt(adb, relation, row);
  const SchemaGraph& graph = adb.schema_graph();
  for (size_t ordinal : graph.OrdinalsFor(relation)) {
    const PropertyDescriptor& desc = graph.descriptors()[ordinal];
    profile.observations.push_back(adb.Covers(desc) ? scan->Observe(desc, row, key)
                                                    : value_profiles::Observation{});
  }
  return profile;
}

/// Example sets of sizes 2-7 drawn from every benchmark query's ground
/// truth: disambiguation's picks (exhaustive and greedy), the merged
/// contexts, and the abduced query (filters, log posterior, both SQL forms)
/// must be the value profiles' bit for bit.
template <typename Bench>
void ExpectRangeProfilesMatchValueProfiles(const Bench& bench, size_t* sets,
                                           size_t* ambiguous) {
  const AbductionReadyDb& adb = *bench.adb;
  ScanProfiler scan(adb);
  for (const BenchmarkQuery& query : bench.queries) {
    auto truth = GroundTruth(*bench.data.db, query);
    ASSERT_TRUE(truth.ok()) << query.id;
    for (size_t k = 2; k <= 7; ++k) {
      for (uint64_t seed : {5u, 23u}) {
        Rng rng(seed * 31 + k);
        const std::vector<std::string> examples = SampleExamples(truth.value(), k, &rng);
        auto matches = LookupExamples(adb, examples);
        if (!matches.ok()) continue;
        for (const EntityMatch& match : matches.value()) {
          const std::string where = query.id + " k=" + std::to_string(k) +
                                    " seed=" + std::to_string(seed) + " " +
                                    match.relation + "." + match.attribute;
          const size_t n = match.candidate_rows.size();
          std::vector<std::vector<value_profiles::Profile>> candidates(n);
          for (size_t i = 0; i < n; ++i) {
            for (size_t row : match.candidate_rows[i]) {
              candidates[i].push_back(BuildValueProfile(adb, &scan, match.relation, row));
            }
          }
          const bool is_ambiguous = match.NumCombinations() > 1.0;
          *ambiguous += is_ambiguous;
          std::vector<size_t> rows(n);
          for (size_t combos :
               {SquidConfig{}.max_disambiguation_combos, size_t{1}}) {
            SquidConfig config;
            config.max_disambiguation_combos = combos;
            auto resolved = ResolveEntities(adb, match, config);
            ASSERT_TRUE(resolved.ok()) << where;
            std::vector<size_t> want(n);
            if (is_ambiguous) {
              want = PickRowsBy(match, config, candidates, value_profiles::Score);
            } else {
              for (size_t i = 0; i < n; ++i) want[i] = match.candidate_rows[i][0];
            }
            EXPECT_EQ(resolved.value().rows, want) << where << " combos=" << combos;
            if (combos == SquidConfig{}.max_disambiguation_combos) rows = want;
          }

          std::vector<EntityContextProfile> views;
          std::vector<value_profiles::Profile> values;
          std::vector<Value> keys;
          for (size_t i = 0; i < n; ++i) {
            keys.push_back(string_scorer::KeyAt(adb, match.relation, rows[i]));
            auto view = BuildEntityContextProfile(adb, match.relation, keys[i], &rows[i]);
            ASSERT_TRUE(view.ok()) << where;
            views.push_back(std::move(view).value());
            values.push_back(BuildValueProfile(adb, &scan, match.relation, rows[i]));
          }
          std::vector<const EntityContextProfile*> view_ptrs;
          std::vector<const value_profiles::Profile*> value_ptrs;
          for (size_t i = 0; i < n; ++i) {
            view_ptrs.push_back(&views[i]);
            value_ptrs.push_back(&values[i]);
          }
          for (bool normalize : {false, true}) {
            SquidConfig config;
            config.normalize_association = normalize;
            const std::string at = where + (normalize ? " normalized" : "");
            auto contexts = MergeContextProfiles(adb, match.relation, view_ptrs, config);
            ASSERT_TRUE(contexts.ok()) << at;
            const std::vector<SemanticContext> want_contexts =
                value_profiles::Merge(adb, match.relation, value_ptrs, config);
            ExpectSameContexts(contexts.value(), want_contexts, at);

            auto got = Squid(&adb, config).AbduceCandidate(match);
            auto want_filters = AbductionModel(&adb, config).AbduceFilters(want_contexts, n);
            ASSERT_TRUE(got.ok()) << at;
            ASSERT_TRUE(want_filters.ok()) << at;
            EXPECT_EQ(got.value().entity_keys, keys) << at;
            ExpectSameFilters(got.value().filters, want_filters.value(), at);
            EXPECT_EQ(Bits(got.value().log_posterior),
                      Bits(AbductionModel::LogPosterior(want_filters.value())))
                << at;
            QueryBuilder builder(&adb, config);
            auto want_adb = builder.BuildAdbQuery(match.relation, match.attribute,
                                                  want_filters.value());
            auto want_original = builder.BuildOriginalQuery(
                match.relation, match.attribute, want_filters.value());
            ASSERT_TRUE(want_adb.ok()) << at;
            ASSERT_TRUE(want_original.ok()) << at;
            EXPECT_EQ(ToSql(got.value().adb_query), ToSql(want_adb.value())) << at;
            EXPECT_EQ(ToSql(got.value().original_query), ToSql(want_original.value()))
                << at;
            ++*sets;
          }
        }
      }
    }
  }
}

TEST(ProfileViewDifferentialTest, RangeProfilesMatchValueProfiles) {
  size_t sets = 0, ambiguous = 0;
  ExpectRangeProfilesMatchValueProfiles(bench::BuildImdbBench(0.2), &sets, &ambiguous);
  ExpectRangeProfilesMatchValueProfiles(bench::BuildDblpBench(0.2), &sets, &ambiguous);
  EXPECT_GT(sets, 200u) << "too few example sets to compare";
  EXPECT_GT(ambiguous, 20u) << "too few ambiguous matches to compare";
}

/// Column::CompareRows, the order range-profile cursors walk, against
/// Value::Compare on every pair of cells of one column.
void ExpectCompareRowsMatchesValueCompare(ValueType type, const std::vector<Value>& cells) {
  Database db("cells");
  auto table = db.CreateTable(Schema("t", {{"c", type}}));
  ASSERT_TRUE(table.ok());
  for (const Value& v : cells) ASSERT_TRUE(table.value()->AppendRow({v}).ok());
  const Column& col = table.value()->column(0);
  for (size_t a = 0; a < cells.size(); ++a) {
    for (size_t b = 0; b < cells.size(); ++b) {
      EXPECT_EQ(col.CompareRows(a, b), col.ValueAt(a).Compare(col.ValueAt(b)))
          << ValueTypeName(type) << " " << col.ValueAt(a).ToString() << " vs "
          << col.ValueAt(b).ToString();
    }
  }
}

TEST(CompareRowsTest, StringsWithSharedPrefixesAndTheEmptyString) {
  ExpectCompareRowsMatchesValueCompare(
      ValueType::kString, {Value("ab"), Value(""), Value("abc"), Value("a"), Value::Null(),
                           Value("abd"), Value("ab"), Value("b"), Value(""),
                           Value("ab\x7f"), Value("ab\xc3\xa9")});
}

TEST(CompareRowsTest, Int64Column) {
  ExpectCompareRowsMatchesValueCompare(
      ValueType::kInt64,
      {Value(int64_t{0}), Value(std::numeric_limits<int64_t>::min()), Value(int64_t{-1}),
       Value::Null(), Value(int64_t{1}), Value(std::numeric_limits<int64_t>::max()),
       Value(int64_t{0})});
}

TEST(CompareRowsTest, DoubleColumn) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectCompareRowsMatchesValueCompare(
      ValueType::kDouble,
      {Value(0.0), Value(-0.0), Value(-1.5), Value(2.5), Value(1e-300), Value(inf),
       Value(-inf), Value(std::numeric_limits<double>::quiet_NaN()), Value::Null(),
       Value(2.5)});
}

// Outlier families (Appendix B) on hand-made contexts over the movies
// fixture's person descriptors.
class OutlierFamilyTest : public MoviesFixture {
 protected:
  const PropertyDescriptor* Desc(const std::string& id) const {
    auto desc = adb_->schema_graph().FindDescriptor(id);
    EXPECT_TRUE(desc.ok()) << id;
    return desc.ok() ? desc.value() : nullptr;
  }

  static SemanticContext Derived(const PropertyDescriptor* desc, double theta) {
    SemanticContext ctx;
    ctx.property.descriptor = desc;
    ctx.property.value = Value(int64_t{1});
    ctx.property.theta = theta;
    ctx.support = 2;
    return ctx;
  }

  /// λ of each filter, checked against the string-keyed model first.
  std::vector<double> Lambdas(const std::vector<SemanticContext>& contexts) const {
    SquidConfig config;
    auto got = AbductionModel(adb_.get(), config).AbduceFilters(contexts, 2);
    auto want = string_abduction::AbduceFilters(*adb_, config, contexts, 2);
    EXPECT_TRUE(got.ok() && want.ok());
    if (!got.ok() || !want.ok()) return {};
    ExpectSameFilters(got.value(), want.value(), "outlier family");
    std::vector<double> lambdas;
    for (const Filter& f : got.value()) lambdas.push_back(f.lambda);
    return lambdas;
  }
};

TEST_F(OutlierFamilyTest, InterleavedSkewedAndUnskewedFamilies) {
  const PropertyDescriptor* genre = Desc("person~castinfo~movie~movietogenre~genre.name");
  const PropertyDescriptor* costar = Desc("person~castinfo~movie~castinfo~person.gender");
  ASSERT_NE(genre, nullptr);
  ASSERT_NE(costar, nullptr);
  // Genre thetas {40, 3, 2, 2, 1, 1, 1} are skewed (skewness > τs = 2), and
  // only 40 stands out; co-star thetas {12, 10, 10, 9, 9} are not skewed.
  ASSERT_GT(AbductionModel::Skewness({40, 3, 2, 2, 1, 1, 1}), 2.0);
  ASSERT_LT(AbductionModel::Skewness({12, 10, 10, 9, 9}), 2.0);
  const std::vector<double> genre_thetas = {40, 3, 2, 2, 1, 1, 1};
  const std::vector<double> costar_thetas = {12, 10, 10, 9, 9};
  std::vector<SemanticContext> contexts;
  for (size_t i = 0; i < genre_thetas.size(); ++i) {
    contexts.push_back(Derived(genre, genre_thetas[i]));
    if (i < costar_thetas.size()) contexts.push_back(Derived(costar, costar_thetas[i]));
  }
  const std::vector<double> lambdas = Lambdas(contexts);
  ASSERT_EQ(lambdas.size(), contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    const bool strong_genre =
        contexts[i].property.descriptor == genre && contexts[i].property.theta == 40;
    EXPECT_EQ(lambdas[i], strong_genre ? 1.0 : 0.0) << i;
  }
}

TEST_F(OutlierFamilyTest, FamilyOfFewerThanThreeKeepsEveryFilter) {
  const PropertyDescriptor* year = Desc("person~castinfo~movie.year");
  const PropertyDescriptor* genre = Desc("person~castinfo~movie~movietogenre~genre.name");
  ASSERT_NE(year, nullptr);
  ASSERT_NE(genre, nullptr);
  // Two year-bucket filters among a skewed genre family: skewness is
  // undefined for n < 3, so both stay (λ = 1).
  const std::vector<double> lambdas =
      Lambdas({Derived(genre, 40), Derived(year, 1), Derived(genre, 1),
               Derived(genre, 1), Derived(year, 50), Derived(genre, 1),
               Derived(genre, 1), Derived(genre, 1)});
  const std::vector<double> want = {1, 1, 0, 0, 1, 0, 0, 0};
  EXPECT_EQ(lambdas, want);
}

TEST_F(OutlierFamilyTest, IdentityAndBasicFiltersFormNoFamily) {
  const PropertyDescriptor* identity = Desc("person~castinfo~movie#identity");
  const PropertyDescriptor* gender = Desc("person.gender");
  ASSERT_NE(identity, nullptr);
  ASSERT_NE(gender, nullptr);
  ASSERT_EQ(identity->kind, PropertyKind::kDerivedEntity);
  // Identity thetas as skewed as the genre family above: if they formed a
  // family, the weak ones would get λ = 0.
  std::vector<SemanticContext> contexts;
  for (double t : {40.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0}) {
    contexts.push_back(Derived(identity, t));
  }
  SemanticContext basic;
  basic.property.descriptor = gender;
  basic.property.value = Value("Female");
  basic.support = 2;
  contexts.push_back(basic);
  const std::vector<double> lambdas = Lambdas(contexts);
  EXPECT_EQ(lambdas, std::vector<double>(contexts.size(), 1.0));
}

TEST_F(MoviesFixture, DeltaPenalizesWideRanges) {
  SquidConfig config;
  config.eta = 0.2;
  config.gamma = 2.0;
  AbductionModel model(adb_.get(), config);
  EXPECT_EQ(model.DeltaOf(0.1), 1.0);   // below η: no penalty
  EXPECT_EQ(model.DeltaOf(0.2), 1.0);   // at η
  EXPECT_NEAR(model.DeltaOf(0.4), 0.25, 1e-9);  // (0.4/0.2)^-2
  config.gamma = 0.0;
  AbductionModel no_penalty(adb_.get(), config);
  EXPECT_EQ(no_penalty.DeltaOf(0.9), 1.0);
}

TEST_F(MoviesFixture, AlphaThresholdsAssociationStrength) {
  SquidConfig config;
  config.tau_a = 5.0;
  AbductionModel model(adb_.get(), config);
  SemanticProperty weak;
  weak.theta = 2;
  SemanticProperty strong;
  strong.theta = 9;
  SemanticProperty basic;  // θ = ⊥
  EXPECT_EQ(model.AlphaOf(weak), 0.0);
  EXPECT_EQ(model.AlphaOf(strong), 1.0);
  EXPECT_EQ(model.AlphaOf(basic), 1.0);
}

TEST_F(MoviesFixture, AlgorithmOneIncludesSelectiveFilters) {
  // Academics-style check on the movie fixture: the examples {Jim, Ewan}
  // share gender=Male (ψ=4/6, common) — decision depends on ψ^|E| vs prior.
  SquidConfig config;
  config.tau_a = 2.0;  // allow the θ=2 comedy filter
  SquidConfig no_outlier = config;
  no_outlier.use_outlier_impact = false;
  auto contexts = DiscoverContexts(
      *adb_, "person",
      {Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(2))}, config);
  ASSERT_TRUE(contexts.ok());
  AbductionModel model(adb_.get(), no_outlier);
  auto filters = model.AbduceFilters(contexts.value(), 2);
  ASSERT_TRUE(filters.ok());
  for (const auto& f : filters.value()) {
    // Theorem 1's decision rule holds filter-by-filter.
    EXPECT_EQ(f.included, f.include_score > f.exclude_score) << f.property.theta;
    EXPECT_GE(f.selectivity, 0.0);
    EXPECT_LE(f.selectivity, 1.0);
  }
}

TEST_F(AcademicsFixture, Example21Abduction) {
  // The paper's Example 2.1: examples {Dan, Sam} share interest =
  // 'data management' (ψ = 3/6); under the example's equal-prior assumption
  // (Pr(Q1) = Pr(Q2), i.e. ρ = 0.5) the filter is included and the abduced
  // query returns exactly the three data-management academics.
  SquidConfig config;
  config.rho = 0.5;
  Squid squid(adb_.get(), config);
  auto abduced = squid.Discover({"Dan Susic", "Sam Madsen"});
  ASSERT_TRUE(abduced.ok()) << abduced.status().ToString();
  ASSERT_EQ(abduced.value().entity_relation, "academics");
  EXPECT_EQ(abduced.value().NumIncludedFilters(), 1u);

  auto rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(NamesOf(rs.value()),
            (std::vector<std::string>{"Dan Susic", "Joe Hellman", "Sam Madsen"}));
}

TEST_F(AcademicsFixture, AdbAndOriginalFormsAgree) {
  SquidConfig config;
  config.rho = 0.5;
  Squid squid(adb_.get(), config);
  auto abduced = squid.Discover({"Dan Susic", "Sam Madsen"});
  ASSERT_TRUE(abduced.ok());
  auto adb_rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  auto orig_rs = ExecuteQuery(*db_, abduced.value().original_query);
  ASSERT_TRUE(adb_rs.ok());
  ASSERT_TRUE(orig_rs.ok()) << orig_rs.status().ToString();
  EXPECT_EQ(NamesOf(adb_rs.value()), NamesOf(orig_rs.value()));
}

TEST_F(AcademicsFixture, ValidityInvariant) {
  // E ⊆ Q(D) (Definition 2.1): every example appears in the abduced output.
  Squid squid(adb_.get());
  std::vector<std::string> examples = {"Dan Susic", "Joe Hellman"};
  auto abduced = squid.Discover(examples);
  ASSERT_TRUE(abduced.ok());
  auto rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  auto names = NamesOf(rs.value());
  for (const auto& e : examples) {
    EXPECT_NE(std::find(names.begin(), names.end(), e), names.end()) << e;
  }
}

TEST_F(MoviesFixture, GenericQueryWhenNothingShared) {
  // Toni (M, 50, drama) and Emma (F, 29, comedy): nothing meaningful shared;
  // expect a (near-)generic query over person.
  Squid squid(adb_.get());
  auto abduced = squid.Discover({"Toni Cruse", "Emma Stone"});
  ASSERT_TRUE(abduced.ok());
  auto rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  EXPECT_GE(rs.value().num_rows(), 2u);
}

TEST_F(MoviesFixture, DimensionBaseQueryWorks) {
  // IQ7-style: examples are genre names; base query on the dimension.
  Squid squid(adb_.get());
  auto abduced = squid.Discover({"Comedy", "Drama"});
  ASSERT_TRUE(abduced.ok()) << abduced.status().ToString();
  EXPECT_EQ(abduced.value().entity_relation, "genre");
  auto rs = ExecuteQuery(adb_->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 3u);  // generic: all genres
}

TEST_F(AcademicsFixture, LogPosteriorIsFinite) {
  Squid squid(adb_.get());
  auto abduced = squid.Discover({"Dan Susic", "Sam Madsen"});
  ASSERT_TRUE(abduced.ok());
  EXPECT_TRUE(std::isfinite(abduced.value().log_posterior));
}

TEST_F(AcademicsFixture, SqlRenderingMentionsFilter) {
  SquidConfig config;
  config.rho = 0.5;
  Squid squid(adb_.get(), config);
  auto abduced = squid.Discover({"Dan Susic", "Sam Madsen"});
  ASSERT_TRUE(abduced.ok());
  std::string sql = ToSql(abduced.value().original_query);
  EXPECT_NE(sql.find("data management"), std::string::npos) << sql;
  EXPECT_NE(sql.find("research"), std::string::npos) << sql;
}

// Optimistic (QRE) preset behaves more inclusively.
TEST_F(MoviesFixture, OptimisticConfigIncludesMoreFilters) {
  Squid normal(adb_.get());
  Squid optimistic(adb_.get(), SquidConfig::Optimistic());
  auto a = normal.Discover({"Jim Carris", "Ewan McGregg"});
  auto b = optimistic.Discover({"Jim Carris", "Ewan McGregg"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b.value().NumIncludedFilters(), a.value().NumIncludedFilters());
}

}  // namespace
}  // namespace squid
