#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "adb/abduction_ready_db.h"
#include "adb/derived_relation.h"
#include "adb/schema_graph.h"
#include "adb/statistics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/squid.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using testing::MakeAcademicsDb;
using testing::MakeMoviesDb;

/// Builds the PK index of every keyed relation of `db`, as
/// AbductionReadyDb::Build does before resolving hops: a dim hop reads its
/// dimension through that index.
void IndexKeys(const Database& db) {
  for (const std::string& name : db.TableNames()) {
    std::shared_ptr<Table> table = db.GetShared(name).value();
    if (table->schema().primary_key()) {
      ASSERT_TRUE(table->BuildPkIndex().ok()) << name;
    }
  }
}

/// Materializes `desc` alone, over adjacencies resolved for it only.
Result<std::shared_ptr<Table>> MaterializeOne(const Database& db,
                                              const PropertyDescriptor& desc) {
  IndexKeys(db);
  ThreadPool pool(1);
  SQUID_ASSIGN_OR_RETURN(HopAdjacencies adjacencies,
                         HopAdjacencies::Build(db, {desc}, pool));
  SQUID_ASSIGN_OR_RETURN(DerivedRelation derived,
                         MaterializeDerivedRelation(db, adjacencies, desc));
  return std::move(derived.table);
}

// ---------- Schema graph classification ----------

TEST(SchemaGraphTest, DimHopsKeyOnlyTheDimensionsPrimaryKey) {
  // person.country_code references country.code, which is not country's
  // key; person.region_id references region's key. The αDB reads a dim hop
  // through the dimension's PK index, so only region is a dim hop.
  Database db("toy");
  Schema country("country", {{"id", ValueType::kInt64},
                             {"code", ValueType::kString},
                             {"name", ValueType::kString}});
  country.set_primary_key("id");
  country.AddPropertyAttribute("name");
  Schema region("region", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  region.set_primary_key("id");
  region.AddPropertyAttribute("name");
  Schema person("person", {{"id", ValueType::kInt64},
                           {"name", ValueType::kString},
                           {"country_code", ValueType::kString},
                           {"region_id", ValueType::kInt64}});
  person.set_entity(true);
  person.set_primary_key("id");
  person.AddForeignKey({"country_code", "country", "code"});
  person.AddForeignKey({"region_id", "region", "id"});
  auto add = [&db](Schema schema, const std::vector<std::vector<Value>>& rows) {
    Table* table = db.CreateTable(std::move(schema)).value();
    for (const auto& row : rows) ASSERT_TRUE(table->AppendRow(row).ok());
  };
  // Country 2's code is "1": keyed by id, "1" would reach the wrong row.
  add(country, {{Value(int64_t{1}), Value("2"), Value("Atlantis")},
                {Value(int64_t{2}), Value("1"), Value("Lemuria")}});
  add(region, {{Value(int64_t{7}), Value("North")}, {Value(int64_t{8}), Value("South")}});
  add(person, {{Value(int64_t{1}), Value("Ann"), Value("1"), Value(int64_t{8})},
               {Value(int64_t{2}), Value("Bob"), Value("2"), Value(int64_t{7})}});

  auto graph = SchemaGraph::Analyze(db);
  ASSERT_TRUE(graph.ok());
  for (const PropertyDescriptor& desc : graph.value().descriptors()) {
    for (const DimHop& hop : desc.dims) EXPECT_NE(hop.dim_relation, "country") << desc.id;
  }
  auto adb = AbductionReadyDb::Build(db);
  ASSERT_TRUE(adb.ok()) << adb.status().ToString();
  auto desc = adb.value()->schema_graph().FindDescriptor("person~region.name");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(adb.value()->BasicValue(*desc.value(), 0).value(), Value("South"));
  EXPECT_EQ(adb.value()->BasicValue(*desc.value(), 1).value(), Value("North"));
  auto stats = adb.value()->StatsFor(*desc.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats.value()->SelectivityEquals(Value("South")), 0.5, 1e-9);
}

TEST(AdbTest, DanglingDimLinkHasNoValue) {
  // Cid's region_id names no region row and Dee's is NULL: neither has a
  // region, both in the descriptor's stats and in BasicValue, so an example
  // set with Cid abduces like any other.
  Database db("toy");
  Schema region("region", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  region.set_primary_key("id");
  region.AddPropertyAttribute("name");
  Schema person("person", {{"id", ValueType::kInt64},
                           {"name", ValueType::kString},
                           {"region_id", ValueType::kInt64}});
  person.set_entity(true);
  person.set_primary_key("id");
  person.AddForeignKey({"region_id", "region", "id"});
  Table* regions = db.CreateTable(std::move(region)).value();
  ASSERT_TRUE(regions->AppendRow({Value(int64_t{8}), Value("South")}).ok());
  Table* persons = db.CreateTable(std::move(person)).value();
  ASSERT_TRUE(persons->AppendRow({Value(int64_t{1}), Value("Ann"), Value(int64_t{8})}).ok());
  ASSERT_TRUE(persons->AppendRow({Value(int64_t{2}), Value("Bob"), Value(int64_t{8})}).ok());
  ASSERT_TRUE(persons->AppendRow({Value(int64_t{3}), Value("Cid"), Value(int64_t{99})}).ok());
  ASSERT_TRUE(persons->AppendRow({Value(int64_t{4}), Value("Dee"), Value::Null()}).ok());

  auto adb = AbductionReadyDb::Build(db);
  ASSERT_TRUE(adb.ok()) << adb.status().ToString();
  auto desc = adb.value()->schema_graph().FindDescriptor("person~region.name");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(adb.value()->BasicValue(*desc.value(), 0).value(), Value("South"));
  for (size_t row : {size_t{2}, size_t{3}}) {
    auto v = adb.value()->BasicValue(*desc.value(), row);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v.value().is_null()) << row;
  }
  auto stats = adb.value()->StatsFor(*desc.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats.value()->SelectivityEquals(Value("South")), 0.5, 1e-9);

  Squid squid(adb.value().get(), SquidConfig{});
  auto abduced = squid.Discover({"Ann", "Cid"});
  EXPECT_TRUE(abduced.ok()) << abduced.status().ToString();
}

TEST(SchemaGraphTest, ClassifiesAcademicsSchema) {
  auto db = MakeAcademicsDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().KindOf("academics"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("interest"), RelationKind::kDimension);
  EXPECT_EQ(graph.value().KindOf("research"), RelationKind::kPropertyLinkFact);
}

TEST(SchemaGraphTest, ClassifiesMoviesSchema) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().KindOf("person"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("movie"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("genre"), RelationKind::kDimension);
  EXPECT_EQ(graph.value().KindOf("castinfo"), RelationKind::kAssociationFact);
  EXPECT_EQ(graph.value().KindOf("movietogenre"), RelationKind::kPropertyLinkFact);
}

TEST(SchemaGraphTest, AcademicsDescriptors) {
  auto db = MakeAcademicsDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  // academics has exactly one multi-valued descriptor: interest via research.
  auto descs = graph.value().DescriptorsFor("academics");
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(descs[0]->kind, PropertyKind::kMultiValued);
  EXPECT_EQ(descs[0]->terminal_relation, "interest");
  EXPECT_EQ(descs[0]->terminal_attr, "name");
  EXPECT_FALSE(descs[0]->derived);
}

TEST(SchemaGraphTest, MovieDescriptorsIncludePaperExamples) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());

  // person: derived genre counts through castinfo+movietogenre (the
  // persontogenre relation of Fig. 5).
  bool found_persontogenre = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre" && d->hops.size() == 2) {
      found_persontogenre = true;
      EXPECT_EQ(d->hops[0].fact_table, "castinfo");
      EXPECT_EQ(d->hops[1].fact_table, "movietogenre");
      EXPECT_TRUE(d->derived);
    }
  }
  EXPECT_TRUE(found_persontogenre);

  // movie: genre via movietogenre is a BASIC multi-valued property (Fig. 5
  // caption), not a derived one.
  bool movie_genre_basic = false;
  for (const auto* d : graph.value().DescriptorsFor("movie")) {
    if (d->kind == PropertyKind::kMultiValued && d->terminal_relation == "genre") {
      movie_genre_basic = true;
    }
  }
  EXPECT_TRUE(movie_genre_basic);
}

TEST(SchemaGraphTest, InlinePropertiesTyped) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  bool gender_cat = false, age_num = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->id == "person.gender") {
      gender_cat = d->kind == PropertyKind::kInlineCategorical;
    }
    if (d->id == "person.age") age_num = d->kind == PropertyKind::kInlineNumeric;
  }
  EXPECT_TRUE(gender_cat);
  EXPECT_TRUE(age_num);
}

TEST(SchemaGraphTest, IdentityDescriptorsDiscoverable) {
  auto db = MakeMoviesDb();
  SchemaGraphOptions opts;
  auto graph = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph.ok());
  bool person_movie_identity = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedEntity && d->terminal_relation == "movie") {
      person_movie_identity = true;
    }
  }
  EXPECT_TRUE(person_movie_identity);

  opts.discover_entity_identity = false;
  auto graph2 = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph2.ok());
  for (const auto* d : graph2.value().DescriptorsFor("person")) {
    EXPECT_NE(d->kind, PropertyKind::kDerivedEntity);
  }
}

TEST(SchemaGraphTest, FactHopLimitRespected) {
  auto db = MakeMoviesDb();
  SchemaGraphOptions opts;
  opts.max_fact_hops = 1;
  auto graph = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph.ok());
  for (const auto& d : graph.value().descriptors()) {
    EXPECT_LE(d.hops.size(), 1u);
  }
}

TEST(SchemaGraphTest, FindDescriptorById) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().FindDescriptor("person.gender").ok());
  EXPECT_FALSE(graph.value().FindDescriptor("person.nothing").ok());
}

// ---------- Derived relation materialization ----------

TEST(DerivedRelationTest, PersonToGenreCountsMatchFig5) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeOne(*db, *ptg);
  ASSERT_TRUE(table.ok());

  // Collect Jim Carris' (person 1) genre counts: Comedy 3, Fantasy 1, Drama 1.
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* count = table.value()->ColumnByName("count").value();
  std::map<std::string, int64_t> jim;
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1) jim[std::string(value->StringAt(r))] = count->Int64At(r);
  }
  EXPECT_EQ(jim["Comedy"], 3);
  EXPECT_EQ(jim["Fantasy"], 1);
  EXPECT_EQ(jim["Drama"], 1);
}

TEST(DerivedRelationTest, FracColumnIsPortfolioFraction) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeOne(*db, *ptg);
  ASSERT_TRUE(table.ok());
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* frac = table.value()->ColumnByName("frac").value();
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1 && value->StringAt(r) == "Comedy") {
      EXPECT_NEAR(frac->DoubleAt(r), 3.0 / 5.0, 1e-9);  // 3 of 5 genre links
    }
  }
}

TEST(DerivedRelationTest, CoActorPathSkipsSelf) {
  // Co-actor gender counts for Jim (person 1): his co-actors are Ewan
  // (movies 10, 12) and Laura (movie 11) -> Male 2, Female 1. If the path
  // did not skip self-arrivals, Jim's own three appearances would inflate
  // Male to 5.
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* co = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical && d->hops.size() == 2 &&
        d->terminal_relation == "person" && d->terminal_attr == "gender") {
      co = d;
    }
  }
  ASSERT_NE(co, nullptr);
  auto table = MaterializeOne(*db, *co);
  ASSERT_TRUE(table.ok());
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* count = table.value()->ColumnByName("count").value();
  std::map<std::string, int64_t> jim;
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1) jim[std::string(value->StringAt(r))] = count->Int64At(r);
  }
  EXPECT_EQ(jim["Male"], 2);
  EXPECT_EQ(jim["Female"], 1);
}

TEST(SchemaGraphTest, NoIdentityDescriptorsAtDepthTwo) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  for (const auto& d : graph.value().descriptors()) {
    if (d.kind == PropertyKind::kDerivedEntity) {
      EXPECT_EQ(d.hops.size(), 1u) << d.id;
    }
  }
}

TEST(DerivedRelationTest, BasicDescriptorRejected) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE(MaterializeOne(*db, *desc.value()).ok());
}

// ---------- Statistics ----------

TEST(StatisticsTest, CategoricalSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  auto stats = StatisticsBuilder::BuildBasic(*db, *desc.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().total_entities(), 6u);
  EXPECT_NEAR(stats.value().SelectivityEquals(Value("Male")), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityEquals(Value("Female")), 2.0 / 6.0, 1e-9);
  EXPECT_EQ(stats.value().SelectivityEquals(Value("Other")), 0.0);
  EXPECT_EQ(stats.value().domain_size(), 2u);
}

TEST(StatisticsTest, NumericRangeSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.age");
  ASSERT_TRUE(desc.ok());
  auto stats = StatisticsBuilder::BuildBasic(*db, *desc.value());
  ASSERT_TRUE(stats.ok());
  // Ages: 60, 52, 58, 50, 90, 29. Range [50, 60] covers 4 of 6.
  EXPECT_NEAR(stats.value().SelectivityRange(50, 60), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityRange(0, 1000), 1.0, 1e-9);
  EXPECT_EQ(stats.value().domain_min(), 29);
  EXPECT_EQ(stats.value().domain_max(), 90);
}

TEST(StatisticsTest, DerivedSuffixSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeOne(*db, *ptg);
  ASSERT_TRUE(table.ok());
  auto stats = StatisticsBuilder::BuildFromDerived(*table.value(), 6);
  ASSERT_TRUE(stats.ok());
  // Comedy counts per person: Jim 3, Ewan 2, Laura 1, Emma 1.
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 1), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 2), 2.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 3), 1.0 / 6.0, 1e-9);
  EXPECT_EQ(stats.value().SelectivityDerived(Value("Comedy"), 4), 0.0);
  EXPECT_EQ(stats.value().SelectivityDerived(Value("Nope"), 1), 0.0);
  EXPECT_EQ(stats.value().EntitiesWithValue(Value("Comedy")), 4u);
}

// ---------- αDB assembly ----------

TEST(AdbTest, BuildReportsAndLookups) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const AdbReport& report = adb.value()->report();
  EXPECT_GT(report.num_descriptors, 5u);
  EXPECT_GT(report.num_derived_relations, 0u);
  EXPECT_GT(report.derived_rows, 0u);
  EXPECT_GE(report.build_seconds, 0.0);

  // Entity lookup by key.
  auto row = adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(3)));
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(
      adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(99))).ok());
}

TEST(AdbTest, BasicValueResolvesInline) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  auto desc = adb.value()->schema_graph().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  size_t row =
      adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(3))).value();
  auto v = adb.value()->BasicValue(*desc.value(), row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsString(), "Female");
}

TEST(AdbTest, DerivedValuesPointQuery) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : adb.value()->schema_graph().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto values = adb.value()->DerivedValues(*ptg, Value(static_cast<int64_t>(1)));
  ASSERT_TRUE(values.ok());
  std::map<std::string, double> by_name;
  for (const auto& [v, c] : values.value()) by_name[v.ToString()] = c;
  EXPECT_EQ(by_name["Comedy"], 3);
  EXPECT_EQ(adb.value()->EntityTotal(*ptg, Value(static_cast<int64_t>(1))), 5);
}

TEST(AdbTest, DisplayValueResolvesEntityIdentity) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const PropertyDescriptor* identity = nullptr;
  for (const auto* d : adb.value()->schema_graph().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedEntity && d->terminal_relation == "movie") {
      identity = d;
    }
  }
  ASSERT_NE(identity, nullptr);
  EXPECT_EQ(adb.value()->DisplayValue(*identity, Value(static_cast<int64_t>(11))),
            "Dumb Duo");
}

TEST(AdbTest, StatsForUnknownDescriptorErrors) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  EXPECT_FALSE(adb.value()->StatsFor("no.such.descriptor").ok());
}

TEST(AdbTest, MaxDerivedRowsSkipsOversized) {
  auto db = MakeMoviesDb();
  AdbOptions options;
  options.max_derived_rows = 1;  // everything is oversized
  auto adb = AbductionReadyDb::Build(*db, options);
  ASSERT_TRUE(adb.ok());
  EXPECT_EQ(adb.value()->report().num_derived_relations, 0u);
}

TEST(AdbTest, CappedCoStarWalkStopsEarly) {
  ImdbOptions imdb;
  imdb.scale = 0.1;
  auto data = GenerateImdb(imdb);
  ASSERT_TRUE(data.ok());
  const Database& db = *data.value().db;
  auto graph = SchemaGraph::Analyze(db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* costar = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->hops.size() == 2 && d->hops[1].next_relation == "person") costar = d;
  }
  ASSERT_NE(costar, nullptr);
  IndexKeys(db);
  ThreadPool pool(1);
  auto adjacencies = HopAdjacencies::Build(db, graph.value().descriptors(), pool);
  ASSERT_TRUE(adjacencies.ok());

  // Best of five walks, full and capped at a tenth of the rows.
  auto best_seconds = [&](size_t max_rows, Result<DerivedRelation>* out) {
    double best = 1e9;
    for (int i = 0; i < 5; ++i) {
      Stopwatch watch;
      *out = MaterializeDerivedRelation(db, adjacencies.value(), *costar, max_rows);
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };
  Result<DerivedRelation> full = Status::Internal("not run");
  const double full_s = best_seconds(0, &full);
  ASSERT_TRUE(full.ok());
  ASSERT_NE(full.value().table, nullptr);
  EXPECT_FALSE(full.value().oversized);
  const size_t rows = full.value().table->num_rows();
  ASSERT_GT(rows, 100u);

  // The capped walk stops about a tenth of the way in, before the full
  // table exists, so it takes well under half the full walk's time.
  Result<DerivedRelation> capped = Status::Internal("not run");
  const double capped_s = best_seconds(rows / 10, &capped);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped.value().oversized);
  EXPECT_EQ(capped.value().table, nullptr);
  EXPECT_LT(capped_s, full_s / 2)
      << "capped " << capped_s << " s, full " << full_s << " s";

  // Exactly at the cap is not oversized.
  auto at_cap = MaterializeDerivedRelation(db, adjacencies.value(), *costar, rows);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_FALSE(at_cap.value().oversized);
  ASSERT_NE(at_cap.value().table, nullptr);
  EXPECT_EQ(at_cap.value().table->num_rows(), rows);
}

TEST(AdbTest, BuildReportsStageSeconds) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const AdbReport& r = adb.value()->report();
  for (double stage : {r.schema_graph_s, r.pk_index_s, r.adjacency_s,
                       r.descriptors_s, r.inverted_index_s}) {
    EXPECT_GE(stage, 0.0);
  }
  EXPECT_LE(r.schema_graph_s + r.pk_index_s + r.adjacency_s + r.descriptors_s +
                r.inverted_index_s,
            r.build_seconds);
}

/// person 1 appears in 14 movies, 5 comedies and 9 dramas. Drama's
/// (count, total) = (9, 14) does not round-trip through count / frac, and
/// as the entity's last row it is the one a last-write-wins total keeps.
std::unique_ptr<Database> MakeNineOfFourteenDb() {
  auto db = std::make_unique<Database>("nine_of_fourteen");
  auto must = [](const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); };
  auto i = [](int64_t v) { return Value(v); };
  {
    Schema s("person", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddTextSearchAttribute("name");
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({i(1), Value("Pat")}));
  }
  {
    Schema s("movie", {{"id", ValueType::kInt64}, {"title", ValueType::kString}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddTextSearchAttribute("title");
    Table* t = db->CreateTable(std::move(s)).value();
    for (int64_t m = 0; m < 14; ++m) {
      must(t->AppendRow({i(100 + m), Value("m" + std::to_string(m))}));
    }
  }
  {
    Schema s("genre", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({i(1), Value("Comedy")}));
    must(t->AppendRow({i(2), Value("Drama")}));
  }
  {
    Schema s("castinfo", {{"id", ValueType::kInt64},
                          {"person_id", ValueType::kInt64},
                          {"movie_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"person_id", "person", "id"});
    s.AddForeignKey({"movie_id", "movie", "id"});
    Table* t = db->CreateTable(std::move(s)).value();
    for (int64_t m = 0; m < 14; ++m) must(t->AppendRow({i(m), i(1), i(100 + m)}));
  }
  {
    Schema s("movietogenre", {{"id", ValueType::kInt64},
                              {"movie_id", ValueType::kInt64},
                              {"genre_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"movie_id", "movie", "id"});
    s.AddForeignKey({"genre_id", "genre", "id"});
    Table* t = db->CreateTable(std::move(s)).value();
    for (int64_t m = 0; m < 14; ++m) {
      must(t->AppendRow({i(m), i(100 + m), i(m < 5 ? 1 : 2)}));
    }
  }
  return db;
}

TEST(AdbTest, EntityTotalsAreExactAfterBuildAndReload) {
  ASSERT_NE(9.0 / (9.0 / 14.0), 14.0);  // the round trip this guards against
  auto db = MakeNineOfFourteenDb();
  auto built = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ::testing::TempDir() + "squid_adb_nine_of_fourteen.sqsnap";
  ASSERT_TRUE(built.value()->SaveSnapshot(path).ok());
  auto loaded = AbductionReadyDb::LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Value pat(static_cast<int64_t>(1));
  for (const AbductionReadyDb* adb : {built.value().get(), loaded.value().get()}) {
    const PropertyDescriptor* ptg = nullptr;
    for (const auto* d : adb->schema_graph().DescriptorsFor("person")) {
      if (d->terminal_relation == "genre" && d->hops.size() == 2) ptg = d;
    }
    ASSERT_NE(ptg, nullptr);
    EXPECT_EQ(adb->EntityTotal(*ptg, pat), 14.0);

    // θ_norm as context discovery computes it reproduces the stored frac.
    const Table* derived = adb->database().GetTable(ptg->derived_table).value();
    const Column* value = derived->ColumnByName("value").value();
    const Column* count = derived->ColumnByName("count").value();
    const Column* frac = derived->ColumnByName("frac").value();
    bool saw_drama = false;
    for (size_t r = 0; r < derived->num_rows(); ++r) {
      if (value->StringAt(r) != "Drama") continue;
      saw_drama = true;
      EXPECT_EQ(count->Int64At(r), 9);
      const double theta_norm =
          static_cast<double>(count->Int64At(r)) / adb->EntityTotal(*ptg, pat);
      EXPECT_EQ(std::memcmp(&theta_norm, &frac->doubles_raw()[r], sizeof(double)), 0);
    }
    EXPECT_TRUE(saw_drama);
  }
}

// ---------- Serial-vs-parallel determinism ----------

/// Builds the αDB over `db` at each thread count and asserts the parallel
/// builds are byte-identical to the serial one: same relations, same cell
/// values, same dictionary symbols, same report counters, and identical
/// selectivities for every descriptor.
void ExpectBuildIsThreadCountInvariant(const Database& db) {
  AdbOptions serial_options;
  serial_options.threads = 1;
  auto serial = AbductionReadyDb::Build(db, serial_options);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {2u, 8u}) {
    AdbOptions options;
    options.threads = threads;
    auto parallel = AbductionReadyDb::Build(db, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel.value()->report().threads_used, threads);

    const AdbReport& sr = serial.value()->report();
    const AdbReport& pr = parallel.value()->report();
    EXPECT_EQ(sr.num_descriptors, pr.num_descriptors) << "threads=" << threads;
    EXPECT_EQ(sr.num_derived_relations, pr.num_derived_relations);
    EXPECT_EQ(sr.derived_rows, pr.derived_rows);
    EXPECT_EQ(sr.base_rows, pr.base_rows);
    EXPECT_EQ(sr.derived_bytes, pr.derived_bytes);

    testing::ExpectDatabasesIdentical(serial.value()->database(),
                                      parallel.value()->database());

    EXPECT_EQ(serial.value()->inverted_index().NumKeys(),
              parallel.value()->inverted_index().NumKeys());
    EXPECT_EQ(serial.value()->inverted_index().NumPostings(),
              parallel.value()->inverted_index().NumPostings());

    // Statistics must agree probe-for-probe: walk every descriptor and
    // compare selectivities over each derived relation's observed values.
    for (const PropertyDescriptor& desc :
         serial.value()->schema_graph().descriptors()) {
      auto ss = serial.value()->StatsFor(desc.id);
      auto ps = parallel.value()->StatsFor(desc.id);
      ASSERT_EQ(ss.ok(), ps.ok()) << desc.id;
      if (!ss.ok()) continue;
      EXPECT_EQ(ss.value()->total_entities(), ps.value()->total_entities())
          << desc.id;
      EXPECT_EQ(ss.value()->domain_size(), ps.value()->domain_size()) << desc.id;
      EXPECT_EQ(ss.value()->domain_min(), ps.value()->domain_min()) << desc.id;
      EXPECT_EQ(ss.value()->domain_max(), ps.value()->domain_max()) << desc.id;
      if (desc.derived) {
        auto table = serial.value()->database().GetTable(desc.derived_table);
        if (!table.ok()) continue;
        const Column* value_col = table.value()->ColumnByName("value").value();
        const Column* count_col = table.value()->ColumnByName("count").value();
        for (size_t r = 0; r < table.value()->num_rows(); ++r) {
          Value v = value_col->ValueAt(r);
          double theta = static_cast<double>(count_col->Int64At(r));
          EXPECT_EQ(ss.value()->SelectivityDerived(v, theta),
                    ps.value()->SelectivityDerived(v, theta))
              << desc.id << " row " << r;
        }
      }
    }
  }
}

TEST(AdbDeterminismTest, MoviesBuildIsThreadCountInvariant) {
  auto db = MakeMoviesDb();
  ExpectBuildIsThreadCountInvariant(*db);
}

TEST(AdbDeterminismTest, AcademicsBuildIsThreadCountInvariant) {
  auto db = MakeAcademicsDb();
  ExpectBuildIsThreadCountInvariant(*db);
}

TEST(AdbDeterminismTest, GeneratedImdbBuildIsThreadCountInvariant) {
  ImdbOptions options;
  options.scale = 0.05;
  auto data = GenerateImdb(options);
  ASSERT_TRUE(data.ok());
  ExpectBuildIsThreadCountInvariant(*data.value().db);
}

// ---------- Differential materializer suite ----------

/// Rows of `table` by their `attr` cell, NULLs excluded. Keyed by Value, so
/// lookups follow Value equality (1 == 1.0).
using ValueIndex = std::map<Value, std::vector<size_t>>;
Result<ValueIndex> IndexByValue(const Table& table, const std::string& attr) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(attr));
  ValueIndex index;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!col->IsNull(r)) index[col->ValueAt(r)].push_back(r);
  }
  return index;
}

/// The rows `index` holds for `v` (null when none).
const std::vector<size_t>* Find(const ValueIndex& index, const Value& v) {
  auto it = index.find(v);
  return it == index.end() ? nullptr : &it->second;
}

/// The Value-keyed materializer the row-id walk replaced, kept as the
/// reference: a frontier of (entity key, row) arrivals expanded through
/// per-hop Value-keyed indexes, aggregated in std::map<Value, ...>.
Result<std::shared_ptr<Table>> ReferenceMaterialize(const Database& db,
                                                    const PropertyDescriptor& desc) {
  struct Arrival {
    Value entity_key;
    size_t row;
  };
  SQUID_ASSIGN_OR_RETURN(const Table* entity, db.GetTable(desc.entity_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* entity_pk,
                         entity->ColumnByName(desc.entity_key));
  const Table* current = entity;
  std::string current_key_attr = desc.entity_key;
  std::vector<Arrival> frontier;
  for (size_t r = 0; r < entity->num_rows(); ++r) {
    if (entity_pk->IsNull(r)) continue;
    frontier.push_back(Arrival{entity_pk->ValueAt(r), r});
  }
  for (const FactHop& hop : desc.hops) {
    SQUID_ASSIGN_OR_RETURN(const Table* fact, db.GetTable(hop.fact_table));
    SQUID_ASSIGN_OR_RETURN(ValueIndex fact_in, IndexByValue(*fact, hop.in_attr));
    SQUID_ASSIGN_OR_RETURN(const Column* fact_out, fact->ColumnByName(hop.out_attr));
    SQUID_ASSIGN_OR_RETURN(const Table* next, db.GetTable(hop.next_relation));
    SQUID_ASSIGN_OR_RETURN(ValueIndex next_pk, IndexByValue(*next, hop.next_key));
    SQUID_ASSIGN_OR_RETURN(const Column* current_key,
                           current->ColumnByName(current_key_attr));
    const bool arrives_at_origin = hop.next_relation == desc.entity_relation;
    std::vector<Arrival> next_frontier;
    for (const Arrival& a : frontier) {
      Value key = current_key->ValueAt(a.row);
      if (key.is_null()) continue;
      const std::vector<size_t>* fact_rows = Find(fact_in, key);
      if (fact_rows == nullptr) continue;
      for (size_t fr : *fact_rows) {
        if (fact_out->IsNull(fr)) continue;
        Value out_key = fact_out->ValueAt(fr);
        if (arrives_at_origin && out_key == a.entity_key) continue;
        const std::vector<size_t>* next_rows = Find(next_pk, out_key);
        if (next_rows == nullptr) continue;
        for (size_t nr : *next_rows) next_frontier.push_back(Arrival{a.entity_key, nr});
      }
    }
    frontier = std::move(next_frontier);
    current = next;
    current_key_attr = hop.next_key;
  }
  for (const DimHop& dim : desc.dims) {
    SQUID_ASSIGN_OR_RETURN(const Column* from, current->ColumnByName(dim.from_attr));
    SQUID_ASSIGN_OR_RETURN(const Table* next, db.GetTable(dim.dim_relation));
    SQUID_ASSIGN_OR_RETURN(ValueIndex next_pk, IndexByValue(*next, dim.dim_key));
    std::vector<Arrival> next_frontier;
    for (const Arrival& a : frontier) {
      if (from->IsNull(a.row)) continue;
      const std::vector<size_t>* next_rows = Find(next_pk, from->ValueAt(a.row));
      if (next_rows == nullptr) continue;
      for (size_t nr : *next_rows) next_frontier.push_back(Arrival{a.entity_key, nr});
    }
    frontier = std::move(next_frontier);
    current = next;
  }
  SQUID_ASSIGN_OR_RETURN(const Column* terminal,
                         current->ColumnByName(desc.terminal_attr));
  std::map<Value, std::map<Value, int64_t>> counts;
  std::map<Value, int64_t> totals;
  for (const Arrival& a : frontier) {
    if (terminal->IsNull(a.row)) continue;
    ++totals[a.entity_key];
    auto& per_entity = counts[a.entity_key];
    if (desc.kind == PropertyKind::kDerivedNumericBucket) {
      double v = terminal->NumericAt(a.row);
      for (size_t i = 0; i < desc.bucket_thresholds.size(); ++i) {
        if (v >= desc.bucket_thresholds[i]) {
          ++per_entity[Value(static_cast<int64_t>(i))];
        }
      }
    } else {
      ++per_entity[terminal->ValueAt(a.row)];
    }
  }
  ValueType value_type = desc.kind == PropertyKind::kDerivedNumericBucket
                             ? ValueType::kInt64
                             : terminal->type();
  Schema schema(desc.derived_table, {{"entity_id", entity_pk->type()},
                                     {"value", value_type},
                                     {"count", ValueType::kInt64},
                                     {"frac", ValueType::kDouble}});
  auto table = std::make_shared<Table>(std::move(schema), db.pool());
  for (const auto& [entity_key, per_entity] : counts) {
    double total = static_cast<double>(totals[entity_key]);
    for (const auto& [value, count] : per_entity) {
      double frac = total > 0 ? static_cast<double>(count) / total : 0.0;
      SQUID_RETURN_NOT_OK(
          table->AppendRow({entity_key, value, Value(count), Value(frac)}));
    }
  }
  return table;
}

/// Cell-for-cell equality: types, nulls, int64s, double bit patterns (so
/// -0.0 vs 0.0 counts as a difference), and string symbols.
void ExpectSameCells(const Table& expected, const Table& actual, const std::string& id) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << id;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << id;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const Column& e = expected.column(c);
    const Column& a = actual.column(c);
    ASSERT_EQ(e.type(), a.type()) << id << " column " << c;
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      ASSERT_EQ(e.IsNull(r), a.IsNull(r)) << id << " column " << c << " row " << r;
      if (e.IsNull(r)) continue;
      switch (e.type()) {
        case ValueType::kInt64:
          ASSERT_EQ(e.Int64At(r), a.Int64At(r)) << id << " column " << c << " row " << r;
          break;
        case ValueType::kDouble:
          ASSERT_EQ(std::memcmp(&e.doubles_raw()[r], &a.doubles_raw()[r], sizeof(double)),
                    0)
              << id << " column " << c << " row " << r << ": " << e.DoubleAt(r)
              << " vs " << a.DoubleAt(r);
          break;
        case ValueType::kString:
          ASSERT_EQ(e.SymbolAt(r), a.SymbolAt(r)) << id << " column " << c << " row " << r;
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
}

/// Materializes every descriptor with fact hops through the row-id walk
/// (adjacencies built on a 4-thread pool) and through the reference, and
/// compares them. Returns the descriptors compared.
std::vector<PropertyDescriptor> ExpectMaterializersAgree(const Database& db) {
  std::vector<PropertyDescriptor> compared;
  auto graph = SchemaGraph::Analyze(db);
  EXPECT_TRUE(graph.ok());
  if (!graph.ok()) return compared;
  IndexKeys(db);
  ThreadPool pool(4);
  auto adjacencies = HopAdjacencies::Build(db, graph.value().descriptors(), pool);
  EXPECT_TRUE(adjacencies.ok()) << adjacencies.status().ToString();
  if (!adjacencies.ok()) return compared;
  for (const PropertyDescriptor& desc : graph.value().descriptors()) {
    if (desc.hops.empty()) continue;
    auto expected = ReferenceMaterialize(db, desc);
    EXPECT_TRUE(expected.ok()) << desc.id;
    auto actual = MaterializeDerivedRelation(db, adjacencies.value(), desc);
    EXPECT_TRUE(actual.ok()) << desc.id;
    if (!expected.ok() || !actual.ok()) continue;
    EXPECT_NE(actual.value().table, nullptr) << desc.id;
    if (actual.value().table == nullptr) continue;
    ExpectSameCells(*expected.value(), *actual.value().table, desc.id);
    compared.push_back(desc);
  }
  return compared;
}

TEST(DerivedDifferentialTest, Movies) {
  auto db = MakeMoviesDb();
  EXPECT_FALSE(ExpectMaterializersAgree(*db).empty());
}

TEST(DerivedDifferentialTest, Academics) {
  auto db = MakeAcademicsDb();
  EXPECT_FALSE(ExpectMaterializersAgree(*db).empty());
}

TEST(DerivedDifferentialTest, GeneratedImdb) {
  ImdbOptions options;
  options.scale = 0.1;
  auto data = GenerateImdb(options);
  ASSERT_TRUE(data.ok());
  EXPECT_GE(ExpectMaterializersAgree(*data.value().db).size(), 30u);
}

TEST(DerivedDifferentialTest, GeneratedDblp) {
  DblpOptions options;
  options.scale = 0.15;
  auto data = GenerateDblp(options);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(ExpectMaterializersAgree(*data.value().db).empty());
}

/// A schema built to break row-id shortcuts: double-typed actor keys with
/// -0.0 / 0.0 and duplicate keys, a null key, an actor with no
/// associations; int64 fact cells joining double keys (1 == 1.0), null and
/// dangling FK cells in both facts, the dims and the property link; a
/// duplicate dimension key; null terminals under categorical and bucket
/// descriptors; and co-paths looping back to the origin through both facts.
std::unique_ptr<Database> MakeHostileDb() {
  auto db = std::make_unique<Database>("hostile");
  auto must = [](const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); };
  const Value null = Value::Null();
  auto i = [](int64_t v) { return Value(v); };
  auto d = [](double v) { return Value(v); };
  {
    Schema s("actor", {{"id", ValueType::kDouble},
                       {"name", ValueType::kString},
                       {"gender", ValueType::kString},
                       {"age", ValueType::kDouble},
                       {"country", ValueType::kString}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("gender");
    s.AddPropertyAttribute("age");
    s.AddTextSearchAttribute("name");
    s.AddForeignKey({"country", "country", "code"});
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({d(1.0), Value("Ann"), Value("F"), d(30), Value("us")}));
    must(t->AppendRow({d(-0.0), Value("Bob"), Value("M"), null, Value("fr")}));
    must(t->AppendRow({d(0.0), Value("Bea"), null, d(41.5), Value("xx")}));
    must(t->AppendRow({d(2.0), Value("Cal"), Value("M"), d(50), null}));
    must(t->AppendRow({d(2.0), Value("Cid"), Value("F"), d(20), Value("us")}));
    must(t->AppendRow({d(3.0), Value("Dee"), Value("F"), d(25), Value("fr")}));
    must(t->AppendRow({null, Value("Nil"), Value("M"), d(33), Value("us")}));
    must(t->AppendRow({d(4.5), Value("Eve"), Value("F"), d(60), Value("de")}));
    must(t->AppendRow({d(-1.0), Value("Fay"), Value("M"), d(35), Value("us")}));
  }
  {
    Schema s("film", {{"id", ValueType::kInt64},
                      {"title", ValueType::kString},
                      {"year", ValueType::kInt64}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("year");
    s.AddTextSearchAttribute("title");
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({i(10), Value("Ten"), i(2001)}));
    must(t->AppendRow({i(11), Value("Eleven"), null}));
    must(t->AppendRow({i(12), Value("Twelve"), i(1999)}));
    must(t->AppendRow({i(12), Value("Twelve again"), i(2005)}));
    must(t->AppendRow({i(13), Value("Unseen"), i(2010)}));
    must(t->AppendRow({i(-5), Value("Minus five"), i(2003)}));
  }
  {
    Schema s("country", {{"code", ValueType::kString}, {"name", ValueType::kString}});
    s.set_primary_key("code");
    s.AddPropertyAttribute("name");
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({Value("us"), Value("United States")}));
    must(t->AppendRow({Value("fr"), Value("France")}));
    must(t->AppendRow({Value("fr"), Value("Francia")}));
    must(t->AppendRow({Value("de"), null}));
  }
  {
    Schema s("genre", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    Table* t = db->CreateTable(std::move(s)).value();
    must(t->AppendRow({i(1), Value("Comedy")}));
    must(t->AppendRow({i(2), Value("Drama")}));
    must(t->AppendRow({i(3), null}));
  }
  // cast.actor_id is int64 against the double actor key.
  {
    Schema s("cast", {{"id", ValueType::kInt64},
                      {"actor_id", ValueType::kInt64},
                      {"film_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"actor_id", "actor", "id"});
    s.AddForeignKey({"film_id", "film", "id"});
    Table* t = db->CreateTable(std::move(s)).value();
    const std::vector<std::pair<Value, Value>> rows = {
        {i(1), i(10)},  {i(0), i(10)},  {i(2), i(10)},  {i(2), i(11)},
        {null, i(11)},  {i(99), i(11)}, {i(1), i(999)}, {i(1), i(11)},
        {i(1), i(10)},  {i(0), i(12)},  {i(2), null},   {i(-1), i(-5)},
        {i(-1), i(12)}, {i(1), i(-5)}};
    for (size_t r = 0; r < rows.size(); ++r) {
      must(t->AppendRow({i(static_cast<int64_t>(r)), rows[r].first, rows[r].second}));
    }
  }
  // crew.person_id is double like the actor key, including -0.0.
  {
    Schema s("crew", {{"id", ValueType::kInt64},
                      {"person_id", ValueType::kDouble},
                      {"film_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"person_id", "actor", "id"});
    s.AddForeignKey({"film_id", "film", "id"});
    Table* t = db->CreateTable(std::move(s)).value();
    const std::vector<std::pair<Value, Value>> rows = {
        {d(-0.0), i(10)}, {d(0.0), i(11)}, {d(4.5), i(12)}, {d(1.0), i(12)},
        {null, i(10)},    {d(7.25), i(10)}, {d(2.0), i(-5)}, {d(1.0), i(10)},
        {d(-0.0), i(12)}};
    for (size_t r = 0; r < rows.size(); ++r) {
      must(t->AppendRow({i(static_cast<int64_t>(r)), rows[r].first, rows[r].second}));
    }
  }
  {
    Schema s("filmgenre", {{"id", ValueType::kInt64},
                           {"film_id", ValueType::kInt64},
                           {"genre_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"film_id", "film", "id"});
    s.AddForeignKey({"genre_id", "genre", "id"});
    Table* t = db->CreateTable(std::move(s)).value();
    const std::vector<std::pair<Value, Value>> rows = {
        {i(10), i(1)}, {i(10), i(2)}, {i(11), i(1)}, {i(12), i(3)}, {i(12), null},
        {null, i(1)},  {i(13), i(42)}, {i(-5), i(2)}, {i(10), i(1)}};
    for (size_t r = 0; r < rows.size(); ++r) {
      must(t->AppendRow({i(static_cast<int64_t>(r)), rows[r].first, rows[r].second}));
    }
  }
  return db;
}

TEST(DerivedDifferentialTest, HostileSchema) {
  auto db = MakeHostileDb();
  const auto compared = ExpectMaterializersAgree(*db);
  // The schema must reach every shape it was built for.
  bool bucket = false, identity = false, multi_valued = false, dims = false;
  bool co_path_int64 = false, co_path_double = false;
  for (const PropertyDescriptor& desc : compared) {
    bucket |= desc.kind == PropertyKind::kDerivedNumericBucket;
    identity |= desc.kind == PropertyKind::kDerivedEntity;
    multi_valued |= desc.kind == PropertyKind::kMultiValued;
    dims |= !desc.dims.empty();
    if (desc.hops.size() == 2 && desc.hops[1].next_relation == desc.entity_relation) {
      co_path_int64 |= desc.hops[1].fact_table == "cast";
      co_path_double |= desc.hops[1].fact_table == "crew";
    }
  }
  EXPECT_TRUE(bucket);
  EXPECT_TRUE(identity);
  EXPECT_TRUE(multi_valued);
  EXPECT_TRUE(dims);
  EXPECT_TRUE(co_path_int64);
  EXPECT_TRUE(co_path_double);
}

TEST(AdbDeterminismTest, HostileBuildIsThreadCountInvariant) {
  auto db = MakeHostileDb();
  ExpectBuildIsThreadCountInvariant(*db);
}

}  // namespace
}  // namespace squid
