#include <gtest/gtest.h>

#include <unordered_set>

#include "datagen/adult_generator.h"
#include "datagen/cohorts.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workloads/benchmark_query.h"

namespace squid {
namespace {

ImdbOptions SmallImdb() {
  ImdbOptions o;
  o.scale = 0.2;
  return o;
}

DblpOptions SmallDblp() {
  DblpOptions o;
  o.scale = 0.25;
  return o;
}

// ---------- IMDb generator ----------

class ImdbFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateImdb(SmallImdb());
    ASSERT_TRUE(data.ok());
    data_ = new ImdbData(std::move(data).value());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static ImdbData* data_;
};
ImdbData* ImdbFixture::data_ = nullptr;

TEST_F(ImdbFixture, HasFifteenRelations) {
  EXPECT_EQ(data_->db->num_tables(), 15u);
  for (const char* name :
       {"person", "movie", "company", "genre", "country", "language", "roletype",
        "certificate", "keyword", "castinfo", "movietogenre", "movietocountry",
        "movietolanguage", "movietokeyword", "movietocompany"}) {
    EXPECT_TRUE(data_->db->HasTable(name)) << name;
  }
}

TEST_F(ImdbFixture, ForeignKeysAreValid) {
  EXPECT_TRUE(data_->db->ValidateForeignKeys().ok());
}

TEST_F(ImdbFixture, ManifestEntitiesExist) {
  auto check_in = [&](const std::string& relation, const std::string& attr,
                      const std::string& value) {
    auto table = data_->db->GetTable(relation);
    ASSERT_TRUE(table.ok());
    auto col = table.value()->ColumnByName(attr);
    ASSERT_TRUE(col.ok());
    bool found = false;
    for (size_t r = 0; r < table.value()->num_rows(); ++r) {
      if (!col.value()->IsNull(r) && col.value()->StringAt(r) == value) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << relation << "." << attr << " = " << value;
  };
  const ImdbManifest& m = data_->manifest;
  check_in("movie", "title", m.hub_movie_title);
  for (const auto& t : m.trilogy) check_in("movie", "title", t);
  check_in("person", "name", m.costar_a);
  check_in("person", "name", m.costar_b);
  check_in("person", "name", m.director_name);
  check_in("person", "name", m.prolific_actor);
  check_in("person", "name", m.scifi_actor);
  check_in("company", "name", m.disney_company);
  check_in("company", "name", m.pixar_company);
}

TEST_F(ImdbFixture, CostarPairSharesAtLeastTwelveMovies) {
  auto q = ParseQuery(
      "SELECT DISTINCT m.id FROM movie m, castinfo c1, person p1, castinfo c2, "
      "person p2 WHERE c1.movie_id = m.id AND c1.person_id = p1.id AND "
      "c2.movie_id = m.id AND c2.person_id = p2.id AND p1.name = '" +
      data_->manifest.costar_a + "' AND p2.name = '" + data_->manifest.costar_b +
      "'");
  ASSERT_TRUE(q.ok());
  auto rs = ExecuteQuery(*data_->db, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_GE(rs.value().num_rows(), 12u);
}

TEST_F(ImdbFixture, TrilogySharesCast) {
  std::vector<std::unordered_set<std::string>> casts;
  for (const std::string& title : data_->manifest.trilogy) {
    auto q = ParseQuery(
        "SELECT DISTINCT p.name FROM person p, castinfo c, movie m WHERE "
        "c.person_id = p.id AND c.movie_id = m.id AND m.title = '" +
        title + "'");
    ASSERT_TRUE(q.ok());
    auto rs = ExecuteQuery(*data_->db, q.value());
    ASSERT_TRUE(rs.ok());
    std::unordered_set<std::string> cast;
    for (const Value& v : rs.value().ColumnValues(0)) cast.insert(v.ToString());
    casts.push_back(std::move(cast));
  }
  size_t shared = 0;
  for (const auto& name : casts[0]) {
    if (casts[1].count(name) && casts[2].count(name)) ++shared;
  }
  EXPECT_GE(shared, 15u);
}

TEST_F(ImdbFixture, FunnyActorsHaveComedyHeavyPortfolios) {
  ASSERT_FALSE(data_->manifest.funny_actor_names.empty());
  // At least 15 comedies for the first funny cohort member.
  auto q = ParseQuery(
      "SELECT p.name FROM person p, castinfo c, movietogenre mg, genre g WHERE "
      "c.person_id = p.id AND mg.movie_id = c.movie_id AND mg.genre_id = g.id "
      "AND g.name = 'Comedy' AND p.name = '" +
      data_->manifest.funny_actor_names[0] + "' GROUP BY p.id HAVING count(*) >= 15");
  ASSERT_TRUE(q.ok());
  auto rs = ExecuteQuery(*data_->db, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 1u);
}

TEST_F(ImdbFixture, DeterministicForSameSeed) {
  auto again = GenerateImdb(SmallImdb());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().db->TotalRows(), data_->db->TotalRows());
  EXPECT_EQ(again.value().manifest.funny_actor_names,
            data_->manifest.funny_actor_names);
}

TEST_F(ImdbFixture, GenerationIsThreadCountInvariant) {
  // The fixture generated with the default thread count; serial (threads=1)
  // and wide (threads=8) runs must reproduce it bit-for-bit — cell values
  // AND dictionary symbols (the batch pre-intern pass pins symbol order).
  for (size_t threads : {1u, 8u}) {
    ImdbOptions o = SmallImdb();
    o.threads = threads;
    auto other = GenerateImdb(o);
    ASSERT_TRUE(other.ok()) << "threads=" << threads;
    testing::ExpectDatabasesIdentical(*data_->db, *other.value().db);
    EXPECT_EQ(other.value().db->pool()->size(), data_->db->pool()->size());
  }
}

TEST_F(ImdbFixture, DifferentSeedDiffers) {
  ImdbOptions o = SmallImdb();
  o.seed = 999;
  auto other = GenerateImdb(o);
  ASSERT_TRUE(other.ok());
  // Row totals can coincide (planted structure dominates); the generated
  // names must not.
  auto names_a = other.value().db->GetTable("person").value()->ColumnByName("name");
  auto names_b = data_->db->GetTable("person").value()->ColumnByName("name");
  ASSERT_TRUE(names_a.ok());
  ASSERT_TRUE(names_b.ok());
  size_t differing = 0;
  for (size_t r = 0; r < 50; ++r) {
    if (names_a.value()->StringAt(r) != names_b.value()->StringAt(r)) ++differing;
  }
  EXPECT_GT(differing, 10u);
}

TEST(ImdbVariantsTest, DuplicationDoublesEntities) {
  ImdbOptions base = SmallImdb();
  auto orig = GenerateImdb(base);
  ASSERT_TRUE(orig.ok());

  ImdbOptions bs = base;
  bs.duplicate_entities = true;
  auto dup = GenerateImdb(bs);
  ASSERT_TRUE(dup.ok());
  size_t orig_persons = orig.value().db->GetTable("person").value()->num_rows();
  size_t dup_persons = dup.value().db->GetTable("person").value()->num_rows();
  EXPECT_EQ(dup_persons, 2 * orig_persons);

  size_t orig_cast = orig.value().db->GetTable("castinfo").value()->num_rows();
  size_t bs_cast = dup.value().db->GetTable("castinfo").value()->num_rows();
  EXPECT_EQ(bs_cast, 2 * orig_cast);

  ImdbOptions bd = base;
  bd.duplicate_entities = true;
  bd.dense_duplicates = true;
  auto dense = GenerateImdb(bd);
  ASSERT_TRUE(dense.ok());
  size_t bd_cast = dense.value().db->GetTable("castinfo").value()->num_rows();
  EXPECT_EQ(bd_cast, 4 * orig_cast);  // (P1,M1),(P2,M2),(P1,M2),(P2,M1)
  EXPECT_TRUE(dense.value().db->ValidateForeignKeys().ok());
}

// ---------- DBLP generator ----------

class DblpFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateDblp(SmallDblp());
    ASSERT_TRUE(data.ok());
    data_ = new DblpData(std::move(data).value());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static DblpData* data_;
};
DblpData* DblpFixture::data_ = nullptr;

TEST_F(DblpFixture, HasFourteenRelations) {
  EXPECT_EQ(data_->db->num_tables(), 14u);
  for (const char* name :
       {"author", "publication", "venue", "affiliation", "country", "area",
        "keyword", "series", "award", "writes", "pubtokeyword", "citation",
        "pc_member", "authoraward"}) {
    EXPECT_TRUE(data_->db->HasTable(name)) << name;
  }
}

TEST_F(DblpFixture, ForeignKeysAreValid) {
  EXPECT_TRUE(data_->db->ValidateForeignKeys().ok());
}

TEST_F(DblpFixture, GenerationIsThreadCountInvariant) {
  for (size_t threads : {1u, 8u}) {
    DblpOptions o = SmallDblp();
    o.threads = threads;
    auto other = GenerateDblp(o);
    ASSERT_TRUE(other.ok()) << "threads=" << threads;
    testing::ExpectDatabasesIdentical(*data_->db, *other.value().db);
  }
}

TEST_F(DblpFixture, ProlificAuthorsHaveFlagshipPublications) {
  ASSERT_FALSE(data_->manifest.prolific_authors.empty());
  auto q = ParseQuery(
      "SELECT a.name FROM author a, writes w, publication p, venue v WHERE "
      "w.author_id = a.id AND w.pub_id = p.id AND p.venue_id = v.id AND "
      "v.name = '" +
      data_->manifest.venue_sigmod + "' AND a.name = '" +
      data_->manifest.prolific_authors[0] +
      "' GROUP BY a.id HAVING count(*) >= 10");
  ASSERT_TRUE(q.ok());
  auto rs = ExecuteQuery(*data_->db, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().num_rows(), 1u);
}

TEST_F(DblpFixture, TrioPublishesTogether) {
  ASSERT_EQ(data_->manifest.trio.size(), 3u);
  std::string sql;
  for (size_t i = 0; i < 3; ++i) {
    if (i > 0) sql += " INTERSECT ";
    sql +=
        "SELECT DISTINCT p.title FROM publication p, writes w, author a WHERE "
        "w.pub_id = p.id AND w.author_id = a.id AND a.name = '" +
        data_->manifest.trio[i] + "'";
  }
  auto q = ParseQuery(sql);
  ASSERT_TRUE(q.ok());
  auto rs = ExecuteQuery(*data_->db, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_GE(rs.value().num_rows(), 15u);
}

// ---------- Small scales ----------

// Below the default scales the generators sit at their row-count floors.
// The planted structures still claim their rows from the back of the
// generated ones, so they must fit there (GenerateDblp once indexed past
// its publications at scale 0.1).
TEST(SmallScaleTest, ImdbGeneratesAtSmallScales) {
  for (double scale : {0.05, 0.1}) {
    ImdbOptions o;
    o.scale = scale;
    auto data = GenerateImdb(o);
    ASSERT_TRUE(data.ok()) << "scale=" << scale << " " << data.status().ToString();
    EXPECT_EQ(data.value().db->num_tables(), 15u);
    EXPECT_TRUE(data.value().db->ValidateForeignKeys().ok()) << "scale=" << scale;
    EXPECT_FALSE(data.value().manifest.costar_a.empty());
  }
}

TEST(SmallScaleTest, DblpGeneratesAtSmallScales) {
  for (double scale : {0.05, 0.1}) {
    DblpOptions o;
    o.scale = scale;
    auto data = GenerateDblp(o);
    ASSERT_TRUE(data.ok()) << "scale=" << scale << " " << data.status().ToString();
    const Database& db = *data.value().db;
    EXPECT_EQ(db.num_tables(), 14u);
    EXPECT_TRUE(db.ValidateForeignKeys().ok()) << "scale=" << scale;
    const DblpManifest& m = data.value().manifest;
    EXPECT_EQ(m.trio.size(), 3u);
    EXPECT_FALSE(m.prolific_authors.empty());
    // The planted cohort kept all of its flagship publications.
    auto q = ParseQuery(
        "SELECT a.name FROM author a, writes w, publication p, venue v WHERE "
        "w.author_id = a.id AND w.pub_id = p.id AND p.venue_id = v.id AND "
        "v.name = '" + m.venue_sigmod + "' AND a.name = '" +
        m.prolific_authors[0] + "' GROUP BY a.id HAVING count(*) >= 10");
    ASSERT_TRUE(q.ok());
    auto rs = ExecuteQuery(db, q.value());
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs.value().num_rows(), 1u) << "scale=" << scale;
  }
}

// ---------- Adult generator ----------

TEST(AdultGeneratorTest, SchemaAndMarginals) {
  AdultOptions options;
  options.num_rows = 2000;
  auto db = GenerateAdult(options);
  ASSERT_TRUE(db.ok());
  auto adult = db.value()->GetTable("adult");
  ASSERT_TRUE(adult.ok());
  EXPECT_EQ(adult.value()->num_rows(), 2000u);
  EXPECT_EQ(adult.value()->schema().num_attributes(), 16u);

  // Ages clamp to [17, 90].
  auto age = adult.value()->ColumnByName("age");
  ASSERT_TRUE(age.ok());
  for (size_t r = 0; r < adult.value()->num_rows(); ++r) {
    EXPECT_GE(age.value()->Int64At(r), 17);
    EXPECT_LE(age.value()->Int64At(r), 90);
  }

  // Most rows are US-native (the dominant marginal).
  auto country = adult.value()->ColumnByName("nativecountry");
  ASSERT_TRUE(country.ok());
  size_t us = 0;
  for (size_t r = 0; r < adult.value()->num_rows(); ++r) {
    if (country.value()->StringAt(r) == "United-States") ++us;
  }
  EXPECT_GT(us, adult.value()->num_rows() / 2);
}

TEST(AdultGeneratorTest, ScaleFactorReplicatesDistribution) {
  AdultOptions one;
  one.num_rows = 500;
  AdultOptions three = one;
  three.scale_factor = 3;
  auto a = GenerateAdult(one);
  auto b = GenerateAdult(three);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value()->GetTable("adult").value()->num_rows(),
            3 * a.value()->GetTable("adult").value()->num_rows());
  // Names stay unique across replicas.
  auto names = b.value()->GetTable("adult").value()->ColumnByName("name");
  ASSERT_TRUE(names.ok());
  std::unordered_set<std::string> unique;
  for (size_t r = 0; r < b.value()->GetTable("adult").value()->num_rows(); ++r) {
    unique.emplace(names.value()->StringAt(r));
  }
  EXPECT_EQ(unique.size(), 1500u);
}

// ---------- Cohort lists ----------

TEST(CohortTest, ListSamplesFromCohortWithNoise) {
  std::vector<std::string> cohort;
  std::vector<double> pop;
  for (int i = 0; i < 100; ++i) {
    cohort.push_back("member_" + std::to_string(i));
    pop.push_back(100.0 - i);
  }
  std::vector<std::string> universe = {"noise_a", "noise_b", "noise_c"};
  CohortListOptions options;
  options.list_size = 40;
  options.noise_fraction = 0.1;
  CohortList list = BuildCohortList(cohort, pop, universe, options);
  EXPECT_GE(list.names.size(), 40u);
  size_t in_cohort = 0;
  std::unordered_set<std::string> cohort_set(cohort.begin(), cohort.end());
  for (const auto& n : list.names) {
    if (cohort_set.count(n)) ++in_cohort;
  }
  EXPECT_GE(in_cohort, 40u * 9 / 10);
  // The mask covers the list.
  for (const auto& n : list.names) EXPECT_TRUE(list.popularity_mask.count(n)) << n;
}

TEST(CohortTest, PersonPopularityCountsCredits) {
  auto data = GenerateImdb(SmallImdb());
  ASSERT_TRUE(data.ok());
  std::vector<std::string> names;
  std::vector<double> scores;
  ASSERT_TRUE(PersonPopularity(*data.value().db, &names, &scores).ok());
  EXPECT_EQ(names.size(), scores.size());
  EXPECT_EQ(names.size(), data.value().db->GetTable("person").value()->num_rows());
  double total = 0;
  for (double s : scores) total += s;
  EXPECT_EQ(total, data.value().db->GetTable("castinfo").value()->num_rows());
}

}  // namespace
}  // namespace squid
