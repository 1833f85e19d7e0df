#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <tuple>

#include "common/strings.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/inverted_index.h"
#include "storage/join_hash.h"
#include "tests/test_util.h"

namespace squid {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(static_cast<int64_t>(3)).type(), ValueType::kInt64);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(static_cast<int64_t>(3)).AsInt64(), 3);
  EXPECT_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("x").AsString(), "x");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(2)), Value(2.0));
  EXPECT_LT(Value(static_cast<int64_t>(2)).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(static_cast<int64_t>(3))), 0);
}

TEST(ValueTest, NumericCrossTypeHashAgreesWithEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(7)).Hash(), Value(7.0).Hash());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(static_cast<int64_t>(-100))), 0);
  EXPECT_LT(Value::Null().Compare(Value("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumbersSortBeforeStrings) {
  EXPECT_LT(Value(static_cast<int64_t>(999)).Compare(Value("a")), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(static_cast<int64_t>(42)).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, SqlLiteralQuotesAndEscapes) {
  EXPECT_EQ(Value("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value(static_cast<int64_t>(5)).ToSqlLiteral(), "5");
}

TEST(ValueTest, ToNumeric) {
  EXPECT_EQ(Value(static_cast<int64_t>(4)).ToNumeric().value(), 4.0);
  EXPECT_EQ(Value(4.5).ToNumeric().value(), 4.5);
  EXPECT_FALSE(Value("x").ToNumeric().ok());
  EXPECT_FALSE(Value::Null().ToNumeric().ok());
}

// ---------- Schema ----------

TEST(SchemaTest, AttributeLookup) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(*s.FindAttribute("b"), 1u);
  EXPECT_FALSE(s.FindAttribute("c").has_value());
  EXPECT_TRUE(s.AttributeIndex("a").ok());
  EXPECT_FALSE(s.AttributeIndex("z").ok());
}

TEST(SchemaTest, MetadataRoundTrip) {
  Schema s("t", {{"id", ValueType::kInt64}});
  s.set_primary_key("id");
  s.set_entity(true);
  s.AddPropertyAttribute("id");
  s.AddForeignKey({"id", "other", "id"});
  s.AddTextSearchAttribute("id");
  EXPECT_EQ(*s.primary_key(), "id");
  EXPECT_TRUE(s.is_entity());
  EXPECT_EQ(s.property_attributes().size(), 1u);
  EXPECT_EQ(s.foreign_keys().size(), 1u);
  EXPECT_EQ(s.text_search_attributes().size(), 1u);
}

// ---------- Table / Column ----------

TEST(TableTest, AppendAndReadBack) {
  Schema s("t", {{"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(1)), Value(2.5), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(t.ValueAt(0, 1).AsDouble(), 2.5);
  EXPECT_EQ(t.ValueAt(0, 2).AsString(), "x");
  EXPECT_TRUE(t.ValueAt(1, 0).is_null());
  EXPECT_TRUE(t.column(1).IsNull(1));
}

TEST(TableTest, IntWidensToDoubleColumn) {
  Schema s("t", {{"d", ValueType::kDouble}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(3))}).ok());
  EXPECT_EQ(t.ValueAt(0, 0).AsDouble(), 3.0);
}

TEST(TableTest, TypeMismatchRejected) {
  Schema s("t", {{"i", ValueType::kInt64}});
  Table t(s);
  EXPECT_FALSE(t.AppendRow({Value("nope")}).ok());
  EXPECT_FALSE(t.AppendRow({Value(1.5)}).ok());
}

TEST(TableTest, ArityMismatchRejected) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Table t(s);
  EXPECT_FALSE(t.AppendRow({Value(static_cast<int64_t>(1))}).ok());
}

TEST(TableTest, RowValuesMaterializesWholeRow) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(7)), Value("y")}).ok());
  auto row = t.RowValues(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 7);
  EXPECT_EQ(row[1].AsString(), "y");
}

TEST(TableTest, ColumnByNameErrors) {
  Schema s("t", {{"a", ValueType::kInt64}});
  Table t(s);
  EXPECT_TRUE(t.ColumnByName("a").ok());
  EXPECT_FALSE(t.ColumnByName("b").ok());
}

// ---------- Database ----------

TEST(DatabaseTest, AddGetDrop) {
  Database db("d");
  auto t = db.CreateTable(Schema("t", {{"a", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_FALSE(db.GetTable("u").ok());
  EXPECT_FALSE(db.CreateTable(Schema("t", {{"a", ValueType::kInt64}})).ok());
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.DropTable("t").ok());
}

TEST(DatabaseTest, SharedTablesAliasBetweenDatabases) {
  Database a("a");
  auto t = a.CreateTable(Schema("t", {{"x", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->AppendRow({Value(static_cast<int64_t>(1))}).ok());
  Database b("b");
  ASSERT_TRUE(b.AttachTable(a.GetShared("t").value()).ok());
  EXPECT_EQ(b.GetTable("t").value()->num_rows(), 1u);
  // Mutations through one handle are visible through the other.
  ASSERT_TRUE(t.value()->AppendRow({Value(static_cast<int64_t>(2))}).ok());
  EXPECT_EQ(b.GetTable("t").value()->num_rows(), 2u);
}

TEST(DatabaseTest, ForeignKeyValidationDetectsDangling) {
  auto db = testing::MakeAcademicsDb();
  EXPECT_TRUE(db->ValidateForeignKeys().ok());
  // Corrupt: a research row pointing at a missing academic.
  auto research = db->GetMutableTable("research");
  ASSERT_TRUE(research.ok());
  ASSERT_TRUE(research.value()
                  ->AppendRow({Value(static_cast<int64_t>(99)),
                               Value(static_cast<int64_t>(999)),
                               Value(static_cast<int64_t>(1))})
                  .ok());
  EXPECT_FALSE(db->ValidateForeignKeys().ok());
}

TEST(DatabaseTest, TotalsAndNames) {
  auto db = testing::MakeAcademicsDb();
  EXPECT_EQ(db->num_tables(), 3u);
  EXPECT_EQ(db->TableNames(),
            (std::vector<std::string>{"academics", "interest", "research"}));
  EXPECT_EQ(db->TotalRows(), 6u + 5u + 8u);
  EXPECT_GT(db->ApproxBytes(), 0u);
}

// ---------- Access paths ----------

TEST(PkIndexTest, ValueLookupsKeepNumericEquality) {
  auto db = testing::MakeMoviesDb();
  Table* movie = db->GetMutableTable("movie").value();
  EXPECT_EQ(movie->pk_index(), nullptr);
  EXPECT_EQ(movie->pk_column(), nullptr);
  ASSERT_TRUE(movie->BuildPkIndex().ok());
  const FlatJoinHash* pk = movie->pk_index();
  ASSERT_NE(pk, nullptr);
  const Column& id = *movie->pk_column();
  EXPECT_EQ(&id, movie->ColumnByName("id").value());
  EXPECT_EQ(pk->num_keys(), 6u);

  auto rows = pk->Lookup(id, Value(static_cast<int64_t>(12)));
  ASSERT_EQ(rows.size, 1u);
  EXPECT_EQ(rows.data[0], 2u);
  // 12.0 == 12 under Value equality; 12.5, strings and NULL match nothing.
  rows = pk->Lookup(id, Value(12.0));
  ASSERT_EQ(rows.size, 1u);
  EXPECT_EQ(rows.data[0], 2u);
  EXPECT_TRUE(pk->Lookup(id, Value(12.5)).empty());
  EXPECT_TRUE(pk->Lookup(id, Value("12")).empty());
  EXPECT_TRUE(pk->Lookup(id, Value::Null()).empty());
  EXPECT_TRUE(pk->Lookup(id, Value(static_cast<int64_t>(42))).empty());

  // Building again while current keeps the same index.
  ASSERT_TRUE(movie->BuildPkIndex().ok());
  EXPECT_EQ(movie->pk_index(), pk);
}

TEST(PkIndexTest, DoubleKeysAndDuplicateKeys) {
  Schema s("t", {{"k", ValueType::kDouble}, {"v", ValueType::kString}});
  s.set_primary_key("k");
  Table t(s);
  for (double k : {2.0, -0.0, 2.0, 3.5}) {
    ASSERT_TRUE(t.AppendRow({Value(k), Value("x")}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("x")}).ok());
  ASSERT_TRUE(t.BuildPkIndex().ok());
  const FlatJoinHash& pk = *t.pk_index();
  const Column& k = *t.pk_column();
  // A repeated key's rows form one ascending span; int64 2 finds them.
  auto rows = pk.Lookup(k, Value(static_cast<int64_t>(2)));
  ASSERT_EQ(rows.size, 2u);
  EXPECT_EQ(rows.data[0], 0u);
  EXPECT_EQ(rows.data[1], 2u);
  EXPECT_EQ(pk.Lookup(k, Value(0.0)).size, 1u);  // -0.0 == 0.0
  EXPECT_EQ(pk.Lookup(k, Value(3.5)).size, 1u);
  EXPECT_EQ(pk.num_rows(), 4u);  // the NULL key is not indexed
}

TEST(PkIndexTest, UnkeyedRelationAndStaleIndex) {
  Table unkeyed(Schema("u", {{"a", ValueType::kInt64}}));
  EXPECT_FALSE(unkeyed.BuildPkIndex().ok());
  EXPECT_EQ(unkeyed.pk_index(), nullptr);

  auto db = testing::MakeMoviesDb();
  Table* genre = db->GetMutableTable("genre").value();
  ASSERT_TRUE(genre->BuildPkIndex().ok());
  ASSERT_NE(genre->pk_index(), nullptr);
  // An appended row makes the index stale: it reads as absent until rebuilt,
  // and the rebuild covers the new row.
  ASSERT_TRUE(genre->AppendRow({Value(static_cast<int64_t>(99)), Value("Noir")}).ok());
  EXPECT_EQ(genre->pk_index(), nullptr);
  EXPECT_EQ(genre->pk_column(), nullptr);
  ASSERT_TRUE(genre->BuildPkIndex().ok());
  auto rows = genre->pk_index()->Lookup(*genre->pk_column(),
                                        Value(static_cast<int64_t>(99)));
  ASSERT_EQ(rows.size, 1u);
  EXPECT_EQ(rows.data[0], genre->num_rows() - 1);
}

TEST(ValueOrderTest, RunsInCompareRowsOrderNullsFirst) {
  Schema s("t", {{"value", ValueType::kString}, {"n", ValueType::kInt64}});
  Table t(s);
  const char* cells[] = {"pear", nullptr, "apple", "pear", "fig", nullptr, "apple", "pear"};
  for (const char* c : cells) {
    ASSERT_TRUE(t.AppendRow({c ? Value(c) : Value::Null(),
                             Value(static_cast<int64_t>(c ? 1 : 0))})
                    .ok());
  }
  const Column* value = t.ColumnByName("value").value();
  EXPECT_EQ(t.ValueOrderOf(value), nullptr);
  ASSERT_TRUE(t.BuildValueOrder("value").ok());
  const std::vector<uint32_t>* order = t.ValueOrderOf(value);
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(*order, (std::vector<uint32_t>{1, 5, 2, 6, 4, 0, 3, 7}));
  // Only the ordered column answers.
  EXPECT_EQ(t.ValueOrderOf(t.ColumnByName("n").value()), nullptr);
  for (size_t i = 1; i < order->size(); ++i) {
    const int c = value->CompareRows((*order)[i - 1], (*order)[i]);
    EXPECT_TRUE(c < 0 || (c == 0 && (*order)[i - 1] < (*order)[i])) << i;
  }
  // An appended row makes the order stale until it is rebuilt.
  ASSERT_TRUE(t.AppendRow({Value("banana"), Value(static_cast<int64_t>(1))}).ok());
  EXPECT_EQ(t.ValueOrderOf(value), nullptr);
  ASSERT_TRUE(t.BuildValueOrder("value").ok());
  EXPECT_EQ(*t.ValueOrderOf(value), (std::vector<uint32_t>{1, 5, 2, 6, 8, 4, 0, 3, 7}));
}

TEST(ValueOrderTest, Int64OrderAndUnorderedTypes) {
  Schema s("t", {{"i", ValueType::kInt64}, {"d", ValueType::kDouble}});
  Table t(s);
  for (int64_t v : {5, -3, 5, 0, -3, 7}) {
    ASSERT_TRUE(t.AppendRow({Value(v), Value(static_cast<double>(v))}).ok());
  }
  ASSERT_TRUE(t.BuildValueOrder("i").ok());
  EXPECT_EQ(*t.ValueOrderOf(t.ColumnByName("i").value()),
            (std::vector<uint32_t>{1, 4, 3, 0, 2, 5}));
  // A double column gets no order (and the earlier one is replaced).
  ASSERT_TRUE(t.BuildValueOrder("d").ok());
  EXPECT_EQ(t.ValueOrderOf(t.ColumnByName("d").value()), nullptr);
  EXPECT_EQ(t.ValueOrderOf(t.ColumnByName("i").value()), nullptr);
  EXPECT_FALSE(t.BuildValueOrder("missing").ok());
}

// ---------- Inverted index ----------

TEST(InvertedIndexTest, CaseInsensitiveLookup) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  auto postings = index.value().Lookup("dan susic");
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(index.value().RelationName(postings[0]), "academics");
  EXPECT_EQ(index.value().AttributeName(postings[0]), "name");
  EXPECT_EQ(index.value().Lookup("DAN SUSIC").size(), 1u);
  EXPECT_TRUE(index.value().Lookup("nobody").empty());
}

TEST(InvertedIndexTest, IndexesDeclaredTextAttributes) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  // interest.name is declared text-searchable.
  auto postings = index.value().Lookup("data management");
  ASSERT_FALSE(postings.empty());
  EXPECT_EQ(index.value().RelationName(postings[0]), "interest");
}

/// Naive reference: scans every indexed column for case-insensitive
/// matches of `text` and returns (relation, attribute, row) triples.
std::multiset<std::tuple<std::string, std::string, size_t>> NaiveScan(
    const Database& db, std::string_view text) {
  std::multiset<std::tuple<std::string, std::string, size_t>> out;
  std::string probe = ToLower(std::string(text));
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name).value();
    std::vector<std::string> attrs = table->schema().text_search_attributes();
    if (attrs.empty() && table->schema().is_entity()) {
      for (const auto& a : table->schema().attributes()) {
        if (a.type == ValueType::kString) attrs.push_back(a.name);
      }
    }
    for (const std::string& attr : attrs) {
      const Column* col = table->ColumnByName(attr).value();
      if (col->type() != ValueType::kString) continue;
      for (size_t r = 0; r < col->size(); ++r) {
        if (col->IsNull(r)) continue;
        if (ToLower(col->StringAt(r)) == probe) out.emplace(name, attr, r);
      }
    }
  }
  return out;
}

TEST(InvertedIndexTest, CsrLookupMatchesNaiveScan) {
  auto db = testing::MakeAcademicsDb();
  // Exercise the edge keys the CSR build must keep distinct: the empty
  // string, a key with non-ASCII bytes (folding must only touch A-Z), and a
  // duplicate value spanning two relations.
  Table* academics = db->GetMutableTable("academics").value();
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(100)), Value("")})
                  .ok());
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(101)),
                               Value("Jalape\xc3\xb1o Pepper")})
                  .ok());
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(102)),
                               Value("JALAPE\xc3\xb1O PEPPER")})
                  .ok());

  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());

  // Every value occurring in the data, plus mixed-case and missing probes.
  std::vector<std::string> probes;
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->GetTable(name).value();
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& col = table->column(c);
      if (col.type() != ValueType::kString) continue;
      for (size_t r = 0; r < col.size(); ++r) {
        if (!col.IsNull(r)) probes.emplace_back(col.StringAt(r));
      }
    }
  }
  probes.push_back("DAN susic");
  probes.push_back("jalape\xc3\xb1o pepper");
  probes.push_back("not in any table");
  probes.push_back("");

  size_t total_hits = 0;
  for (const std::string& probe : probes) {
    std::multiset<std::tuple<std::string, std::string, size_t>> got;
    for (const Posting& p : index.value().Lookup(probe)) {
      got.emplace(std::string(index.value().RelationName(p)),
                  std::string(index.value().AttributeName(p)), p.row);
    }
    EXPECT_EQ(got, NaiveScan(*db, probe)) << "probe '" << probe << "'";
    total_hits += got.size();
  }
  EXPECT_GT(total_hits, 0u);

  // The two Jalapeño spellings fold to one key (ASCII-only folding keeps
  // the UTF-8 bytes intact), so either spelling finds both rows.
  EXPECT_EQ(index.value().Lookup("jalape\xc3\xb1o PEPPER").size(), 2u);
  // A probe differing only in a non-ASCII byte is a different key.
  EXPECT_TRUE(index.value().Lookup("jalapeno pepper").empty());
}

TEST(InvertedIndexTest, PostingCountsSurviveCsrRebuild) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  // Postings across all keys must cover exactly the non-null cells of the
  // indexed columns.
  size_t cells = 0;
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->GetTable(name).value();
    std::vector<std::string> attrs = table->schema().text_search_attributes();
    if (attrs.empty() && table->schema().is_entity()) {
      for (const auto& a : table->schema().attributes()) {
        if (a.type == ValueType::kString) attrs.push_back(a.name);
      }
    }
    for (const std::string& attr : attrs) {
      const Column* col = table->ColumnByName(attr).value();
      for (size_t r = 0; r < col->size(); ++r) {
        if (!col->IsNull(r)) ++cells;
      }
    }
  }
  EXPECT_EQ(index.value().NumPostings(), cells);
  EXPECT_GT(index.value().NumKeys(), 0u);
  EXPECT_LE(index.value().NumKeys(), index.value().NumPostings());
}

// ---------- CSV ----------

TEST(CsvTest, ParseLineHandlesQuoting) {
  auto fields = ParseCsvLine("a,\"b,c\",\"d\"\"e\",");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"a", "b,c", "d\"e", ""}));
}

TEST(CsvTest, ParseLineRejectsMalformed) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(CsvTest, RoundTrip) {
  Schema s("t", {{"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value(static_cast<int64_t>(1)), Value(2.5), Value("a,b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value("q\"x")}).ok());

  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_test.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(loaded.value().ValueAt(0, 2).AsString(), "a,b");
  EXPECT_TRUE(loaded.value().ValueAt(1, 0).is_null());
  EXPECT_EQ(loaded.value().ValueAt(1, 2).AsString(), "q\"x");
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedSeparatorsCrlfAndEmptyTrailingFields) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_edge.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // CRLF line endings throughout; quoted separators and doubled quotes;
    // an empty trailing field (NULL) on the last row.
    fputs("name,note\r\n", f);
    fputs("\"Doe, Jane\",\"said \"\"hi\"\"\"\r\n", f);
    fputs("plain,\r\n", f);
    fclose(f);
  }
  Schema s("t", {{"name", ValueType::kString}, {"note", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsString(), "Doe, Jane");
  EXPECT_EQ(loaded.value().ValueAt(0, 1).AsString(), "said \"hi\"");
  EXPECT_EQ(loaded.value().ValueAt(1, 0).AsString(), "plain");
  EXPECT_TRUE(loaded.value().ValueAt(1, 1).is_null());
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedEmbeddedNewlinesSpanPhysicalLines) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_nl.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // One logical record per quoted field spanning two physical lines; the
    // second uses CRLF, whose embedded \r\n normalizes to \n on read.
    fputs("id,text\n", f);
    fputs("1,\"line one\nline two\"\n", f);
    fputs("2,\"a\r\nb\"\r\n", f);
    fclose(f);
  }
  Schema s("t", {{"id", ValueType::kInt64}, {"text", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 1).AsString(), "line one\nline two");
  EXPECT_EQ(loaded.value().ValueAt(1, 1).AsString(), "a\nb");
  std::remove(path.c_str());
}

TEST(CsvTest, EmbeddedNewlineValuesRoundTripThroughWrite) {
  Schema s("t", {{"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("two\nlines")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("cr\rhere")}).ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_nl_rt.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsString(), "two\nlines");
  // A bare \r inside a quoted field only survives when it is not part of a
  // \r\n pair; WriteCsv quotes it, ReadCsv keeps it.
  EXPECT_EQ(loaded.value().ValueAt(1, 0).AsString(), "cr\rhere");
  std::remove(path.c_str());
}

TEST(CsvTest, UnterminatedQuoteAtEofIsCorruption) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_eof.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("s\n\"never closed\n", f);
    fclose(f);
  }
  Schema s("t", {{"s", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadFromStringMatchesFileReadAndNamesSource) {
  Schema s("t", {{"i", ValueType::kInt64}, {"s", ValueType::kString}});
  const std::string data = "i,s\n1,\"a,b\"\n2,plain\n";
  auto from_string = ReadCsvFromString(s, data, "inline-blob");
  ASSERT_TRUE(from_string.ok()) << from_string.status().ToString();
  EXPECT_EQ(from_string.value().num_rows(), 2u);
  EXPECT_EQ(from_string.value().ValueAt(0, 1).AsString(), "a,b");

  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_str.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(data.c_str(), f);
    fclose(f);
  }
  auto from_file = ReadCsv(s, path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_EQ(from_file.value().num_rows(), from_string.value().num_rows());
  for (size_t r = 0; r < from_file.value().num_rows(); ++r) {
    for (size_t c = 0; c < s.num_attributes(); ++c) {
      EXPECT_TRUE(from_file.value().ValueAt(r, c) ==
                  from_string.value().ValueAt(r, c));
    }
  }
  std::remove(path.c_str());

  // Errors cite the caller-supplied source label, not a file path.
  auto bad = ReadCsvFromString(s, "i,s\nnope,x\n", "inline-blob");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("inline-blob"), std::string::npos);
}

TEST(CsvTest, ReadRejectsBadNumbers) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_bad.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("i\nnot_a_number\n", f);
    fclose(f);
  }
  Schema s("t", {{"i", ValueType::kInt64}});
  EXPECT_FALSE(ReadCsv(s, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace squid
