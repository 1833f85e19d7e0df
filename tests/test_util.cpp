#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace squid {
namespace testing {

namespace {

void Must(const Status& s) { SQUID_CHECK(s.ok()) << s.ToString(); }

Value I(int64_t v) { return Value(v); }
Value S(const char* v) { return Value(v); }

}  // namespace

std::unique_ptr<Database> MakeAcademicsDb() {
  auto db = std::make_unique<Database>("cs_academics");

  {
    Schema s("academics", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddTextSearchAttribute("name");
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    // The six researchers of Figure 1 (names lightly fictionalized).
    Must(t.value()->AppendRow({I(100), S("Tom Corwin")}));
    Must(t.value()->AppendRow({I(101), S("Dan Susic")}));
    Must(t.value()->AppendRow({I(102), S("Jia Hansen")}));
    Must(t.value()->AppendRow({I(103), S("Sam Madsen")}));
    Must(t.value()->AppendRow({I(104), S("Jim Kuros")}));
    Must(t.value()->AppendRow({I(105), S("Joe Hellman")}));
  }
  {
    Schema s("interest", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    s.AddTextSearchAttribute("name");
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    Must(t.value()->AppendRow({I(1), S("algorithms")}));
    Must(t.value()->AppendRow({I(2), S("data management")}));
    Must(t.value()->AppendRow({I(3), S("data mining")}));
    Must(t.value()->AppendRow({I(4), S("distributed systems")}));
    Must(t.value()->AppendRow({I(5), S("computer networks")}));
  }
  {
    Schema s("research", {{"id", ValueType::kInt64},
                          {"aid", ValueType::kInt64},
                          {"interest_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"aid", "academics", "id"});
    s.AddForeignKey({"interest_id", "interest", "id"});
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    int64_t id = 1;
    auto link = [&](int64_t aid, int64_t interest) {
      Must(t.value()->AppendRow({I(id++), I(aid), I(interest)}));
    };
    link(100, 1);  // algorithms
    link(101, 2);  // data management
    link(102, 3);  // data mining
    link(103, 2);  // data management
    link(103, 4);  // distributed systems
    link(104, 5);  // computer networks
    link(105, 2);  // data management
    link(105, 4);  // distributed systems
  }
  return db;
}

std::unique_ptr<Database> MakeMoviesDb() {
  auto db = std::make_unique<Database>("movies_excerpt");

  {
    Schema s("person", {{"id", ValueType::kInt64},
                        {"name", ValueType::kString},
                        {"gender", ValueType::kString},
                        {"age", ValueType::kInt64}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("gender");
    s.AddPropertyAttribute("age");
    s.AddTextSearchAttribute("name");
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    // Figure 5 / Figure 6 style excerpt (fictionalized names).
    Must(t.value()->AppendRow({I(1), S("Jim Carris"), S("Male"), I(60)}));
    Must(t.value()->AppendRow({I(2), S("Ewan McGregg"), S("Male"), I(52)}));
    Must(t.value()->AppendRow({I(3), S("Laura Holt"), S("Female"), I(58)}));
    Must(t.value()->AppendRow({I(4), S("Toni Cruse"), S("Male"), I(50)}));
    Must(t.value()->AppendRow({I(5), S("Clint East"), S("Male"), I(90)}));
    Must(t.value()->AppendRow({I(6), S("Emma Stone"), S("Female"), I(29)}));
  }
  {
    Schema s("movie", {{"id", ValueType::kInt64},
                       {"title", ValueType::kString},
                       {"year", ValueType::kInt64}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("year");
    s.AddTextSearchAttribute("title");
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    Must(t.value()->AppendRow({I(10), S("Mighty Bruce"), I(2003)}));
    Must(t.value()->AppendRow({I(11), S("Dumb Duo"), I(1994)}));
    Must(t.value()->AppendRow({I(12), S("Phillip's Letters"), I(2009)}));
    Must(t.value()->AppendRow({I(13), S("Moulin Red"), I(2001)}));
    Must(t.value()->AppendRow({I(14), S("Trainspotters"), I(1996)}));
    Must(t.value()->AppendRow({I(15), S("Dumber Duo"), I(2014)}));
  }
  {
    Schema s("genre", {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    s.AddTextSearchAttribute("name");
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    Must(t.value()->AppendRow({I(1), S("Comedy")}));
    Must(t.value()->AppendRow({I(2), S("Fantasy")}));
    Must(t.value()->AppendRow({I(3), S("Drama")}));
  }
  {
    Schema s("movietogenre", {{"id", ValueType::kInt64},
                              {"movie_id", ValueType::kInt64},
                              {"genre_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"movie_id", "movie", "id"});
    s.AddForeignKey({"genre_id", "genre", "id"});
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    int64_t id = 1;
    auto link = [&](int64_t movie, int64_t genre) {
      Must(t.value()->AppendRow({I(id++), I(movie), I(genre)}));
    };
    link(10, 1);  // Mighty Bruce: Comedy, Fantasy
    link(10, 2);
    link(11, 1);  // Dumb Duo: Comedy
    link(12, 1);  // Phillip's Letters: Comedy, Drama
    link(12, 3);
    link(13, 3);  // Moulin Red: Drama
    link(14, 3);  // Trainspotters: Drama
    link(15, 1);  // Dumber Duo: Comedy
  }
  {
    Schema s("castinfo", {{"id", ValueType::kInt64},
                          {"person_id", ValueType::kInt64},
                          {"movie_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"person_id", "person", "id"});
    s.AddForeignKey({"movie_id", "movie", "id"});
    auto t = db->CreateTable(std::move(s));
    Must(t.status());
    int64_t id = 1;
    auto link = [&](int64_t person, int64_t movie) {
      Must(t.value()->AppendRow({I(id++), I(person), I(movie)}));
    };
    // Jim Carris: 3 comedies (10, 11, 12) + 1 drama-ish (12 double counted
    // via genres) — mirrors the persontogenre counts in Fig. 5.
    link(1, 10);
    link(1, 11);
    link(1, 12);
    // Ewan McGregg: comedies 10, 12; drama 13, 14.
    link(2, 10);
    link(2, 12);
    link(2, 13);
    link(2, 14);
    // Laura Holt: comedy 11.
    link(3, 11);
    // Toni Cruse: 13.
    link(4, 13);
    // Clint East: 14.
    link(5, 14);
    // Emma Stone: 15.
    link(6, 15);
  }
  return db;
}

std::vector<std::string> NamesOf(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const Value& v : rs.ColumnValues(0)) {
    if (!v.is_null()) out.push_back(v.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// A cell's key; `raw_doubles` keeps a double's own bits (so -0.0 is not 0.0).
CellKey KeyOf(const Value& v, bool raw_doubles) {
  const int type = static_cast<int>(v.type());
  switch (v.type()) {
    case ValueType::kInt64:
      return {type, static_cast<uint64_t>(v.AsInt64()), ""};
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return {type, raw_doubles ? bits : PackedDoubleBits(d), ""};
    }
    case ValueType::kString:
      return {type, 0, v.AsString()};
    case ValueType::kNull:
      break;
  }
  return {type, 0, ""};
}

std::vector<CellKey> KeysOf(const std::vector<Value>& row, bool raw_doubles) {
  std::vector<CellKey> key;
  key.reserve(row.size());
  for (const Value& v : row) key.push_back(KeyOf(v, raw_doubles));
  return key;
}

}  // namespace

CellKey CellKeyOf(const Value& v) { return KeyOf(v, /*raw_doubles=*/false); }

std::vector<CellKey> RowKeyOf(const std::vector<Value>& row) {
  return KeysOf(row, /*raw_doubles=*/false);
}

std::vector<CellKey> ExactRowOf(const std::vector<Value>& row) {
  return KeysOf(row, /*raw_doubles=*/true);
}

std::set<std::string> NameSet(const ResultSet& rs) {
  std::set<std::string> out;
  for (const Value& v : rs.ColumnValues(0)) {
    if (!v.is_null()) out.insert(v.ToString());
  }
  return out;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_columns(), b.num_columns()) << a.name();
  ASSERT_EQ(a.num_rows(), b.num_rows()) << a.name();
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const std::string& attr = a.schema().attributes()[c].name;
    EXPECT_EQ(attr, b.schema().attributes()[c].name) << a.name();
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type()) << a.name() << "." << attr;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r))
          << a.name() << "." << attr << " row " << r;
      if (ca.IsNull(r)) continue;
      ASSERT_TRUE(ca.ValueAt(r) == cb.ValueAt(r))
          << a.name() << "." << attr << " row " << r << ": "
          << ca.ValueAt(r).ToString() << " vs " << cb.ValueAt(r).ToString();
      if (ca.type() == ValueType::kString) {
        ASSERT_EQ(ca.SymbolAt(r), cb.SymbolAt(r))
            << a.name() << "." << attr << " row " << r
            << ": symbol assignment diverged for '" << ca.StringAt(r) << "'";
      }
    }
  }
}

void ExpectDatabasesIdentical(const Database& a, const Database& b) {
  ASSERT_EQ(a.TableNames(), b.TableNames());
  for (const std::string& name : a.TableNames()) {
    auto ta = a.GetTable(name);
    auto tb = b.GetTable(name);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ExpectTablesIdentical(*ta.value(), *tb.value());
  }
}

}  // namespace testing
}  // namespace squid
