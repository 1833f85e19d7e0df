// Regenerates the Appendix F.4 comparison: answering "genre counts of
// person X" from the αDB's aggregated derived relation (persontogenre-style,
// entity-indexed) vs from a data-cube-style materialization of the raw
// (person, movie, genre) join, which must aggregate over the movie dimension
// at query time. Expected shape: the αDB is 1-2 orders of magnitude faster
// per lookup and several times smaller, because the cube keeps the
// non-meaningful person-to-movie dimension that the αDB aggregates out.

#include <map>
#include <numeric>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "storage/join_hash.h"

using namespace squid;
using namespace squid::bench;

namespace {

/// A column and a FlatJoinHash over all of its rows, probed by Value.
struct ColumnHash {
  const Column* column;
  FlatJoinHash hash;

  FlatJoinHash::RowSpan Lookup(const Value& v) const { return hash.Lookup(*column, v); }
};

ColumnHash HashColumn(const Table& table, const std::string& attr) {
  const Column* column = table.ColumnByName(attr).value();
  std::vector<uint32_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return ColumnHash{column, FlatJoinHash::Build(*column, rows)};
}

}  // namespace

int main(int argc, char** argv) {
  squid::bench::InitBenchIo(argc, argv, "bench_datacube");
  double scale = FlagOr(argc, argv, "scale", kImdbBenchScale);
  size_t lookups = static_cast<size_t>(FlagOr(argc, argv, "lookups", 2000));
  Banner("Appendix F.4", "aDB derived relation vs data-cube materialization");

  ImdbBench bench = BuildImdbBench(scale);
  const Database& adb_db = bench.adb->database();

  // The αDB side: the persontogenre-style derived relation + entity index.
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : bench.adb->schema_graph().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre" && d->hops.size() == 2) {
      ptg = d;
      break;
    }
  }
  SQUID_CHECK(ptg != nullptr);
  auto derived = adb_db.GetTable(ptg->derived_table);
  SQUID_CHECK(derived.ok());

  // The cube side: materialize (person_id, movie_id, genre_id) cells — the
  // full castinfo x movietogenre join — indexed by person.
  auto castinfo = adb_db.GetTable("castinfo");
  auto movietogenre = adb_db.GetTable("movietogenre");
  SQUID_CHECK(castinfo.ok() && movietogenre.ok());
  Schema cube_schema("cube", {{"person_id", ValueType::kInt64},
                              {"movie_id", ValueType::kInt64},
                              {"genre_id", ValueType::kInt64}});
  Table cube(cube_schema);
  {
    const ColumnHash mtg_index = HashColumn(*movietogenre.value(), "movie_id");
    const Column* person = castinfo.value()->ColumnByName("person_id").value();
    const Column* movie = castinfo.value()->ColumnByName("movie_id").value();
    const Column* genre = movietogenre.value()->ColumnByName("genre_id").value();
    for (size_t r = 0; r < castinfo.value()->num_rows(); ++r) {
      for (uint32_t lr : mtg_index.Lookup(movie->ValueAt(r))) {
        SQUID_CHECK(cube.AppendRow({person->ValueAt(r), movie->ValueAt(r),
                                    genre->ValueAt(lr)})
                        .ok());
      }
    }
  }
  const ColumnHash cube_index = HashColumn(cube, "person_id");
  const ColumnHash derived_index = HashColumn(*derived.value(), "entity_id");

  const Column* cube_genre = cube.ColumnByName("genre_id").value();
  const Column* derived_value = derived.value()->ColumnByName("value").value();
  const Column* derived_count = derived.value()->ColumnByName("count").value();

  auto persons = adb_db.GetTable("person");
  SQUID_CHECK(persons.ok());
  const Column* person_id = persons.value()->ColumnByName("id").value();
  Rng rng(5);

  // αDB lookups: read the (genre, count) rows of the entity.
  double adb_checksum = 0;
  Stopwatch adb_timer;
  for (size_t i = 0; i < lookups; ++i) {
    size_t r = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(persons.value()->num_rows()) - 1));
    for (uint32_t dr : derived_index.Lookup(person_id->ValueAt(r))) {
      adb_checksum += static_cast<double>(derived_count->Int64At(dr));
      (void)derived_value->ValueAt(dr);
    }
  }
  double adb_seconds = adb_timer.ElapsedSeconds();

  // Cube lookups: aggregate genre counts over the person's cube slice.
  Rng rng2(5);  // same person sequence
  double cube_checksum = 0;
  Stopwatch cube_timer;
  for (size_t i = 0; i < lookups; ++i) {
    size_t r = static_cast<size_t>(
        rng2.UniformInt(0, static_cast<int64_t>(persons.value()->num_rows()) - 1));
    std::map<int64_t, int64_t> counts;
    for (uint32_t cr : cube_index.Lookup(person_id->ValueAt(r))) {
      ++counts[cube_genre->Int64At(cr)];
    }
    for (const auto& [_, c] : counts) cube_checksum += static_cast<double>(c);
  }
  double cube_seconds = cube_timer.ElapsedSeconds();
  SQUID_CHECK(adb_checksum == cube_checksum) << adb_checksum << " vs " << cube_checksum;

  TablePrinter table({"store", "rows", "KB", "time for lookups (s)",
                      "us per lookup"});
  table.AddRow({"aDB derived relation", TablePrinter::Int(derived.value()->num_rows()),
                TablePrinter::Int(derived.value()->ApproxBytes() / 1024),
                TablePrinter::Num(adb_seconds, 4),
                TablePrinter::Num(1e6 * adb_seconds / lookups, 2)});
  table.AddRow({"data cube (raw cells)", TablePrinter::Int(cube.num_rows()),
                TablePrinter::Int(cube.ApproxBytes() / 1024),
                TablePrinter::Num(cube_seconds, 4),
                TablePrinter::Num(1e6 * cube_seconds / lookups, 2)});
  table.Print();
  std::printf("cube/aDB slowdown: %.1fx, size ratio: %.1fx\n",
              cube_seconds / std::max(1e-9, adb_seconds),
              static_cast<double>(cube.num_rows()) /
                  std::max<size_t>(1, derived.value()->num_rows()));
  return 0;
}
