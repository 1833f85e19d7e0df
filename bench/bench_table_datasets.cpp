// Regenerates the dataset-description tables (Figs. 17/18) and the
// benchmark-query tables (Figs. 19/20/22): relation counts, row counts,
// aDB precomputation size/time, and per-query join / selection counts with
// result cardinalities on the generated data. Also reports serial-vs-
// parallel αDB build time per dataset (--threads=, 0 = hardware) for the
// JSON sink / trend checker.

#include "bench/bench_util.h"
#include "common/thread_pool.h"

using namespace squid;
using namespace squid::bench;

namespace {

void QueryTable(const char* label, const Database& db,
                const std::vector<BenchmarkQuery>& queries) {
  std::printf("\n-- %s benchmark queries --\n", label);
  TablePrinter table({"id", "J", "S", "#result", "description"});
  for (const auto& q : queries) {
    auto truth = GroundTruth(db, q);
    size_t card = truth.ok() ? truth.value().num_rows() : 0;
    table.AddRow({q.id, TablePrinter::Int(q.num_joins),
                  TablePrinter::Int(q.num_selections), TablePrinter::Int(card),
                  q.description});
  }
  table.Print();
}

void DatasetRow(TablePrinter* table, const char* name, const Database& db,
                const AdbReport& report) {
  table->AddRow({name, TablePrinter::Int(db.num_tables()),
                 TablePrinter::Int(db.TotalRows()),
                 TablePrinter::Int(db.ApproxBytes() / 1024),
                 TablePrinter::Int(report.num_derived_relations),
                 TablePrinter::Int(report.derived_rows),
                 TablePrinter::Int(report.derived_bytes / 1024),
                 TablePrinter::Num(report.build_seconds, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  squid::bench::InitBenchIo(argc, argv, "bench_table_datasets");
  double scale = FlagOr(argc, argv, "scale", kImdbBenchScale);
  size_t threads = SizeFlagOr(argc, argv, "threads", 0);
  Banner("Figures 17/18", "datasets and aDB precomputation");

  ImdbBench imdb = BuildImdbBench(scale);
  DblpBench dblp = BuildDblpBench();
  AdultBench adult = BuildAdultBench();

  TablePrinter datasets({"dataset", "#relations", "rows", "KB", "#derived",
                         "derived rows", "derived KB", "precompute (s)"});
  DatasetRow(&datasets, "IMDb", *imdb.data.db, imdb.adb->report());
  DatasetRow(&datasets, "DBLP", *dblp.data.db, dblp.adb->report());
  DatasetRow(&datasets, "Adult", *adult.db, adult.adb->report());
  datasets.Print();

  Banner("aDB build stages", "seconds per offline stage (default threads)");
  {
    TablePrinter stages({"dataset", "schema graph (s)", "pk index (s)",
                         "adjacency (s)", "descriptors (s)", "inverted index (s)"});
    auto add_row = [&](const char* name, const AdbReport& report) {
      stages.AddRow({name, TablePrinter::Num(report.schema_graph_s, 3),
                     TablePrinter::Num(report.pk_index_s, 3),
                     TablePrinter::Num(report.adjacency_s, 3),
                     TablePrinter::Num(report.descriptors_s, 3),
                     TablePrinter::Num(report.inverted_index_s, 3)});
    };
    add_row("IMDb", imdb.adb->report());
    add_row("DBLP", dblp.adb->report());
    add_row("Adult", adult.adb->report());
    stages.Print();
  }

  Banner("aDB build speedup", "serial vs parallel precomputation");
  {
    const size_t resolved = ThreadPool::ResolveThreads(threads);
    TablePrinter speedups(
        {"dataset", "threads", "serial (s)", "parallel (s)", "speedup"});
    auto add_row = [&](const char* name, const Database& db) {
      AdbOptions serial_options;
      serial_options.threads = 1;
      auto serial = AbductionReadyDb::Build(db, serial_options);
      SQUID_CHECK(serial.ok());
      AdbOptions parallel_options;
      parallel_options.threads = threads;
      auto parallel = AbductionReadyDb::Build(db, parallel_options);
      SQUID_CHECK(parallel.ok());
      double serial_s = serial.value()->report().build_seconds;
      double parallel_s = parallel.value()->report().build_seconds;
      speedups.AddRow({name, TablePrinter::Int(resolved),
                       TablePrinter::Num(serial_s, 3),
                       TablePrinter::Num(parallel_s, 3),
                       TablePrinter::Num(
                           parallel_s > 0 ? serial_s / parallel_s : 0, 2)});
    };
    add_row("IMDb", *imdb.data.db);
    add_row("DBLP", *dblp.data.db);
    add_row("Adult", *adult.db);
    speedups.Print();
  }

  QueryTable("IMDb (Fig. 19)", *imdb.data.db, imdb.queries);
  QueryTable("DBLP (Fig. 20)", *dblp.data.db, dblp.queries);
  QueryTable("Adult (Fig. 22)", *adult.db, adult.queries);
  return 0;
}
