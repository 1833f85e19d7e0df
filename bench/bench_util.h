#ifndef SQUID_BENCH_BENCH_UTIL_H_
#define SQUID_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// \brief Shared setup for the figure-regenerating bench binaries: dataset
/// construction at bench scales, αDB building, and tiny flag parsing.
///
/// Every binary prints the rows/series of the paper artifact it regenerates.
/// Absolute numbers differ from the paper (synthetic data, different
/// hardware); the SHAPE of each trend is the reproduction target — see
/// docs/EXPERIMENTS.md and the bench-to-figure table in README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "adb/abduction_ready_db.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "datagen/adult_generator.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/sampler.h"
#include "eval/table_printer.h"
#include "workloads/adult_queries.h"
#include "workloads/benchmark_query.h"
#include "workloads/case_studies.h"
#include "workloads/dblp_queries.h"
#include "workloads/imdb_queries.h"

namespace squid {
namespace bench {

/// Simple flag lookup: --name=value.
inline double FlagOr(int argc, char** argv, const char* name, double fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Integer flag lookup: --name=value.
inline size_t SizeFlagOr(int argc, char** argv, const char* name, size_t fallback) {
  return static_cast<size_t>(
      FlagOr(argc, argv, name, static_cast<double>(fallback)));
}

/// String-valued flag lookup: --name=value ("" when absent).
inline std::string StringFlagOr(int argc, char** argv, const char* name,
                                const char* fallback = "") {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Shared bench I/O setup: parses `--json=<path>` and, when present,
/// enables the process-wide JSON sink so every table the bench prints is
/// also written to <path> as machine-readable JSON at exit. Call first in
/// every bench main. scripts/run_benches.sh passes --json for each bench
/// and collects the files under bench/out/.
inline void InitBenchIo(int argc, char** argv, const char* bench_name) {
  std::string json_path = StringFlagOr(argc, argv, "json");
  if (!json_path.empty()) BenchJsonSink::Enable(json_path, bench_name);
}

/// Bench-default dataset scales (kept modest so the full harness finishes in
/// minutes on one core; raise with --scale=... for larger runs).
constexpr double kImdbBenchScale = 0.25;
constexpr double kDblpBenchScale = 0.3;
constexpr size_t kAdultBenchRows = 6000;

struct ImdbBench {
  ImdbData data;
  std::unique_ptr<AbductionReadyDb> adb;
  std::vector<BenchmarkQuery> queries;
};

inline ImdbBench BuildImdbBench(double scale = kImdbBenchScale) {
  ImdbOptions options;
  options.scale = scale;
  auto data = GenerateImdb(options);
  SQUID_CHECK(data.ok()) << data.status().ToString();
  ImdbBench bench{std::move(data).value(), nullptr, {}};
  auto adb = AbductionReadyDb::Build(*bench.data.db);
  SQUID_CHECK(adb.ok()) << adb.status().ToString();
  bench.adb = std::move(adb).value();
  bench.queries = ImdbBenchmarkQueries(bench.data.manifest);
  return bench;
}

struct DblpBench {
  DblpData data;
  std::unique_ptr<AbductionReadyDb> adb;
  std::vector<BenchmarkQuery> queries;
};

inline DblpBench BuildDblpBench(double scale = kDblpBenchScale) {
  DblpOptions options;
  options.scale = scale;
  auto data = GenerateDblp(options);
  SQUID_CHECK(data.ok()) << data.status().ToString();
  DblpBench bench{std::move(data).value(), nullptr, {}};
  auto adb = AbductionReadyDb::Build(*bench.data.db);
  SQUID_CHECK(adb.ok()) << adb.status().ToString();
  bench.adb = std::move(adb).value();
  bench.queries = DblpBenchmarkQueries(bench.data.manifest);
  return bench;
}

struct AdultBench {
  std::unique_ptr<Database> db;
  std::unique_ptr<AbductionReadyDb> adb;
  std::vector<BenchmarkQuery> queries;
};

inline AdultBench BuildAdultBench(size_t rows = kAdultBenchRows,
                                  size_t scale_factor = 1) {
  AdultOptions options;
  options.num_rows = rows;
  options.scale_factor = scale_factor;
  auto db = GenerateAdult(options);
  SQUID_CHECK(db.ok()) << db.status().ToString();
  AdultBench bench{std::move(db).value(), nullptr, {}};
  auto adb = AbductionReadyDb::Build(*bench.db);
  SQUID_CHECK(adb.ok()) << adb.status().ToString();
  bench.adb = std::move(adb).value();
  auto queries = AdultBenchmarkQueries(*bench.db);
  SQUID_CHECK(queries.ok()) << queries.status().ToString();
  bench.queries = std::move(queries).value();
  return bench;
}

/// Intended output of `query` as entity primary keys (for the closed-world
/// QRE baselines).
inline std::vector<Value> GroundTruthKeys(const Database& db,
                                          const BenchmarkQuery& query) {
  Query keys_query = query.query;
  for (auto& branch : keys_query.branches) {
    // Project the entity key instead of the display attribute.
    auto table = db.GetTable(query.entity_relation);
    SQUID_CHECK(table.ok());
    const auto& pk = table.value()->schema().primary_key();
    SQUID_CHECK(pk.has_value());
    // The entity alias is the alias whose table is the entity relation.
    std::string alias;
    for (const auto& ref : branch.from) {
      if (ref.table_name == query.entity_relation) {
        alias = ref.alias;
        break;
      }
    }
    SQUID_CHECK(!alias.empty());
    branch.select_list = {SelectItem{{alias, *pk}}};
  }
  keys_query.branches[0].distinct = true;
  auto rs = ExecuteQuery(db, keys_query);
  SQUID_CHECK(rs.ok()) << rs.status().ToString();
  std::vector<Value> keys;
  for (const Value& v : rs.value().ColumnValues(0)) keys.push_back(v);
  return keys;
}

/// Banner printed by each bench; also labels subsequent JSON tables.
inline void Banner(const char* figure, const char* what) {
  std::printf("=== %s: %s ===\n", figure, what);
  BenchJsonSink::SetSection(std::string(figure) + ": " + what);
}

}  // namespace bench
}  // namespace squid

#endif  // SQUID_BENCH_BENCH_UTIL_H_
