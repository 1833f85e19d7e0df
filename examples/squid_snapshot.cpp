/// \file squid_snapshot.cpp
/// \brief αDB snapshot tool: build a snapshot from a generated dataset,
/// verify an existing snapshot (full load + deterministic re-serialize +
/// byte-compare), or describe one from its manifest.
///
///   squid_snapshot build  --dataset=imdb|dblp --scale=0.2 --threads=0 --file=adb.sqsnap
///   squid_snapshot verify --file=adb.sqsnap
///   squid_snapshot info   --file=adb.sqsnap
///
/// `verify` exercises the same trust-boundary path a serving boot uses: the
/// file is validated (checksums, extent tiling), fully materialized, then
/// re-serialized; because snapshot bytes are a pure function of the logical
/// αDB, the re-serialization must equal the input byte for byte.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "adb/adb_snapshot.h"
#include "common/stopwatch.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"

namespace {

std::string FlagOr(int argc, char** argv, const char* name,
                   const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  squid_snapshot build  --dataset=imdb|dblp [--scale=0.2] "
      "[--threads=0] --file=PATH\n"
      "  squid_snapshot verify --file=PATH\n"
      "  squid_snapshot info   --file=PATH\n");
  return 2;
}

squid::Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return squid::Status::IoError("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return squid::Status::IoError("cannot read " + path);
  }
  return bytes;
}

int RunBuild(int argc, char** argv) {
  std::string dataset = FlagOr(argc, argv, "dataset", "imdb");
  std::string file = FlagOr(argc, argv, "file", "");
  double scale = std::atof(FlagOr(argc, argv, "scale", "0.2").c_str());
  size_t threads =
      static_cast<size_t>(std::atoi(FlagOr(argc, argv, "threads", "0").c_str()));
  if (file.empty()) return Usage();

  std::unique_ptr<squid::Database> db;
  if (dataset == "imdb") {
    squid::ImdbOptions options;
    options.scale = scale;
    auto data = squid::GenerateImdb(options);
    if (!data.ok()) {
      std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
      return 1;
    }
    db = std::move(data.value().db);
  } else if (dataset == "dblp") {
    squid::DblpOptions options;
    options.scale = scale;
    auto data = squid::GenerateDblp(options);
    if (!data.ok()) {
      std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
      return 1;
    }
    db = std::move(data.value().db);
  } else {
    return Usage();
  }

  squid::AdbOptions adb_options;
  adb_options.threads = threads;
  squid::Stopwatch build_watch;
  auto adb = squid::AbductionReadyDb::Build(*db, adb_options);
  if (!adb.ok()) {
    std::fprintf(stderr, "build: %s\n", adb.status().ToString().c_str());
    return 1;
  }
  double build_seconds = build_watch.ElapsedSeconds();

  squid::Stopwatch save_watch;
  squid::Status save = adb.value()->SaveSnapshot(file);
  if (!save.ok()) {
    std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
    return 1;
  }
  auto bytes = ReadFileBytes(file);
  std::printf("built %s (scale %.3g) in %.2fs; snapshot %s (%.2f MiB) in %.2fs\n",
              dataset.c_str(), scale, build_seconds, file.c_str(),
              bytes.ok() ? bytes.value().size() / (1024.0 * 1024.0) : 0.0,
              save_watch.ElapsedSeconds());
  const squid::AdbReport& report = adb.value()->report();
  std::printf("build stages: schema_graph %.3fs, pk_index %.3fs, adjacency %.3fs, "
              "descriptors %.3fs, inverted_index %.3fs\n",
              report.schema_graph_s, report.pk_index_s, report.adjacency_s,
              report.descriptors_s, report.inverted_index_s);
  return 0;
}

int RunVerify(int argc, char** argv) {
  std::string file = FlagOr(argc, argv, "file", "");
  if (file.empty()) return Usage();

  squid::Stopwatch load_watch;
  auto adb = squid::AbductionReadyDb::LoadSnapshot(file);
  if (!adb.ok()) {
    std::fprintf(stderr, "load: %s\n", adb.status().ToString().c_str());
    return 1;
  }
  double load_seconds = load_watch.ElapsedSeconds();

  // Deterministic-bytes contract: re-serializing the loaded αDB must
  // reproduce the input file exactly.
  std::string copy = file + ".verify.tmp";
  squid::Status save = adb.value()->SaveSnapshot(copy);
  if (!save.ok()) {
    std::fprintf(stderr, "re-save: %s\n", save.ToString().c_str());
    return 1;
  }
  auto original = ReadFileBytes(file);
  auto resaved = ReadFileBytes(copy);
  std::remove(copy.c_str());
  if (!original.ok() || !resaved.ok()) {
    std::fprintf(stderr, "verify: cannot re-read files for comparison\n");
    return 1;
  }
  if (original.value() != resaved.value()) {
    std::fprintf(stderr,
                 "verify FAILED: re-serialization differs from input "
                 "(%zu vs %zu bytes)\n",
                 original.value().size(), resaved.value().size());
    return 1;
  }

  const squid::Database& db = adb.value()->database();
  const squid::AdbReport& report = adb.value()->report();
  std::printf(
      "verify OK: %s loads in %.2fs and round-trips bit-identically "
      "(%zu tables, %zu bytes)\n",
      file.c_str(), load_seconds, db.TableNames().size(),
      original.value().size());
  std::printf(
      "  resident: %.1f MiB base + %.1f MiB derived + %.1f MiB inverted "
      "index (arena accounting)\n",
      report.base_bytes / (1024.0 * 1024.0),
      report.derived_bytes / (1024.0 * 1024.0),
      report.index_bytes / (1024.0 * 1024.0));
  // Feed a registry and expose it: verify is the CLI smoke path for the
  // Prometheus-style exposition (obs/metrics.h).
  squid::obs::MetricsRegistry metrics;
  metrics.GetCounter("squid_snapshot_verify_ok")->Add();
  metrics.GetHistogram("squid_snapshot_load_ns")
      ->Record(static_cast<uint64_t>(load_seconds * 1e9));
  std::printf("--- metrics ---\n%s", metrics.DumpText().c_str());
  return 0;
}

int RunInfo(int argc, char** argv) {
  std::string file = FlagOr(argc, argv, "file", "");
  if (file.empty()) return Usage();

  auto info = squid::ReadAdbSnapshotInfo(file);
  if (!info.ok()) {
    std::fprintf(stderr, "info: %s\n", info.status().ToString().c_str());
    return 1;
  }
  const squid::AdbSnapshotInfo& i = info.value();
  std::printf("snapshot %s\n", file.c_str());
  std::printf("  format version : %u\n", i.format_version);
  std::printf("  file bytes     : %llu\n",
              static_cast<unsigned long long>(i.file_bytes));
  std::printf("  extents        : %zu\n", i.num_extents);
  std::printf("  database       : %s\n", i.database_name.c_str());
  std::printf("  pool entries   : %llu (id bound %llu)\n",
              static_cast<unsigned long long>(i.pool_entries),
              static_cast<unsigned long long>(i.pool_id_bound));
  std::printf("  descriptors    : %zu (%zu derived relations, %zu derived rows)\n",
              i.report.num_descriptors, i.report.num_derived_relations,
              i.report.derived_rows);
  std::printf("  tables         : %zu\n", i.tables.size());
  for (const auto& t : i.tables) {
    std::printf("    %-40s %8llu rows%s\n", t.name.c_str(),
                static_cast<unsigned long long>(t.rows),
                t.derived ? "  (derived)" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  if (mode == "build") return RunBuild(argc, argv);
  if (mode == "verify") return RunVerify(argc, argv);
  if (mode == "info") return RunInfo(argc, argv);
  return Usage();
}
