#ifndef SQUID_ADB_ABDUCTION_READY_DB_H_
#define SQUID_ADB_ABDUCTION_READY_DB_H_

/// \file abduction_ready_db.h
/// \brief The abduction-ready database (αDB, §5): the original database plus
/// materialized derived relations, precomputed semantic-property statistics,
/// an inverted column index for entity lookup, and entity-keyed indexes that
/// make per-example context discovery a sequence of point queries.

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adb/derived_relation.h"
#include "adb/schema_graph.h"
#include "adb/statistics.h"
#include "common/status.h"
#include "storage/column_index.h"
#include "storage/database.h"
#include "storage/inverted_index.h"

namespace squid {

class SnapshotFile;  // storage/snapshot.h

/// Options for αDB construction.
struct AdbOptions {
  SchemaGraphOptions schema_graph;
  /// Skip materializing derived relations larger than this many rows
  /// (0 = no limit). A safety valve for adversarial schemas.
  size_t max_derived_rows = 0;
  /// Worker threads for the offline build (PK indexing, hop adjacencies,
  /// and per-descriptor materialization + statistics). 0 = hardware
  /// concurrency, 1 = serial. The result is bit-identical for every thread
  /// count: workers only write their own slots (merged in canonical order),
  /// share the hop adjacencies read-only, and never intern new strings, so
  /// symbol assignment cannot race.
  size_t threads = 0;
};

/// Options for loading an αDB snapshot file.
struct AdbSnapshotOptions {
  /// Map the file read-only and parse in place where the platform supports
  /// it; false streams the file through one heap buffer instead.
  bool use_mmap = true;
};

/// Build-time and size report (feeds the dataset description tables).
struct AdbReport {
  double build_seconds = 0;
  /// Wall seconds of each offline stage, in build order: schema-graph
  /// analysis, primary-key indexes, hop adjacencies, per-descriptor
  /// materialization + statistics, inverted index. Disjoint parts of
  /// build_seconds; volatile like it (0 after a snapshot load).
  double schema_graph_s = 0;
  double pk_index_s = 0;
  double adjacency_s = 0;
  double descriptors_s = 0;
  double inverted_index_s = 0;
  /// Configured build parallelism (after resolving threads == 0 to the
  /// hardware concurrency; the worker pool itself is additionally capped at
  /// the widest per-phase fan-out).
  size_t threads_used = 1;
  size_t num_descriptors = 0;
  size_t num_derived_relations = 0;
  size_t derived_rows = 0;
  size_t base_rows = 0;
  size_t derived_bytes = 0;
  size_t base_bytes = 0;
  /// Resident bytes of the inverted index (CSR arrays + probe table, exact
  /// arena accounting). Volatile like base_bytes: recomputed on snapshot
  /// load, never serialized.
  size_t index_bytes = 0;
};

/// \brief The αDB. Owns derived tables; aliases the base tables.
class AbductionReadyDb {
 public:
  /// Runs the full offline module of Fig. 4: schema-graph analysis, hop
  /// adjacencies, derived relation materialization, selectivity
  /// precomputation, inverted-index construction.
  static Result<std::unique_ptr<AbductionReadyDb>> Build(
      const Database& base, const AdbOptions& options = {});

  /// Writes the complete αDB to a snapshot file (see storage/snapshot.h for
  /// the container format). Snapshot bytes are deterministic: the same
  /// logical αDB — regardless of build thread count — always serializes to
  /// the same file, so bit-comparing snapshots compares αDBs. Requires all
  /// tables to share one StringPool (true for every αDB built by Build()
  /// from a single-catalog base database). Defined in adb/adb_snapshot.cpp.
  Status SaveSnapshot(const std::string& path) const;

  /// Boots an αDB from a snapshot file without touching the original data:
  /// tables, pool, inverted index, schema graph, and statistics are
  /// restored from the extents; PK / derived-entity hash indexes, the
  /// inverted index's probe table, and per-entity totals are rebuilt
  /// in-memory (cheap and deterministic). Malformed input of any kind —
  /// truncation, bit flips, hostile lengths — yields a Status error, never
  /// UB. The volatile report fields are not part of a snapshot:
  /// build_seconds and the stage seconds read 0 and threads_used 1 after a
  /// load, and base_bytes
  /// (allocation-history dependent at build time) is recomputed from the
  /// restored pool and base tables. Defined in adb/adb_snapshot.cpp.
  static Result<std::unique_ptr<AbductionReadyDb>> LoadSnapshot(
      const std::string& path, const AdbSnapshotOptions& options = {});

  /// Same load over an already-validated in-memory image. This is the layer
  /// the fuzz harness drives (SnapshotFile::FromBytes -> LoadSnapshot)
  /// without touching the filesystem; the path overload delegates here.
  static Result<std::unique_ptr<AbductionReadyDb>> LoadSnapshot(
      const SnapshotFile& file);

  /// Database containing base + derived relations (what abduced αDB-form
  /// queries execute against).
  const Database& database() const { return db_; }

  const SchemaGraph& schema_graph() const { return graph_; }
  const InvertedColumnIndex& inverted_index() const { return inverted_index_; }
  const AdbReport& report() const { return report_; }

  /// Stats for a descriptor (error when the descriptor is unknown).
  Result<const PropertyStats*> StatsFor(const std::string& descriptor_id) const;

  /// Row id of the entity with primary key `key` in `relation`.
  Result<size_t> EntityRowByKey(const std::string& relation, const Value& key) const;

  /// Value of an inline / dim-chain descriptor for the entity row `row`.
  Result<Value> BasicValue(const PropertyDescriptor& desc, size_t row) const;

  /// All (value, count) associations of the entity with key `key` under a
  /// multi-valued / derived descriptor. Point query on the derived relation.
  Result<std::vector<std::pair<Value, double>>> DerivedValues(
      const PropertyDescriptor& desc, const Value& key) const;

  /// Total association count of the entity under the descriptor (for
  /// normalized association strengths); 0 when the entity has none.
  double EntityTotal(const PropertyDescriptor& desc, const Value& key) const;

  /// Renders a derived value for display: resolves kDerivedEntity keys to
  /// the associate's first text attribute, bucket indexes to ">= t" labels.
  std::string DisplayValue(const PropertyDescriptor& desc, const Value& v) const;

 private:
  AbductionReadyDb() : db_("adb") {}

  /// Row lookup by key in an entity relation (indexed) or a dimension
  /// relation (scanned; dimensions are small).
  Result<size_t> EntityRowByKeyOrDim(const std::string& relation,
                                     const std::string& key_attr,
                                     const Value& key) const;

  Database db_;
  SchemaGraph graph_;
  InvertedColumnIndex inverted_index_;
  AdbReport report_;

  // Per entity relation: PK hash index.
  std::map<std::string, HashColumnIndex> entity_pk_index_;
  // Per descriptor id: stats, entity->rows index on the derived relation,
  // per-entity totals.
  std::map<std::string, PropertyStats> stats_;
  std::map<std::string, HashColumnIndex> derived_entity_index_;
  std::map<std::string, std::unordered_map<Value, double, ValueHash>> entity_totals_;
};

}  // namespace squid

#endif  // SQUID_ADB_ABDUCTION_READY_DB_H_
