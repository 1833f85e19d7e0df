#ifndef SQUID_ADB_ABDUCTION_READY_DB_H_
#define SQUID_ADB_ABDUCTION_READY_DB_H_

/// \file abduction_ready_db.h
/// \brief The abduction-ready database (αDB, §5): the original database plus
/// materialized derived relations, precomputed semantic-property statistics,
/// an inverted column index for entity lookup, and per-entity row ranges
/// into each derived relation that make per-example context discovery a
/// sequence of array reads.
///
/// Per-descriptor state lives in one record per descriptor, in a vector
/// indexed by PropertyDescriptor::ordinal. Build and LoadSnapshot resolve
/// every record once (stats, derived columns and per-entity row ranges,
/// dim-hop tables), so the serve path (profile builds, merges, abduction)
/// indexes by ordinal and never looks a descriptor up by its id string.
///
/// Build and LoadSnapshot also give the tables their access paths
/// (storage/table.h), rebuilt at every load and never serialized: a flat
/// PK index on each relation a descriptor reads by key (entity, dim and
/// terminal relations), which serves both the point lookups below and the
/// executor's PK joins, and a value order on each derived relation's
/// `value` column, which lets the executor seek an abduced query's
/// `d.value = v` filter instead of scanning.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adb/derived_relation.h"
#include "adb/schema_graph.h"
#include "adb/statistics.h"
#include "common/status.h"
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
  /// Bytes of the inverted index's arrays (CSR arrays + probe table; see
  /// InvertedColumnIndex::ApproxBytes). Recomputed on snapshot load, never
  /// serialized; a loaded αDB reports what its build reported.
  size_t index_bytes = 0;
};

/// \brief The αDB. Owns derived tables; aliases the base tables.
class AbductionReadyDb {
 public:
  /// Runs the full offline module of Fig. 4: schema-graph analysis, hop
  /// adjacencies, derived relation materialization, selectivity
  /// precomputation, inverted-index construction. The base tables are
  /// shared, not copied, so the PK indexes built on them are `base`'s too
  /// (a later Build over the same tables finds them current).
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
  /// restored from the extents; the tables' access paths (PK indexes and
  /// value orders), the inverted index's probe table, and each derived
  /// relation's per-entity row ranges and totals are rebuilt in-memory
  /// (cheap and deterministic), and every descriptor
  /// record is resolved as Build resolves it. So a derived relation without
  /// a `value` column or an int64 `count` column, or one that splits an
  /// entity's rows or lists its values out of order (IndexDerivedEntities),
  /// fails here, as Corruption, instead of at request time. Malformed input
  /// of any kind —
  /// truncation, bit flips, hostile lengths — yields a Status error, never
  /// UB. The volatile report fields are not part of a snapshot:
  /// build_seconds and the stage seconds read 0 and threads_used 1 after a
  /// load, and base_bytes
  /// (allocation-history dependent at build time) is recomputed from the
  /// restored pool and base tables. Defined in adb/adb_snapshot.cpp.
  static Result<std::unique_ptr<AbductionReadyDb>> LoadSnapshot(
      const std::string& path);

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

  /// Stats for a descriptor of this αDB's graph: one vector index by
  /// `desc.ordinal`. Errors when `desc` is not this graph's descriptor
  /// (ordinal out of range or a different address) or has no stats (skipped
  /// by max_derived_rows).
  Result<const PropertyStats*> StatsFor(const PropertyDescriptor& desc) const;

  /// Stats by descriptor id (tools and tests): SchemaGraph::FindDescriptor,
  /// then the ordinal lookup above.
  Result<const PropertyStats*> StatsFor(const std::string& descriptor_id) const;

  /// True when this αDB holds `desc`'s record: its stats and, for hop
  /// descriptors, its derived relation. False for a descriptor whose derived
  /// relation max_derived_rows skipped (its record is empty, and profile
  /// builds, merges and abduction skip its slot) and for a descriptor of
  /// another graph.
  bool Covers(const PropertyDescriptor& desc) const;

  /// Row id of the entity with primary key `key` in `relation` (the first,
  /// should the key repeat), through the relation's PK index. NotFound for
  /// a relation without one: only relations some descriptor reads by key
  /// are indexed.
  Result<size_t> EntityRowByKey(const std::string& relation, const Value& key) const;

  /// Value of an inline / dim-chain descriptor for the entity row `row`:
  /// the record's terminal column, reached through each dim hop's PK index
  /// (DimChain::Walk). NULL when a NULL or dangling link leaves the entity
  /// without a value, which is how the descriptor's stats count it.
  Result<Value> BasicValue(const PropertyDescriptor& desc, size_t row) const;

  /// A hop descriptor's derived relation as entity profiles read it: the
  /// value and count columns that DerivedRows ranges index. Both null when
  /// the αDB does not cover `desc` or `desc` is not a hop descriptor.
  struct DerivedColumns {
    const Column* values = nullptr;
    const Column* counts = nullptr;
  };
  DerivedColumns DerivedColumnsOf(const PropertyDescriptor& desc) const;

  /// The rows of `desc`'s derived relation that belong to the entity at
  /// `row` of desc.entity_relation (ordered by value), and its total: two
  /// array reads. Empty for an entity without associations. Errors as
  /// DerivedValues does, and with OutOfRange for a row past the relation.
  Result<EntityRows> DerivedRows(const PropertyDescriptor& desc, size_t row) const;

  /// All (value, count) associations of the entity with key `key` under a
  /// multi-valued / derived descriptor, in value order: EntityRowByKey,
  /// then DerivedRows. Empty for a key that names no entity.
  Result<std::vector<std::pair<Value, double>>> DerivedValues(
      const PropertyDescriptor& desc, const Value& key) const;

  /// Total association count of the entity under the descriptor (for
  /// normalized association strengths); 0 when the entity has none or the
  /// αDB has no derived relation for `desc` (DerivedValues says why).
  double EntityTotal(const PropertyDescriptor& desc, const Value& key) const;

  /// Renders a derived value for display: resolves kDerivedEntity keys to
  /// the associate's first text attribute, bucket indexes to ">= t" labels.
  std::string DisplayValue(const PropertyDescriptor& desc, const Value& v) const;

 private:
  /// Everything the serve path reads for one descriptor, resolved once by
  /// Build / LoadSnapshot. Empty (no stats, null columns) for a descriptor
  /// whose derived relation max_derived_rows skipped.
  struct DescriptorRecord {
    std::optional<PropertyStats> stats;

    // Hop descriptors: the derived relation's value and count columns, and
    // per row of the entity relation, that entity's rows and total.
    DerivedColumns derived;
    std::vector<EntityRows> entity_rows;

    // Basic descriptors: the entity table, each dim hop (read through the
    // dim's PK index) and the terminal column.
    DimChain basic;
  };

  AbductionReadyDb() : db_("adb") {}

  /// The record of `desc` when it is this graph's descriptor, else null.
  const DescriptorRecord* RecordOf(const PropertyDescriptor& desc) const {
    const std::vector<PropertyDescriptor>& all = graph_.descriptors();
    return desc.ordinal < records_.size() && &all[desc.ordinal] == &desc
               ? &records_[desc.ordinal]
               : nullptr;
  }

  /// Attaches `derived` (a descriptor's materialized relation, already in
  /// db_) to record `ordinal`: its value / count columns (checked) and its
  /// IndexDerivedEntities ranges.
  Status AttachDerived(size_t ordinal, const Table& derived,
                       std::vector<EntityRows> entity_rows);

  /// IndexDerivedEntities of `derived` against `desc`'s entity relation.
  Result<std::vector<EntityRows>> IndexEntities(const PropertyDescriptor& desc,
                                                const Table& derived) const;

  /// The relations of `db` whose PK index the αDB reads: every descriptor's
  /// entity, dim and terminal relation that declares a primary key, once
  /// each, in name order.
  static Result<std::vector<std::shared_ptr<Table>>> PkIndexedTables(
      const Database& db, const SchemaGraph& graph);

  /// The first row of `table` whose PK index holds `key` (nullopt when the
  /// table has no current index or no such row).
  static std::optional<uint32_t> FirstRowWithKey(const Table& table, const Value& key);

  /// Resolves every record's basic-descriptor columns and dim tables and
  /// checks each record is whole: stats present exactly when a hop
  /// descriptor has its derived relation. Last step of Build and
  /// LoadSnapshot.
  Status ResolveRecords();

  Database db_;
  SchemaGraph graph_;
  InvertedColumnIndex inverted_index_;
  AdbReport report_;

  // Per descriptor, indexed by PropertyDescriptor::ordinal.
  std::vector<DescriptorRecord> records_;
};

}  // namespace squid

#endif  // SQUID_ADB_ABDUCTION_READY_DB_H_
