#include "adb/adb_snapshot.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "storage/snapshot.h"

namespace squid {

// ---------------------------------------------------------------------------
// SchemaGraph extent
// ---------------------------------------------------------------------------

namespace {

constexpr uint8_t kMaxRelationKind = static_cast<uint8_t>(RelationKind::kPlain);
constexpr uint8_t kMaxPropertyKind = static_cast<uint8_t>(PropertyKind::kDerivedEntity);

Result<std::string> LoadStr(ExtentReader* in) {
  SQUID_ASSIGN_OR_RETURN(std::string_view s, in->Str());
  return std::string(s);
}

}  // namespace

void SchemaGraph::SnapshotSave(ExtentWriter* out) const {
  out->U32(static_cast<uint32_t>(kinds_.size()));
  for (const auto& [relation, kind] : kinds_) {
    out->Str(relation);
    out->U8(static_cast<uint8_t>(kind));
  }
  out->U32(static_cast<uint32_t>(entities_.size()));
  for (const std::string& e : entities_) out->Str(e);
  out->U32(static_cast<uint32_t>(descriptors_.size()));
  for (const PropertyDescriptor& d : descriptors_) {
    out->Str(d.id);
    out->U8(static_cast<uint8_t>(d.kind));
    out->Str(d.entity_relation);
    out->Str(d.entity_key);
    out->U32(static_cast<uint32_t>(d.hops.size()));
    for (const FactHop& h : d.hops) {
      out->Str(h.fact_table);
      out->Str(h.in_attr);
      out->Str(h.out_attr);
      out->Str(h.next_relation);
      out->Str(h.next_key);
    }
    out->U32(static_cast<uint32_t>(d.dims.size()));
    for (const DimHop& h : d.dims) {
      out->Str(h.from_attr);
      out->Str(h.dim_relation);
      out->Str(h.dim_key);
    }
    out->Str(d.terminal_relation);
    out->Str(d.terminal_attr);
    out->Array(d.bucket_thresholds);
    out->Str(d.derived_table);
    out->U8(d.derived ? 1 : 0);
    out->Str(d.display_name);
  }
}

Result<SchemaGraph> SchemaGraph::SnapshotLoad(ExtentReader* in) {
  SchemaGraph graph;
  SQUID_ASSIGN_OR_RETURN(uint32_t num_kinds, in->U32());
  graph.kinds_.reserve(num_kinds);
  for (uint32_t i = 0; i < num_kinds; ++i) {
    SQUID_ASSIGN_OR_RETURN(std::string relation, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(uint8_t kind, in->U8());
    if (kind > kMaxRelationKind) {
      return Status::Corruption("snapshot schema graph: invalid relation kind " +
                                std::to_string(kind));
    }
    graph.kinds_.emplace_back(std::move(relation), static_cast<RelationKind>(kind));
  }
  SQUID_ASSIGN_OR_RETURN(uint32_t num_entities, in->U32());
  graph.entities_.reserve(num_entities);
  for (uint32_t i = 0; i < num_entities; ++i) {
    SQUID_ASSIGN_OR_RETURN(std::string e, LoadStr(in));
    graph.entities_.push_back(std::move(e));
  }
  SQUID_ASSIGN_OR_RETURN(uint32_t num_descriptors, in->U32());
  graph.descriptors_.reserve(num_descriptors);
  for (uint32_t i = 0; i < num_descriptors; ++i) {
    PropertyDescriptor d;
    SQUID_ASSIGN_OR_RETURN(d.id, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(uint8_t kind, in->U8());
    if (kind > kMaxPropertyKind) {
      return Status::Corruption("snapshot schema graph: invalid property kind " +
                                std::to_string(kind));
    }
    d.kind = static_cast<PropertyKind>(kind);
    SQUID_ASSIGN_OR_RETURN(d.entity_relation, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(d.entity_key, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(uint32_t num_hops, in->U32());
    d.hops.reserve(std::min<uint32_t>(num_hops, 64));
    for (uint32_t h = 0; h < num_hops; ++h) {
      FactHop hop;
      SQUID_ASSIGN_OR_RETURN(hop.fact_table, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.in_attr, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.out_attr, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.next_relation, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.next_key, LoadStr(in));
      d.hops.push_back(std::move(hop));
    }
    SQUID_ASSIGN_OR_RETURN(uint32_t num_dims, in->U32());
    d.dims.reserve(std::min<uint32_t>(num_dims, 64));
    for (uint32_t h = 0; h < num_dims; ++h) {
      DimHop hop;
      SQUID_ASSIGN_OR_RETURN(hop.from_attr, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.dim_relation, LoadStr(in));
      SQUID_ASSIGN_OR_RETURN(hop.dim_key, LoadStr(in));
      d.dims.push_back(std::move(hop));
    }
    SQUID_ASSIGN_OR_RETURN(d.terminal_relation, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(d.terminal_attr, LoadStr(in));
    SQUID_RETURN_NOT_OK(in->Array(&d.bucket_thresholds));
    SQUID_ASSIGN_OR_RETURN(d.derived_table, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(uint8_t derived, in->U8());
    if (derived > 1) {
      return Status::Corruption("snapshot schema graph: derived flag not in {0, 1}");
    }
    d.derived = derived == 1;
    SQUID_ASSIGN_OR_RETURN(d.display_name, LoadStr(in));
    graph.descriptors_.push_back(std::move(d));
  }
  // Descriptor ids must be unique: the stats extent names descriptors by id.
  std::set<std::string> ids;
  for (const PropertyDescriptor& d : graph.descriptors_) {
    if (!ids.insert(d.id).second) {
      return Status::Corruption("snapshot schema graph: duplicate descriptor id '" +
                                d.id + "'");
    }
  }
  graph.IndexDescriptors();
  return graph;
}

// ---------------------------------------------------------------------------
// PropertyStats extent
// ---------------------------------------------------------------------------

namespace {

std::vector<ValueKey> SortedKeys(
    const std::unordered_map<ValueKey, size_t, ValueKeyHash>& m) {
  std::vector<ValueKey> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end(), [](const ValueKey& a, const ValueKey& b) {
    return a.tag != b.tag ? a.tag < b.tag : a.bits < b.bits;
  });
  return keys;
}

std::vector<ValueKey> SortedKeys(
    const std::unordered_map<ValueKey, std::vector<double>, ValueKeyHash>& m) {
  std::vector<ValueKey> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end(), [](const ValueKey& a, const ValueKey& b) {
    return a.tag != b.tag ? a.tag < b.tag : a.bits < b.bits;
  });
  return keys;
}

Result<ValueKey> LoadValueKey(ExtentReader* in, const StringPool& pool) {
  ValueKey key;
  SQUID_ASSIGN_OR_RETURN(key.tag, in->U8());
  SQUID_ASSIGN_OR_RETURN(key.bits, in->U64());
  if (key.tag > 2) {
    return Status::Corruption("snapshot stats: invalid value-key tag " +
                              std::to_string(key.tag));
  }
  if (key.tag == 2) {
    if (key.bits > 0xFFFFFFFFull ||
        !pool.IsValidSymbol(static_cast<Symbol>(key.bits))) {
      return Status::Corruption("snapshot stats: string value key is not a valid "
                                "pool symbol");
    }
  }
  return key;
}

}  // namespace

void PropertyStats::SnapshotSave(ExtentWriter* out) const {
  out->U8(static_cast<uint8_t>(kind_));
  out->U64(total_entities_);
  out->F64(domain_min_);
  out->F64(domain_max_);
  out->Array(sorted_values_);
  // The unordered maps serialize in sorted (tag, bits) key order so the
  // same logical stats always produce the same bytes.
  out->U64(value_counts_.size());
  for (const ValueKey& k : SortedKeys(value_counts_)) {
    out->U8(k.tag);
    out->U64(k.bits);
    out->U64(value_counts_.at(k));
  }
  out->U64(theta_by_value_.size());
  for (const ValueKey& k : SortedKeys(theta_by_value_)) {
    out->U8(k.tag);
    out->U64(k.bits);
    out->Array(theta_by_value_.at(k));
  }
  out->U64(theta_norm_by_value_.size());
  for (const ValueKey& k : SortedKeys(theta_norm_by_value_)) {
    out->U8(k.tag);
    out->U64(k.bits);
    out->Array(theta_norm_by_value_.at(k));
  }
}

Result<PropertyStats> PropertyStats::SnapshotLoad(
    ExtentReader* in, std::shared_ptr<const StringPool> pool) {
  PropertyStats stats;
  SQUID_ASSIGN_OR_RETURN(uint8_t kind, in->U8());
  if (kind > kMaxPropertyKind) {
    return Status::Corruption("snapshot stats: invalid property kind " +
                              std::to_string(kind));
  }
  stats.kind_ = static_cast<PropertyKind>(kind);
  SQUID_ASSIGN_OR_RETURN(uint64_t total, in->U64());
  stats.total_entities_ = static_cast<size_t>(total);
  SQUID_ASSIGN_OR_RETURN(stats.domain_min_, in->F64());
  SQUID_ASSIGN_OR_RETURN(stats.domain_max_, in->F64());
  SQUID_RETURN_NOT_OK(in->Array(&stats.sorted_values_));
  // Counts are hostile until proven otherwise: never pre-reserve by them
  // (each entry consumes >= 17 payload bytes, so oversized counts run out
  // of extent long before they run out of memory).
  SQUID_ASSIGN_OR_RETURN(uint64_t n_counts, in->U64());
  for (uint64_t i = 0; i < n_counts; ++i) {
    SQUID_ASSIGN_OR_RETURN(ValueKey key, LoadValueKey(in, *pool));
    SQUID_ASSIGN_OR_RETURN(uint64_t count, in->U64());
    if (!stats.value_counts_.emplace(key, static_cast<size_t>(count)).second) {
      return Status::Corruption("snapshot stats: duplicate value-count key");
    }
  }
  SQUID_ASSIGN_OR_RETURN(uint64_t n_theta, in->U64());
  for (uint64_t i = 0; i < n_theta; ++i) {
    SQUID_ASSIGN_OR_RETURN(ValueKey key, LoadValueKey(in, *pool));
    std::vector<double> thetas;
    SQUID_RETURN_NOT_OK(in->Array(&thetas));
    if (!stats.theta_by_value_.emplace(key, std::move(thetas)).second) {
      return Status::Corruption("snapshot stats: duplicate theta key");
    }
  }
  SQUID_ASSIGN_OR_RETURN(uint64_t n_norm, in->U64());
  for (uint64_t i = 0; i < n_norm; ++i) {
    SQUID_ASSIGN_OR_RETURN(ValueKey key, LoadValueKey(in, *pool));
    std::vector<double> thetas;
    SQUID_RETURN_NOT_OK(in->Array(&thetas));
    if (!stats.theta_norm_by_value_.emplace(key, std::move(thetas)).second) {
      return Status::Corruption("snapshot stats: duplicate normalized-theta key");
    }
  }
  stats.pool_ = std::move(pool);
  return stats;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

namespace {

struct ManifestData {
  std::string database_name;
  std::vector<AdbSnapshotTableInfo> tables;
  uint64_t pool_entries = 0;
  uint64_t pool_id_bound = 0;
  AdbReport report;  // stable fields only
};

Status ParseManifest(ExtentReader* in, ManifestData* out) {
  SQUID_ASSIGN_OR_RETURN(out->database_name, LoadStr(in));
  SQUID_ASSIGN_OR_RETURN(uint32_t num_tables, in->U32());
  out->tables.clear();
  for (uint32_t i = 0; i < num_tables; ++i) {
    AdbSnapshotTableInfo t;
    SQUID_ASSIGN_OR_RETURN(t.name, LoadStr(in));
    SQUID_ASSIGN_OR_RETURN(uint8_t role, in->U8());
    if (role > 1) {
      return Status::Corruption("snapshot manifest: table role not in {0, 1}");
    }
    t.derived = role == 1;
    SQUID_ASSIGN_OR_RETURN(t.rows, in->U64());
    // The roster is written in sorted order (Database::TableNames); strict
    // ascent also guarantees name uniqueness.
    if (i > 0 && !(out->tables.back().name < t.name)) {
      return Status::Corruption("snapshot manifest: table roster not sorted/unique");
    }
    out->tables.push_back(std::move(t));
  }
  SQUID_ASSIGN_OR_RETURN(out->pool_entries, in->U64());
  SQUID_ASSIGN_OR_RETURN(out->pool_id_bound, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint64_t num_descriptors, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint64_t num_derived, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint64_t derived_rows, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint64_t base_rows, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint64_t derived_bytes, in->U64());
  out->report.num_descriptors = static_cast<size_t>(num_descriptors);
  out->report.num_derived_relations = static_cast<size_t>(num_derived);
  out->report.derived_rows = static_cast<size_t>(derived_rows);
  out->report.base_rows = static_cast<size_t>(base_rows);
  out->report.derived_bytes = static_cast<size_t>(derived_bytes);
  return Status::OK();
}

/// Up to 7 zero bytes of 8-byte padding may trail an extent payload; more
/// than that means the parser and the writer disagree about the layout.
Status ExpectDrained(const ExtentReader& in, const char* extent) {
  if (in.remaining() >= kSnapshotAlignment) {
    return Status::Corruption(std::string("snapshot ") + extent +
                              " extent has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// AbductionReadyDb save / load
// ---------------------------------------------------------------------------

Status AbductionReadyDb::SaveSnapshot(const std::string& path) const {
  const std::shared_ptr<const StringPool>& pool = inverted_index_.pool_shared();
  if (pool == nullptr) {
    return Status::InvalidArgument("SaveSnapshot: αDB has no inverted index (not built?)");
  }
  const std::vector<std::string> names = db_.TableNames();
  for (const std::string& name : names) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(name));
    if (table->pool().get() != pool.get()) {
      return Status::NotSupported("SaveSnapshot: table '" + name +
                                  "' does not share the αDB string pool");
    }
  }

  // Tables materialized from descriptors are the derived roster; everything
  // else is a base relation. Stats serialize in sorted descriptor-id order,
  // so the bytes do not depend on the descriptor order.
  std::set<std::string> derived_names;
  std::vector<const PropertyDescriptor*> with_stats;
  for (const PropertyDescriptor& desc : graph_.descriptors()) {
    const DescriptorRecord& rec = records_[desc.ordinal];
    if (rec.derived.values != nullptr) derived_names.insert(desc.derived_table);
    if (rec.stats.has_value()) with_stats.push_back(&desc);
  }
  std::sort(with_stats.begin(), with_stats.end(),
            [](const PropertyDescriptor* a, const PropertyDescriptor* b) {
              return a->id < b->id;
            });

  SnapshotWriter writer;

  ExtentWriter* manifest = writer.AddExtent(ExtentType::kManifest);
  manifest->Str(db_.name());
  manifest->U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(name));
    manifest->Str(name);
    manifest->U8(derived_names.count(name) > 0 ? 1 : 0);
    manifest->U64(table->num_rows());
  }
  manifest->U64(pool->size());
  manifest->U64(pool->IdBound());
  // Stable report fields only: build_seconds / threads_used vary run to
  // run, and base_bytes counts pool arena chunks — a function of the pool's
  // allocation history, not of the logical αDB (two builds against one
  // shared pool report different values). Serializing any of them would
  // break the snapshot-bytes determinism contract; base_bytes is recomputed
  // from the restored pool and tables on load.
  manifest->U64(report_.num_descriptors);
  manifest->U64(report_.num_derived_relations);
  manifest->U64(report_.derived_rows);
  manifest->U64(report_.base_rows);
  manifest->U64(report_.derived_bytes);

  SnapshotSaveStringPool(*pool, writer.AddExtent(ExtentType::kStringPool));

  ExtentWriter* schemas = writer.AddExtent(ExtentType::kSchemas);
  schemas->U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(name));
    SnapshotSaveSchema(table->schema(), schemas);
  }

  ExtentWriter* data = writer.AddExtent(ExtentType::kTableData);
  data->U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(name));
    SnapshotSaveTableData(*table, data);
  }

  inverted_index_.SnapshotSave(writer.AddExtent(ExtentType::kInvertedIndex));
  graph_.SnapshotSave(writer.AddExtent(ExtentType::kSchemaGraph));

  ExtentWriter* stats = writer.AddExtent(ExtentType::kPropertyStats);
  stats->U32(static_cast<uint32_t>(with_stats.size()));
  for (const PropertyDescriptor* desc : with_stats) {
    stats->Str(desc->id);
    records_[desc->ordinal].stats->SnapshotSave(stats);
  }

  return writer.WriteToFile(path);
}

Result<std::unique_ptr<AbductionReadyDb>> AbductionReadyDb::LoadSnapshot(
    const std::string& path) {
  SQUID_ASSIGN_OR_RETURN(SnapshotFile file, SnapshotFile::Open(path));
  return LoadSnapshot(file);
}

Result<std::unique_ptr<AbductionReadyDb>> AbductionReadyDb::LoadSnapshot(
    const SnapshotFile& file) {
  SQUID_ASSIGN_OR_RETURN(ExtentReader manifest_in, file.Extent(ExtentType::kManifest));
  ManifestData manifest;
  SQUID_RETURN_NOT_OK(ParseManifest(&manifest_in, &manifest));
  SQUID_RETURN_NOT_OK(ExpectDrained(manifest_in, "manifest"));

  SQUID_ASSIGN_OR_RETURN(ExtentReader pool_in, file.Extent(ExtentType::kStringPool));
  SQUID_ASSIGN_OR_RETURN(std::shared_ptr<StringPool> pool,
                         SnapshotLoadStringPool(&pool_in));
  SQUID_RETURN_NOT_OK(ExpectDrained(pool_in, "string pool"));
  if (pool->size() != manifest.pool_entries ||
      pool->IdBound() != manifest.pool_id_bound) {
    return Status::Corruption("snapshot: restored pool disagrees with the manifest");
  }

  auto adb = std::unique_ptr<AbductionReadyDb>(new AbductionReadyDb());
  adb->db_ = Database(manifest.database_name, pool);

  // Tables: schema extent and data extent walk the (sorted) roster in step.
  SQUID_ASSIGN_OR_RETURN(ExtentReader schemas_in, file.Extent(ExtentType::kSchemas));
  SQUID_ASSIGN_OR_RETURN(ExtentReader data_in, file.Extent(ExtentType::kTableData));
  SQUID_ASSIGN_OR_RETURN(uint32_t schema_count, schemas_in.U32());
  SQUID_ASSIGN_OR_RETURN(uint32_t data_count, data_in.U32());
  if (schema_count != manifest.tables.size() || data_count != manifest.tables.size()) {
    return Status::Corruption("snapshot: schema/table-data rosters disagree with "
                              "the manifest");
  }
  for (const AdbSnapshotTableInfo& meta : manifest.tables) {
    SQUID_ASSIGN_OR_RETURN(Schema schema, SnapshotLoadSchema(&schemas_in));
    if (schema.relation_name() != meta.name) {
      return Status::Corruption("snapshot: schema order diverges from the manifest "
                                "('" + schema.relation_name() + "' vs '" +
                                meta.name + "')");
    }
    auto table = std::make_shared<Table>(std::move(schema), pool);
    SQUID_RETURN_NOT_OK(SnapshotLoadTableData(&data_in, table.get()));
    if (table->num_rows() != meta.rows) {
      return Status::Corruption("snapshot table '" + meta.name +
                                "': row count disagrees with the manifest");
    }
    SQUID_RETURN_NOT_OK(adb->db_.AddTable(std::move(table)));
  }
  SQUID_RETURN_NOT_OK(ExpectDrained(schemas_in, "schemas"));
  SQUID_RETURN_NOT_OK(ExpectDrained(data_in, "table data"));

  SQUID_ASSIGN_OR_RETURN(ExtentReader graph_in, file.Extent(ExtentType::kSchemaGraph));
  SQUID_ASSIGN_OR_RETURN(adb->graph_, SchemaGraph::SnapshotLoad(&graph_in));
  SQUID_RETURN_NOT_OK(ExpectDrained(graph_in, "schema graph"));

  SQUID_ASSIGN_OR_RETURN(ExtentReader index_in, file.Extent(ExtentType::kInvertedIndex));
  SQUID_ASSIGN_OR_RETURN(
      adb->inverted_index_,
      InvertedColumnIndex::SnapshotLoad(&index_in, pool, adb->db_));
  SQUID_RETURN_NOT_OK(ExpectDrained(index_in, "inverted index"));

  SQUID_ASSIGN_OR_RETURN(ExtentReader stats_in, file.Extent(ExtentType::kPropertyStats));
  adb->records_.resize(adb->graph_.descriptors().size());
  SQUID_ASSIGN_OR_RETURN(uint32_t num_stats, stats_in.U32());
  for (uint32_t i = 0; i < num_stats; ++i) {
    SQUID_ASSIGN_OR_RETURN(std::string id, LoadStr(&stats_in));
    SQUID_ASSIGN_OR_RETURN(const PropertyDescriptor* desc,
                           adb->graph_.FindDescriptor(id));
    SQUID_ASSIGN_OR_RETURN(PropertyStats stats,
                           PropertyStats::SnapshotLoad(&stats_in, pool));
    std::optional<PropertyStats>& slot = adb->records_[desc->ordinal].stats;
    if (slot.has_value()) {
      return Status::Corruption("snapshot: duplicate stats descriptor id");
    }
    slot.emplace(std::move(stats));
  }
  SQUID_RETURN_NOT_OK(ExpectDrained(stats_in, "property stats"));

  // Report: stable fields from the manifest; volatile fields are not part
  // of a snapshot (build_seconds 0, threads_used 1, base_bytes recomputed
  // here with the same pool + base tables accounting Build() uses).
  adb->report_ = manifest.report;
  adb->report_.build_seconds = 0;
  adb->report_.threads_used = 1;
  adb->report_.base_bytes = pool->ApproxBytes();
  for (const AdbSnapshotTableInfo& meta : manifest.tables) {
    if (meta.derived) continue;
    SQUID_ASSIGN_OR_RETURN(const Table* table, adb->db_.GetTable(meta.name));
    adb->report_.base_bytes += table->ApproxBytes();
  }
  adb->report_.index_bytes = adb->inverted_index_.ApproxBytes();

  // Rebuilt (not serialized) derived state, mirroring Build() exactly: the
  // PK indexes of the relations descriptors read by key...
  SQUID_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Table>> keyed,
                         PkIndexedTables(adb->db_, adb->graph_));
  for (const std::shared_ptr<Table>& table : keyed) {
    SQUID_RETURN_NOT_OK(table->BuildPkIndex());
  }

  // ... and, per derived relation, its value order, its per-entity row
  // ranges and exact totals (IndexDerivedEntities, shared with Build, which
  // also checks the layout the ranges rely on). Then every record is
  // resolved as Build resolves it.
  for (const AdbSnapshotTableInfo& meta : manifest.tables) {
    if (!meta.derived) continue;
    const PropertyDescriptor* desc = nullptr;
    for (const PropertyDescriptor& d : adb->graph_.descriptors()) {
      if (d.derived_table == meta.name) {
        desc = &d;
        break;
      }
    }
    if (desc == nullptr || desc->hops.empty()) {
      return Status::Corruption("snapshot: derived table '" + meta.name +
                                "' is not named by any derived descriptor");
    }
    if (adb->records_[desc->ordinal].derived.values != nullptr) {
      return Status::Corruption("snapshot: two derived tables map to descriptor '" +
                                desc->id + "'");
    }
    SQUID_ASSIGN_OR_RETURN(Table* derived, adb->db_.GetMutableTable(meta.name));
    Status status = derived->BuildValueOrder("value");
    if (!status.ok()) return Status::Corruption("snapshot: " + status.message());
    auto entity_rows = adb->IndexEntities(*desc, *derived);
    status = entity_rows.status();
    if (status.ok()) {
      status = adb->AttachDerived(desc->ordinal, *derived, std::move(entity_rows).value());
    }
    if (!status.ok()) return Status::Corruption("snapshot: " + status.message());
  }
  Status resolved = adb->ResolveRecords();
  if (!resolved.ok()) return Status::Corruption("snapshot: " + resolved.message());

  return adb;
}

// ---------------------------------------------------------------------------
// Manifest peek
// ---------------------------------------------------------------------------

Result<AdbSnapshotInfo> ReadAdbSnapshotInfo(const std::string& path) {
  SQUID_ASSIGN_OR_RETURN(SnapshotFile file, SnapshotFile::Open(path));
  SQUID_ASSIGN_OR_RETURN(ExtentReader manifest_in, file.Extent(ExtentType::kManifest));
  ManifestData manifest;
  SQUID_RETURN_NOT_OK(ParseManifest(&manifest_in, &manifest));
  SQUID_RETURN_NOT_OK(ExpectDrained(manifest_in, "manifest"));
  AdbSnapshotInfo info;
  info.format_version = file.format_version();
  info.file_bytes = file.file_bytes();
  info.num_extents = file.extents().size();
  info.database_name = std::move(manifest.database_name);
  info.tables = std::move(manifest.tables);
  info.pool_entries = manifest.pool_entries;
  info.pool_id_bound = manifest.pool_id_bound;
  info.report = manifest.report;
  return info;
}

}  // namespace squid
