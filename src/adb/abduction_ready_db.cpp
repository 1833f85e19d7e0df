#include "adb/abduction_ready_db.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "storage/join_hash.h"

namespace squid {

namespace {

/// Per-descriptor build output, filled by one worker and merged serially in
/// descriptor order. Everything a descriptor needs (stats, the derived
/// table, its per-entity row ranges) is local to this slot, so workers hold
/// no locks on the αDB's records.
struct DescriptorWork {
  Status status = Status::OK();
  std::optional<PropertyStats> stats;
  std::shared_ptr<Table> derived;  // null for basic and oversized descriptors
  bool oversized = false;          // derived skipped by max_derived_rows
  std::vector<EntityRows> entity_rows;
};

/// Materializes + computes statistics for one descriptor against the base
/// database, walking the shared read-only `adjacencies`. Read-only on
/// `base`; every string it interns (derived values, statistics keys)
/// already exists in the base pool, so the shared interner sees no inserts
/// and symbol assignment stays canonical.
DescriptorWork BuildDescriptor(const Database& base, const HopAdjacencies& adjacencies,
                               const PropertyDescriptor& desc,
                               const AdbOptions& options) {
  DescriptorWork work;
  auto fail = [&](Status status) {
    work.status = std::move(status);
    return work;
  };
  auto etable = base.GetTable(desc.entity_relation);
  if (!etable.ok()) return fail(etable.status());
  if (desc.hops.empty()) {
    auto stats = StatisticsBuilder::BuildBasic(base, desc);
    if (!stats.ok()) return fail(stats.status());
    work.stats.emplace(std::move(stats).value());
    return work;
  }
  auto derived = MaterializeDerivedRelation(base, adjacencies, desc,
                                            options.max_derived_rows);
  if (!derived.ok()) return fail(derived.status());
  if (derived.value().oversized) {
    work.oversized = true;
    return work;
  }
  const Table& table = *derived.value().table;
  auto stats = StatisticsBuilder::BuildFromDerived(table, etable.value()->num_rows());
  if (!stats.ok()) return fail(stats.status());
  work.stats.emplace(std::move(stats).value());
  work.derived = std::move(derived.value().table);
  return work;
}

}  // namespace

Result<std::unique_ptr<AbductionReadyDb>> AbductionReadyDb::Build(
    const Database& base, const AdbOptions& options) {
  Stopwatch timer;
  auto adb = std::unique_ptr<AbductionReadyDb>(new AbductionReadyDb());
  adb->report_.threads_used = ThreadPool::ResolveThreads(options.threads);

  // Alias all base tables.
  for (const std::string& name : base.TableNames()) {
    SQUID_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, base.GetShared(name));
    SQUID_RETURN_NOT_OK(adb->db_.AttachTable(table));
    adb->report_.base_rows += table->num_rows();
  }
  adb->report_.base_bytes = base.ApproxBytes();

  // Schema-graph analysis and descriptor discovery.
  Stopwatch stage;
  SQUID_ASSIGN_OR_RETURN(SchemaGraph graph,
                         SchemaGraph::Analyze(base, options.schema_graph));
  adb->graph_ = std::move(graph);
  adb->report_.num_descriptors = adb->graph_.descriptors().size();
  adb->report_.schema_graph_s = stage.ElapsedSeconds();

  // Primary-key indexes on the relations descriptors read by key. Each
  // index reads and lands in its own base table (shared with `base`, so a
  // later Build over the same tables finds them current and keeps them).
  SQUID_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<Table>> keyed,
                         PkIndexedTables(base, adb->graph_));

  // The widest fan-out is one task per keyed relation or per descriptor;
  // cap the worker count so wide machines don't spawn threads that can
  // never receive work.
  const size_t max_tasks =
      std::max<size_t>({keyed.size(), adb->graph_.descriptors().size(), 1});
  ThreadPool pool(std::min(adb->report_.threads_used, max_tasks));

  stage.Reset();
  std::vector<Status> pk_status(keyed.size(), Status::OK());
  pool.ParallelFor(keyed.size(), [&](size_t i) { pk_status[i] = keyed[i]->BuildPkIndex(); });
  for (const Status& status : pk_status) SQUID_RETURN_NOT_OK(status);
  adb->report_.pk_index_s = stage.ElapsedSeconds();

  // Materialize derived relations and compute statistics — embarrassingly
  // parallel per descriptor. Workers fill per-descriptor slots; the serial
  // merge walks descriptors in their canonical order, so report counters,
  // table registration, and every record are identical for any thread
  // count (the determinism tests in tests/adb_test.cpp pin this down).
  const auto& descriptors = adb->graph_.descriptors();
  {
    std::set<std::string> ids;
    for (const PropertyDescriptor& desc : descriptors) {
      if (!ids.insert(desc.id).second) {
        return Status::Internal("duplicate property descriptor id: " + desc.id);
      }
    }
  }
  // Every hop the descriptors walk is resolved to row-id adjacencies once,
  // before the fan-out; descriptors only read them.
  stage.Reset();
  SQUID_ASSIGN_OR_RETURN(HopAdjacencies adjacencies,
                         HopAdjacencies::Build(base, descriptors, pool));
  adb->report_.adjacency_s = stage.ElapsedSeconds();

  stage.Reset();
  std::vector<DescriptorWork> work(descriptors.size());
  pool.ParallelFor(descriptors.size(), [&](size_t i) {
    DescriptorWork& w = work[i];
    w = BuildDescriptor(base, adjacencies, descriptors[i], options);
    if (!w.status.ok() || w.derived == nullptr) return;
    w.status = w.derived->BuildValueOrder("value");
    if (!w.status.ok()) return;
    // Reads only the PK indexes and base tables, complete before the fan-out.
    auto ranges = adb->IndexEntities(descriptors[i], *w.derived);
    if (ranges.ok()) {
      w.entity_rows = std::move(ranges).value();
    } else {
      w.status = ranges.status();
    }
  });
  adb->records_.resize(descriptors.size());
  for (size_t i = 0; i < descriptors.size(); ++i) {
    const PropertyDescriptor& desc = descriptors[i];
    DescriptorWork& w = work[i];
    SQUID_RETURN_NOT_OK(w.status);
    if (w.oversized) {  // the record stays empty
      SQUID_LOG(Warn) << "skipping oversized derived relation " << desc.derived_table
                      << " (more than " << options.max_derived_rows << " rows)";
      continue;
    }
    adb->records_[i].stats = std::move(w.stats);
    if (w.derived == nullptr) continue;  // basic descriptor: stats only
    const Table& derived = *w.derived;
    adb->report_.derived_rows += derived.num_rows();
    adb->report_.derived_bytes += derived.ApproxBytes();
    ++adb->report_.num_derived_relations;
    SQUID_RETURN_NOT_OK(adb->db_.AddTable(std::move(w.derived)));
    SQUID_RETURN_NOT_OK(adb->AttachDerived(i, derived, std::move(w.entity_rows)));
  }
  SQUID_RETURN_NOT_OK(adb->ResolveRecords());

  adb->report_.descriptors_s = stage.ElapsedSeconds();

  // Inverted column index over the base database.
  stage.Reset();
  SQUID_ASSIGN_OR_RETURN(InvertedColumnIndex inv, InvertedColumnIndex::Build(base));
  adb->inverted_index_ = std::move(inv);
  adb->report_.index_bytes = adb->inverted_index_.ApproxBytes();
  adb->report_.inverted_index_s = stage.ElapsedSeconds();

  adb->report_.build_seconds = timer.ElapsedSeconds();
  return adb;
}

namespace {

Status ForeignDescriptor(const PropertyDescriptor& desc) {
  return Status::InvalidArgument("descriptor '" + desc.id +
                                 "' is not in this αDB's schema graph");
}

}  // namespace

Status AbductionReadyDb::AttachDerived(size_t ordinal, const Table& derived,
                                       std::vector<EntityRows> entity_rows) {
  DescriptorRecord& rec = records_[ordinal];
  SQUID_ASSIGN_OR_RETURN(rec.derived.values, derived.ColumnByName("value"));
  SQUID_ASSIGN_OR_RETURN(rec.derived.counts, derived.ColumnByName("count"));
  if (rec.derived.counts->type() != ValueType::kInt64) {
    return Status::InvalidArgument("derived table '" + derived.name() +
                                   "' has a non-int64 count column");
  }
  rec.entity_rows = std::move(entity_rows);
  return Status::OK();
}

Result<std::vector<EntityRows>> AbductionReadyDb::IndexEntities(
    const PropertyDescriptor& desc, const Table& derived) const {
  SQUID_ASSIGN_OR_RETURN(const Table* entity, db_.GetTable(desc.entity_relation));
  if (entity->pk_index() == nullptr) {
    return Status::InvalidArgument("entity relation '" + desc.entity_relation +
                                   "' of descriptor '" + desc.id +
                                   "' has no primary key");
  }
  return IndexDerivedEntities(derived, *entity);
}

Result<std::vector<std::shared_ptr<Table>>> AbductionReadyDb::PkIndexedTables(
    const Database& db, const SchemaGraph& graph) {
  std::set<std::string> names;
  for (const PropertyDescriptor& desc : graph.descriptors()) {
    names.insert(desc.entity_relation);
    names.insert(desc.terminal_relation);
    for (const DimHop& dim : desc.dims) names.insert(dim.dim_relation);
  }
  std::vector<std::shared_ptr<Table>> tables;
  for (const std::string& name : names) {
    if (!db.HasTable(name)) continue;  // ResolveRecords reports what is missing
    SQUID_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, db.GetShared(name));
    if (table->schema().primary_key().has_value()) tables.push_back(std::move(table));
  }
  return tables;
}

std::optional<uint32_t> AbductionReadyDb::FirstRowWithKey(const Table& table,
                                                          const Value& key) {
  const FlatJoinHash* pk = table.pk_index();
  if (pk == nullptr) return std::nullopt;
  const FlatJoinHash::RowSpan rows = pk->Lookup(*table.pk_column(), key);
  if (rows.empty()) return std::nullopt;
  return rows.data[0];
}

Status AbductionReadyDb::ResolveRecords() {
  for (const PropertyDescriptor& desc : graph_.descriptors()) {
    DescriptorRecord& rec = records_[desc.ordinal];
    if (!desc.hops.empty()) {
      if (rec.stats.has_value() != (rec.derived.values != nullptr)) {
        return Status::InvalidArgument(
            "descriptor '" + desc.id + "' has " +
            (rec.stats.has_value() ? "stats but no derived relation"
                                   : "a derived relation but no stats"));
      }
      continue;
    }
    if (!rec.stats.has_value()) continue;
    SQUID_ASSIGN_OR_RETURN(rec.basic, DimChain::Resolve(db_, desc));
  }
  return Status::OK();
}

Result<const PropertyStats*> AbductionReadyDb::StatsFor(
    const PropertyDescriptor& desc) const {
  const DescriptorRecord* rec = RecordOf(desc);
  if (rec == nullptr) return ForeignDescriptor(desc);
  if (!rec->stats.has_value()) {
    return Status::NotFound("no stats for descriptor '" + desc.id + "'");
  }
  return &*rec->stats;
}

Result<const PropertyStats*> AbductionReadyDb::StatsFor(
    const std::string& descriptor_id) const {
  SQUID_ASSIGN_OR_RETURN(const PropertyDescriptor* desc,
                         graph_.FindDescriptor(descriptor_id));
  return StatsFor(*desc);
}

bool AbductionReadyDb::Covers(const PropertyDescriptor& desc) const {
  const DescriptorRecord* rec = RecordOf(desc);
  return rec != nullptr && rec->stats.has_value();
}

Result<size_t> AbductionReadyDb::EntityRowByKey(const std::string& relation,
                                                const Value& key) const {
  auto table = db_.GetTable(relation);
  if (!table.ok() || table.value()->pk_index() == nullptr) {
    return Status::NotFound("no PK index for entity relation '" + relation + "'");
  }
  const std::optional<uint32_t> row = FirstRowWithKey(*table.value(), key);
  if (!row.has_value()) {
    return Status::NotFound("no " + relation + " row with key " + key.ToString());
  }
  return *row;
}

Result<Value> AbductionReadyDb::BasicValue(const PropertyDescriptor& desc,
                                           size_t row) const {
  const DescriptorRecord* rec = RecordOf(desc);
  if (rec == nullptr) return ForeignDescriptor(desc);
  if (!desc.hops.empty()) {
    return Status::InvalidArgument("BasicValue on non-basic descriptor " + desc.id);
  }
  if (rec->basic.terminal == nullptr) {
    return Status::NotFound("no stats for descriptor '" + desc.id + "'");
  }
  if (row >= rec->basic.entity->num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " is past the end of " +
                              desc.entity_relation);
  }
  const std::optional<size_t> terminal_row = rec->basic.Walk(row);
  return terminal_row.has_value() ? rec->basic.terminal->ValueAt(*terminal_row)
                                  : Value::Null();
}

AbductionReadyDb::DerivedColumns AbductionReadyDb::DerivedColumnsOf(
    const PropertyDescriptor& desc) const {
  const DescriptorRecord* rec = RecordOf(desc);
  return rec == nullptr ? DerivedColumns{} : rec->derived;
}

Result<EntityRows> AbductionReadyDb::DerivedRows(const PropertyDescriptor& desc,
                                                 size_t row) const {
  const DescriptorRecord* rec = RecordOf(desc);
  if (rec == nullptr) return ForeignDescriptor(desc);
  if (rec->derived.values == nullptr) {
    return Status::NotFound("no derived relation for descriptor '" + desc.id + "'");
  }
  if (row >= rec->entity_rows.size()) {
    return Status::OutOfRange("row " + std::to_string(row) + " is past the end of " +
                              desc.entity_relation);
  }
  return rec->entity_rows[row];
}

Result<std::vector<std::pair<Value, double>>> AbductionReadyDb::DerivedValues(
    const PropertyDescriptor& desc, const Value& key) const {
  const DescriptorRecord* rec = RecordOf(desc);
  if (rec == nullptr) return ForeignDescriptor(desc);
  if (rec->derived.values == nullptr) {
    return Status::NotFound("no derived relation for descriptor '" + desc.id + "'");
  }
  std::vector<std::pair<Value, double>> out;
  auto row = EntityRowByKey(desc.entity_relation, key);
  if (!row.ok()) return out;
  SQUID_ASSIGN_OR_RETURN(EntityRows rows, DerivedRows(desc, row.value()));
  out.reserve(rows.end - rows.begin);
  for (uint32_t r = rows.begin; r < rows.end; ++r) {
    out.emplace_back(rec->derived.values->ValueAt(r),
                     static_cast<double>(rec->derived.counts->Int64At(r)));
  }
  return out;
}

double AbductionReadyDb::EntityTotal(const PropertyDescriptor& desc,
                                     const Value& key) const {
  auto row = EntityRowByKey(desc.entity_relation, key);
  if (!row.ok()) return 0.0;
  auto rows = DerivedRows(desc, row.value());
  return rows.ok() ? rows.value().total : 0.0;
}

std::string AbductionReadyDb::DisplayValue(const PropertyDescriptor& desc,
                                           const Value& v) const {
  if (desc.kind == PropertyKind::kDerivedNumericBucket) {
    auto idx = v.ToNumeric();
    if (idx.ok()) {
      size_t i = static_cast<size_t>(idx.value());
      if (i < desc.bucket_thresholds.size()) {
        return desc.terminal_attr + ">=" + Value(desc.bucket_thresholds[i]).ToString();
      }
    }
    return v.ToString();
  }
  if (desc.kind == PropertyKind::kDerivedEntity) {
    // Resolve the associate's first text-search attribute for display.
    auto table = db_.GetTable(desc.terminal_relation);
    if (table.ok()) {
      const Schema& s = table.value()->schema();
      std::string display_attr;
      if (!s.text_search_attributes().empty()) {
        display_attr = s.text_search_attributes()[0];
      } else {
        for (const auto& a : s.attributes()) {
          if (a.type == ValueType::kString) {
            display_attr = a.name;
            break;
          }
        }
      }
      if (!display_attr.empty()) {
        const std::optional<uint32_t> row = FirstRowWithKey(*table.value(), v);
        auto col = table.value()->ColumnByName(display_attr);
        if (row.has_value() && col.ok()) return col.value()->ValueAt(*row).ToString();
      }
    }
  }
  return v.ToString();
}

}  // namespace squid
