#include "adb/derived_relation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"
#include "storage/join_hash.h"

namespace squid {

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

std::string FactKey(const std::string& current_relation,
                    const std::string& current_key, const FactHop& hop) {
  return current_relation + '\x1f' + current_key + '\x1f' + hop.fact_table +
         '\x1f' + hop.in_attr + '\x1f' + hop.out_attr + '\x1f' +
         hop.next_relation + '\x1f' + hop.next_key;
}

std::string DimKey(const std::string& current_relation, const DimHop& dim) {
  return current_relation + '\x1f' + dim.from_attr + '\x1f' + dim.dim_relation +
         '\x1f' + dim.dim_key;
}

std::string EntityKey(const std::string& relation, const std::string& key) {
  return relation + '\x1f' + key;
}

/// Value order of two non-null cells of one column. NaN, which Value
/// compares equal to every number, sorts last here so that sorting stays a
/// strict weak order.
int CompareCells(const Column& col, size_t a, size_t b) {
  switch (col.type()) {
    case ValueType::kInt64: {
      int64_t x = col.Int64At(a), y = col.Int64At(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kDouble: {
      double x = col.DoubleAt(a), y = col.DoubleAt(b);
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) - std::isnan(y);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kString: {
      if (col.SymbolAt(a) == col.SymbolAt(b)) return 0;
      int c = col.StringAt(a).compare(col.StringAt(b));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kNull:
      return 0;
  }
  return 0;
}

Result<const Table*> RowIdTable(const Database& db, const std::string& name) {
  SQUID_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
  if (table->num_rows() >= kNoRow) {
    return Status::InvalidArgument("relation '" + name +
                                   "' has too many rows for 32-bit row ids");
  }
  return table;
}

/// FlatJoinHash over every row of `col`.
FlatJoinHash HashAllRows(const Column& col) {
  std::vector<uint32_t> rows(col.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return FlatJoinHash::Build(col, rows);
}

Result<HopAdjacencies::FactAdjacency> BuildFact(const Database& db,
                                                const std::string& current_relation,
                                                const std::string& current_key,
                                                const FactHop& hop) {
  SQUID_ASSIGN_OR_RETURN(const Table* current, RowIdTable(db, current_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* key, current->ColumnByName(current_key));
  SQUID_ASSIGN_OR_RETURN(const Table* fact, RowIdTable(db, hop.fact_table));
  SQUID_ASSIGN_OR_RETURN(const Column* fact_in, fact->ColumnByName(hop.in_attr));
  SQUID_ASSIGN_OR_RETURN(const Column* fact_out, fact->ColumnByName(hop.out_attr));
  SQUID_ASSIGN_OR_RETURN(const Table* next, RowIdTable(db, hop.next_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* next_key, next->ColumnByName(hop.next_key));

  // Each fact row's next rows (empty for null or dangling out cells).
  const FlatJoinHash next_hash = HashAllRows(*next_key);
  std::vector<FlatJoinHash::RowSpan> next_of(fact->num_rows());
  uint64_t packed = 0;
  for (size_t fr = 0; fr < fact->num_rows(); ++fr) {
    if (PackProbeKey(*next_key, *fact_out, fr, &packed)) {
      next_of[fr] = next_hash.Probe(packed);
    }
  }

  const FlatJoinHash fact_hash = HashAllRows(*fact_in);
  HopAdjacencies::FactAdjacency adj;
  adj.fact_out = fact_out;
  adj.begin.reserve(current->num_rows() + 1);
  adj.begin.push_back(0);
  for (size_t r = 0; r < current->num_rows(); ++r) {
    if (PackProbeKey(*fact_in, *key, r, &packed)) {
      for (uint32_t fr : fact_hash.Probe(packed)) {
        for (uint32_t nr : next_of[fr]) {
          adj.fact_rows.push_back(fr);
          adj.next_rows.push_back(nr);
        }
      }
    }
    if (adj.next_rows.size() >= kNoRow) {
      return Status::InvalidArgument("fact hop through '" + hop.fact_table +
                                     "' has too many paths for 32-bit offsets");
    }
    adj.begin.push_back(static_cast<uint32_t>(adj.next_rows.size()));
  }
  return adj;
}

Result<HopAdjacencies::DimAdjacency> BuildDim(const Database& db,
                                              const std::string& current_relation,
                                              const DimHop& dim) {
  SQUID_ASSIGN_OR_RETURN(const Table* current, RowIdTable(db, current_relation));
  SQUID_ASSIGN_OR_RETURN(const DimStep step, DimStep::Resolve(db, *current, dim));

  HopAdjacencies::DimAdjacency adj;
  adj.begin.reserve(current->num_rows() + 1);
  adj.begin.push_back(0);
  for (size_t r = 0; r < current->num_rows(); ++r) {
    const FlatJoinHash::RowSpan span = step.Targets(r);
    adj.rows.insert(adj.rows.end(), span.begin(), span.end());
    if (adj.rows.size() >= kNoRow) {
      return Status::InvalidArgument("dim hop into '" + dim.dim_relation +
                                     "' has too many rows for 32-bit offsets");
    }
    adj.begin.push_back(static_cast<uint32_t>(adj.rows.size()));
  }
  return adj;
}

Result<HopAdjacencies::EntityOrder> BuildEntityOrder(const Database& db,
                                                     const std::string& relation,
                                                     const std::string& key) {
  SQUID_ASSIGN_OR_RETURN(const Table* entity, RowIdTable(db, relation));
  SQUID_ASSIGN_OR_RETURN(const Column* pk, entity->ColumnByName(key));
  HopAdjacencies::EntityOrder order;
  for (size_t r = 0; r < entity->num_rows(); ++r) {
    if (!pk->IsNull(r)) order.rows.push_back(static_cast<uint32_t>(r));
  }
  std::sort(order.rows.begin(), order.rows.end(), [pk](uint32_t a, uint32_t b) {
    int c = CompareCells(*pk, a, b);
    return c < 0 || (c == 0 && a < b);
  });
  for (size_t i = 0; i < order.rows.size(); ++i) {
    if (i == 0 || CompareCells(*pk, order.rows[i - 1], order.rows[i]) != 0) {
      order.groups.push_back(static_cast<uint32_t>(i));
    }
  }
  order.groups.push_back(static_cast<uint32_t>(order.rows.size()));
  return order;
}

}  // namespace

Result<HopAdjacencies> HopAdjacencies::Build(
    const Database& db, const std::vector<PropertyDescriptor>& descriptors,
    ThreadPool& pool) {
  // Each distinct piece gets its map slot up front (map nodes never move);
  // one task per piece then fills only its own slot.
  HopAdjacencies adj;
  std::vector<std::function<Status()>> tasks;
  auto plan = [&tasks](auto& map, std::string key, auto build) {
    auto [it, inserted] = map.try_emplace(std::move(key));
    if (!inserted) return;
    auto* slot = &it->second;
    tasks.push_back([slot, build]() -> Status {
      SQUID_ASSIGN_OR_RETURN(*slot, build());
      return Status::OK();
    });
  };
  for (const PropertyDescriptor& desc : descriptors) {
    if (desc.hops.empty()) continue;
    plan(adj.entities_, EntityKey(desc.entity_relation, desc.entity_key),
         [&db, &desc] {
           return BuildEntityOrder(db, desc.entity_relation, desc.entity_key);
         });
    const std::string* current = &desc.entity_relation;
    const std::string* current_key = &desc.entity_key;
    for (const FactHop& hop : desc.hops) {
      plan(adj.facts_, FactKey(*current, *current_key, hop),
           [&db, current, current_key, &hop] {
             return BuildFact(db, *current, *current_key, hop);
           });
      current = &hop.next_relation;
      current_key = &hop.next_key;
    }
    for (const DimHop& dim : desc.dims) {
      plan(adj.dims_, DimKey(*current, dim),
           [&db, current, &dim] { return BuildDim(db, *current, dim); });
      current = &dim.dim_relation;
    }
  }

  std::vector<Status> statuses(tasks.size());
  pool.ParallelFor(tasks.size(), [&](size_t i) { statuses[i] = tasks[i](); });
  for (const Status& status : statuses) SQUID_RETURN_NOT_OK(status);
  return adj;
}

Result<const HopAdjacencies::FactAdjacency*> HopAdjacencies::Fact(
    const std::string& current_relation, const std::string& current_key,
    const FactHop& hop) const {
  auto it = facts_.find(FactKey(current_relation, current_key, hop));
  if (it == facts_.end()) {
    return Status::NotFound("no adjacency for fact hop through '" +
                            hop.fact_table + "'");
  }
  return &it->second;
}

Result<const HopAdjacencies::DimAdjacency*> HopAdjacencies::Dim(
    const std::string& current_relation, const DimHop& dim) const {
  auto it = dims_.find(DimKey(current_relation, dim));
  if (it == dims_.end()) {
    return Status::NotFound("no adjacency for dim hop into '" + dim.dim_relation +
                            "'");
  }
  return &it->second;
}

Result<const HopAdjacencies::EntityOrder*> HopAdjacencies::Entities(
    const std::string& relation, const std::string& key) const {
  auto it = entities_.find(EntityKey(relation, key));
  if (it == entities_.end()) {
    return Status::NotFound("no entity order for '" + relation + "'");
  }
  return &it->second;
}

namespace {

/// One resolved hop of a descriptor's walk: row r reaches to[begin[r] ..
/// begin[r + 1]). Hops back into the entity relation skip self-arrivals:
/// pairs whose fact out cell (`self_out`, at fact row `via`) equals the
/// origin's key cell.
struct WalkStep {
  const uint32_t* begin = nullptr;
  const uint32_t* to = nullptr;
  const uint32_t* via = nullptr;
  const Column* self_out = nullptr;
};

}  // namespace

Result<DerivedRelation> MaterializeDerivedRelation(const Database& db,
                                                   const HopAdjacencies& adjacencies,
                                                   const PropertyDescriptor& desc,
                                                   size_t max_rows) {
  if (desc.hops.empty()) {
    return Status::InvalidArgument("descriptor '" + desc.id +
                                   "' has no fact hops; nothing to materialize");
  }
  SQUID_ASSIGN_OR_RETURN(const Table* entity, db.GetTable(desc.entity_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* entity_pk,
                         entity->ColumnByName(desc.entity_key));
  SQUID_ASSIGN_OR_RETURN(const HopAdjacencies::EntityOrder* order,
                         adjacencies.Entities(desc.entity_relation, desc.entity_key));

  std::vector<WalkStep> steps;
  const std::string* current = &desc.entity_relation;
  const std::string* current_key = &desc.entity_key;
  for (const FactHop& hop : desc.hops) {
    SQUID_ASSIGN_OR_RETURN(const HopAdjacencies::FactAdjacency* fact,
                           adjacencies.Fact(*current, *current_key, hop));
    WalkStep step{fact->begin.data(), fact->next_rows.data()};
    if (hop.next_relation == desc.entity_relation) {
      step.via = fact->fact_rows.data();
      step.self_out = fact->fact_out;
    }
    steps.push_back(step);
    current = &hop.next_relation;
    current_key = &hop.next_key;
  }
  for (const DimHop& dim : desc.dims) {
    SQUID_ASSIGN_OR_RETURN(const HopAdjacencies::DimAdjacency* adj,
                           adjacencies.Dim(*current, dim));
    steps.push_back(WalkStep{adj->begin.data(), adj->rows.data()});
    current = &dim.dim_relation;
  }
  SQUID_ASSIGN_OR_RETURN(const Table* terminal_table, db.GetTable(*current));
  SQUID_ASSIGN_OR_RETURN(const Column* terminal,
                         terminal_table->ColumnByName(desc.terminal_attr));

  const bool bucketed = desc.kind == PropertyKind::kDerivedNumericBucket;
  const std::vector<double>& thresholds = desc.bucket_thresholds;

  // Reused per-entity buffers. `hits` counts the entity's non-null
  // arrivals per terminal row (zero again after each entity); `touched`
  // lists the rows hit, in first-arrival order.
  std::vector<uint32_t> frontier, next;
  std::vector<uint32_t> hits(terminal_table->num_rows(), 0);
  std::vector<uint32_t> touched;
  std::vector<int64_t> bucket_counts(thresholds.size());

  // Output rows, buffered so the table is only built under the cap: the
  // key row, the value row (bucket index when bucketed), and the count.
  std::vector<uint32_t> out_entity, out_value;
  std::vector<int64_t> out_count;
  std::vector<double> out_frac;

  DerivedRelation result;
  for (uint32_t g = 0; g + 1 < order->groups.size(); ++g) {
    uint32_t key_row = kNoRow;  // first row of the entity with an arrival
    for (uint32_t i = order->groups[g]; i < order->groups[g + 1]; ++i) {
      const uint32_t origin = order->rows[i];
      frontier.assign(1, origin);
      for (const WalkStep& step : steps) {
        next.clear();
        for (uint32_t row : frontier) {
          for (uint32_t p = step.begin[row]; p < step.begin[row + 1]; ++p) {
            const uint32_t to = step.to[p];
            if (step.self_out != nullptr &&
                JoinCellsEqual(*step.self_out, step.via[p], *entity_pk, origin)) {
              continue;
            }
            next.push_back(to);
          }
        }
        frontier.swap(next);
      }
      for (uint32_t row : frontier) {
        if (terminal->IsNull(row)) continue;
        if (key_row == kNoRow) key_row = origin;
        if (hits[row]++ == 0) touched.push_back(row);
      }
    }
    if (touched.empty()) continue;

    int64_t total = 0;
    for (uint32_t row : touched) total += hits[row];
    const double denom = static_cast<double>(total);
    auto emit = [&](uint32_t value, int64_t count) {
      out_entity.push_back(key_row);
      out_value.push_back(value);
      out_count.push_back(count);
      out_frac.push_back(static_cast<double>(count) / denom);
    };
    if (bucketed) {
      std::fill(bucket_counts.begin(), bucket_counts.end(), 0);
      for (uint32_t row : touched) {
        const double v = terminal->NumericAt(row);
        for (size_t b = 0; b < thresholds.size(); ++b) {
          if (v >= thresholds[b]) bucket_counts[b] += hits[row];
        }
      }
      for (size_t b = 0; b < thresholds.size(); ++b) {
        if (bucket_counts[b] > 0) emit(static_cast<uint32_t>(b), bucket_counts[b]);
      }
    } else {
      // Order rows by Value, stably so that each value's run starts at its
      // first arrival (equal doubles may differ in sign bit), and emit one
      // row per run with the cell of that first arrival.
      std::stable_sort(touched.begin(), touched.end(),
                       [terminal](uint32_t a, uint32_t b) {
                         return CompareCells(*terminal, a, b) < 0;
                       });
      for (size_t i = 0, j = 0; i < touched.size(); i = j) {
        int64_t count = 0;
        for (j = i; j < touched.size() &&
                    CompareCells(*terminal, touched[i], touched[j]) == 0;
             ++j) {
          count += hits[touched[j]];
        }
        emit(touched[i], count);
      }
    }
    for (uint32_t row : touched) hits[row] = 0;
    touched.clear();
    if (max_rows > 0 && out_entity.size() > max_rows) {
      result.oversized = true;
      return result;
    }
  }

  // Emit the derived table: (entity_id, value, count, frac).
  ValueType value_type = bucketed ? ValueType::kInt64 : terminal->type();
  Schema schema(desc.derived_table,
                {{"entity_id", entity_pk->type()},
                 {"value", value_type},
                 {"count", ValueType::kInt64},
                 {"frac", ValueType::kDouble}});
  schema.AddForeignKey(
      ForeignKeyDef{"entity_id", desc.entity_relation, desc.entity_key});
  // Share the base database's pool so derived string values (and entity
  // keys) carry symbols comparable with the base columns'.
  auto table = std::make_shared<Table>(std::move(schema), db.pool());
  const size_t n = out_entity.size();
  table->Reserve(n);
  Column* entity_col = table->mutable_column(0);
  Column* value_col = table->mutable_column(1);
  Column* count_col = table->mutable_column(2);
  Column* frac_col = table->mutable_column(3);
  for (size_t i = 0; i < n; ++i) {
    entity_col->AppendFrom(*entity_pk, out_entity[i]);
    if (bucketed) {
      value_col->AppendInt64(out_value[i]);
    } else {
      value_col->AppendFrom(*terminal, out_value[i]);
    }
    count_col->AppendInt64(out_count[i]);
    frac_col->AppendDouble(out_frac[i]);
  }
  SQUID_RETURN_NOT_OK(table->FinishColumnFill(n));
  result.table = std::move(table);
  return result;
}

Result<std::vector<EntityRows>> IndexDerivedEntities(const Table& derived,
                                                     const Table& entity) {
  const FlatJoinHash* entity_pk = entity.pk_index();
  if (entity_pk == nullptr) {
    return Status::InvalidArgument("entity relation '" + entity.name() +
                                   "' has no primary-key index");
  }
  const Column* entity_key = entity.pk_column();
  SQUID_ASSIGN_OR_RETURN(const Column* entity_col, derived.ColumnByName("entity_id"));
  SQUID_ASSIGN_OR_RETURN(const Column* value_col, derived.ColumnByName("value"));
  SQUID_ASSIGN_OR_RETURN(const Column* count_col, derived.ColumnByName("count"));
  SQUID_ASSIGN_OR_RETURN(const Column* frac_col, derived.ColumnByName("frac"));
  auto malformed = [&](const std::string& what) {
    return Status::InvalidArgument("derived table '" + derived.name() + "' " + what);
  };
  if (count_col->type() != ValueType::kInt64 || frac_col->type() != ValueType::kDouble) {
    return malformed("has unexpected count/frac column types");
  }
  const size_t n = derived.num_rows();
  if (n >= kNoRow) return malformed("has too many rows for 32-bit row ranges");

  // Rows `a` and `b` hold one entity key: equal packed cells, or both NULL.
  auto same_key = [entity_col](size_t a, size_t b) {
    uint64_t ka = 0, kb = 0;
    return PackCellKey(*entity_col, a, &ka) == PackCellKey(*entity_col, b, &kb) && ka == kb;
  };
  constexpr double kMaxExactTotal = 9007199254740992.0;  // 2^53
  std::vector<EntityRows> ranges(entity.num_rows());
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    double total = 0;
    for (end = begin; end < n && same_key(begin, end); ++end) {
      if (end > begin && value_col->CompareRows(end - 1, end) > 0) {
        return malformed("lists the values of one entity out of order (rows " +
                         std::to_string(end - 1) + ", " + std::to_string(end) + ")");
      }
      const double count = static_cast<double>(count_col->Int64At(end));
      const double frac = frac_col->DoubleAt(end);
      if (!(count > 0 && frac > 0)) continue;
      const double quotient = count / frac;
      if (quotient <= kMaxExactTotal) total = static_cast<double>(std::llround(quotient));
    }
    uint64_t key = 0;
    if (!PackProbeKey(*entity_key, *entity_col, begin, &key)) continue;
    for (uint32_t row : entity_pk->Probe(key)) {  // none: unreachable rows
      EntityRows& slot = ranges[row];
      if (slot.end != 0) {
        return malformed("splits the rows of one entity (row " + std::to_string(begin) +
                         " starts its second run)");
      }
      slot = EntityRows{static_cast<uint32_t>(begin), static_cast<uint32_t>(end), total};
    }
  }
  return ranges;
}

}  // namespace squid
