#ifndef SQUID_ADB_DERIVED_RELATION_H_
#define SQUID_ADB_DERIVED_RELATION_H_

/// \file derived_relation.h
/// \brief Materializes derived relations (§5, Fig. 5): for a property
/// descriptor with fact hops, produces the αDB table
/// `(entity_id, value, count, frac)` — e.g. persontogenre stores how many
/// movies of each genre each person appeared in (paper query Q6).
///
/// Materialization runs on row ids. HopAdjacencies resolves every distinct
/// hop of a build once — a fact hop to a CSR from a current-relation row to
/// its (fact row, next row) pairs, a dim hop to a CSR from a row to its
/// dimension rows, probed in the dimension's PK index — with keys packed by
/// PackProbeKey / FlatJoinHash, so the
/// joins keep Value equality (1 == 1.0, -0.0 == 0.0; nulls and dangling FKs
/// never join). Each descriptor then walks one entity at a time over those
/// read-only adjacencies: the frontier is bounded by one entity's fan-out,
/// and terminals are counted by packed key.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adb/schema_graph.h"
#include "common/status.h"
#include "storage/database.h"

namespace squid {

class ThreadPool;

/// \brief Row-id adjacencies for every hop of a set of descriptors, plus
/// each entity relation's primary-key visiting order. Built once per αDB
/// build and then shared read-only by every descriptor's walk. Holds column
/// pointers into the database it was built from, so it must not outlive it.
class HopAdjacencies {
 public:
  /// A resolved fact hop: row r of the current relation reaches the pairs
  /// [begin[r], begin[r + 1]) of (fact_rows, next_rows), in fact-row then
  /// next-row order. `fact_out` is the fact's out column (self-arrival
  /// checks compare it with the origin's key cell).
  struct FactAdjacency {
    std::vector<uint32_t> begin;
    std::vector<uint32_t> fact_rows;
    std::vector<uint32_t> next_rows;
    const Column* fact_out = nullptr;
  };

  /// A resolved dim hop: row r reaches dimension rows [begin[r], begin[r + 1]).
  struct DimAdjacency {
    std::vector<uint32_t> begin;
    std::vector<uint32_t> rows;
  };

  /// An entity relation's non-null-key rows sorted by key Value (ties by
  /// row id); rows [groups[g], groups[g + 1]) share one key.
  struct EntityOrder {
    std::vector<uint32_t> rows;
    std::vector<uint32_t> groups;
  };

  /// Resolves every distinct hop and entity order `descriptors` traverse
  /// against `db` (descriptors without fact hops contribute nothing). A dim
  /// hop reads the PK index of its dimension through DimStep, which needs
  /// it current and keying `dim_key` (InvalidArgument otherwise). The
  /// independent pieces build in parallel on `pool`; the result does not
  /// depend on its thread count.
  static Result<HopAdjacencies> Build(
      const Database& db, const std::vector<PropertyDescriptor>& descriptors,
      ThreadPool& pool);

  /// Lookups by hop identity (error when the hop was not resolved).
  Result<const FactAdjacency*> Fact(const std::string& current_relation,
                                    const std::string& current_key,
                                    const FactHop& hop) const;
  Result<const DimAdjacency*> Dim(const std::string& current_relation,
                                  const DimHop& dim) const;
  Result<const EntityOrder*> Entities(const std::string& relation,
                                      const std::string& key) const;

 private:
  std::map<std::string, FactAdjacency> facts_;
  std::map<std::string, DimAdjacency> dims_;
  std::map<std::string, EntityOrder> entities_;
};

/// Output of one materialization.
struct DerivedRelation {
  /// The derived table; null when the walk stopped at the row cap.
  std::shared_ptr<Table> table;
  /// True when the relation has more than `max_rows` rows. The walk stops
  /// at the first entity whose rows pass the cap.
  bool oversized = false;
};

/// \brief Materializes the derived relation for `desc` against `db`,
/// walking the hops resolved in `adjacencies`.
///
/// The produced table has schema (entity_id, value, count, frac):
///  - entity_id: the entity's primary key value;
///  - value: the terminal property value — a string for categorical
///    descriptors, the associated entity's key for kDerivedEntity, and the
///    bucket index for kDerivedNumericBucket (count of associates with
///    attr >= bucket_thresholds[value]);
///  - count: the association strength θ (number of path instances);
///  - frac: count / the entity's total (its number of non-null terminal
///    arrivals), the portfolio-normalized strength.
///
/// Rows are ordered by entity key Value, then value Value. Entity rows
/// with equal keys form one entity. Traversals that return to the origin
/// entity (e.g. co-actor paths) skip self-arrivals — paths whose fact out
/// cell equals the origin's key — so an entity is never its own associate.
/// `max_rows` > 0 caps the row count (see
/// DerivedRelation::oversized).
Result<DerivedRelation> MaterializeDerivedRelation(
    const Database& db, const HopAdjacencies& adjacencies,
    const PropertyDescriptor& desc, size_t max_rows = 0);

/// One entity's rows [begin, end) of a derived relation, and its total
/// association count (its number of non-null terminal arrivals; 0 when the
/// entity has no rows).
struct EntityRows {
  uint32_t begin = 0;
  uint32_t end = 0;
  double total = 0;
};

/// \brief Indexes `derived` (a materialized relation) by entity row: slot r
/// of the result holds the rows of the entity at row r of `entity`, the
/// entity relation, found through its PK index (Table::BuildPkIndex; an
/// entity relation without a current one is InvalidArgument). Entity rows
/// that share a key share its rows.
///
/// Checks the layout every reader of the ranges relies on: each entity's
/// rows are contiguous, and their values are non-decreasing under
/// Value::Compare. A relation that breaks either fails with
/// InvalidArgument, as does one with a missing or mistyped column
/// (count must be int64, frac double) or 2^32 rows or more. Rows whose
/// entity_id matches no entity row are unreachable and ignored.
///
/// The total is exact: llround(count / frac) undoes the materializer's
/// frac = count / total, where plain count / frac can land an ulp off
/// (9 / (9 / 14.0) is 13.999999999999998). It comes from the entity's last
/// row whose (count, frac) a materializer can produce (both positive, the
/// quotient at most 2^53); an entity with no such row totals 0.
Result<std::vector<EntityRows>> IndexDerivedEntities(const Table& derived,
                                                     const Table& entity);

}  // namespace squid

#endif  // SQUID_ADB_DERIVED_RELATION_H_
