#ifndef SQUID_ADB_STATISTICS_H_
#define SQUID_ADB_STATISTICS_H_

/// \file statistics.h
/// \brief Precomputed semantic-property statistics (§5 "Smart selectivity
/// computation"). For each property descriptor the αDB stores enough to
/// answer, in O(log n):
///  - categorical / multi-valued: ψ(attr = v);
///  - numeric: ψ(lo <= attr <= hi) via prefix counts over sorted values,
///    plus the domain extent used by the domain-coverage penalty δ(φ);
///  - derived: ψ(value = v, count >= θ) via per-value sorted association
///    strengths (suffix counts), in absolute or portfolio-normalized form.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adb/schema_graph.h"
#include "common/status.h"
#include "storage/database.h"
#include "storage/string_pool.h"

namespace squid {

class ExtentWriter;
class ExtentReader;

/// 64-bit map key for property values: string values intern to StringPool
/// symbols, numerics normalize to their double image (matching Value's
/// cross-type 1 == 1.0 equality). Replaces hashing whole Values on the
/// αDB's per-context selectivity probes.
struct ValueKey {
  uint64_t bits = 0;
  uint8_t tag = 0;  // 0 = never-matches sentinel, 1 = numeric, 2 = string

  bool operator==(const ValueKey& o) const { return bits == o.bits && tag == o.tag; }
};

struct ValueKeyHash {
  size_t operator()(const ValueKey& k) const {
    uint64_t h = k.bits + 0x9e3779b97f4a7c15ULL * (k.tag + 1);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// Statistics for one property descriptor.
class PropertyStats {
 public:
  PropertyKind kind() const { return kind_; }

  /// Number of entities in the descriptor's entity relation.
  size_t total_entities() const { return total_entities_; }

  /// Number of distinct property values observed.
  size_t domain_size() const;

  /// Domain extent (numeric descriptors; 0 when unavailable).
  double domain_min() const { return domain_min_; }
  double domain_max() const { return domain_max_; }

  /// ψ(attr = v): fraction of entities with the value (categorical,
  /// dim-chain, multi-valued descriptors).
  double SelectivityEquals(const Value& v) const;

  /// ψ(attr in [lo, hi]) for inline-numeric descriptors.
  double SelectivityRange(double lo, double hi) const;

  /// ψ(value = v, count >= theta) for derived descriptors.
  double SelectivityDerived(const Value& v, double theta) const;

  /// Same with θ as a fraction of the entity's total association count.
  double SelectivityDerivedNormalized(const Value& v, double frac) const;

  /// Number of entities that have any association for value v (θ >= 1).
  size_t EntitiesWithValue(const Value& v) const;

  /// Writes this descriptor's statistics to a snapshot extent. The
  /// unordered maps are emitted in sorted ValueKey order so snapshot bytes
  /// are deterministic. Defined in adb/adb_snapshot.cpp.
  void SnapshotSave(ExtentWriter* out) const;

  /// Restores statistics from a snapshot extent, re-linking string keys to
  /// the restored `pool`. Kinds, key tags, and string-key symbols are
  /// validated (untrusted input). Defined in adb/adb_snapshot.cpp.
  static Result<PropertyStats> SnapshotLoad(ExtentReader* in,
                                            std::shared_ptr<const StringPool> pool);

 private:
  friend class StatisticsBuilder;

  /// Packs `v` for probing: strings resolve through the pool without
  /// interning (absent string -> sentinel key that matches nothing).
  ValueKey KeyFor(const Value& v) const;

  /// Packs `v` for building, interning unseen strings.
  ValueKey InternKey(const Value& v, StringPool* pool);

  PropertyKind kind_ = PropertyKind::kInlineCategorical;
  size_t total_entities_ = 0;

  // Pool string keys resolve through (shared with the source database).
  std::shared_ptr<const StringPool> pool_;

  // Categorical-style: value -> #entities.
  std::unordered_map<ValueKey, size_t, ValueKeyHash> value_counts_;

  // Inline numeric: all non-null values, sorted ascending.
  std::vector<double> sorted_values_;
  double domain_min_ = 0;
  double domain_max_ = 0;

  // Derived: value -> sorted association strengths across entities
  // (ascending), absolute and normalized by per-entity totals.
  std::unordered_map<ValueKey, std::vector<double>, ValueKeyHash> theta_by_value_;
  std::unordered_map<ValueKey, std::vector<double>, ValueKeyHash> theta_norm_by_value_;
};

/// \brief Builds PropertyStats for descriptors.
class StatisticsBuilder {
 public:
  /// Stats for inline / dim-chain descriptors, computed from the entity
  /// table, each entity's dim chain walked by DimChain (through the PK
  /// indexes of `db`'s dim relations, which must be current).
  static Result<PropertyStats> BuildBasic(const Database& db,
                                          const PropertyDescriptor& desc);

  /// Stats for multi-valued / derived descriptors, computed from the
  /// materialized derived relation (entity_id, value, count, frac).
  static Result<PropertyStats> BuildFromDerived(const Table& derived,
                                                size_t total_entities);
};

}  // namespace squid

#endif  // SQUID_ADB_STATISTICS_H_
