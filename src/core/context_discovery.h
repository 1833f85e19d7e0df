#ifndef SQUID_CORE_CONTEXT_DISCOVERY_H_
#define SQUID_CORE_CONTEXT_DISCOVERY_H_

/// \file context_discovery.h
/// \brief Semantic context discovery (§6.1.2): derives the set X of semantic
/// contexts — one per minimal valid filter — exhibited by the example
/// entities, read from the αDB's per-descriptor records.
///
/// Discovery is split into two stages so serve mode can memoize the
/// per-entity half (see serve/context_cache.h):
///  1. BuildEntityContextProfile: everything the αDB knows about ONE entity,
///     one observation per descriptor. Depends only on (relation, key) —
///     never on the other examples or on SquidConfig — so a profile is a
///     cacheable, immutable unit. It is a view, not a copy: a derived
///     observation is the entity's row range in the αDB's derived relation
///     (which stores each entity's rows contiguously, in value order), so a
///     build is one array read per descriptor plus the basic values. It is
///     the only per-entity profile: entity disambiguation
///     (disambiguation.h) scores candidates on the same profiles, fetched
///     through the same ContextProvider.
///  2. MergeContextProfiles: folds the profiles of the whole example set
///     into shared contexts (value agreement, numeric ranges, association
///     intersections), reading values and counts straight off the derived
///     relation's columns; only a shared value that becomes a context is
///     materialized as a Value. Pure and deterministic given the profiles.
/// DiscoverContexts composes the two; any split evaluation (cached or
/// parallel profile builds) is bit-identical to the one-shot call because
/// observations are merged in canonical descriptor/entity order.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "core/config.h"
#include "core/semantic_property.h"

namespace squid {

/// \brief What one entity exhibits under one property descriptor.
struct DescriptorObservation {
  /// Basic (no-hop) kinds: the entity's value (null when absent).
  Value basic_value;
  /// Derived / multi-valued kinds: the entity's rows of the descriptor's
  /// derived relation (AbductionReadyDb::DerivedRows), in value order, and
  /// its association-portfolio total. Values and counts live in the
  /// relation's columns (AbductionReadyDb::DerivedColumnsOf); equal values
  /// may repeat, and every reader uses the first of them. Empty for basic
  /// kinds.
  EntityRows rows;
};

/// \brief The cacheable per-entity unit of context discovery: one
/// observation per descriptor of the entity's relation, in
/// SchemaGraph::OrdinalsFor order. A descriptor the αDB does not cover
/// (AbductionReadyDb::Covers) keeps an empty observation.
struct EntityContextProfile {
  /// Resolved row of the entity in its relation.
  size_t row = 0;
  std::vector<DescriptorObservation> observations;

  /// Bytes the profile occupies: the struct, its observation array and any
  /// basic string too long for the inline small-string buffer (for the
  /// serve-mode cache byte budget). The derived rows it views belong to the
  /// αDB and are not counted.
  size_t ApproxBytes() const;
};

/// \brief Builds the profile of the entity with key `entity_key` in
/// `entity_relation`. When `known_row` is non-null it is trusted as the
/// entity's row (hoisted from entity lookup postings), skipping the
/// EntityRowByKey resolution. The profile views `adb`'s derived relations
/// and must not outlive it.
Result<EntityContextProfile> BuildEntityContextProfile(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const Value& entity_key, const size_t* known_row = nullptr);

/// \brief Where Squid gets per-entity profiles, so serve mode can interpose
/// a cache (serve/context_cache.h) without the core knowing about caching.
/// Both entity disambiguation and context discovery fetch through it.
/// Contract for every implementation: the returned profile is bit-identical
/// to BuildEntityContextProfile's for the same entity.
class ContextProvider {
 public:
  virtual ~ContextProvider() = default;

  /// The profile of the entity with key `entity_key` in `entity_relation`.
  /// `known_row`, when non-null, is trusted as the entity's row (hoisted
  /// from entity-lookup postings); `from_cache`, when non-null, reports
  /// whether the profile was served without a build (and so without a
  /// PK-index resolution).
  virtual Result<std::shared_ptr<const EntityContextProfile>> Profile(
      const std::string& entity_relation, const Value& entity_key,
      const size_t* known_row, bool* from_cache) const = 0;
};

/// \brief The profile of one entity through `provider`, or — when
/// `provider` is null — built once, uncached (`from_cache` then reports
/// false). Arguments as for ContextProvider::Profile.
Result<std::shared_ptr<const EntityContextProfile>> FetchEntityContextProfile(
    const AbductionReadyDb& adb, const ContextProvider* provider,
    const std::string& entity_relation, const Value& entity_key,
    const size_t* known_row, bool* from_cache);

/// \brief Visits, in ascending value order, each distinct value of
/// `profiles[0]`'s observation `d` that the observation `d` of every other
/// profile also holds — one forward cursor per profile over its rows of
/// `values`, the descriptor's derived value column, ordered by
/// Column::CompareRows (Value::Compare without materializing a Value).
/// `fn(at)` receives at[i] = the row of `values` holding `profiles[i]`'s
/// first entry equal to the shared value. `at` is caller-owned scratch.
template <typename Fn>
void ForEachSharedValue(const Column& values,
                        const std::vector<const EntityContextProfile*>& profiles,
                        size_t d, std::vector<uint32_t>* at, Fn&& fn) {
  const EntityRows& first = profiles[0]->observations[d].rows;
  at->resize(profiles.size());
  for (size_t i = 1; i < profiles.size(); ++i) {
    (*at)[i] = profiles[i]->observations[d].rows.begin;
  }
  for (uint32_t k = first.begin; k < first.end; ++k) {
    if (k > first.begin && values.CompareRows(k - 1, k) == 0) continue;
    (*at)[0] = k;
    bool in_all = true;
    for (size_t i = 1; i < profiles.size() && in_all; ++i) {
      const uint32_t end = profiles[i]->observations[d].rows.end;
      uint32_t& j = (*at)[i];
      while (j < end && values.CompareRows(j, k) < 0) ++j;
      // Exhausted: every later value of `first` is larger still.
      if (j == end) return;
      in_all = values.CompareRows(j, k) == 0;
    }
    if (in_all) fn(*at);
  }
}

/// \brief Merges per-entity profiles (one per example, in example order)
/// into the shared semantic contexts. `profiles[i]` must be the profile of
/// `entity_relation`'s example i as built by BuildEntityContextProfile.
Result<std::vector<SemanticContext>> MergeContextProfiles(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const std::vector<const EntityContextProfile*>& profiles,
    const SquidConfig& config);

/// \brief Discovers all semantic contexts shared by the entities with keys
/// `entity_keys` in `entity_relation`.
///
/// Per descriptor kind (§6.1.2):
///  - basic categorical / dim-chain: a context when all examples share the
///    value v;
///  - basic numeric: the range [vmin, vmax] over the examples;
///  - multi-valued / derived: one context per value present in EVERY
///    example's association set, with θ = the minimum association strength
///    (derived kinds only).
///
/// `entity_rows`, when non-null, must parallel `entity_keys` with each
/// entity's already-resolved row (hoisted from entity-lookup postings);
/// profile builds then skip the per-key PK-index resolution.
Result<std::vector<SemanticContext>> DiscoverContexts(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const std::vector<Value>& entity_keys, const SquidConfig& config,
    const std::vector<size_t>* entity_rows = nullptr);

}  // namespace squid

#endif  // SQUID_CORE_CONTEXT_DISCOVERY_H_
