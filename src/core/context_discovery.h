#ifndef SQUID_CORE_CONTEXT_DISCOVERY_H_
#define SQUID_CORE_CONTEXT_DISCOVERY_H_

/// \file context_discovery.h
/// \brief Semantic context discovery (§6.1.2): derives the set X of semantic
/// contexts — one per minimal valid filter — exhibited by the example
/// entities, by point-querying the αDB per descriptor.
///
/// Discovery is split into two stages so serve mode can memoize the
/// per-entity half (see serve/context_cache.h):
///  1. BuildEntityContextProfile: everything the αDB knows about ONE entity,
///     one observation per descriptor. Depends only on (relation, key) —
///     never on the other examples or on SquidConfig — so a profile is a
///     cacheable, immutable unit. It is the only per-entity profile: entity
///     disambiguation (disambiguation.h) scores candidates on the same
///     profiles, fetched through the same ContextProvider.
///  2. MergeContextProfiles: folds the profiles of the whole example set
///     into shared contexts (value agreement, numeric ranges, association
///     intersections). Cheap, pure, and deterministic given the profiles.
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

class ThreadPool;

/// \brief What one entity exhibits under one property descriptor.
struct DescriptorObservation {
  /// Basic (no-hop) kinds: the entity's value (null when absent).
  Value basic_value;
  /// Derived / multi-valued kinds: the entity's (value, count) associations,
  /// stably sorted by value (equal values keep their αDB point-query order,
  /// and every reader uses the first of them), plus its association-portfolio
  /// total.
  std::vector<std::pair<Value, double>> values;
  double total = 0;
};

/// \brief The cacheable per-entity unit of context discovery: one
/// observation per descriptor of the entity's relation, in
/// SchemaGraph::OrdinalsFor order. A descriptor the αDB does not cover
/// (AbductionReadyDb::Covers) keeps an empty observation.
struct EntityContextProfile {
  /// Resolved row of the entity in its relation.
  size_t row = 0;
  std::vector<DescriptorObservation> observations;

  /// Approximate heap footprint (for the serve-mode cache byte budget).
  size_t ApproxBytes() const;
};

/// \brief Builds the profile of the entity with key `entity_key` in
/// `entity_relation`. When `known_row` is non-null it is trusted as the
/// entity's row (hoisted from entity lookup postings), skipping the
/// EntityRowByKey resolution. With a `pool`, the per-descriptor point
/// queries fan out on it (observations land in canonical slots, so the
/// result is identical at any thread count).
Result<EntityContextProfile> BuildEntityContextProfile(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const Value& entity_key, const size_t* known_row = nullptr,
    ThreadPool* pool = nullptr);

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
/// profile also holds — one forward cursor per profile over the sorted
/// `values`. `fn(at)` receives at[i] = the index in `profiles[i]`'s values of
/// the first entry equal to the shared value. `at` is caller-owned scratch.
template <typename Fn>
void ForEachSharedValue(
    const std::vector<const EntityContextProfile*>& profiles, size_t d,
    std::vector<size_t>* at, Fn&& fn) {
  const std::vector<std::pair<Value, double>>& first =
      profiles[0]->observations[d].values;
  at->assign(profiles.size(), 0);
  for (size_t k = 0; k < first.size(); ++k) {
    const Value& v = first[k].first;
    if (k > 0 && first[k - 1].first == v) continue;  // first of equal values
    (*at)[0] = k;
    bool in_all = true;
    for (size_t i = 1; i < profiles.size() && in_all; ++i) {
      const std::vector<std::pair<Value, double>>& values =
          profiles[i]->observations[d].values;
      size_t& j = (*at)[i];
      while (j < values.size() && values[j].first < v) ++j;
      // Exhausted: every later value of `first` is larger still.
      if (j == values.size()) return;
      in_all = values[j].first == v;
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
