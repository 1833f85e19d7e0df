#ifndef SQUID_CORE_DISAMBIGUATION_H_
#define SQUID_CORE_DISAMBIGUATION_H_

/// \file disambiguation.h
/// \brief Entity disambiguation (§6.1.1): when an example string matches
/// several rows (e.g. four movies titled "Titanic"), pick the mapping that
/// maximizes the semantic similarity across the example set. Candidates are
/// compared on their EntityContextProfiles (context_discovery.h), the same
/// per-entity profiles context discovery merges.

#include <memory>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "core/config.h"
#include "core/context_discovery.h"
#include "core/entity_lookup.h"

namespace squid {

/// \brief Resolves an EntityMatch to one entity key per example.
///
/// Scoring follows the paper's insight that "the provided examples are more
/// likely to be alike": a candidate combination is scored by the number of
/// (property, value) items shared by ALL chosen entities, with total derived
/// association strength as a tiebreaker. A basic descriptor is shared when
/// every chosen value is non-null and equal (weight 1); a derived value is
/// shared when every chosen profile holds it (weight: its smallest count).
/// Values compare exactly (Value::operator==). All combinations are
/// enumerated when their number is at most
/// `config.max_disambiguation_combos`; otherwise a seeded greedy pass is
/// used. With `config.enable_disambiguation == false` the first candidate
/// row of each example is chosen (the "w/o DA" ablation of Fig. 12).
Result<std::vector<Value>> DisambiguateEntities(const AbductionReadyDb& adb,
                                                const EntityMatch& match,
                                                const SquidConfig& config);

/// \brief A disambiguated example set with its row resolution kept: keys[i]
/// is the chosen entity key of example i and rows[i] its row in the matched
/// relation (straight from the candidate postings). Keeping the rows lets
/// the candidate loop in Squid::Discover hand them to context discovery
/// instead of re-resolving every key through the PK index per candidate.
/// profiles[i] is example i's chosen profile when disambiguation fetched it
/// (an ambiguous match), so context discovery does not fetch it again;
/// otherwise `profiles` is empty.
struct ResolvedEntities {
  std::vector<Value> keys;
  std::vector<size_t> rows;
  std::vector<std::shared_ptr<const EntityContextProfile>> profiles;
};

/// DisambiguateEntities variant that also returns the chosen rows and
/// profiles. Candidate profiles come from `provider` when non-null (serve
/// mode's cache), else each is built once, uncached. A candidate whose
/// profile fails to build fails the call.
Result<ResolvedEntities> ResolveEntities(
    const AbductionReadyDb& adb, const EntityMatch& match,
    const SquidConfig& config, const ContextProvider* provider = nullptr);

}  // namespace squid

#endif  // SQUID_CORE_DISAMBIGUATION_H_
