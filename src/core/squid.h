#ifndef SQUID_CORE_SQUID_H_
#define SQUID_CORE_SQUID_H_

/// \file squid.h
/// \brief End-to-end query intent discovery (Fig. 4's online module): entity
/// lookup and disambiguation, semantic-context discovery, query abduction,
/// and query construction. This is the library's primary public API.
///
/// Typical use:
/// \code
///   auto adb = AbductionReadyDb::Build(db).value();          // offline
///   Squid squid(adb.get());
///   auto abduced = squid.Discover({"Dan Suciu", "Sam Madden"});
///   std::cout << ToSql(abduced.value().original_query);
/// \endcode

#include <string>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "core/abduction_model.h"
#include "core/config.h"
#include "core/context_discovery.h"
#include "core/disambiguation.h"
#include "core/filter.h"
#include "core/query_builder.h"
#include "core/semantic_property.h"
#include "obs/trace.h"
#include "sql/ast.h"

namespace squid {

/// \brief Work counters for one Discover call (candidate fan-out width and
/// the entity-row point queries the hoisted lookup resolution saved).
struct DiscoverStats {
  /// (relation, attribute) base queries that covered every example.
  size_t candidate_base_queries = 0;
  /// Candidates that produced an abduction (the best one wins).
  size_t candidates_abduced = 0;
  /// EntityRowByKey resolutions performed during context discovery.
  size_t entity_row_lookups = 0;
  /// Resolutions skipped because the rows were hoisted from the candidate's
  /// entity-lookup postings (shared across the candidate loop).
  size_t entity_row_lookups_saved = 0;
};

/// \brief Result of query intent discovery.
struct AbducedQuery {
  /// Base-query structure: the matched entity relation and projection
  /// attribute (§6.2).
  std::string entity_relation;
  std::string projection_attr;

  /// Disambiguated entity keys, one per example.
  std::vector<Value> entity_keys;

  /// All minimal valid filters with their abduction state (included or not).
  std::vector<Filter> filters;

  /// The abduced query in αDB SPJ form (executes against
  /// AbductionReadyDb::database()).
  Query adb_query;

  /// The equivalent SPJAI query on the original schema.
  Query original_query;

  /// Log posterior score of the decided filter set (per fixed base query).
  double log_posterior = 0;

  /// Work counters for the call that produced this query.
  DiscoverStats stats;

  /// Number of included filters.
  size_t NumIncludedFilters() const;
};

/// \brief SQuID's online module.
class Squid {
 public:
  explicit Squid(const AbductionReadyDb* adb, SquidConfig config = {})
      : adb_(adb), config_(std::move(config)) {}

  const SquidConfig& config() const { return config_; }
  void set_config(SquidConfig config) { config_ = std::move(config); }

  /// Interposes `provider` on every per-entity profile fetch — entity
  /// disambiguation's and context discovery's (not owned; must outlive this
  /// Squid). nullptr restores uncached profile builds.
  void set_context_provider(const ContextProvider* provider) {
    context_provider_ = provider;
  }
  const ContextProvider* context_provider() const { return context_provider_; }

  /// Full pipeline from raw example strings: looks the examples up in the
  /// inverted index, disambiguates, and abduces the most probable query.
  /// When several (relation, attribute) base queries cover all examples,
  /// each is abduced and the one with the highest log posterior wins.
  ///
  /// `trace`, here and below, is an optional per-request span: when
  /// non-null, each pipeline phase (entity lookup, disambiguation, context
  /// discovery, abduction, query build) adds its wall time to it. Tracing
  /// is observational only — answers are byte-identical with trace set or
  /// null (the serve parity suite enforces this).
  Result<AbducedQuery> Discover(const std::vector<std::string>& examples,
                                obs::RequestTrace* trace = nullptr) const;

  /// Abduces for an already-resolved example set: entities `entity_keys` of
  /// `entity_relation`, projecting `projection_attr`.
  Result<AbducedQuery> DiscoverForEntities(
      const std::string& entity_relation, const std::string& projection_attr,
      const std::vector<Value>& entity_keys,
      obs::RequestTrace* trace = nullptr) const;

  /// One candidate base query end to end: disambiguates `match` (keeping
  /// the postings-resolved rows) and abduces. Discover runs this per match
  /// serially; serve mode fans it out and reduces with ReduceCandidates.
  /// The trace's phase cells are atomic, so the fan-out may pass the same
  /// trace from every pool thread.
  Result<AbducedQuery> AbduceCandidate(const EntityMatch& match,
                                       obs::RequestTrace* trace = nullptr) const;

  /// Picks the winner among per-candidate results, in slot order — the one
  /// canonical ranking (highest log posterior; ties favor the earlier
  /// match) shared by the serial loop and serve mode's parallel fan-out,
  /// so both produce bit-identical answers. Totals the per-candidate stats
  /// into the winner's.
  static Result<AbducedQuery> ReduceCandidates(
      std::vector<Result<AbducedQuery>> candidates);

 private:
  /// DiscoverForEntities for a ResolveEntities result: `resolved.rows`
  /// (hoisted from the candidate's postings) must parallel `resolved.keys`
  /// or be empty, and profiles disambiguation already fetched are merged
  /// as they are; only the missing ones are fetched.
  Result<AbducedQuery> DiscoverForResolvedEntities(
      const std::string& entity_relation, const std::string& projection_attr,
      ResolvedEntities resolved, obs::RequestTrace* trace) const;

  const AbductionReadyDb* adb_;
  SquidConfig config_;
  const ContextProvider* context_provider_ = nullptr;
};

}  // namespace squid

#endif  // SQUID_CORE_SQUID_H_
