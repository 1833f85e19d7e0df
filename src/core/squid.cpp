#include "core/squid.h"

#include "core/entity_lookup.h"

namespace squid {

size_t AbducedQuery::NumIncludedFilters() const {
  size_t n = 0;
  for (const auto& f : filters) {
    if (f.included) ++n;
  }
  return n;
}

Result<AbducedQuery> Squid::DiscoverForResolvedEntities(
    const std::string& entity_relation, const std::string& projection_attr,
    ResolvedEntities resolved, obs::RequestTrace* trace) const {
  AbducedQuery out;
  out.entity_relation = entity_relation;
  out.projection_attr = projection_attr;
  const std::vector<Value>& entity_keys = resolved.keys;
  const size_t n = entity_keys.size();

  std::vector<SemanticContext> contexts;
  {
    obs::ScopedPhaseTimer timer(trace, obs::Phase::kContextDiscovery);
    if (n == 0) {
      return Status::InvalidArgument("no entity keys for context discovery");
    }
    // Rows hoisted from the candidate's postings spare the PK-index
    // resolution of every profile build.
    const bool have_rows = resolved.rows.size() == n;
    resolved.profiles.resize(n);
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (resolved.profiles[i] != nullptr) continue;
      bool hit = false;
      SQUID_ASSIGN_OR_RETURN(
          resolved.profiles[i],
          FetchEntityContextProfile(*adb_, context_provider_, entity_relation,
                                    entity_keys[i],
                                    have_rows ? &resolved.rows[i] : nullptr,
                                    &hit));
      if (hit) ++hits;
    }
    // A cache hit spares the PK-index resolution entirely; hoisted rows
    // spare it for builds too (and disambiguation always has rows).
    if (have_rows) {
      out.stats.entity_row_lookups_saved += n;
    } else {
      out.stats.entity_row_lookups_saved += hits;
      out.stats.entity_row_lookups += n - hits;
    }
    std::vector<const EntityContextProfile*> views(n);
    for (size_t i = 0; i < n; ++i) views[i] = resolved.profiles[i].get();
    SQUID_ASSIGN_OR_RETURN(
        contexts, MergeContextProfiles(*adb_, entity_relation, views, config_));
  }
  out.entity_keys = std::move(resolved.keys);

  {
    obs::ScopedPhaseTimer timer(trace, obs::Phase::kAbduction);
    AbductionModel model(adb_, config_);
    SQUID_ASSIGN_OR_RETURN(out.filters, model.AbduceFilters(contexts, n));
    out.log_posterior = AbductionModel::LogPosterior(out.filters);
  }

  obs::ScopedPhaseTimer timer(trace, obs::Phase::kQueryBuild);
  QueryBuilder builder(adb_, config_);
  SQUID_ASSIGN_OR_RETURN(
      out.adb_query, builder.BuildAdbQuery(entity_relation, projection_attr,
                                           out.filters));
  SQUID_ASSIGN_OR_RETURN(
      out.original_query,
      builder.BuildOriginalQuery(entity_relation, projection_attr, out.filters));
  return out;
}

Result<AbducedQuery> Squid::DiscoverForEntities(
    const std::string& entity_relation, const std::string& projection_attr,
    const std::vector<Value>& entity_keys, obs::RequestTrace* trace) const {
  ResolvedEntities resolved;
  resolved.keys = entity_keys;
  return DiscoverForResolvedEntities(entity_relation, projection_attr,
                                     std::move(resolved), trace);
}

Result<AbducedQuery> Squid::AbduceCandidate(const EntityMatch& match,
                                            obs::RequestTrace* trace) const {
  // The row resolution and the chosen profiles are shared work: the
  // postings already name each chosen entity's row, and the profiles
  // disambiguation scored are the ones context discovery merges.
  ResolvedEntities resolved;
  {
    obs::ScopedPhaseTimer timer(trace, obs::Phase::kDisambiguation);
    SQUID_ASSIGN_OR_RETURN(resolved, ResolveEntities(*adb_, match, config_,
                                                     context_provider_));
  }
  return DiscoverForResolvedEntities(match.relation, match.attribute,
                                     std::move(resolved), trace);
}

Result<AbducedQuery> Squid::ReduceCandidates(
    std::vector<Result<AbducedQuery>> candidates) {
  bool have_best = false;
  AbducedQuery best;
  DiscoverStats totals;
  totals.candidate_base_queries = candidates.size();
  Status last_error = Status::OK();
  for (Result<AbducedQuery>& candidate : candidates) {
    if (!candidate.ok()) {
      last_error = candidate.status();
      continue;
    }
    ++totals.candidates_abduced;
    totals.entity_row_lookups += candidate.value().stats.entity_row_lookups;
    totals.entity_row_lookups_saved +=
        candidate.value().stats.entity_row_lookups_saved;
    // Rank candidate base queries by posterior; ties favor the earlier match
    // (entity relations first, then least ambiguity — see LookupExamples).
    if (!have_best || candidate.value().log_posterior > best.log_posterior) {
      best = std::move(candidate).value();
      have_best = true;
    }
  }
  if (!have_best) {
    if (!last_error.ok()) return last_error;
    return Status::NotFound("no candidate base query could be abduced");
  }
  best.stats = totals;
  return best;
}

Result<AbducedQuery> Squid::Discover(const std::vector<std::string>& examples,
                                     obs::RequestTrace* trace) const {
  std::vector<EntityMatch> matches;
  {
    obs::ScopedPhaseTimer timer(trace, obs::Phase::kEntityLookup);
    SQUID_ASSIGN_OR_RETURN(matches, LookupExamples(*adb_, examples));
  }
  std::vector<Result<AbducedQuery>> candidates;
  candidates.reserve(matches.size());
  for (const EntityMatch& match : matches) {
    candidates.push_back(AbduceCandidate(match, trace));
  }
  return ReduceCandidates(std::move(candidates));
}

}  // namespace squid
