#include "core/disambiguation.h"

#include <algorithm>

namespace squid {

namespace {

/// Primary-key column of `relation` (entity keys are read off it by row).
Result<const Column*> KeyColumn(const AbductionReadyDb& adb,
                                const std::string& relation) {
  SQUID_ASSIGN_OR_RETURN(const Table* table, adb.database().GetTable(relation));
  const auto& pk = table->schema().primary_key();
  if (!pk) return Status::InvalidArgument("relation '" + relation + "' has no PK");
  return table->ColumnByName(*pk);
}

/// Similarity of a combination: (#items shared by all, total shared weight).
/// A basic descriptor is an item of weight 1 when every chosen value is
/// non-null and equal; each derived value of the first profile that every
/// other profile holds is an item weighted by its smallest count (so ties
/// favor stronger associations, per §6.1.1). `columns[d]` are observation
/// d's derived columns (null for basic and uncovered descriptors); `at` is
/// cursor scratch.
std::pair<double, double> ScoreProfiles(
    const std::vector<const EntityContextProfile*>& chosen,
    const std::vector<AbductionReadyDb::DerivedColumns>& columns,
    std::vector<uint32_t>* at) {
  if (chosen.empty()) return {0, 0};
  double shared = 0, weight = 0;
  const std::vector<DescriptorObservation>& first = chosen[0]->observations;
  for (size_t d = 0; d < first.size(); ++d) {
    const Value& basic = first[d].basic_value;
    if (!basic.is_null()) {
      bool in_all = true;
      for (size_t i = 1; i < chosen.size() && in_all; ++i) {
        in_all = chosen[i]->observations[d].basic_value == basic;
      }
      if (in_all) {
        shared += 1;
        weight += 1;
      }
      continue;
    }
    const Column* counts = columns[d].counts;
    if (counts == nullptr) continue;
    ForEachSharedValue(*columns[d].values, chosen, d, at,
                       [&](const std::vector<uint32_t>& rows) {
      double min_w = static_cast<double>(counts->Int64At(rows[0]));
      for (size_t i = 1; i < chosen.size(); ++i) {
        min_w = std::min(min_w, static_cast<double>(counts->Int64At(rows[i])));
      }
      shared += 1;
      weight += min_w;
    });
  }
  return {shared, weight};
}

bool BetterScore(const std::pair<double, double>& a,
                 const std::pair<double, double>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second > b.second;
}

}  // namespace

Result<std::vector<Value>> DisambiguateEntities(const AbductionReadyDb& adb,
                                                const EntityMatch& match,
                                                const SquidConfig& config) {
  SQUID_ASSIGN_OR_RETURN(ResolvedEntities resolved,
                         ResolveEntities(adb, match, config));
  return std::move(resolved.keys);
}

Result<ResolvedEntities> ResolveEntities(const AbductionReadyDb& adb,
                                         const EntityMatch& match,
                                         const SquidConfig& config,
                                         const ContextProvider* provider) {
  const size_t n = match.candidate_rows.size();
  ResolvedEntities resolved;
  resolved.keys.resize(n);
  resolved.rows.resize(n);

  bool ambiguous = false;
  for (const auto& rows : match.candidate_rows) {
    if (rows.empty()) return Status::InvalidArgument("example with no candidates");
    if (rows.size() > 1) ambiguous = true;
  }
  SQUID_ASSIGN_OR_RETURN(const Column* key_col, KeyColumn(adb, match.relation));
  if (!ambiguous || !config.enable_disambiguation) {
    for (size_t i = 0; i < n; ++i) {
      resolved.rows[i] = match.candidate_rows[i][0];
      resolved.keys[i] = key_col->ValueAt(resolved.rows[i]);
    }
    return resolved;
  }

  // Fetch every candidate's profile, once per distinct row.
  using ProfilePtr = std::shared_ptr<const EntityContextProfile>;
  std::vector<std::vector<ProfilePtr>> profiles(n);
  std::vector<std::pair<size_t, ProfilePtr>> fetched;
  for (size_t i = 0; i < n; ++i) {
    profiles[i].reserve(match.candidate_rows[i].size());
    for (size_t row : match.candidate_rows[i]) {
      auto same = std::find_if(fetched.begin(), fetched.end(),
                               [row](const auto& f) { return f.first == row; });
      if (same != fetched.end()) {
        profiles[i].push_back(same->second);
        continue;
      }
      SQUID_ASSIGN_OR_RETURN(
          ProfilePtr profile,
          FetchEntityContextProfile(adb, provider, match.relation,
                                    key_col->ValueAt(row), &row, nullptr));
      fetched.emplace_back(row, profile);
      profiles[i].push_back(std::move(profile));
    }
  }

  // Each observation's derived columns, resolved once for every score.
  const SchemaGraph& graph = adb.schema_graph();
  std::vector<AbductionReadyDb::DerivedColumns> columns;
  for (size_t ordinal : graph.OrdinalsFor(match.relation)) {
    columns.push_back(adb.DerivedColumnsOf(graph.descriptors()[ordinal]));
  }
  std::vector<uint32_t> at;  // ScoreProfiles cursor scratch
  std::vector<size_t> best(n, 0);
  if (match.NumCombinations() <= static_cast<double>(config.max_disambiguation_combos)) {
    // Exhaustive enumeration (§6.1.1: "the examples are typically few").
    std::vector<size_t> current(n, 0);
    std::vector<const EntityContextProfile*> chosen(n);
    std::pair<double, double> best_score{-1, -1};
    while (true) {
      for (size_t i = 0; i < n; ++i) chosen[i] = profiles[i][current[i]].get();
      auto score = ScoreProfiles(chosen, columns, &at);
      if (BetterScore(score, best_score)) {
        best_score = score;
        best = current;
      }
      // Advance the mixed-radix counter.
      size_t d = 0;
      while (d < n && ++current[d] == match.candidate_rows[d].size()) {
        current[d] = 0;
        ++d;
      }
      if (d == n) break;
    }
  } else {
    // Greedy with seeds: order examples by ambiguity; try each candidate of
    // the most constrained ambiguous example as a seed.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return match.candidate_rows[a].size() < match.candidate_rows[b].size();
    });
    std::pair<double, double> best_score{-1, -1};
    size_t seed_example = order[0];
    for (size_t seed = 0; seed < profiles[seed_example].size(); ++seed) {
      std::vector<size_t> current(n, 0);
      current[seed_example] = seed;
      std::vector<const EntityContextProfile*> chosen;
      chosen.push_back(profiles[seed_example][seed].get());
      for (size_t oi = 0; oi < n; ++oi) {
        size_t ex = order[oi];
        if (ex == seed_example) continue;
        std::pair<double, double> local_best{-1, -1};
        size_t local_pick = 0;
        for (size_t c = 0; c < profiles[ex].size(); ++c) {
          chosen.push_back(profiles[ex][c].get());
          auto score = ScoreProfiles(chosen, columns, &at);
          chosen.pop_back();
          if (BetterScore(score, local_best)) {
            local_best = score;
            local_pick = c;
          }
        }
        current[ex] = local_pick;
        chosen.push_back(profiles[ex][local_pick].get());
      }
      auto score = ScoreProfiles(chosen, columns, &at);
      if (BetterScore(score, best_score)) {
        best_score = score;
        best = current;
      }
    }
  }

  resolved.profiles.resize(n);
  for (size_t i = 0; i < n; ++i) {
    resolved.rows[i] = match.candidate_rows[i][best[i]];
    resolved.keys[i] = key_col->ValueAt(resolved.rows[i]);
    resolved.profiles[i] = profiles[i][best[i]];
  }
  return resolved;
}

}  // namespace squid
