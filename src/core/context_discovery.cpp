#include "core/context_discovery.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace squid {

namespace {

/// Approximate heap bytes behind one Value (string payload only; numeric
/// and null variants live inline).
size_t ValueBytes(const Value& v) {
  return v.type() == ValueType::kString ? v.AsString().size() : 0;
}

/// Point-queries the αDB for what `key` (at `row`) exhibits under `desc`.
/// A descriptor the αDB does not cover (skipped by max_derived_rows) keeps
/// the empty observation, which no merge or score ever shares.
Status ObserveDescriptor(const AbductionReadyDb& adb,
                         const PropertyDescriptor& desc, size_t row,
                         const Value& key, DescriptorObservation* out) {
  if (!adb.Covers(desc)) return Status::OK();
  if (desc.hops.empty()) {
    SQUID_ASSIGN_OR_RETURN(out->basic_value, adb.BasicValue(desc, row));
    return Status::OK();
  }
  SQUID_ASSIGN_OR_RETURN(out->values, adb.DerivedValues(desc, key));
  // Sorted values let readers intersect example sets with forward cursors;
  // stability keeps the first of equal values first. The αDB's derived
  // relations already list each entity's values in order, so normally only
  // the scan runs; the sort keeps the contract independent of that layout.
  auto by_value = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(out->values.begin(), out->values.end(), by_value)) {
    std::stable_sort(out->values.begin(), out->values.end(), by_value);
  }
  out->total = adb.EntityTotal(desc, key);
  return Status::OK();
}

/// Merges the basic observations of one descriptor: numeric kinds yield the
/// tightest [lo, hi] range over the examples, categorical kinds a context
/// only when every example shares the value.
Status MergeBasicObservations(const PropertyDescriptor& desc,
                              const std::vector<const EntityContextProfile*>& profiles,
                              size_t desc_index, size_t support,
                              std::vector<SemanticContext>* out) {
  if (desc.kind == PropertyKind::kInlineNumeric) {
    double lo = 0, hi = 0;
    bool first = true;
    for (const EntityContextProfile* profile : profiles) {
      const Value& v = profile->observations[desc_index].basic_value;
      if (v.is_null()) return Status::OK();  // not shared by all
      SQUID_ASSIGN_OR_RETURN(double num, v.ToNumeric());
      if (first) {
        lo = hi = num;
        first = false;
      } else {
        lo = std::min(lo, num);
        hi = std::max(hi, num);
      }
    }
    if (first) return Status::OK();
    SemanticContext ctx;
    ctx.property.descriptor = &desc;
    ctx.property.lo = lo;
    ctx.property.hi = hi;
    ctx.support = support;
    out->push_back(std::move(ctx));
    return Status::OK();
  }
  // Categorical: all examples must share the same value.
  Value shared;
  bool first = true;
  for (const EntityContextProfile* profile : profiles) {
    const Value& v = profile->observations[desc_index].basic_value;
    if (v.is_null()) return Status::OK();
    if (first) {
      shared = v;
      first = false;
    } else if (!(shared == v)) {
      return Status::OK();
    }
  }
  if (first) return Status::OK();
  SemanticContext ctx;
  ctx.property.descriptor = &desc;
  ctx.property.value = shared;
  ctx.support = support;
  out->push_back(std::move(ctx));
  return Status::OK();
}

}  // namespace

size_t EntityContextProfile::ApproxBytes() const {
  size_t bytes = sizeof(EntityContextProfile) +
                 observations.capacity() * sizeof(DescriptorObservation);
  for (const DescriptorObservation& obs : observations) {
    bytes += ValueBytes(obs.basic_value);
    bytes += obs.values.capacity() * sizeof(std::pair<Value, double>);
    for (const auto& [v, count] : obs.values) {
      (void)count;
      bytes += ValueBytes(v);
    }
  }
  return bytes;
}

Result<EntityContextProfile> BuildEntityContextProfile(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const Value& entity_key, const size_t* known_row, ThreadPool* pool) {
  EntityContextProfile profile;
  if (known_row != nullptr) {
    profile.row = *known_row;
  } else {
    SQUID_ASSIGN_OR_RETURN(profile.row,
                           adb.EntityRowByKey(entity_relation, entity_key));
  }
  const SchemaGraph& graph = adb.schema_graph();
  const std::vector<size_t>& ordinals = graph.OrdinalsFor(entity_relation);
  profile.observations.resize(ordinals.size());
  auto observe = [&](size_t d) {
    return ObserveDescriptor(adb, graph.descriptors()[ordinals[d]], profile.row,
                             entity_key, &profile.observations[d]);
  };
  if (pool != nullptr && pool->num_threads() > 1 && ordinals.size() > 1) {
    // Per-descriptor point queries are independent; fan them out into
    // canonical slots (bit-identical to the serial loop below).
    std::vector<Status> statuses(ordinals.size());
    pool->ParallelFor(ordinals.size(), [&](size_t d) { statuses[d] = observe(d); });
    for (const Status& st : statuses) SQUID_RETURN_NOT_OK(st);
    return profile;
  }
  for (size_t d = 0; d < ordinals.size(); ++d) SQUID_RETURN_NOT_OK(observe(d));
  return profile;
}

Result<std::shared_ptr<const EntityContextProfile>> FetchEntityContextProfile(
    const AbductionReadyDb& adb, const ContextProvider* provider,
    const std::string& entity_relation, const Value& entity_key,
    const size_t* known_row, bool* from_cache) {
  if (provider != nullptr) {
    return provider->Profile(entity_relation, entity_key, known_row,
                             from_cache);
  }
  if (from_cache != nullptr) *from_cache = false;
  SQUID_ASSIGN_OR_RETURN(
      EntityContextProfile built,
      BuildEntityContextProfile(adb, entity_relation, entity_key, known_row));
  return std::make_shared<const EntityContextProfile>(std::move(built));
}

Result<std::vector<SemanticContext>> MergeContextProfiles(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const std::vector<const EntityContextProfile*>& profiles,
    const SquidConfig& config) {
  std::vector<SemanticContext> contexts;
  if (profiles.empty()) {
    return Status::InvalidArgument("no entity profiles for context discovery");
  }
  const size_t support = profiles.size();
  const SchemaGraph& graph = adb.schema_graph();
  const std::vector<size_t>& ordinals = graph.OrdinalsFor(entity_relation);
  for (const EntityContextProfile* profile : profiles) {
    if (profile == nullptr || profile->observations.size() != ordinals.size()) {
      return Status::Internal("entity profile does not match descriptor set of '" +
                              entity_relation + "'");
    }
  }

  std::vector<size_t> at;  // ForEachSharedValue cursors
  for (size_t d = 0; d < ordinals.size(); ++d) {
    const PropertyDescriptor* desc = &graph.descriptors()[ordinals[d]];
    if (!adb.Covers(*desc)) continue;  // empty slot: nothing to share
    if (desc->hops.empty()) {
      SQUID_RETURN_NOT_OK(
          MergeBasicObservations(*desc, profiles, d, support, &contexts));
      continue;
    }
    // Multi-valued / derived: one context per value every example holds,
    // with θ the smallest count and θ_norm the smallest count / total.
    ForEachSharedValue(profiles, d, &at, [&](const std::vector<size_t>& idx) {
      double theta = 0, theta_norm = 0;
      for (size_t i = 0; i < profiles.size(); ++i) {
        const DescriptorObservation& obs = profiles[i]->observations[d];
        const double count = obs.values[idx[i]].second;
        const double norm = obs.total > 0 ? count / obs.total : 0.0;
        theta = i == 0 ? count : std::min(theta, count);
        theta_norm = i == 0 ? norm : std::min(theta_norm, norm);
      }
      SemanticContext ctx;
      ctx.property.descriptor = desc;
      // The last example's representation of the shared value.
      ctx.property.value =
          profiles.back()->observations[d].values[idx.back()].first;
      if (desc->derived) {
        ctx.property.theta = theta;
        if (config.normalize_association) ctx.property.theta_norm = theta_norm;
      }
      ctx.support = support;
      contexts.push_back(std::move(ctx));
    });
  }
  return contexts;
}

Result<std::vector<SemanticContext>> DiscoverContexts(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const std::vector<Value>& entity_keys, const SquidConfig& config,
    const std::vector<size_t>* entity_rows) {
  if (entity_keys.empty()) {
    return Status::InvalidArgument("no entity keys for context discovery");
  }
  if (entity_rows != nullptr && entity_rows->size() != entity_keys.size()) {
    return Status::InvalidArgument("entity_rows does not parallel entity_keys");
  }
  std::vector<EntityContextProfile> profiles;
  profiles.reserve(entity_keys.size());
  for (size_t i = 0; i < entity_keys.size(); ++i) {
    const size_t* row = entity_rows != nullptr ? &(*entity_rows)[i] : nullptr;
    SQUID_ASSIGN_OR_RETURN(
        EntityContextProfile profile,
        BuildEntityContextProfile(adb, entity_relation, entity_keys[i], row));
    profiles.push_back(std::move(profile));
  }
  std::vector<const EntityContextProfile*> views;
  views.reserve(profiles.size());
  for (const EntityContextProfile& p : profiles) views.push_back(&p);
  return MergeContextProfiles(adb, entity_relation, views, config);
}

}  // namespace squid
