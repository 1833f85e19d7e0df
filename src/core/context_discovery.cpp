#include "core/context_discovery.h"

#include <algorithm>
#include <functional>

namespace squid {

namespace {

/// Heap bytes behind one Value: a string's buffer once it has outgrown the
/// small-string storage inside the Value itself; nothing otherwise.
size_t ValueHeapBytes(const Value& v) {
  if (v.type() != ValueType::kString) return 0;
  const std::string& s = v.AsString();
  const std::less<const void*> before;
  const void* data = s.data();
  const bool inline_buffer = !before(data, &s) && before(data, &s + 1);
  return inline_buffer ? 0 : s.capacity() + 1;
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
    bytes += ValueHeapBytes(obs.basic_value);
  }
  return bytes;
}

Result<EntityContextProfile> BuildEntityContextProfile(
    const AbductionReadyDb& adb, const std::string& entity_relation,
    const Value& entity_key, const size_t* known_row) {
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
  for (size_t d = 0; d < ordinals.size(); ++d) {
    const PropertyDescriptor& desc = graph.descriptors()[ordinals[d]];
    // A descriptor the αDB does not cover (skipped by max_derived_rows)
    // keeps the empty observation, which no merge or score ever shares.
    if (!adb.Covers(desc)) continue;
    DescriptorObservation& obs = profile.observations[d];
    if (desc.hops.empty()) {
      SQUID_ASSIGN_OR_RETURN(obs.basic_value, adb.BasicValue(desc, profile.row));
    } else {
      SQUID_ASSIGN_OR_RETURN(obs.rows, adb.DerivedRows(desc, profile.row));
    }
  }
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

  std::vector<uint32_t> at;  // ForEachSharedValue cursors
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
    const AbductionReadyDb::DerivedColumns cols = adb.DerivedColumnsOf(*desc);
    ForEachSharedValue(*cols.values, profiles, d, &at,
                       [&](const std::vector<uint32_t>& rows) {
      double theta = 0, theta_norm = 0;
      for (size_t i = 0; i < profiles.size(); ++i) {
        const double total = profiles[i]->observations[d].rows.total;
        const double count = static_cast<double>(cols.counts->Int64At(rows[i]));
        const double norm = total > 0 ? count / total : 0.0;
        theta = i == 0 ? count : std::min(theta, count);
        theta_norm = i == 0 ? norm : std::min(theta_norm, norm);
      }
      SemanticContext ctx;
      ctx.property.descriptor = desc;
      // The last example's representation of the shared value.
      ctx.property.value = cols.values->ValueAt(rows.back());
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
