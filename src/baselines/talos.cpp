#include "baselines/talos.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace squid {

namespace {

/// Collects the basic (no-hop) descriptors of an entity relation.
std::vector<const PropertyDescriptor*> BasicDescriptors(
    const AbductionReadyDb& adb, const std::string& relation) {
  std::vector<const PropertyDescriptor*> out;
  for (const PropertyDescriptor* d : adb.schema_graph().DescriptorsFor(relation)) {
    if (d->hops.empty()) out.push_back(d);
  }
  return out;
}

/// Finds the first association fact incident to `relation` together with the
/// far entity, and the far entity's first property-link fact (if any).
struct DenormPath {
  const PropertyDescriptor* assoc_identity = nullptr;  // entity -> far entity
  const PropertyDescriptor* far_property_link = nullptr;  // far -> dim value
};

DenormPath PickDenormPath(const AbductionReadyDb& adb, const std::string& relation) {
  DenormPath path;
  for (const PropertyDescriptor* d : adb.schema_graph().DescriptorsFor(relation)) {
    if (d->kind == PropertyKind::kDerivedEntity && d->hops.size() == 1) {
      path.assoc_identity = d;
      break;
    }
  }
  if (path.assoc_identity != nullptr) {
    const std::string& far = path.assoc_identity->terminal_relation;
    for (const PropertyDescriptor* d : adb.schema_graph().DescriptorsFor(far)) {
      if (d->kind == PropertyKind::kMultiValued && d->hops.size() == 1) {
        path.far_property_link = d;
        break;
      }
    }
  }
  return path;
}

}  // namespace

Result<TalosResult> RunTalos(const AbductionReadyDb& adb,
                             const std::string& entity_relation,
                             const std::vector<Value>& positive_keys,
                             const TalosOptions& options) {
  Stopwatch timer;
  TalosResult result;
  Rng rng(options.seed);

  SQUID_ASSIGN_OR_RETURN(const Table* entity,
                         adb.database().GetTable(entity_relation));
  const auto& pk_attr = entity->schema().primary_key();
  if (!pk_attr) {
    return Status::InvalidArgument("entity relation without primary key");
  }
  SQUID_ASSIGN_OR_RETURN(const Column* pk_col, entity->ColumnByName(*pk_attr));

  std::unordered_set<Value, ValueHash> positives(positive_keys.begin(),
                                                 positive_keys.end());

  // --- Assemble the denormalized feature table. ---
  std::vector<const PropertyDescriptor*> basics =
      BasicDescriptors(adb, entity_relation);
  DenormPath path = PickDenormPath(adb, entity_relation);

  std::vector<FeatureDef> defs;
  for (const PropertyDescriptor* d : basics) {
    bool categorical = d->kind != PropertyKind::kInlineNumeric;
    defs.push_back(FeatureDef{d->display_name, categorical});
  }
  size_t far_identity_feature = 0;
  std::vector<const PropertyDescriptor*> far_basics;
  if (path.assoc_identity != nullptr) {
    far_identity_feature = defs.size();
    const std::string& far = path.assoc_identity->terminal_relation;
    defs.push_back(FeatureDef{far + "#id", true});
    far_basics = BasicDescriptors(adb, far);
    for (const PropertyDescriptor* d : far_basics) {
      bool categorical = d->kind != PropertyKind::kInlineNumeric;
      defs.push_back(FeatureDef{far + "." + d->display_name, categorical});
    }
    if (path.far_property_link != nullptr) {
      defs.push_back(FeatureDef{path.far_property_link->display_name, true});
    }
  }
  const size_t num_features = defs.size();
  MlDataset data(std::move(defs));

  // Join predicates of the denormalization count toward the metric.
  size_t join_predicates = 0;
  if (path.assoc_identity != nullptr) {
    join_predicates += 2;                               // entity ⋈ fact ⋈ far
    if (path.far_property_link != nullptr) join_predicates += 2;  // ⋈ link ⋈ dim
  }

  // Pre-resolve the far side's basic descriptors.
  std::vector<const PropertyDescriptor*> far_basic_list;
  if (path.assoc_identity != nullptr) far_basic_list = far_basics;

  std::vector<size_t> row_entity;        // dataset row -> entity row id
  std::vector<uint8_t> row_label;        // per dataset row

  std::vector<double> numeric(num_features, 0);
  std::vector<std::string> category(num_features);
  std::vector<bool> missing(num_features, true);

  auto fill_basics = [&](const std::vector<const PropertyDescriptor*>& descs,
                         size_t offset, size_t row) {
    for (size_t j = 0; j < descs.size(); ++j) {
      auto v = adb.BasicValue(*descs[j], row);
      size_t feat = offset + j;
      if (!v.ok() || v.value().is_null()) {
        missing[feat] = true;
        continue;
      }
      missing[feat] = false;
      if (descs[j]->kind == PropertyKind::kInlineNumeric) {
        auto num = v.value().ToNumeric();
        if (num.ok()) numeric[feat] = num.value();
        else missing[feat] = true;
      } else {
        category[feat] = v.value().ToString();
      }
    }
  };

  // Down-sampling: when the expected denormalized size exceeds the cap,
  // non-positive entities are row-sampled; positive-entity rows always stay
  // (closed-world labels must be complete).
  for (size_t er = 0; er < entity->num_rows(); ++er) {
    if (pk_col->IsNull(er)) continue;
    Value key = pk_col->ValueAt(er);
    bool is_positive = positives.count(key) > 0;

    std::fill(missing.begin(), missing.end(), true);
    fill_basics(basics, 0, er);

    if (path.assoc_identity == nullptr) {
      data.AddRow(numeric, category, missing);
      row_entity.push_back(er);
      row_label.push_back(is_positive ? 1 : 0);
      continue;
    }

    // One row per associated entity (× property-link value).
    SQUID_ASSIGN_OR_RETURN(auto assocs,
                           adb.DerivedValues(*path.assoc_identity, key));
    if (assocs.empty()) {
      data.AddRow(numeric, category, missing);
      row_entity.push_back(er);
      row_label.push_back(is_positive ? 1 : 0);
      continue;
    }
    for (const auto& [far_key, _] : assocs) {
      if (options.max_denormalized_rows > 0 && !is_positive &&
          data.num_rows() >= options.max_denormalized_rows &&
          rng.Bernoulli(0.5)) {
        continue;
      }
      // Far identity + far basics.
      missing[far_identity_feature] = false;
      category[far_identity_feature] = far_key.ToString();
      auto far_row = adb.EntityRowByKey(path.assoc_identity->terminal_relation,
                                        far_key);
      if (far_row.ok()) {
        fill_basics(far_basic_list, far_identity_feature + 1, far_row.value());
      }
      if (path.far_property_link != nullptr) {
        size_t link_feature = num_features - 1;
        SQUID_ASSIGN_OR_RETURN(auto link_values,
                               adb.DerivedValues(*path.far_property_link, far_key));
        if (link_values.empty()) {
          missing[link_feature] = true;
          data.AddRow(numeric, category, missing);
          row_entity.push_back(er);
          row_label.push_back(is_positive ? 1 : 0);
        } else {
          for (const auto& [lv, __] : link_values) {
            missing[link_feature] = false;
            category[link_feature] = lv.ToString();
            data.AddRow(numeric, category, missing);
            row_entity.push_back(er);
            row_label.push_back(is_positive ? 1 : 0);
          }
        }
      } else {
        data.AddRow(numeric, category, missing);
        row_entity.push_back(er);
        row_label.push_back(is_positive ? 1 : 0);
      }
      // Reset far features for the next association.
      for (size_t f = far_identity_feature; f < num_features; ++f) missing[f] = true;
    }
  }

  result.denormalized_rows = data.num_rows();
  result.num_features = num_features;

  // --- Train the decision tree on all denormalized rows. ---
  std::vector<size_t> all_rows(data.num_rows());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  SQUID_ASSIGN_OR_RETURN(
      DecisionTree tree,
      DecisionTree::Train(data, all_rows, row_label, options.tree, &rng));

  // --- Extract rules and classify entities. ---
  result.rules = tree.ExtractPositiveRules(0.5);
  result.num_predicates = join_predicates;
  for (const Rule& rule : result.rules) {
    result.num_predicates += rule.conditions.size();
  }

  std::unordered_set<Value, ValueHash> predicted;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (tree.PredictProba(data, i) >= 0.5) {
      predicted.insert(pk_col->ValueAt(row_entity[i]));
    }
  }
  result.predicted_keys.assign(predicted.begin(), predicted.end());
  std::sort(result.predicted_keys.begin(), result.predicted_keys.end());
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace squid
