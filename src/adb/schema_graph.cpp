#include "adb/schema_graph.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>


namespace squid {

namespace {

/// Returns quantile thresholds over the non-null values of `col` (ascending,
/// deduplicated). Used to bucket derived numeric properties.
std::vector<double> QuantileThresholds(const Column& col, size_t buckets) {
  std::vector<double> vals;
  vals.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) vals.push_back(col.NumericAt(r));
  }
  if (vals.empty() || buckets == 0) return {};
  std::sort(vals.begin(), vals.end());
  std::vector<double> thresholds;
  for (size_t i = 1; i <= buckets; ++i) {
    size_t idx = (vals.size() - 1) * i / (buckets + 1);
    double t = vals[idx];
    if (thresholds.empty() || t > thresholds.back()) thresholds.push_back(t);
  }
  return thresholds;
}

std::string SanitizeForName(std::string s) {
  for (char& c : s) {
    if (c == '.' || c == '~' || c == '-') c = '_';
  }
  return s;
}

}  // namespace

const char* RelationKindName(RelationKind kind) {
  switch (kind) {
    case RelationKind::kEntity:
      return "entity";
    case RelationKind::kDimension:
      return "dimension";
    case RelationKind::kAssociationFact:
      return "association";
    case RelationKind::kPropertyLinkFact:
      return "property-link";
    case RelationKind::kPlain:
      return "plain";
  }
  return "?";
}

const char* PropertyKindName(PropertyKind kind) {
  switch (kind) {
    case PropertyKind::kInlineCategorical:
      return "inline-categorical";
    case PropertyKind::kInlineNumeric:
      return "inline-numeric";
    case PropertyKind::kDimCategorical:
      return "dim-categorical";
    case PropertyKind::kMultiValued:
      return "multi-valued";
    case PropertyKind::kDerivedCategorical:
      return "derived-categorical";
    case PropertyKind::kDerivedNumericBucket:
      return "derived-numeric-bucket";
    case PropertyKind::kDerivedEntity:
      return "derived-entity";
  }
  return "?";
}

RelationKind SchemaGraph::KindOf(const std::string& relation) const {
  for (const auto& [name, kind] : kinds_) {
    if (name == relation) return kind;
  }
  return RelationKind::kPlain;
}

std::vector<const PropertyDescriptor*> SchemaGraph::DescriptorsFor(
    const std::string& entity) const {
  std::vector<const PropertyDescriptor*> out;
  for (size_t ordinal : OrdinalsFor(entity)) out.push_back(&descriptors_[ordinal]);
  return out;
}

const std::vector<size_t>& SchemaGraph::OrdinalsFor(const std::string& entity) const {
  static const std::vector<size_t> kNone;
  for (const auto& [relation, ordinals] : ordinals_by_entity_) {
    if (relation == entity) return ordinals;
  }
  return kNone;
}

void SchemaGraph::IndexDescriptors() {
  ordinals_by_entity_.clear();
  for (size_t i = 0; i < descriptors_.size(); ++i) {
    PropertyDescriptor& d = descriptors_[i];
    d.ordinal = i;
    auto it = std::find_if(ordinals_by_entity_.begin(), ordinals_by_entity_.end(),
                           [&](const auto& e) { return e.first == d.entity_relation; });
    if (it == ordinals_by_entity_.end()) {
      ordinals_by_entity_.emplace_back(d.entity_relation, std::vector<size_t>{});
      it = std::prev(ordinals_by_entity_.end());
    }
    it->second.push_back(i);
  }
}

Result<const PropertyDescriptor*> SchemaGraph::FindDescriptor(
    const std::string& id) const {
  for (const auto& d : descriptors_) {
    if (d.id == id) return &d;
  }
  return Status::NotFound("no property descriptor '" + id + "'");
}

Result<SchemaGraph> SchemaGraph::Analyze(const Database& db,
                                         const SchemaGraphOptions& options) {
  SchemaGraph graph;
  const std::vector<std::string> names = db.TableNames();

  // --- Pass 1: classify relations. ---
  std::map<std::string, RelationKind> kind_of;
  for (const std::string& name : names) {
    SQUID_ASSIGN_OR_RETURN(const Table* t, db.GetTable(name));
    kind_of[name] =
        t->schema().is_entity() ? RelationKind::kEntity : RelationKind::kPlain;
  }
  // Dimensions: non-entity relations with declared property attributes and a
  // primary key (they are FK targets).
  for (const std::string& name : names) {
    if (kind_of[name] != RelationKind::kPlain) continue;
    SQUID_ASSIGN_OR_RETURN(const Table* t, db.GetTable(name));
    const Schema& s = t->schema();
    if (!s.property_attributes().empty() && s.primary_key()) {
      kind_of[name] = RelationKind::kDimension;
    }
  }
  // Facts: remaining relations with >= 2 FKs. Association when >= 2 FKs
  // reference entities; property-link when exactly one FK references an
  // entity and at least one references a dimension.
  for (const std::string& name : names) {
    if (kind_of[name] != RelationKind::kPlain) continue;
    SQUID_ASSIGN_OR_RETURN(const Table* t, db.GetTable(name));
    const Schema& s = t->schema();
    if (s.foreign_keys().size() < 2) continue;
    size_t entity_refs = 0, dim_refs = 0;
    for (const auto& fk : s.foreign_keys()) {
      auto it = kind_of.find(fk.ref_relation);
      if (it == kind_of.end()) continue;
      if (it->second == RelationKind::kEntity) ++entity_refs;
      if (it->second == RelationKind::kDimension) ++dim_refs;
    }
    if (entity_refs >= 2) {
      kind_of[name] = RelationKind::kAssociationFact;
    } else if (entity_refs == 1 && dim_refs >= 1) {
      kind_of[name] = RelationKind::kPropertyLinkFact;
    }
  }
  for (const std::string& name : names) {
    graph.kinds_.emplace_back(name, kind_of[name]);
    if (kind_of[name] == RelationKind::kEntity) graph.entities_.push_back(name);
  }

  // --- Pass 2: discover property descriptors per entity. ---
  std::map<std::string, size_t> name_counter;  // derived table name dedup
  auto derived_name = [&](const std::string& entity, const std::string& label) {
    std::string base = "adb_" + SanitizeForName(entity) + "_" + SanitizeForName(label);
    size_t n = ++name_counter[base];
    if (n > 1) base += "_" + std::to_string(n);
    return base;
  };

  // FK-dim chains reachable from `relation` up to `depth` dereferences.
  struct DimTarget {
    std::vector<DimHop> dims;
    std::string terminal_relation;
    std::string terminal_attr;
  };
  std::function<Result<std::vector<DimTarget>>(const std::string&, size_t)>
      dim_targets = [&](const std::string& relation,
                        size_t depth) -> Result<std::vector<DimTarget>> {
    std::vector<DimTarget> out;
    if (depth == 0) return out;
    SQUID_ASSIGN_OR_RETURN(const Table* t, db.GetTable(relation));
    for (const auto& fk : t->schema().foreign_keys()) {
      if (kind_of[fk.ref_relation] != RelationKind::kDimension) continue;
      SQUID_ASSIGN_OR_RETURN(const Table* dim, db.GetTable(fk.ref_relation));
      // A dim hop is read through the dim's PK index, so it must key the PK.
      if (dim->schema().primary_key() != fk.ref_attribute) continue;
      DimHop hop{fk.attribute, fk.ref_relation, fk.ref_attribute};
      for (const auto& attr : dim->schema().property_attributes()) {
        out.push_back(DimTarget{{hop}, fk.ref_relation, attr});
      }
      SQUID_ASSIGN_OR_RETURN(std::vector<DimTarget> deeper,
                             dim_targets(fk.ref_relation, depth - 1));
      for (auto& d : deeper) {
        DimTarget target;
        target.dims.push_back(hop);
        target.dims.insert(target.dims.end(), d.dims.begin(), d.dims.end());
        target.terminal_relation = d.terminal_relation;
        target.terminal_attr = d.terminal_attr;
        out.push_back(std::move(target));
      }
    }
    return out;
  };

  // Facts with an FK referencing `relation`: (fact, in_attr) pairs.
  auto incident_facts = [&](const std::string& relation)
      -> Result<std::vector<std::pair<std::string, std::string>>> {
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string& fname : names) {
      RelationKind k = kind_of[fname];
      if (k != RelationKind::kAssociationFact && k != RelationKind::kPropertyLinkFact) {
        continue;
      }
      SQUID_ASSIGN_OR_RETURN(const Table* fact, db.GetTable(fname));
      for (const auto& fk : fact->schema().foreign_keys()) {
        if (fk.ref_relation == relation) out.emplace_back(fname, fk.attribute);
      }
    }
    return out;
  };

  for (const std::string& entity : graph.entities_) {
    SQUID_ASSIGN_OR_RETURN(const Table* etable, db.GetTable(entity));
    const Schema& eschema = etable->schema();
    if (!eschema.primary_key()) {
      return Status::InvalidArgument("entity relation '" + entity +
                                     "' has no primary key");
    }
    const std::string& pk = *eschema.primary_key();

    // (a) Basic inline properties.
    for (const auto& attr : eschema.property_attributes()) {
      SQUID_ASSIGN_OR_RETURN(size_t idx, eschema.AttributeIndex(attr));
      PropertyDescriptor d;
      d.entity_relation = entity;
      d.entity_key = pk;
      d.terminal_relation = entity;
      d.terminal_attr = attr;
      d.display_name = attr;
      d.kind = eschema.attribute(idx).type == ValueType::kString
                   ? PropertyKind::kInlineCategorical
                   : PropertyKind::kInlineNumeric;
      d.id = entity + "." + attr;
      graph.descriptors_.push_back(std::move(d));
    }

    // (b) Basic dim-chain properties.
    SQUID_ASSIGN_OR_RETURN(std::vector<DimTarget> dims,
                           dim_targets(entity, options.max_dim_hops));
    for (const auto& target : dims) {
      PropertyDescriptor d;
      d.entity_relation = entity;
      d.entity_key = pk;
      d.kind = PropertyKind::kDimCategorical;
      d.dims = target.dims;
      d.terminal_relation = target.terminal_relation;
      d.terminal_attr = target.terminal_attr;
      d.display_name = target.terminal_relation + "." + target.terminal_attr;
      d.id = entity;
      for (const auto& hop : target.dims) d.id += "~" + hop.dim_relation;
      d.id += "." + target.terminal_attr;
      graph.descriptors_.push_back(std::move(d));
    }

    // (c) Fact paths.
    SQUID_ASSIGN_OR_RETURN(auto facts, incident_facts(entity));
    for (const auto& [fact_name, in_attr] : facts) {
      SQUID_ASSIGN_OR_RETURN(const Table* fact, db.GetTable(fact_name));
      const bool fact_is_assoc = kind_of[fact_name] == RelationKind::kAssociationFact;
      for (const auto& fk : fact->schema().foreign_keys()) {
        if (fk.attribute == in_attr) continue;  // the incoming side
        const std::string& far = fk.ref_relation;
        FactHop hop0{fact_name, in_attr, fk.attribute, far, fk.ref_attribute};

        if (kind_of[far] == RelationKind::kDimension) {
          // entity -fact-> dimension: multi-valued basic (property link) or
          // derived-categorical (when the fact is an association, e.g. the
          // role attribute of castinfo).
          SQUID_ASSIGN_OR_RETURN(const Table* dim, db.GetTable(far));
          for (const auto& attr : dim->schema().property_attributes()) {
            PropertyDescriptor d;
            d.entity_relation = entity;
            d.entity_key = pk;
            d.hops = {hop0};
            d.terminal_relation = far;
            d.terminal_attr = attr;
            d.display_name = far + "." + attr;
            d.derived = fact_is_assoc;
            d.kind = fact_is_assoc ? PropertyKind::kDerivedCategorical
                                   : PropertyKind::kMultiValued;
            d.id = entity + "~" + fact_name + "~" + far + "." + attr;
            d.derived_table = derived_name(entity, far + "_" + attr);
            graph.descriptors_.push_back(std::move(d));
          }
          continue;
        }
        if (kind_of[far] != RelationKind::kEntity || !fact_is_assoc) continue;

        // entity -assoc-> entity E2: derived properties of the associate.
        SQUID_ASSIGN_OR_RETURN(const Table* e2, db.GetTable(far));
        const Schema& s2 = e2->schema();

        // Identity of the associate (IQ2/IQ5/DQ4-style intents).
        if (options.discover_entity_identity && s2.primary_key()) {
          PropertyDescriptor d;
          d.entity_relation = entity;
          d.entity_key = pk;
          d.hops = {hop0};
          d.terminal_relation = far;
          d.terminal_attr = *s2.primary_key();
          d.display_name = far;
          d.derived = true;
          d.kind = PropertyKind::kDerivedEntity;
          d.id = entity + "~" + fact_name + "~" + far + "#identity";
          d.derived_table = derived_name(entity, far + "_identity");
          graph.descriptors_.push_back(std::move(d));
        }

        // Inline properties of the associate.
        for (const auto& attr : s2.property_attributes()) {
          SQUID_ASSIGN_OR_RETURN(size_t idx, s2.AttributeIndex(attr));
          PropertyDescriptor d;
          d.entity_relation = entity;
          d.entity_key = pk;
          d.hops = {hop0};
          d.terminal_relation = far;
          d.terminal_attr = attr;
          d.display_name = far + "." + attr;
          d.derived = true;
          if (s2.attribute(idx).type == ValueType::kString) {
            d.kind = PropertyKind::kDerivedCategorical;
          } else {
            d.kind = PropertyKind::kDerivedNumericBucket;
            SQUID_ASSIGN_OR_RETURN(const Column* col, e2->ColumnByName(attr));
            d.bucket_thresholds =
                QuantileThresholds(*col, options.numeric_bucket_count);
            if (d.bucket_thresholds.empty()) continue;
          }
          d.id = entity + "~" + fact_name + "~" + far + "." + attr;
          d.derived_table = derived_name(entity, far + "_" + attr);
          graph.descriptors_.push_back(std::move(d));
        }

        // Dim-chain properties of the associate (depth 1 to bound fan-out).
        SQUID_ASSIGN_OR_RETURN(std::vector<DimTarget> e2dims, dim_targets(far, 1));
        for (const auto& target : e2dims) {
          PropertyDescriptor d;
          d.entity_relation = entity;
          d.entity_key = pk;
          d.hops = {hop0};
          d.dims = target.dims;
          d.terminal_relation = target.terminal_relation;
          d.terminal_attr = target.terminal_attr;
          d.display_name = target.terminal_relation + "." + target.terminal_attr;
          d.derived = true;
          d.kind = PropertyKind::kDerivedCategorical;
          d.id = entity + "~" + fact_name + "~" + far + "~" + target.terminal_relation +
                 "." + target.terminal_attr;
          d.derived_table = derived_name(
              entity, target.terminal_relation + "_" + target.terminal_attr);
          graph.descriptors_.push_back(std::move(d));
        }

        if (options.max_fact_hops < 2) continue;

        // Second fact hop from E2 (persontogenre-style paths and
        // co-associate properties).
        SQUID_ASSIGN_OR_RETURN(auto e2_facts, incident_facts(far));
        for (const auto& [fact2_name, in2_attr] : e2_facts) {
          SQUID_ASSIGN_OR_RETURN(const Table* fact2, db.GetTable(fact2_name));
          const bool fact2_is_assoc =
              kind_of[fact2_name] == RelationKind::kAssociationFact;
          for (const auto& fk2 : fact2->schema().foreign_keys()) {
            if (fk2.attribute == in2_attr) continue;
            const std::string& far2 = fk2.ref_relation;
            FactHop hop1{fact2_name, in2_attr, fk2.attribute, far2, fk2.ref_attribute};

            if (kind_of[far2] == RelationKind::kDimension) {
              // E -assoc-> E2 -link-> dim (persontogenre).
              SQUID_ASSIGN_OR_RETURN(const Table* dim, db.GetTable(far2));
              for (const auto& attr : dim->schema().property_attributes()) {
                PropertyDescriptor d;
                d.entity_relation = entity;
                d.entity_key = pk;
                d.hops = {hop0, hop1};
                d.terminal_relation = far2;
                d.terminal_attr = attr;
                d.display_name = far2 + "." + attr;
                d.derived = true;
                d.kind = PropertyKind::kDerivedCategorical;
                d.id = entity + "~" + fact_name + "~" + far + "~" + fact2_name + "~" +
                       far2 + "." + attr;
                d.derived_table = derived_name(entity, far2 + "_" + attr);
                graph.descriptors_.push_back(std::move(d));
              }
              continue;
            }
            if (kind_of[far2] != RelationKind::kEntity || !fact2_is_assoc) continue;

            // E -assoc-> E2 -assoc-> E3: co-associate inline categoricals
            // and depth-1 dims. Identity descriptors are NOT generated at
            // depth 2: "shares some co-associate" is dominated by graph hubs
            // and is not an aggregate over a property (the paper's derived
            // properties aggregate basic properties of associates).
            SQUID_ASSIGN_OR_RETURN(const Table* e3, db.GetTable(far2));
            const Schema& s3 = e3->schema();
            for (const auto& attr : s3.property_attributes()) {
              SQUID_ASSIGN_OR_RETURN(size_t idx, s3.AttributeIndex(attr));
              if (s3.attribute(idx).type != ValueType::kString) continue;
              PropertyDescriptor d;
              d.entity_relation = entity;
              d.entity_key = pk;
              d.hops = {hop0, hop1};
              d.terminal_relation = far2;
              d.terminal_attr = attr;
              d.display_name = "co-" + far2 + "." + attr;
              d.derived = true;
              d.kind = PropertyKind::kDerivedCategorical;
              d.id = entity + "~" + fact_name + "~" + far + "~" + fact2_name + "~" +
                     far2 + "." + attr;
              d.derived_table = derived_name(entity, "co_" + far2 + "_" + attr);
              graph.descriptors_.push_back(std::move(d));
            }
            SQUID_ASSIGN_OR_RETURN(std::vector<DimTarget> e3dims, dim_targets(far2, 1));
            for (const auto& target : e3dims) {
              PropertyDescriptor d;
              d.entity_relation = entity;
              d.entity_key = pk;
              d.hops = {hop0, hop1};
              d.dims = target.dims;
              d.terminal_relation = target.terminal_relation;
              d.terminal_attr = target.terminal_attr;
              d.display_name = "co-" + far2 + "~" + target.terminal_relation + "." +
                               target.terminal_attr;
              d.derived = true;
              d.kind = PropertyKind::kDerivedCategorical;
              d.id = entity + "~" + fact_name + "~" + far + "~" + fact2_name + "~" +
                     far2 + "~" + target.terminal_relation + "." + target.terminal_attr;
              d.derived_table = derived_name(
                  entity, "co_" + target.terminal_relation + "_" + target.terminal_attr);
              graph.descriptors_.push_back(std::move(d));
            }
          }
        }
      }
    }
  }

  // --- Pass 3: uniquify descriptor ids. Two descriptors can build the same
  // path string when a self-association fact is traversed in both directions
  // (citation: pub_id->cited_pub_id vs cited_pub_id->pub_id); snapshots
  // and FindDescriptor name descriptors by id, so ids must be unique.
  std::map<std::string, size_t> id_counter;
  for (PropertyDescriptor& d : graph.descriptors_) {
    size_t n = ++id_counter[d.id];
    if (n > 1) {
      d.id += "#dir" + std::to_string(n);
      d.display_name += " (rev)";
    }
  }
  graph.IndexDescriptors();
  return graph;
}

Result<DimStep> DimStep::Resolve(const Database& db, const Table& current,
                                 const DimHop& hop) {
  DimStep step;
  SQUID_ASSIGN_OR_RETURN(step.from, current.ColumnByName(hop.from_attr));
  SQUID_ASSIGN_OR_RETURN(step.dim, db.GetTable(hop.dim_relation));
  if (step.dim->pk_index() == nullptr || step.dim->schema().primary_key() != hop.dim_key) {
    return Status::InvalidArgument("dim hop does not key relation '" + hop.dim_relation +
                                   "' by its indexed primary key");
  }
  return step;
}

FlatJoinHash::RowSpan DimStep::Targets(size_t row) const {
  uint64_t key = 0;
  return PackProbeKey(*dim->pk_column(), *from, row, &key) ? dim->pk_index()->Probe(key)
                                                           : FlatJoinHash::RowSpan{};
}

Result<DimChain> DimChain::Resolve(const Database& db, const PropertyDescriptor& desc) {
  DimChain chain;
  SQUID_ASSIGN_OR_RETURN(chain.entity, db.GetTable(desc.entity_relation));
  const Table* current = chain.entity;
  for (const DimHop& hop : desc.dims) {
    SQUID_ASSIGN_OR_RETURN(DimStep step, DimStep::Resolve(db, *current, hop));
    chain.steps.push_back(step);
    current = step.dim;
  }
  SQUID_ASSIGN_OR_RETURN(chain.terminal, current->ColumnByName(desc.terminal_attr));
  return chain;
}

std::optional<size_t> DimChain::Walk(size_t row) const {
  for (const DimStep& step : steps) {
    const FlatJoinHash::RowSpan rows = step.Targets(row);
    if (rows.empty()) return std::nullopt;
    row = rows.data[0];
  }
  return row;
}

}  // namespace squid
