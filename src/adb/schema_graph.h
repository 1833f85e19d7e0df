#ifndef SQUID_ADB_SCHEMA_GRAPH_H_
#define SQUID_ADB_SCHEMA_GRAPH_H_

/// \file schema_graph.h
/// \brief Schema-graph analysis for αDB construction (§5 of the paper).
///
/// Starting from the minimal metadata the paper assumes a DBA provides —
/// PK/FK constraints, which tables are entities, and which attributes are
/// semantic properties — this module classifies relations and automatically
/// discovers *property descriptors*: the basic and derived semantic property
/// dimensions of each entity relation.
///
/// Classification:
///  - Entity relation: declared via Schema::set_entity (person, movie, ...).
///  - Dimension (property relation): non-entity relation referenced by FKs
///    that carries declared property attributes (genre, country, ...).
///  - Fact relation: non-entity relation with ≥2 outgoing FKs. A fact is an
///    *association* when it links two entity relations (castinfo), and a
///    *property link* when it links an entity to a dimension (movietogenre).
///
/// Descriptor kinds (see Fig. 5 of the paper):
///  - Basic inline: entity.attr (person.gender, movie.year).
///  - Basic dim: entity --FK--> dim.attr (person.country_id -> country.name).
///  - Basic multi-valued: entity <-- property-link --> dim.attr (a movie's
///    genres). Boolean membership, no association strength.
///  - Derived: any path whose first hop traverses an *association* fact;
///    the value is a basic property (or the identity) of the associated
///    entity and the association strength θ counts path instances
///    (#comedies a person appeared in). Derived paths use at most
///    `max_fact_hops` fact traversals (default 2, as in the paper).

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/join_hash.h"

namespace squid {

class ExtentWriter;
class ExtentReader;

/// How a relation participates in the schema graph.
enum class RelationKind {
  kEntity,
  kDimension,
  kAssociationFact,
  kPropertyLinkFact,
  kPlain,
};

const char* RelationKindName(RelationKind kind);

/// One traversal of a fact table: current.key <- fact.in_attr,
/// fact.out_attr -> next.key.
struct FactHop {
  std::string fact_table;
  std::string in_attr;        // FK in the fact referencing the current node
  std::string out_attr;       // FK in the fact referencing the next node
  std::string next_relation;  // entity or dimension on the far side
  std::string next_key;       // PK of next_relation
};

/// One FK-dereference into a dimension: current.from_attr -> dim.dim_key,
/// where dim_key is always the dimension's primary key (Analyze forms no
/// hop through any other attribute), so the αDB follows it through the
/// dimension's PK index.
struct DimHop {
  std::string from_attr;
  std::string dim_relation;
  std::string dim_key;
};

/// Kind of property descriptor.
enum class PropertyKind {
  kInlineCategorical,   // entity.attr, string-valued
  kInlineNumeric,       // entity.attr, numeric
  kDimCategorical,      // entity -> dim chain -> attr
  kMultiValued,         // entity <-property link-> dim attr (no θ)
  kDerivedCategorical,  // via association(s); θ = count
  kDerivedNumericBucket,// via association; numeric value bucketed at thresholds
  kDerivedEntity,       // via association; value = associated entity identity
};

const char* PropertyKindName(PropertyKind kind);

/// \brief One semantic-property dimension of an entity relation. A filter
/// ⟨A, V, θ⟩ (§3.1) instantiates a descriptor with a concrete value/range
/// and association strength.
struct PropertyDescriptor {
  std::string id;               // unique, e.g. "person~castinfo~movie~genre.name"
  PropertyKind kind = PropertyKind::kInlineCategorical;
  std::string entity_relation;  // the entity this is a property OF
  std::string entity_key;       // its PK attribute

  std::vector<FactHop> hops;    // fact traversals, in order
  std::vector<DimHop> dims;     // FK-dim chain applied after the hops
  std::string terminal_relation;// relation holding the value attribute
  std::string terminal_attr;    // attribute holding the property value

  /// For kDerivedNumericBucket: thresholds t; value i means `attr >= t[i]`.
  std::vector<double> bucket_thresholds;

  /// Name of the materialized αDB relation (derived & multi-valued kinds).
  std::string derived_table;

  /// True when the first hop traverses an association fact (=> derived).
  bool derived = false;

  /// Human-readable attribute label, e.g. "genre" or "birth_year".
  std::string display_name;

  /// Dense ordinal: this descriptor's index in SchemaGraph::descriptors()
  /// (set by SchemaGraph::Analyze and SchemaGraph::SnapshotLoad; implied by
  /// the descriptor order, so never serialized). The αDB keeps its
  /// per-descriptor state in a vector indexed by it.
  size_t ordinal = 0;

  size_t NumFactHops() const { return hops.size(); }
};

/// A DimHop resolved against a database, as every dim hop the αDB follows
/// reads it: the FK column of the relation it leaves and the dimension whose
/// PK index it probes (Resolve: InvalidArgument unless that index is current
/// and keys `hop.dim_key`). Targets(row) are the dim rows that row's FK cell
/// names: none for a NULL or dangling link.
struct DimStep {
  const Column* from = nullptr;
  const Table* dim = nullptr;
  static Result<DimStep> Resolve(const Database& db, const Table& current,
                                 const DimHop& hop);
  FlatJoinHash::RowSpan Targets(size_t row) const;
};

/// A basic descriptor resolved against a database. Walk(row) is the terminal
/// relation's row entity row `row` reaches through the first row each hop
/// finds; nullopt when a NULL or dangling link leaves the entity no value.
struct DimChain {
  const Table* entity = nullptr;
  std::vector<DimStep> steps;
  const Column* terminal = nullptr;
  static Result<DimChain> Resolve(const Database& db, const PropertyDescriptor& desc);
  std::optional<size_t> Walk(size_t row) const;
};

/// Options controlling discovery.
struct SchemaGraphOptions {
  /// Maximum number of fact-table traversals in a derived path (paper: 2).
  size_t max_fact_hops = 2;
  /// Maximum FK-dimension dereferences after the hops.
  size_t max_dim_hops = 2;
  /// Discover derived-entity (identity) descriptors (needed for IQ2/IQ5/DQ4).
  bool discover_entity_identity = true;
  /// Quantile-derived bucket count for derived numeric attributes
  /// (0 disables derived numeric bucketing).
  size_t numeric_bucket_count = 6;
};

/// \brief The analyzed schema graph.
class SchemaGraph {
 public:
  /// Analyzes `db` and discovers descriptors for every entity relation.
  static Result<SchemaGraph> Analyze(const Database& db,
                                     const SchemaGraphOptions& options = {});

  RelationKind KindOf(const std::string& relation) const;

  /// All descriptors, deterministic order.
  const std::vector<PropertyDescriptor>& descriptors() const { return descriptors_; }

  /// Descriptors whose entity_relation == `entity`.
  std::vector<const PropertyDescriptor*> DescriptorsFor(const std::string& entity) const;

  /// Ordinals of the descriptors whose entity_relation == `entity`, in
  /// descriptor order (computed once per graph; empty for an unknown
  /// relation). The serve path's per-entity loops walk this list.
  const std::vector<size_t>& OrdinalsFor(const std::string& entity) const;

  /// Descriptor by id (error when unknown).
  Result<const PropertyDescriptor*> FindDescriptor(const std::string& id) const;

  /// Entity relations in deterministic order.
  const std::vector<std::string>& entity_relations() const { return entities_; }

  /// Writes the analyzed graph (relation kinds, descriptors, entity list)
  /// to a snapshot extent. Defined in adb/adb_snapshot.cpp.
  void SnapshotSave(ExtentWriter* out) const;

  /// Restores a graph from a snapshot extent, validating enum ranges
  /// (untrusted input). Defined in adb/adb_snapshot.cpp.
  static Result<SchemaGraph> SnapshotLoad(ExtentReader* in);

 private:
  /// Sets each descriptor's ordinal and groups the ordinals by entity
  /// relation (the last step of Analyze and SnapshotLoad).
  void IndexDescriptors();

  std::vector<std::pair<std::string, RelationKind>> kinds_;
  std::vector<PropertyDescriptor> descriptors_;
  std::vector<std::string> entities_;
  // Per entity relation (first-appearance order): its descriptor ordinals.
  std::vector<std::pair<std::string, std::vector<size_t>>> ordinals_by_entity_;
};

}  // namespace squid

#endif  // SQUID_ADB_SCHEMA_GRAPH_H_
