#include "adb/statistics.h"

#include <algorithm>
#include <optional>

namespace squid {

namespace {

ValueKey NumericKey(double d) { return ValueKey{PackedDoubleBits(d), 1}; }

}  // namespace

ValueKey PropertyStats::KeyFor(const Value& v) const {
  switch (v.type()) {
    case ValueType::kInt64:
      return NumericKey(static_cast<double>(v.AsInt64()));
    case ValueType::kDouble:
      return NumericKey(v.AsDouble());
    case ValueType::kString: {
      Symbol s = pool_ ? pool_->Find(v.AsString()) : kNoSymbol;
      if (s == kNoSymbol) return ValueKey{};  // not in the data: matches nothing
      return ValueKey{s, 2};
    }
    case ValueType::kNull:
      return ValueKey{};
  }
  return ValueKey{};
}

ValueKey PropertyStats::InternKey(const Value& v, StringPool* pool) {
  if (v.type() == ValueType::kString) {
    return ValueKey{pool->Intern(v.AsString()), 2};
  }
  return KeyFor(v);
}

namespace {

/// Fraction of `sorted` (ascending) that is >= theta.
double SuffixFraction(const std::vector<double>& sorted, double theta, size_t total) {
  if (total == 0) return 0.0;
  auto it = std::lower_bound(sorted.begin(), sorted.end(), theta);
  return static_cast<double>(sorted.end() - it) / static_cast<double>(total);
}

}  // namespace

size_t PropertyStats::domain_size() const {
  if (!sorted_values_.empty()) {
    size_t distinct = 0;
    for (size_t i = 0; i < sorted_values_.size(); ++i) {
      if (i == 0 || sorted_values_[i] != sorted_values_[i - 1]) ++distinct;
    }
    return distinct;
  }
  if (!value_counts_.empty()) return value_counts_.size();
  return theta_by_value_.size();
}

double PropertyStats::SelectivityEquals(const Value& v) const {
  if (total_entities_ == 0) return 0.0;
  if (kind_ == PropertyKind::kInlineNumeric) {
    auto num = v.ToNumeric();
    if (!num.ok()) return 0.0;
    return SelectivityRange(num.value(), num.value());
  }
  auto it = value_counts_.find(KeyFor(v));
  if (it == value_counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_entities_);
}

double PropertyStats::SelectivityRange(double lo, double hi) const {
  if (total_entities_ == 0 || sorted_values_.empty()) return 0.0;
  auto begin = std::lower_bound(sorted_values_.begin(), sorted_values_.end(), lo);
  auto end = std::upper_bound(sorted_values_.begin(), sorted_values_.end(), hi);
  return static_cast<double>(end - begin) / static_cast<double>(total_entities_);
}

double PropertyStats::SelectivityDerived(const Value& v, double theta) const {
  auto it = theta_by_value_.find(KeyFor(v));
  if (it == theta_by_value_.end()) return 0.0;
  return SuffixFraction(it->second, theta, total_entities_);
}

double PropertyStats::SelectivityDerivedNormalized(const Value& v, double frac) const {
  auto it = theta_norm_by_value_.find(KeyFor(v));
  if (it == theta_norm_by_value_.end()) return 0.0;
  return SuffixFraction(it->second, frac, total_entities_);
}

size_t PropertyStats::EntitiesWithValue(const Value& v) const {
  ValueKey key = KeyFor(v);
  auto vit = value_counts_.find(key);
  if (vit != value_counts_.end()) return vit->second;
  auto tit = theta_by_value_.find(key);
  if (tit != theta_by_value_.end()) return tit->second.size();
  return 0;
}

Result<PropertyStats> StatisticsBuilder::BuildBasic(const Database& db,
                                                    const PropertyDescriptor& desc) {
  if (!desc.hops.empty()) {
    return Status::InvalidArgument(
        "BuildBasic called on descriptor with fact hops: " + desc.id);
  }
  SQUID_ASSIGN_OR_RETURN(DimChain chain, DimChain::Resolve(db, desc));
  PropertyStats stats;
  stats.kind_ = desc.kind;
  stats.total_entities_ = chain.entity->num_rows();
  stats.pool_ = db.pool();

  for (size_t r = 0; r < chain.entity->num_rows(); ++r) {
    const std::optional<size_t> row = chain.Walk(r);
    if (!row.has_value()) continue;
    Value v = chain.terminal->ValueAt(*row);
    if (v.is_null()) continue;
    if (desc.kind == PropertyKind::kInlineNumeric) {
      SQUID_ASSIGN_OR_RETURN(double num, v.ToNumeric());
      stats.sorted_values_.push_back(num);
    } else {
      ++stats.value_counts_[stats.InternKey(v, db.pool().get())];
    }
  }
  if (desc.kind == PropertyKind::kInlineNumeric) {
    std::sort(stats.sorted_values_.begin(), stats.sorted_values_.end());
    if (!stats.sorted_values_.empty()) {
      stats.domain_min_ = stats.sorted_values_.front();
      stats.domain_max_ = stats.sorted_values_.back();
    }
  }
  return stats;
}

Result<PropertyStats> StatisticsBuilder::BuildFromDerived(const Table& derived,
                                                          size_t total_entities) {
  PropertyStats stats;
  stats.kind_ = PropertyKind::kDerivedCategorical;  // refined by caller if needed
  stats.total_entities_ = total_entities;
  stats.pool_ = derived.pool();

  SQUID_ASSIGN_OR_RETURN(const Column* value_col, derived.ColumnByName("value"));
  SQUID_ASSIGN_OR_RETURN(const Column* count_col, derived.ColumnByName("count"));
  SQUID_ASSIGN_OR_RETURN(const Column* frac_col, derived.ColumnByName("frac"));
  if (count_col->type() != ValueType::kInt64 || frac_col->type() != ValueType::kDouble) {
    return Status::InvalidArgument("derived table '" + derived.name() +
                                   "' has unexpected count/frac column types");
  }

  StringPool* pool = derived.pool().get();
  for (size_t r = 0; r < derived.num_rows(); ++r) {
    ValueKey key = stats.InternKey(value_col->ValueAt(r), pool);
    stats.theta_by_value_[key].push_back(static_cast<double>(count_col->Int64At(r)));
    stats.theta_norm_by_value_[key].push_back(frac_col->DoubleAt(r));
  }
  for (auto& [_, thetas] : stats.theta_by_value_) {
    std::sort(thetas.begin(), thetas.end());
  }
  for (auto& [_, thetas] : stats.theta_norm_by_value_) {
    std::sort(thetas.begin(), thetas.end());
  }
  return stats;
}

}  // namespace squid
