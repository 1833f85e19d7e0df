#include "core/abduction_model.h"

#include <algorithm>
#include <cmath>

namespace squid {

namespace {

/// Sample mean, standard deviation s and skewness of Θ (Appendix B), each
/// computed once per family; n >= 3. Skewness is 0 when s = 0.
struct Moments {
  double mean = 0;
  double s = 0;
  double skewness = 0;
};

Moments MomentsOf(const std::vector<double>& thetas) {
  const size_t n = thetas.size();
  Moments m;
  for (double t : thetas) m.mean += t;
  m.mean /= static_cast<double>(n);
  double m2 = 0, m3 = 0;
  for (double t : thetas) {
    double d = t - m.mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m.s = std::sqrt(m2 / static_cast<double>(n - 1));
  if (m.s > 0) {
    m.skewness = static_cast<double>(n) * m3 /
                 (m.s * m.s * m.s * static_cast<double>(n - 1) *
                  static_cast<double>(n - 2));
  }
  return m;
}

}  // namespace

Result<double> AbductionModel::Selectivity(const SemanticProperty& p) const {
  if (p.descriptor == nullptr) return Status::InvalidArgument("property without descriptor");
  SQUID_ASSIGN_OR_RETURN(const PropertyStats* stats, adb_->StatsFor(*p.descriptor));
  return SelectivityOf(*stats, p);
}

Result<double> AbductionModel::DomainCoverage(const SemanticProperty& p) const {
  if (p.descriptor == nullptr) return Status::InvalidArgument("property without descriptor");
  SQUID_ASSIGN_OR_RETURN(const PropertyStats* stats, adb_->StatsFor(*p.descriptor));
  return DomainCoverageOf(*stats, p);
}

double AbductionModel::SelectivityOf(const PropertyStats& stats,
                                     const SemanticProperty& p) const {
  switch (p.descriptor->kind) {
    case PropertyKind::kInlineCategorical:
    case PropertyKind::kDimCategorical:
      return stats.SelectivityEquals(p.value);
    case PropertyKind::kInlineNumeric:
      return stats.SelectivityRange(p.lo, p.hi);
    case PropertyKind::kMultiValued: {
      if (stats.total_entities() == 0) return 0.0;
      return static_cast<double>(stats.EntitiesWithValue(p.value)) /
             static_cast<double>(stats.total_entities());
    }
    case PropertyKind::kDerivedCategorical:
    case PropertyKind::kDerivedNumericBucket:
    case PropertyKind::kDerivedEntity:
      break;
  }
  if (config_.normalize_association && p.theta_norm >= 0) {
    return stats.SelectivityDerivedNormalized(p.value, p.theta_norm);
  }
  return stats.SelectivityDerived(p.value, p.theta);
}

double AbductionModel::DomainCoverageOf(const PropertyStats& stats,
                                        const SemanticProperty& p) {
  if (p.descriptor->kind == PropertyKind::kInlineNumeric) {
    double extent = stats.domain_max() - stats.domain_min();
    if (extent <= 0) return 1.0;
    return std::clamp((p.hi - p.lo) / extent, 0.0, 1.0);
  }
  // Single categorical/derived value: covers 1/|domain|.
  size_t domain = stats.domain_size();
  if (domain == 0) return 1.0;
  return 1.0 / static_cast<double>(domain);
}

double AbductionModel::DeltaOf(double domain_coverage) const {
  if (config_.gamma <= 0 || config_.eta <= 0) return 1.0;
  double ratio = std::max(1.0, domain_coverage / config_.eta);
  return 1.0 / std::pow(ratio, config_.gamma);
}

double AbductionModel::AlphaOf(const SemanticProperty& p) const {
  if (!p.has_theta()) return 1.0;  // basic filters are always significant
  // Entity-identity properties ("appeared in movie X") are not aggregates
  // over an associate's property; like multi-valued basics they carry no
  // meaningful association-strength distribution, so α does not apply.
  if (p.descriptor != nullptr &&
      p.descriptor->kind == PropertyKind::kDerivedEntity) {
    return 1.0;
  }
  if (config_.normalize_association && p.theta_norm >= 0) {
    return p.theta_norm >= config_.tau_a_normalized ? 1.0 : 0.0;
  }
  return p.theta >= config_.tau_a ? 1.0 : 0.0;
}

double AbductionModel::Skewness(const std::vector<double>& thetas) {
  return thetas.size() < 3 ? 0.0 : MomentsOf(thetas).skewness;
}

bool AbductionModel::IsOutlier(double theta, const std::vector<double>& thetas,
                               double k) {
  if (thetas.size() < 3) return true;  // Appendix B: all are outliers when n < 3
  const Moments m = MomentsOf(thetas);
  return (theta - m.mean) > k * m.s;
}

void AbductionModel::ApplyOutlierImpact(std::vector<Filter>* filters) const {
  if (!config_.use_outlier_impact) return;
  // A family is the derived filters over one descriptor (identity filters
  // excluded). Families are few, so a linear scan by ordinal groups them;
  // thetas keep filter order, and each family's moments are computed once.
  struct Family {
    size_t ordinal = 0;
    std::vector<double> thetas;
    Moments moments;
  };
  constexpr size_t kNoFamily = static_cast<size_t>(-1);
  auto theta_of = [&](const Filter& f) {
    return config_.normalize_association && f.property.theta_norm >= 0
               ? f.property.theta_norm
               : f.property.theta;
  };
  std::vector<Family> families;
  std::vector<size_t> family_of(filters->size(), kNoFamily);
  for (size_t i = 0; i < filters->size(); ++i) {
    const Filter& f = (*filters)[i];
    if (!f.property.has_theta() ||
        f.property.descriptor->kind == PropertyKind::kDerivedEntity) {
      continue;
    }
    const size_t ordinal = f.property.descriptor->ordinal;
    size_t fam = 0;
    while (fam < families.size() && families[fam].ordinal != ordinal) ++fam;
    if (fam == families.size()) families.push_back(Family{ordinal, {}, {}});
    families[fam].thetas.push_back(theta_of(f));
    family_of[i] = fam;
  }
  for (Family& fam : families) {
    if (fam.thetas.size() >= 3) fam.moments = MomentsOf(fam.thetas);
  }
  for (size_t i = 0; i < filters->size(); ++i) {
    Filter& f = (*filters)[i];
    if (family_of[i] == kNoFamily) {
      f.lambda = 1.0;  // basic and identity filters
      continue;
    }
    const Family& fam = families[family_of[i]];
    if (fam.thetas.size() < 3) {
      f.lambda = 1.0;  // skewness undefined; all elements treated as outliers
      continue;
    }
    const bool skewed = fam.moments.skewness > config_.tau_s;
    const bool outlier =
        (theta_of(f) - fam.moments.mean) > config_.outlier_k * fam.moments.s;
    f.lambda = skewed && outlier ? 1.0 : 0.0;
  }
}

Result<std::vector<Filter>> AbductionModel::AbduceFilters(
    const std::vector<SemanticContext>& contexts, size_t num_examples) const {
  std::vector<Filter> filters;
  filters.reserve(contexts.size());
  for (const SemanticContext& ctx : contexts) {
    Filter f;
    f.property = ctx.property;
    if (f.property.descriptor == nullptr) {
      return Status::InvalidArgument("property without descriptor");
    }
    SQUID_ASSIGN_OR_RETURN(const PropertyStats* stats,
                           adb_->StatsFor(*f.property.descriptor));
    f.selectivity = SelectivityOf(*stats, f.property);
    f.delta = DeltaOf(DomainCoverageOf(*stats, f.property));
    f.alpha = AlphaOf(f.property);
    filters.push_back(std::move(f));
  }
  ApplyOutlierImpact(&filters);

  // Algorithm 1: decide each filter independently.
  const double n = static_cast<double>(num_examples);
  for (Filter& f : filters) {
    f.prior = config_.rho * f.delta * f.alpha * f.lambda;
    f.include_score = f.prior;  // Pr*(x|φ) = 1
    f.exclude_score = (1.0 - f.prior) * std::pow(f.selectivity, n);
    f.included = f.include_score > f.exclude_score;
  }
  return filters;
}

double AbductionModel::LogPosterior(const std::vector<Filter>& filters) {
  double log_p = 0;
  constexpr double kFloor = 1e-300;
  for (const Filter& f : filters) {
    log_p += std::log(std::max(kFloor, std::max(f.include_score, f.exclude_score)));
  }
  return log_p;
}

}  // namespace squid
