#ifndef SQUID_CORE_ABDUCTION_MODEL_H_
#define SQUID_CORE_ABDUCTION_MODEL_H_

/// \file abduction_model.h
/// \brief The probabilistic abduction model (§4) and the QueryAbduction
/// algorithm (Algorithm 1).
///
/// For each minimal valid filter φi (encoding semantic context xi) the model
/// computes:
///   ψ(φi)        — selectivity from the αDB statistics (§4.2.1);
///   Pr*(φi)      — filter-event prior ρ·δ(φi)·α(φi)·λ(φi) (§4.2.2);
///   include_i    = Pr*(φi)·Pr*(xi|φi)   = Pr*(φi)·1;
///   exclude_i    = Pr*(φ̄i)·Pr*(xi|φ̄i) = (1 − Pr*(φi))·ψ(φi)^|E|;
/// and includes φi in the abduced query iff include_i > exclude_i, which by
/// Theorem 1 maximizes the query posterior Pr*(Qϕ|E).

#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "core/config.h"
#include "core/filter.h"
#include "core/semantic_property.h"

namespace squid {

/// \brief Computes filter priors and makes include/exclude decisions.
class AbductionModel {
 public:
  AbductionModel(const AbductionReadyDb* adb, SquidConfig config)
      : adb_(adb), config_(std::move(config)) {}

  /// Runs Algorithm 1: turns contexts into decided filters. `num_examples`
  /// is |E| (the exponent of the semantic-context posterior under φ̄).
  Result<std::vector<Filter>> AbduceFilters(
      const std::vector<SemanticContext>& contexts, size_t num_examples) const;

  /// Log posterior contribution of the decided filters:
  /// Σ log(max(include_i, exclude_i)). Constant terms (K, ψ(Φ)) are omitted
  /// as they do not affect the argmax for a fixed base query.
  static double LogPosterior(const std::vector<Filter>& filters);

  // --- Exposed pieces (unit-tested individually). ---

  /// ψ(φ) from the αDB statistics.
  Result<double> Selectivity(const SemanticProperty& p) const;

  /// Domain coverage of the filter's value range (Appendix A), in [0, 1].
  Result<double> DomainCoverage(const SemanticProperty& p) const;

  /// δ(φ) = 1 / max(1, coverage/η)^γ (Appendix A).
  double DeltaOf(double domain_coverage) const;

  /// α(φ): 0 for derived filters below the association-strength threshold.
  double AlphaOf(const SemanticProperty& p) const;

  /// Sample skewness of Θ (Appendix B); 0 when undefined (n < 3 or s = 0).
  static double Skewness(const std::vector<double>& thetas);

  /// Outlier test of Appendix B: θ − mean > k·s. All elements are outliers
  /// when n < 3.
  static bool IsOutlier(double theta, const std::vector<double>& thetas, double k);

 private:
  /// ψ(φ) and the domain coverage from the descriptor's resolved stats.
  double SelectivityOf(const PropertyStats& stats, const SemanticProperty& p) const;
  static double DomainCoverageOf(const PropertyStats& stats, const SemanticProperty& p);

  /// λ(φ) per family of derived filters over the same descriptor (grouped
  /// by descriptor ordinal).
  void ApplyOutlierImpact(std::vector<Filter>* filters) const;

  const AbductionReadyDb* adb_;
  SquidConfig config_;
};

}  // namespace squid

#endif  // SQUID_CORE_ABDUCTION_MODEL_H_
