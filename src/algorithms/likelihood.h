// Likelihood terms shared by the services that score cases with a product of
// per-attribute likelihoods (Naive_Bayes, Clustering): the smoothed state and
// item probabilities, Gaussian densities for continuous attributes, Bernoulli
// terms for nested-table items, and the per-statement table their scorers
// keep the model-constant log terms in. Training and scoring both evaluate
// these, so the two agree bit for bit.

#ifndef DMX_ALGORITHMS_LIKELIHOOD_H_
#define DMX_ALGORITHMS_LIKELIHOOD_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dmx {

/// Items per nested group above which the Bernoulli likelihood only scores
/// present items (full absent-item products get too expensive and too sharp).
inline constexpr size_t kMaxFullBernoulli = 512;

/// Variance of the vague Gaussian that stands in where a class or cluster
/// has no moments for a continuous attribute.
inline constexpr double kVagueVariance = 1e6;

/// Laplace-smoothed probability of a state seen `count` times in `total`
/// cases, over `states` possible states.
inline double SmoothedStateProbability(double count, double total,
                                       double alpha, double states) {
  return (count + alpha) / (total + alpha * states);
}

/// Laplace-smoothed probability that a case holds a nested item that
/// `count` of `total` cases held (two outcomes: held or not).
inline double SmoothedItemProbability(double count, double total,
                                      double alpha) {
  return (count + alpha) / (total + 2 * alpha);
}

/// Bernoulli log-likelihood of a nested item with smoothed probability `p`
/// that the case lacks; the clamp keeps an item every training case held
/// from scoring -inf.
inline double LogItemAbsent(double p) {
  return std::log1p(-std::min(p, 1 - 1e-12));
}

/// \brief A Gaussian log density, with its variance clamped and its
/// normalising term computed once.
class LogGaussian {
 public:
  LogGaussian(double mean, double variance)
      : mean_(mean),
        variance_(std::max(variance, kMinVariance)),
        log_norm_(std::log(2 * M_PI * variance_)) {}

  double operator()(double x) const {
    double d = x - mean_;
    return -0.5 * (log_norm_ + d * d / variance_);
  }

 private:
  static constexpr double kMinVariance = 1e-6;
  double mean_, variance_, log_norm_;
};

/// \brief Log terms that depend only on the model, each computed on its
/// first read and kept for the rest of the statement. A scorer reads the
/// same expression the training-side likelihood evaluates, so a cached term
/// is bit-identical to a recomputed one.
class LogTermTable {
 public:
  void Reset(size_t size) { terms_.assign(size, kUnfilled); }

  /// Entry `i`, from `compute()` on its first read. NaN marks an entry not
  /// read yet; one that computes to NaN is recomputed, to the same NaN.
  template <typename Compute>
  double Term(size_t i, const Compute& compute) {
    double& term = terms_[i];
    if (std::isnan(term)) term = compute();
    return term;
  }

 private:
  static constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> terms_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_LIKELIHOOD_H_
