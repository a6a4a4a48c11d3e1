// Naive-Bayes mining service: discrete-target classifier with categorical,
// continuous (Gaussian) and nested-table (per-item Bernoulli) inputs.
//
// This is the repository's reference *incremental* service: its sufficient
// statistics are pure counts/moments, so it consumes cases one at a time
// (paper §3.1's case-at-a-time model) and supports repeated INSERT INTO
// refreshes without retraining — the "incremental model maintenance"
// capability of paper §3.
//
// Qualifier integration: SUPPORT OF weights a case, PROBABILITY OF the
// target scales its contribution (soft labels) — the paper's §3.2.1
// "chained prediction output as training input" scenario.

#ifndef DMX_ALGORITHMS_NAIVE_BAYES_H_
#define DMX_ALGORITHMS_NAIVE_BAYES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// Welford-style weighted moment accumulator for Gaussian likelihoods.
struct GaussianMoments {
  double weight = 0;
  double mean = 0;
  double m2 = 0;

  void Add(double value, double w);
  double variance() const;
};

/// \brief Trained Naive-Bayes state: per-target conditional count tables.
class NaiveBayesModel : public TrainedModel {
 public:
  struct TargetStats {
    int target = -1;  ///< Attribute index in the AttributeSet.
    std::vector<double> class_counts;
    /// cat_counts[input attr][class][input state] — sized lazily because
    /// dictionaries grow during incremental training.
    std::map<int, std::vector<std::vector<double>>> cat_counts;
    std::map<int, std::vector<GaussianMoments>> cont_stats;
    /// group_counts[group][class][item]: cases of `class` containing item.
    std::map<int, std::vector<std::vector<double>>> group_counts;
  };

  NaiveBayesModel(std::vector<int> target_attributes, double alpha);

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  Status ConsumeCase(const AttributeSet& attrs, const DataCase& c) override;
  Result<std::unique_ptr<TrainedModel>> Clone() const override;

  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  // Accessors for PMML serialization.
  const std::vector<TargetStats>& targets() const { return targets_; }
  std::vector<TargetStats>& mutable_targets() { return targets_; }
  double alpha() const { return alpha_; }
  void set_case_count(double n) { case_count_ = n; }

 private:
  std::vector<TargetStats> targets_;
  double alpha_;  ///< Laplace smoothing pseudo-count.
  double case_count_ = 0;
};

/// \brief The plug-in wrapper registering Naive Bayes as a mining service.
class NaiveBayesService : public MiningService {
 public:
  NaiveBayesService();

  const ServiceCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const override;

  Result<std::unique_ptr<TrainedModel>> CreateEmpty(
      const AttributeSet& attrs, const ParamMap& params) const override;

 private:
  ServiceCapabilities caps_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_NAIVE_BAYES_H_
