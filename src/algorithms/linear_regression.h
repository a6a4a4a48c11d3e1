// Linear-regression mining service: the "multi-regression DMM" the paper
// names among model classes (§3.3). Ridge-regularized least squares over a
// design matrix assembled from continuous inputs, one-hot encoded categorical
// inputs and nested-table item indicators. Incremental: the normal-equation
// accumulators (X'X, X'y) are updatable case by case.

#ifndef DMX_ALGORITHMS_LINEAR_REGRESSION_H_
#define DMX_ALGORITHMS_LINEAR_REGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// \brief Trained (or incrementally accumulating) regression state.
class LinearRegressionModel : public TrainedModel {
 public:
  /// One design-matrix column.
  struct Feature {
    enum class Kind { kIntercept, kContinuous, kCategory, kItem };
    Kind kind = Kind::kIntercept;
    int attribute = -1;  ///< kContinuous / kCategory.
    int state = -1;      ///< kCategory: indicator of this state.
    int group = -1;      ///< kItem.
    int item = -1;       ///< kItem.

    std::string Describe(const AttributeSet& attrs) const;
  };

  struct TargetRegression {
    int target = -1;
    // Normal-equation accumulators (updated per case; solved lazily).
    std::vector<double> xtx;  ///< Row-major f x f.
    std::vector<double> xty;
    double yty = 0;
    double y_sum = 0;
    double weight_sum = 0;
    // Solved state.
    mutable std::vector<double> coefficients;
    mutable double residual_variance = 0;
    mutable bool solved = false;
  };

  LinearRegressionModel(std::vector<Feature> features,
                        std::vector<int> targets, double ridge_lambda);

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  Status ConsumeCase(const AttributeSet& attrs, const DataCase& c) override;
  Result<std::unique_ptr<TrainedModel>> Clone() const override;

  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  const std::vector<Feature>& features() const { return features_; }
  const std::vector<TargetRegression>& targets() const { return targets_; }
  std::vector<TargetRegression>& mutable_targets() { return targets_; }
  double ridge_lambda() const { return ridge_lambda_; }
  void set_case_count(double n) { case_count_ = n; }

  /// Assembles a case's feature vector into `x` (missing continuous inputs
  /// impute 0; indicator features answer 0/1).
  void FeatureVector(const DataCase& c, std::vector<double>* x) const;

  /// Solves the ridge normal equations for a target (cached until the next
  /// ConsumeCase).
  Status Solve(const TargetRegression& reg) const;

 private:
  std::vector<Feature> features_;
  std::vector<TargetRegression> targets_;
  double ridge_lambda_;
  double case_count_ = 0;
};

/// \brief Plug-in. Parameters:
///   RIDGE_LAMBDA      (DOUBLE, default 1e-3)
///   MAXIMUM_FEATURES  (LONG, default 512) — design-matrix width guard
class LinearRegressionService : public MiningService {
 public:
  LinearRegressionService();

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

#endif  // DMX_ALGORITHMS_LINEAR_REGRESSION_H_
