// Clustering mining service: the "segmentation" model class of paper §3.3.
// Mixture-model clustering over the full bound attribute space — multinomial
// components for categorical attributes, Gaussian components for continuous
// ones, per-item Bernoulli components for nested tables — trained by EM
// (CLUSTER_METHOD = 'EM') or hard-assignment K-means ('KMEANS').
//
// Besides exposing segments (the Cluster()/ClusterProbability() UDFs and the
// kCluster content nodes), a trained clustering model predicts any PREDICT
// column through the mixture posterior: P(target | case) =
// sum_c P(c | inputs) * P(target | c).

#ifndef DMX_ALGORITHMS_CLUSTERING_H_
#define DMX_ALGORITHMS_CLUSTERING_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// \brief Trained mixture model.
class ClusteringModel : public TrainedModel {
 public:
  struct ClusterStats {
    double weight = 0;  ///< Soft case count.
    /// cat_counts[attribute][state] — soft counts.
    std::map<int, std::vector<double>> cat_counts;
    struct Moments {
      double weight = 0, mean = 0, m2 = 0;
      double variance() const { return weight > 0 ? m2 / weight : 0; }
    };
    std::map<int, Moments> cont_stats;
    /// group_counts[group][item] — soft counts of cases containing the item.
    std::map<int, std::vector<double>> group_counts;
  };

  ClusteringModel(std::vector<ClusterStats> clusters, double case_count,
                  double alpha);

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  /// Scores cluster membership (PredictionTarget::Kind::kCluster, read by
  /// the Cluster* UDFs) and any PREDICT attribute.
  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  const std::vector<ClusterStats>& clusters() const { return clusters_; }
  std::vector<ClusterStats>& mutable_clusters() { return clusters_; }
  double alpha() const { return alpha_; }

 private:
  std::vector<ClusterStats> clusters_;
  double case_count_ = 0;
  double alpha_;
};

/// \brief Clustering plug-in. Parameters:
///   CLUSTER_COUNT      (LONG, default 4)
///   CLUSTER_METHOD     (TEXT, 'EM' or 'KMEANS', default 'EM')
///   MAX_ITERATIONS     (LONG, default 50)
///   STOPPING_TOLERANCE (DOUBLE, default 1e-4) — mean log-likelihood delta
///   SEED               (LONG, default 42)
///   ALPHA              (DOUBLE, default 0.5) — smoothing pseudo-count
class ClusteringService : public MiningService {
 public:
  ClusteringService();

  const ServiceCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const override;

  Status ValidateBinding(const AttributeSet& attrs) const override;

 private:
  ServiceCapabilities caps_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_CLUSTERING_H_
