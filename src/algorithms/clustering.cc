#include "algorithms/clustering.h"

#include <algorithm>
#include <cmath>

#include "common/exec_guard.h"
#include "common/random.h"
#include "common/string_util.h"

namespace dmx {

namespace {

const std::string kServiceName = "Clustering";

constexpr double kMinVariance = 1e-6;
constexpr size_t kMaxFullBernoulli = 512;

double LogGaussian(double x, double mean, double variance) {
  variance = std::max(variance, kMinVariance);
  double d = x - mean;
  return -0.5 * (std::log(2 * M_PI * variance) + d * d / variance);
}

// Log-likelihood of `c` under one cluster's component distributions.
double ClusterLogLikelihood(const ClusteringModel::ClusterStats& cluster,
                            const AttributeSet& attrs, const DataCase& c,
                            bool use_outputs, double alpha) {
  double ll = 0;
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    if (!attr.is_input && !(use_outputs && attr.is_output)) continue;
    double v = c.values[a];
    if (IsMissing(v)) continue;
    if (attr.is_continuous) {
      auto it = cluster.cont_stats.find(static_cast<int>(a));
      if (it != cluster.cont_stats.end() && it->second.weight > 0) {
        ll += LogGaussian(v, it->second.mean, it->second.variance());
      } else {
        ll += LogGaussian(v, 0, 1e6);
      }
    } else {
      double card = std::max(1, attr.cardinality());
      int state = static_cast<int>(v);
      double count = 0;
      auto it = cluster.cat_counts.find(static_cast<int>(a));
      if (it != cluster.cat_counts.end() &&
          static_cast<size_t>(state) < it->second.size()) {
        count = it->second[state];
      }
      ll += std::log((count + alpha) / (cluster.weight + alpha * card));
    }
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    if (!group.is_input && !(use_outputs && group.is_output)) continue;
    auto it = cluster.group_counts.find(static_cast<int>(g));
    std::vector<char> present(group.keys.size(), 0);
    for (const CaseItem& item : c.groups[g]) {
      if (item.key >= 0 && static_cast<size_t>(item.key) < present.size()) {
        present[item.key] = 1;
      }
    }
    bool full = group.keys.size() <= kMaxFullBernoulli;
    for (size_t item = 0; item < group.keys.size(); ++item) {
      double count = 0;
      if (it != cluster.group_counts.end() && item < it->second.size()) {
        count = it->second[item];
      }
      double p = (count + alpha) / (cluster.weight + 2 * alpha);
      if (present[item]) {
        ll += std::log(p);
      } else if (full) {
        ll += std::log1p(-std::min(p, 1 - 1e-12));
      }
    }
  }
  return ll;
}

}  // namespace

ClusteringModel::ClusteringModel(std::vector<ClusterStats> clusters,
                                 double case_count, double alpha)
    : clusters_(std::move(clusters)), case_count_(case_count), alpha_(alpha) {
  cluster_names_.reserve(clusters_.size());
  for (size_t i = 0; i < clusters_.size(); ++i) {
    cluster_names_.push_back(Value::Text("Cluster " + std::to_string(i + 1)));
  }
}

const std::string& ClusteringModel::service_name() const {
  return kServiceName;
}

std::vector<double> ClusteringModel::Responsibilities(const AttributeSet& attrs,
                                                      const DataCase& c,
                                                      bool use_outputs) const {
  const size_t k = clusters_.size();
  std::vector<double> log_post(k);
  double total_weight = 0;
  for (const ClusterStats& cluster : clusters_) total_weight += cluster.weight;
  for (size_t i = 0; i < k; ++i) {
    double prior = (clusters_[i].weight + alpha_) /
                   (total_weight + alpha_ * static_cast<double>(k));
    log_post[i] = std::log(prior) +
                  ClusterLogLikelihood(clusters_[i], attrs, c, use_outputs,
                                       alpha_);
  }
  double max_log = *std::max_element(log_post.begin(), log_post.end());
  double norm = 0;
  for (double& lp : log_post) {
    lp = std::exp(lp - max_log);
    norm += lp;
  }
  if (norm > 0) {
    for (double& lp : log_post) lp /= norm;
  }
  return log_post;
}

Result<CasePrediction> ClusteringModel::Predict(
    const AttributeSet& attrs, const DataCase& input) const {
  // dmx-hot-begin(clu-predict)
  DMX_RETURN_IF_ERROR(GuardCheck());
  CasePrediction out;
  std::vector<double> resp = Responsibilities(attrs, input,
                                              /*use_outputs=*/false);

  // Cluster membership pseudo-target.
  AttributePrediction membership;
  membership.histogram.reserve(clusters_.size());
  for (size_t i = 0; i < clusters_.size(); ++i) {
    ScoredValue sv;
    sv.value = cluster_names_[i];
    sv.state = static_cast<int>(i);
    sv.probability = resp[i];
    sv.support = clusters_[i].weight;
    membership.histogram.push_back(std::move(sv));
  }
  std::stable_sort(membership.histogram.begin(), membership.histogram.end(),
                   [](const ScoredValue& a, const ScoredValue& b) {
                     return a.probability > b.probability;
                   });
  if (!membership.histogram.empty()) {
    membership.predicted = membership.histogram[0].value;
    membership.probability = membership.histogram[0].probability;
    membership.support = membership.histogram[0].support;
    membership.cluster_id = static_cast<int>(
        std::max_element(resp.begin(), resp.end()) - resp.begin());
  }
  out.targets.emplace(kClusterTarget, std::move(membership));

  // Mixture-posterior predictions for PREDICT columns. The per-state scratch
  // is shared across targets; assign() resizes without shrinking.
  std::vector<double> probs;
  std::vector<double> supports;
  for (int target : attrs.OutputAttributeIndices()) {
    const Attribute& attr = attrs.attributes[static_cast<size_t>(target)];
    AttributePrediction prediction;
    if (attr.is_continuous) {
      double mean = 0;
      double second_moment = 0;
      double support = 0;
      for (size_t i = 0; i < clusters_.size(); ++i) {
        auto it = clusters_[i].cont_stats.find(target);
        if (it == clusters_[i].cont_stats.end()) continue;
        mean += resp[i] * it->second.mean;
        second_moment += resp[i] * (it->second.variance() +
                                    it->second.mean * it->second.mean);
        support += resp[i] * it->second.weight;
      }
      prediction.predicted = Value::Double(mean);
      prediction.probability = 1.0;
      prediction.variance = std::max(0.0, second_moment - mean * mean);
      prediction.support = support;
      ScoredValue sv;
      sv.value = prediction.predicted;
      sv.probability = 1.0;
      sv.support = support;
      sv.variance = prediction.variance;
      prediction.histogram.push_back(std::move(sv));
    } else {
      int card = std::max(1, attr.cardinality());
      probs.assign(card, 0.0);
      supports.assign(card, 0.0);
      for (size_t i = 0; i < clusters_.size(); ++i) {
        auto it = clusters_[i].cat_counts.find(target);
        for (int state = 0; state < card; ++state) {
          double count = 0;
          if (it != clusters_[i].cat_counts.end() &&
              static_cast<size_t>(state) < it->second.size()) {
            count = it->second[state];
          }
          probs[state] += resp[i] * (count + alpha_) /
                          (clusters_[i].weight + alpha_ * card);
          supports[state] += resp[i] * count;
        }
      }
      for (int state = 0; state < card; ++state) {
        if (probs[state] <= 0) continue;
        ScoredValue sv;
        sv.value = attr.StateValue(state);
        sv.state = state;
        sv.probability = probs[state];
        sv.support = supports[state];
        prediction.histogram.push_back(std::move(sv));
      }
      std::stable_sort(prediction.histogram.begin(),
                       prediction.histogram.end(),
                       [](const ScoredValue& a, const ScoredValue& b) {
                         return a.probability > b.probability;
                       });
      if (!prediction.histogram.empty()) {
        prediction.predicted = prediction.histogram[0].value;
        prediction.probability = prediction.histogram[0].probability;
        prediction.support = prediction.histogram[0].support;
      }
    }
    out.targets.emplace(attr.name, std::move(prediction));
  }
  // dmx-hot-end(clu-predict)
  return out;
}

Result<ContentNodePtr> ClusteringModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "CL";
  root->caption = "Clustering model (" + std::to_string(clusters_.size()) +
                  " clusters)";
  root->support = case_count_;
  root->probability = 1.0;
  for (size_t i = 0; i < clusters_.size(); ++i) {
    const ClusterStats& cluster = clusters_[i];
    auto node = std::make_shared<ContentNode>();
    node->type = NodeType::kCluster;
    node->unique_name = "CL/" + std::to_string(i + 1);
    node->caption = "Cluster " + std::to_string(i + 1);
    node->support = cluster.weight;
    node->probability = case_count_ > 0 ? cluster.weight / case_count_ : 0;
    for (const auto& [attr_index, counts] : cluster.cat_counts) {
      const Attribute& attr = attrs.attributes[attr_index];
      for (size_t state = 0; state < counts.size(); ++state) {
        if (counts[state] <= 0) continue;
        node->distribution.push_back(
            {attr.name, attr.StateValue(static_cast<int>(state)),
             counts[state],
             cluster.weight > 0 ? counts[state] / cluster.weight : 0, 0});
      }
    }
    for (const auto& [attr_index, moments] : cluster.cont_stats) {
      const Attribute& attr = attrs.attributes[attr_index];
      node->distribution.push_back({attr.name, Value::Double(moments.mean),
                                    moments.weight, 1.0, moments.variance()});
    }
    for (const auto& [group_index, counts] : cluster.group_counts) {
      const NestedGroup& group = attrs.groups[group_index];
      for (size_t item = 0; item < counts.size(); ++item) {
        if (counts[item] <= 0) continue;
        node->distribution.push_back(
            {group.name, group.keys[item], counts[item],
             cluster.weight > 0 ? counts[item] / cluster.weight : 0, 0});
      }
    }
    root->children.push_back(std::move(node));
  }
  return root;
}

ClusteringService::ClusteringService() {
  caps_.name = kServiceName;
  caps_.display_name = "Mixture-Model Clustering";
  caps_.description =
      "EM / K-means segmentation over scalar and nested-table attributes; "
      "predicts PREDICT columns through the mixture posterior";
  caps_.supports_prediction = true;
  caps_.is_segmentation = true;
  caps_.supports_continuous_targets = true;
  caps_.supports_discrete_targets = true;
  caps_.parameters = {
      {"CLUSTER_COUNT", "Number of clusters", Value::Long(4)},
      {"CLUSTER_METHOD", "'EM' or 'KMEANS'", Value::Text("EM")},
      {"MAX_ITERATIONS", "Maximum EM iterations", Value::Long(50)},
      {"STOPPING_TOLERANCE", "Mean log-likelihood improvement threshold",
       Value::Double(1e-4)},
      {"SEED", "Random seed for initialization", Value::Long(42)},
      {"ALPHA", "Smoothing pseudo-count", Value::Double(0.5)},
  };
}

Status ClusteringService::ValidateBinding(const AttributeSet& attrs) const {
  if (attrs.attributes.empty() && attrs.groups.empty()) {
    return InvalidArgument() << "Clustering model has no attributes";
  }
  return MiningService::ValidateBinding(attrs);
}

Result<std::unique_ptr<TrainedModel>> ClusteringService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(int64_t k, params.at("CLUSTER_COUNT").AsLong());
  DMX_ASSIGN_OR_RETURN(int64_t max_iterations,
                       params.at("MAX_ITERATIONS").AsLong());
  DMX_ASSIGN_OR_RETURN(double tolerance,
                       params.at("STOPPING_TOLERANCE").AsDouble());
  DMX_ASSIGN_OR_RETURN(int64_t seed, params.at("SEED").AsLong());
  DMX_ASSIGN_OR_RETURN(double alpha, params.at("ALPHA").AsDouble());
  const Value& method_value = params.at("CLUSTER_METHOD");
  if (!method_value.is_text()) {
    return InvalidArgument() << "CLUSTER_METHOD must be a string";
  }
  bool kmeans;
  if (EqualsCi(method_value.text_value(), "EM")) {
    kmeans = false;
  } else if (EqualsCi(method_value.text_value(), "KMEANS")) {
    kmeans = true;
  } else {
    return InvalidArgument() << "CLUSTER_METHOD must be 'EM' or 'KMEANS', got '"
                             << method_value.text_value() << "'";
  }
  if (k < 1) return InvalidArgument() << "CLUSTER_COUNT must be >= 1";
  if (cases.empty()) {
    return InvalidState() << "cannot train a clustering model on zero cases";
  }

  const size_t n = cases.size();
  const size_t num_clusters = static_cast<size_t>(
      std::min<int64_t>(k, static_cast<int64_t>(n)));

  // Responsibilities, initialized by random hard assignment.
  std::vector<std::vector<double>> resp(n,
                                        std::vector<double>(num_clusters, 0));
  Rng rng(static_cast<uint64_t>(seed));
  for (size_t i = 0; i < n; ++i) {
    resp[i][rng.Uniform(num_clusters)] = 1.0;
  }

  double total_weight = 0;
  for (const DataCase& c : cases) total_weight += c.weight;

  std::vector<ClusteringModel::ClusterStats> clusters;
  double previous_ll = -std::numeric_limits<double>::infinity();
  // Per-case log-likelihood scratch, reused across all EM iterations.
  std::vector<double> log_like(num_clusters);
  // dmx-hot-begin(clu-train-em)
  for (int64_t iteration = 0; iteration < max_iterations; ++iteration) {
    // --- M step: rebuild cluster statistics from responsibilities ---
    clusters.assign(num_clusters, ClusteringModel::ClusterStats());
    for (size_t i = 0; i < n; ++i) {
      if ((i & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
      const DataCase& c = cases[i];
      for (size_t j = 0; j < num_clusters; ++j) {
        double r = resp[i][j] * c.weight;
        if (r <= 1e-12) continue;
        ClusteringModel::ClusterStats& cluster = clusters[j];
        cluster.weight += r;
        for (size_t a = 0; a < attrs.attributes.size(); ++a) {
          double v = c.values[a];
          if (IsMissing(v)) continue;
          const Attribute& attr = attrs.attributes[a];
          if (attr.is_continuous) {
            auto& moments = cluster.cont_stats[static_cast<int>(a)];
            moments.weight += r;
            double delta = v - moments.mean;
            moments.mean += delta * r / moments.weight;
            moments.m2 += r * delta * (v - moments.mean);
          } else {
            auto& counts = cluster.cat_counts[static_cast<int>(a)];
            int state = static_cast<int>(v);
            if (counts.size() <= static_cast<size_t>(state)) {
              counts.resize(state + 1, 0.0);
            }
            counts[state] += r;
          }
        }
        for (size_t g = 0; g < attrs.groups.size(); ++g) {
          auto& counts = cluster.group_counts[static_cast<int>(g)];
          for (const CaseItem& item : c.groups[g]) {
            if (item.key < 0) continue;
            if (counts.size() <= static_cast<size_t>(item.key)) {
              counts.resize(item.key + 1, 0.0);
            }
            counts[item.key] += r;
          }
        }
      }
    }

    // --- E step: recompute responsibilities ---
    ClusteringModel snapshot(clusters, total_weight, alpha);
    double ll = 0;
    for (size_t i = 0; i < n; ++i) {
      if ((i & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
      double max_log = -std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < num_clusters; ++j) {
        double prior =
            (clusters[j].weight + alpha) /
            (total_weight + alpha * static_cast<double>(num_clusters));
        log_like[j] = std::log(prior) +
                      ClusterLogLikelihood(clusters[j], attrs, cases[i],
                                           /*use_outputs=*/true, alpha);
        max_log = std::max(max_log, log_like[j]);
      }
      double norm = 0;
      for (double& lp : log_like) {
        lp = std::exp(lp - max_log);
        norm += lp;
      }
      ll += max_log + std::log(norm);
      if (kmeans) {
        size_t best = static_cast<size_t>(
            std::max_element(log_like.begin(), log_like.end()) -
            log_like.begin());
        std::fill(resp[i].begin(), resp[i].end(), 0.0);
        resp[i][best] = 1.0;
      } else {
        for (size_t j = 0; j < num_clusters; ++j) {
          resp[i][j] = norm > 0 ? log_like[j] / norm : 1.0 / num_clusters;
        }
      }
    }
    double mean_ll = ll / static_cast<double>(n);
    if (std::fabs(mean_ll - previous_ll) < tolerance) break;
    previous_ll = mean_ll;
  }
  // dmx-hot-end(clu-train-em)

  return std::unique_ptr<TrainedModel>(
      new ClusteringModel(std::move(clusters), total_weight, alpha));
}

}  // namespace dmx
