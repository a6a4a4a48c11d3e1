#include "algorithms/clustering.h"

#include <algorithm>
#include <cmath>

#include "algorithms/likelihood.h"
#include "common/exec_guard.h"
#include "common/random.h"
#include "common/string_util.h"

namespace dmx {

namespace {

const std::string kServiceName = "Clustering";

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
        ll += LogGaussian(it->second.mean, it->second.variance())(v);
      } else {
        ll += LogGaussian(0, kVagueVariance)(v);
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
      ll += std::log(
          SmoothedStateProbability(count, cluster.weight, alpha, card));
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
      double p = SmoothedItemProbability(count, cluster.weight, alpha);
      if (present[item]) {
        ll += std::log(p);
      } else if (full) {
        ll += LogItemAbsent(p);
      }
    }
  }
  return ll;
}

}  // namespace

ClusteringModel::ClusteringModel(std::vector<ClusterStats> clusters,
                                 double case_count, double alpha)
    : clusters_(std::move(clusters)), case_count_(case_count), alpha_(alpha) {}

const std::string& ClusteringModel::service_name() const {
  return kServiceName;
}

namespace {

// Scores the targets a statement reads through the mixture posterior over
// the clusters. The model-constant log terms of each cluster's likelihood
// (priors, categorical conditionals, Bernoulli item terms) live in one
// table filled on first read; each case sums them per cluster in the order
// ClusterLogLikelihood does, so the responsibilities are bit-identical.
class ClusteringScorer : public CaseScorer {
 public:
  ClusteringScorer(const ClusteringModel& model, const AttributeSet& attrs,
                   const PredictionDemand& demand);

  Status Score(const DataCase& input, std::span<TargetPrediction> out) override;

 private:
  using ClusterStats = ClusteringModel::ClusterStats;

  // One input attribute, in attribute order; per-cluster entries.
  struct AttributeInput {
    size_t attribute = 0;
    bool continuous = false;
    // Continuous: the Gaussian per cluster (the vague one where a cluster
    // has no moments).
    std::vector<LogGaussian> gaussians;
    // Categorical: where the log conditionals [cluster * states + state]
    // start in terms_.
    size_t states = 0;
    double card = 1;
    size_t terms = 0;
  };
  // One input nested group: where its Bernoulli terms [cluster * items +
  // item] for present and absent items start in terms_.
  struct GroupInput {
    size_t group = 0;
    size_t items = 0;
    bool full = false;
    size_t present = 0, absent = 0;
  };
  // One demanded PREDICT attribute: its per-cluster statistics.
  struct Target {
    size_t slot = 0;
    bool ranked = false;
    bool continuous = false;
    int card = 1;
    std::vector<const ClusterStats::Moments*> moments;
    std::vector<const std::vector<double>*> counts;
  };

  double CategoricalTerm(const AttributeInput& in, size_t cluster,
                         size_t state) const;
  double ItemProbability(const GroupInput& in, size_t cluster,
                         size_t item) const;
  void PredictAttribute(const Target& t, TargetPrediction* prediction);

  const std::vector<ClusterStats>& clusters_;
  double alpha_;
  std::vector<double> log_prior_;
  std::vector<AttributeInput> attributes_;
  std::vector<GroupInput> groups_;
  LogTermTable terms_;
  std::vector<Target> targets_;
  int membership_slot_ = -1;
  bool membership_ranked_ = false;
  // Per-case scratch, reused: log-likelihoods turned responsibilities, the
  // present-item mask and per-state mixture sums.
  std::vector<double> resp_;
  std::vector<char> present_;
  std::vector<double> probs_, supports_;
};

ClusteringScorer::ClusteringScorer(const ClusteringModel& model,
                                   const AttributeSet& attrs,
                                   const PredictionDemand& demand)
    : clusters_(model.clusters()), alpha_(model.alpha()) {
  const size_t k = clusters_.size();
  double total_weight = 0;
  for (const ClusterStats& cluster : clusters_) total_weight += cluster.weight;
  for (size_t i = 0; i < k; ++i) {
    log_prior_.push_back(std::log(SmoothedStateProbability(
        clusters_[i].weight, total_weight, alpha_, static_cast<double>(k))));
  }
  size_t terms = 0;
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    if (!attr.is_input) continue;
    AttributeInput in;
    in.attribute = a;
    in.continuous = attr.is_continuous;
    if (attr.is_continuous) {
      for (const ClusterStats& cluster : clusters_) {
        auto it = cluster.cont_stats.find(static_cast<int>(a));
        const bool fitted =
            it != cluster.cont_stats.end() && it->second.weight > 0;
        in.gaussians.push_back(
            fitted ? LogGaussian(it->second.mean, it->second.variance())
                   : LogGaussian(0, kVagueVariance));
      }
    } else {
      in.states = static_cast<size_t>(std::max(1, attr.cardinality()));
      in.card = std::max(1, attr.cardinality());
      in.terms = terms;
      terms += k * in.states;
    }
    attributes_.push_back(std::move(in));
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    if (!group.is_input) continue;
    GroupInput in;
    in.group = g;
    in.items = group.keys.size();
    in.full = group.keys.size() <= kMaxFullBernoulli;
    in.present = terms;
    terms += k * in.items;
    if (in.full) {
      in.absent = terms;
      terms += k * in.items;
    }
    groups_.push_back(std::move(in));
  }
  terms_.Reset(terms);
  for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
    const TargetDemand& want = demand.targets[slot];
    if (want.target.kind == PredictionTarget::Kind::kCluster) {
      membership_slot_ = static_cast<int>(slot);
      membership_ranked_ = want.histogram;
      continue;
    }
    if (want.target.kind != PredictionTarget::Kind::kAttribute ||
        want.target.index < 0 ||
        !attrs.attributes[static_cast<size_t>(want.target.index)].is_output) {
      continue;
    }
    const int index = want.target.index;
    const Attribute& attr = attrs.attributes[static_cast<size_t>(index)];
    Target t;
    t.slot = slot;
    t.ranked = want.histogram;
    t.continuous = attr.is_continuous;
    t.card = std::max(1, attr.cardinality());
    for (const ClusterStats& cluster : clusters_) {
      auto moments = cluster.cont_stats.find(index);
      t.moments.push_back(moments == cluster.cont_stats.end() ? nullptr
                                                              : &moments->second);
      auto counts = cluster.cat_counts.find(index);
      t.counts.push_back(counts == cluster.cat_counts.end() ? nullptr
                                                            : &counts->second);
    }
    targets_.push_back(std::move(t));
  }
}

double ClusteringScorer::CategoricalTerm(const AttributeInput& in,
                                         size_t cluster, size_t state) const {
  const ClusterStats& stats = clusters_[cluster];
  double count = 0;
  auto it = stats.cat_counts.find(static_cast<int>(in.attribute));
  if (it != stats.cat_counts.end() && state < it->second.size()) {
    count = it->second[state];
  }
  return std::log(
      SmoothedStateProbability(count, stats.weight, alpha_, in.card));
}

double ClusteringScorer::ItemProbability(const GroupInput& in, size_t cluster,
                                         size_t item) const {
  const ClusterStats& stats = clusters_[cluster];
  double count = 0;
  auto it = stats.group_counts.find(static_cast<int>(in.group));
  if (it != stats.group_counts.end() && item < it->second.size()) {
    count = it->second[item];
  }
  return SmoothedItemProbability(count, stats.weight, alpha_);
}

// Mixture-posterior prediction of one PREDICT attribute from resp_.
void ClusteringScorer::PredictAttribute(const Target& t,
                                        TargetPrediction* prediction) {
  const size_t k = clusters_.size();
  if (t.continuous) {
    double mean = 0;
    double second_moment = 0;
    double support = 0;
    for (size_t i = 0; i < k; ++i) {
      const ClusterStats::Moments* m = t.moments[i];
      if (m == nullptr) continue;
      mean += resp_[i] * m->mean;
      second_moment += resp_[i] * (m->variance() + m->mean * m->mean);
      support += resp_[i] * m->weight;
    }
    prediction->SetEstimate(mean, support,
                            std::max(0.0, second_moment - mean * mean),
                            t.ranked);
    return;
  }
  probs_.assign(static_cast<size_t>(t.card), 0.0);
  supports_.assign(static_cast<size_t>(t.card), 0.0);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<double>* counts = t.counts[i];
    for (int state = 0; state < t.card; ++state) {
      double count = 0;
      if (counts != nullptr && static_cast<size_t>(state) < counts->size()) {
        count = (*counts)[state];
      }
      probs_[state] += resp_[i] * (count + alpha_) /
                       (clusters_[i].weight + alpha_ * t.card);
      supports_[state] += resp_[i] * count;
    }
  }
  for (int state = 0; state < t.card; ++state) {
    if (probs_[state] <= 0) continue;
    prediction->Offer({state, probs_[state], supports_[state], 0}, t.ranked);
  }
  prediction->Finish(t.ranked);
}

Status ClusteringScorer::Score(const DataCase& input,
                               std::span<TargetPrediction> out) {
  // dmx-hot-begin(clu-predict)
  DMX_RETURN_IF_ERROR(GuardCheck());
  const size_t k = clusters_.size();
  // Each cluster's log-likelihood, summed as ClusterLogLikelihood sums it.
  resp_.assign(k, 0.0);
  for (const AttributeInput& in : attributes_) {
    double v = input.values[in.attribute];
    if (IsMissing(v)) continue;
    if (in.continuous) {
      for (size_t i = 0; i < k; ++i) resp_[i] += in.gaussians[i](v);
      continue;
    }
    size_t state = static_cast<size_t>(v);
    for (size_t i = 0; i < k; ++i) {
      resp_[i] += state < in.states
                      ? terms_.Term(in.terms + i * in.states + state,
                                    [&] { return CategoricalTerm(in, i, state); })
                      : CategoricalTerm(in, i, state);
    }
  }
  for (const GroupInput& in : groups_) {
    present_.assign(in.items, 0);
    for (const CaseItem& item : input.groups[in.group]) {
      if (item.key >= 0 && static_cast<size_t>(item.key) < in.items) {
        present_[item.key] = 1;
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t item = 0; item < in.items; ++item) {
        const size_t at = i * in.items + item;
        if (present_[item]) {
          resp_[i] += terms_.Term(in.present + at, [&] {
            return std::log(ItemProbability(in, i, item));
          });
        } else if (in.full) {
          resp_[i] += terms_.Term(in.absent + at, [&] {
            return LogItemAbsent(ItemProbability(in, i, item));
          });
        }
      }
    }
  }
  // Posterior P(cluster | case).
  for (size_t i = 0; i < k; ++i) resp_[i] = log_prior_[i] + resp_[i];
  double max_log = *std::max_element(resp_.begin(), resp_.end());
  double norm = 0;
  for (double& lp : resp_) {
    lp = std::exp(lp - max_log);
    norm += lp;
  }
  if (norm > 0) {
    for (double& lp : resp_) lp /= norm;
  }

  if (membership_slot_ >= 0) {
    TargetPrediction& membership = out[static_cast<size_t>(membership_slot_)];
    membership.Reset();
    for (size_t i = 0; i < k; ++i) {
      membership.Offer({static_cast<int>(i), resp_[i], clusters_[i].weight, 0},
                       membership_ranked_);
    }
    membership.Finish(membership_ranked_);
  }
  for (const Target& t : targets_) {
    TargetPrediction& prediction = out[t.slot];
    prediction.Reset();
    PredictAttribute(t, &prediction);
  }
  // dmx-hot-end(clu-predict)
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<CaseScorer>> ClusteringModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  return std::unique_ptr<CaseScorer>(
      std::make_unique<ClusteringScorer>(*this, attrs, demand));
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
        double prior = SmoothedStateProbability(
            clusters[j].weight, total_weight, alpha,
            static_cast<double>(num_clusters));
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
