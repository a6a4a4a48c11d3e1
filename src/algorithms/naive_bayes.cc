#include "algorithms/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "common/exec_guard.h"

namespace dmx {

namespace {

const std::string kServiceName = "Naive_Bayes";

// Items per nested group above which the Bernoulli likelihood only scores
// present items (full absent-item products get too expensive and too sharp).
constexpr size_t kMaxFullBernoulli = 512;

constexpr double kMinVariance = 1e-6;

double LogGaussian(double x, double mean, double variance) {
  variance = std::max(variance, kMinVariance);
  double d = x - mean;
  return -0.5 * (std::log(2 * M_PI * variance) + d * d / variance);
}

// Grows a 2-D count table so [cls][state] is addressable.
void EnsureSize(std::vector<std::vector<double>>* table, size_t classes,
                size_t states) {
  if (table->size() < classes) table->resize(classes);
  for (auto& row : *table) {
    if (row.size() < states) row.resize(states, 0.0);
  }
}

}  // namespace

void GaussianMoments::Add(double value, double w) {
  weight += w;
  double delta = value - mean;
  mean += delta * w / weight;
  m2 += w * delta * (value - mean);
}

double GaussianMoments::variance() const {
  return weight > 0 ? m2 / weight : 0;
}

NaiveBayesModel::NaiveBayesModel(std::vector<int> target_attributes,
                                 double alpha)
    : alpha_(alpha) {
  for (int t : target_attributes) {
    TargetStats stats;
    stats.target = t;
    targets_.push_back(std::move(stats));
  }
}

const std::string& NaiveBayesModel::service_name() const {
  return kServiceName;
}

Result<std::unique_ptr<TrainedModel>> NaiveBayesModel::Clone() const {
  return std::unique_ptr<TrainedModel>(
      std::make_unique<NaiveBayesModel>(*this));
}

// Loops here are per-attribute, bounded by the model definition; the
// per-case guard checkpoint runs in the InsertCases driver right before
// each call (core/mining_model.cc).
// dmx-lint: allow(guarded-loops)
Status NaiveBayesModel::ConsumeCase(const AttributeSet& attrs,
                                    const DataCase& c) {
  case_count_ += c.weight;
  for (TargetStats& stats : targets_) {
    double label = c.values[stats.target];
    if (IsMissing(label)) continue;  // Unlabeled cases teach this target nothing.
    int cls = static_cast<int>(label);
    // Soft label: PROBABILITY OF <target> scales the case's contribution.
    double w = c.weight * c.confidence(static_cast<size_t>(stats.target));
    if (w <= 0) continue;
    if (stats.class_counts.size() <= static_cast<size_t>(cls)) {
      stats.class_counts.resize(cls + 1, 0.0);
    }
    stats.class_counts[cls] += w;

    for (size_t a = 0; a < attrs.attributes.size(); ++a) {
      const Attribute& attr = attrs.attributes[a];
      if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
      double v = c.values[a];
      if (IsMissing(v)) continue;
      if (attr.is_continuous) {
        auto& moments = stats.cont_stats[static_cast<int>(a)];
        if (moments.size() <= static_cast<size_t>(cls)) {
          moments.resize(cls + 1);
        }
        moments[cls].Add(v, w);
      } else {
        int state = static_cast<int>(v);
        auto& table = stats.cat_counts[static_cast<int>(a)];
        EnsureSize(&table, cls + 1, state + 1);
        table[cls][state] += w;
      }
    }
    for (size_t g = 0; g < attrs.groups.size(); ++g) {
      if (!attrs.groups[g].is_input) continue;
      auto& table = stats.group_counts[static_cast<int>(g)];
      size_t max_item = 0;
      for (const CaseItem& item : c.groups[g]) {
        max_item = std::max(max_item, static_cast<size_t>(item.key));
      }
      EnsureSize(&table, cls + 1, c.groups[g].empty() ? 0 : max_item + 1);
      for (const CaseItem& item : c.groups[g]) {
        table[cls][item.key] += w;
      }
    }
  }
  return Status::OK();
}

Result<CasePrediction> NaiveBayesModel::Predict(
    const AttributeSet& attrs, const DataCase& input) const {
  // dmx-hot-begin(nb-predict)
  DMX_RETURN_IF_ERROR(GuardCheck());
  CasePrediction out;
  // Per-class scratch, reused across targets; assign() resizes without
  // shrinking.
  std::vector<double> log_post;
  std::vector<char> present;
  for (const TargetStats& stats : targets_) {
    const Attribute& target = attrs.attributes[stats.target];
    size_t num_classes =
        std::max<size_t>(stats.class_counts.size(),
                         static_cast<size_t>(target.cardinality()));
    AttributePrediction prediction;
    if (num_classes == 0) {
      out.targets.emplace(target.name, std::move(prediction));
      continue;
    }
    double total = 0;
    for (double n : stats.class_counts) total += n;

    log_post.assign(num_classes, 0.0);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      double prior = cls < stats.class_counts.size() ? stats.class_counts[cls]
                                                     : 0.0;
      log_post[cls] =
          std::log((prior + alpha_) / (total + alpha_ * num_classes));
    }

    for (size_t a = 0; a < attrs.attributes.size(); ++a) {
      const Attribute& attr = attrs.attributes[a];
      if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
      double v = input.values[a];
      if (IsMissing(v)) continue;
      if (attr.is_continuous) {
        auto it = stats.cont_stats.find(static_cast<int>(a));
        if (it == stats.cont_stats.end()) continue;
        for (size_t cls = 0; cls < num_classes; ++cls) {
          if (cls < it->second.size() && it->second[cls].weight > 0) {
            log_post[cls] +=
                LogGaussian(v, it->second[cls].mean, it->second[cls].variance());
          } else {
            log_post[cls] += LogGaussian(v, 0, 1e6);  // vague fallback
          }
        }
      } else {
        auto it = stats.cat_counts.find(static_cast<int>(a));
        if (it == stats.cat_counts.end()) continue;
        int state = static_cast<int>(v);
        double card = std::max(1, attr.cardinality());
        for (size_t cls = 0; cls < num_classes; ++cls) {
          double count = 0;
          double class_total = 0;
          if (cls < it->second.size()) {
            const auto& row = it->second[cls];
            if (static_cast<size_t>(state) < row.size()) count = row[state];
            for (double n : row) class_total += n;
          }
          log_post[cls] +=
              std::log((count + alpha_) / (class_total + alpha_ * card));
        }
      }
    }

    for (size_t g = 0; g < attrs.groups.size(); ++g) {
      const NestedGroup& group = attrs.groups[g];
      if (!group.is_input) continue;
      auto it = stats.group_counts.find(static_cast<int>(g));
      if (it == stats.group_counts.end()) continue;
      present.assign(group.keys.size(), 0);
      for (const CaseItem& item : input.groups[g]) {
        if (item.key >= 0 && static_cast<size_t>(item.key) < present.size()) {
          present[item.key] = 1;
        }
      }
      bool full = group.keys.size() <= kMaxFullBernoulli;
      for (size_t cls = 0; cls < num_classes; ++cls) {
        double class_n =
            cls < stats.class_counts.size() ? stats.class_counts[cls] : 0.0;
        for (size_t item = 0; item < group.keys.size(); ++item) {
          double count = 0;
          if (cls < it->second.size() &&
              item < it->second[cls].size()) {
            count = it->second[cls][item];
          }
          double p = (count + alpha_) / (class_n + 2 * alpha_);
          if (present[item]) {
            log_post[cls] += std::log(p);
          } else if (full) {
            log_post[cls] += std::log1p(-std::min(p, 1 - 1e-12));
          }
        }
      }
    }

    // Normalize in probability space.
    double max_log = *std::max_element(log_post.begin(), log_post.end());
    double norm = 0;
    for (double& lp : log_post) {
      lp = std::exp(lp - max_log);
      norm += lp;
    }
    prediction.histogram.reserve(num_classes);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      double p = norm > 0 ? log_post[cls] / norm : 0;
      if (p <= 0) continue;
      ScoredValue sv;
      sv.value = target.StateValue(static_cast<int>(cls));
      sv.state = static_cast<int>(cls);
      sv.probability = p;
      sv.support =
          cls < stats.class_counts.size() ? stats.class_counts[cls] : 0;
      prediction.histogram.push_back(std::move(sv));
    }
    std::stable_sort(prediction.histogram.begin(), prediction.histogram.end(),
                     [](const ScoredValue& a, const ScoredValue& b) {
                       return a.probability > b.probability;
                     });
    if (!prediction.histogram.empty()) {
      prediction.predicted = prediction.histogram[0].value;
      prediction.probability = prediction.histogram[0].probability;
      prediction.support = prediction.histogram[0].support;
    }
    out.targets.emplace(target.name, std::move(prediction));
  }
  // dmx-hot-end(nb-predict)
  return out;
}

Result<ContentNodePtr> NaiveBayesModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "NB";
  root->caption = "Naive Bayes model";
  root->support = case_count_;
  root->probability = 1.0;

  for (const TargetStats& stats : targets_) {
    const Attribute& target = attrs.attributes[stats.target];
    auto target_node = std::make_shared<ContentNode>();
    target_node->type = NodeType::kTree;
    target_node->unique_name = "NB/" + target.name;
    target_node->caption = "Target: " + target.name;
    double total = 0;
    for (double n : stats.class_counts) total += n;
    target_node->support = total;
    for (size_t cls = 0; cls < stats.class_counts.size(); ++cls) {
      target_node->distribution.push_back(
          {target.name, target.StateValue(static_cast<int>(cls)),
           stats.class_counts[cls],
           total > 0 ? stats.class_counts[cls] / total : 0, 0});
    }

    // One node per input attribute carrying P(input state | class).
    for (const auto& [attr_index, table] : stats.cat_counts) {
      const Attribute& attr = attrs.attributes[attr_index];
      auto node = std::make_shared<ContentNode>();
      node->type = NodeType::kNaiveBayesAttribute;
      node->unique_name = target_node->unique_name + "/" + attr.name;
      node->caption = attr.name;
      for (size_t cls = 0; cls < table.size(); ++cls) {
        double class_total = 0;
        for (double n : table[cls]) class_total += n;
        for (size_t state = 0; state < table[cls].size(); ++state) {
          if (table[cls][state] <= 0) continue;
          node->distribution.push_back(
              {target.StateName(static_cast<int>(cls)) + " | " + attr.name,
               attr.StateValue(static_cast<int>(state)), table[cls][state],
               class_total > 0 ? table[cls][state] / class_total : 0, 0});
        }
      }
      target_node->children.push_back(std::move(node));
    }
    for (const auto& [attr_index, moments] : stats.cont_stats) {
      const Attribute& attr = attrs.attributes[attr_index];
      auto node = std::make_shared<ContentNode>();
      node->type = NodeType::kNaiveBayesAttribute;
      node->unique_name = target_node->unique_name + "/" + attr.name;
      node->caption = attr.name;
      for (size_t cls = 0; cls < moments.size(); ++cls) {
        if (moments[cls].weight <= 0) continue;
        node->distribution.push_back(
            {target.StateName(static_cast<int>(cls)) + " | " + attr.name,
             Value::Double(moments[cls].mean), moments[cls].weight, 0,
             moments[cls].variance()});
      }
      target_node->children.push_back(std::move(node));
    }
    root->children.push_back(std::move(target_node));
  }
  return root;
}

NaiveBayesService::NaiveBayesService() {
  caps_.name = kServiceName;
  caps_.display_name = "Naive Bayes";
  caps_.description =
      "Incremental naive-Bayes classifier over discrete targets with "
      "categorical, Gaussian-continuous and nested-table inputs";
  caps_.supports_prediction = true;
  caps_.supports_incremental = true;
  caps_.supports_continuous_targets = false;
  caps_.supports_discrete_targets = true;
  caps_.parameters = {
      {"ALPHA", "Laplace smoothing pseudo-count", Value::Double(1.0)},
  };
}

Result<std::unique_ptr<TrainedModel>> NaiveBayesService::CreateEmpty(
    const AttributeSet& attrs, const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(double alpha, params.at("ALPHA").AsDouble());
  std::vector<int> targets = attrs.OutputAttributeIndices();
  if (targets.empty()) {
    return InvalidArgument() << "Naive_Bayes model has no PREDICT column";
  }
  return std::unique_ptr<TrainedModel>(
      new NaiveBayesModel(std::move(targets), alpha));
}

Result<std::unique_ptr<TrainedModel>> NaiveBayesService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<TrainedModel> model,
                       CreateEmpty(attrs, params));
  size_t n = 0;
  // dmx-hot-begin(nb-train-consume)
  for (const DataCase& c : cases) {
    if ((n++ & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(model->ConsumeCase(attrs, c));
  }
  // dmx-hot-end(nb-train-consume)
  return model;
}

}  // namespace dmx
