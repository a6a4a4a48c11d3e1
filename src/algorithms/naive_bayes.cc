#include "algorithms/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "algorithms/likelihood.h"
#include "common/exec_guard.h"

namespace dmx {

namespace {

const std::string kServiceName = "Naive_Bayes";

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

namespace {

// Scores the targets a statement reads. The model-constant log terms (class
// priors, categorical conditionals, Bernoulli item terms) live in one table
// per target, filled on first read. A case's posterior must not depend on which terms
// were filled before it, so every case adds the terms in one fixed order:
// prior, input attributes in attribute order, then nested groups in group
// order and their items in item order.
class NaiveBayesScorer : public CaseScorer {
 public:
  NaiveBayesScorer(const NaiveBayesModel& model, const AttributeSet& attrs,
                   const PredictionDemand& demand);

  Status Score(const DataCase& input, std::span<TargetPrediction> out) override;

 private:
  // One input attribute of one target, in attribute order.
  struct AttributeInput {
    size_t attribute = 0;
    bool continuous = false;
    // Continuous: per class, the Gaussian (the vague one for classes
    // without moments).
    std::vector<LogGaussian> gaussians;
    // Categorical: counts[cls][state], the state count, and where the log
    // conditionals [cls * states + state] start in the target's terms.
    const std::vector<std::vector<double>>* counts = nullptr;
    size_t states = 0;
    double card = 1;
    size_t terms = 0;
  };
  // One input nested group of one target: where its Bernoulli terms
  // [cls * items + item] for present and absent items start in the
  // target's terms.
  struct GroupInput {
    size_t group = 0;
    const std::vector<std::vector<double>>* counts = nullptr;
    size_t items = 0;
    bool full = false;
    size_t present = 0, absent = 0;
  };
  struct Target {
    size_t slot = 0;
    bool ranked = false;
    const NaiveBayesModel::TargetStats* stats = nullptr;
    size_t num_classes = 0;
    std::vector<double> log_prior;
    std::vector<AttributeInput> attributes;
    std::vector<GroupInput> groups;
    LogTermTable terms;
  };

  double CategoricalTerm(const AttributeInput& in, Target* target, size_t cls,
                         size_t state);
  double ItemProbability(const GroupInput& in, const Target& target,
                         size_t cls, size_t item) const;

  double alpha_;
  std::vector<Target> targets_;
  // Per-case scratch, reused: log posteriors and the present-item mask.
  std::vector<double> log_post_;
  std::vector<char> present_;
};

NaiveBayesScorer::NaiveBayesScorer(const NaiveBayesModel& model,
                                   const AttributeSet& attrs,
                                   const PredictionDemand& demand)
    : alpha_(model.alpha()) {
  const double alpha = alpha_;
  for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
    const TargetDemand& want = demand.targets[slot];
    if (want.target.kind != PredictionTarget::Kind::kAttribute) continue;
    for (const NaiveBayesModel::TargetStats& stats : model.targets()) {
      if (stats.target != want.target.index) continue;
      Target t;
      t.slot = slot;
      t.ranked = want.histogram;
      t.stats = &stats;
      const Attribute& target = attrs.attributes[stats.target];
      t.num_classes = std::max<size_t>(
          stats.class_counts.size(), static_cast<size_t>(target.cardinality()));
      double total = 0;
      for (double n : stats.class_counts) total += n;
      size_t terms = 0;
      t.log_prior.resize(t.num_classes);
      for (size_t cls = 0; cls < t.num_classes; ++cls) {
        double prior = cls < stats.class_counts.size()
                           ? stats.class_counts[cls]
                           : 0.0;
        t.log_prior[cls] = std::log(SmoothedStateProbability(
            prior, total, alpha, static_cast<double>(t.num_classes)));
      }
      for (size_t a = 0; a < attrs.attributes.size(); ++a) {
        const Attribute& attr = attrs.attributes[a];
        if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
        AttributeInput in;
        in.attribute = a;
        in.continuous = attr.is_continuous;
        if (attr.is_continuous) {
          auto it = stats.cont_stats.find(static_cast<int>(a));
          if (it == stats.cont_stats.end()) continue;
          for (size_t cls = 0; cls < t.num_classes; ++cls) {
            const bool fitted =
                cls < it->second.size() && it->second[cls].weight > 0;
            in.gaussians.push_back(
                fitted ? LogGaussian(it->second[cls].mean,
                                     it->second[cls].variance())
                       : LogGaussian(0, kVagueVariance));
          }
        } else {
          auto it = stats.cat_counts.find(static_cast<int>(a));
          if (it == stats.cat_counts.end()) continue;
          in.counts = &it->second;
          in.states = static_cast<size_t>(std::max(1, attr.cardinality()));
          in.card = std::max(1, attr.cardinality());
          in.terms = terms;
          terms += t.num_classes * in.states;
        }
        t.attributes.push_back(std::move(in));
      }
      for (size_t g = 0; g < attrs.groups.size(); ++g) {
        const NestedGroup& group = attrs.groups[g];
        if (!group.is_input) continue;
        auto it = stats.group_counts.find(static_cast<int>(g));
        if (it == stats.group_counts.end()) continue;
        GroupInput in;
        in.group = g;
        in.counts = &it->second;
        in.items = group.keys.size();
        in.full = group.keys.size() <= kMaxFullBernoulli;
        in.present = terms;
        terms += t.num_classes * in.items;
        if (in.full) {
          in.absent = terms;
          terms += t.num_classes * in.items;
        }
        t.groups.push_back(std::move(in));
      }
      t.terms.Reset(terms);
      targets_.push_back(std::move(t));
      break;
    }
  }
}

double NaiveBayesScorer::CategoricalTerm(const AttributeInput& in,
                                         Target* target, size_t cls,
                                         size_t state) {
  auto compute = [&] {
    double count = 0;
    double class_total = 0;
    if (cls < in.counts->size()) {
      const auto& row = (*in.counts)[cls];
      if (state < row.size()) count = row[state];
      for (double n : row) class_total += n;
    }
    return std::log(
        SmoothedStateProbability(count, class_total, alpha_, in.card));
  };
  if (state >= in.states) return compute();
  return target->terms.Term(in.terms + cls * in.states + state, compute);
}

double NaiveBayesScorer::ItemProbability(const GroupInput& in,
                                         const Target& target, size_t cls,
                                         size_t item) const {
  const std::vector<double>& class_counts = target.stats->class_counts;
  double class_n = cls < class_counts.size() ? class_counts[cls] : 0.0;
  double count = 0;
  if (cls < in.counts->size() && item < (*in.counts)[cls].size()) {
    count = (*in.counts)[cls][item];
  }
  return SmoothedItemProbability(count, class_n, alpha_);
}

Status NaiveBayesScorer::Score(const DataCase& input,
                               std::span<TargetPrediction> out) {
  // dmx-hot-begin(nb-predict)
  DMX_RETURN_IF_ERROR(GuardCheck());
  for (Target& t : targets_) {
    TargetPrediction& prediction = out[t.slot];
    prediction.Reset();
    if (t.num_classes == 0) continue;
    log_post_.assign(t.log_prior.begin(), t.log_prior.end());

    for (const AttributeInput& in : t.attributes) {
      double v = input.values[in.attribute];
      if (IsMissing(v)) continue;
      if (in.continuous) {
        for (size_t cls = 0; cls < t.num_classes; ++cls) {
          log_post_[cls] += in.gaussians[cls](v);
        }
      } else {
        size_t state = static_cast<size_t>(v);
        for (size_t cls = 0; cls < t.num_classes; ++cls) {
          log_post_[cls] += CategoricalTerm(in, &t, cls, state);
        }
      }
    }

    for (const GroupInput& in : t.groups) {
      present_.assign(in.items, 0);
      for (const CaseItem& item : input.groups[in.group]) {
        if (item.key >= 0 && static_cast<size_t>(item.key) < in.items) {
          present_[item.key] = 1;
        }
      }
      for (size_t cls = 0; cls < t.num_classes; ++cls) {
        for (size_t item = 0; item < in.items; ++item) {
          const size_t i = cls * in.items + item;
          if (present_[item]) {
            log_post_[cls] += t.terms.Term(in.present + i, [&] {
              return std::log(ItemProbability(in, t, cls, item));
            });
          } else if (in.full) {
            log_post_[cls] += t.terms.Term(in.absent + i, [&] {
              return LogItemAbsent(ItemProbability(in, t, cls, item));
            });
          }
        }
      }
    }

    // Normalize in probability space.
    double max_log = *std::max_element(log_post_.begin(), log_post_.end());
    double norm = 0;
    for (double& lp : log_post_) {
      lp = std::exp(lp - max_log);
      norm += lp;
    }
    const std::vector<double>& class_counts = t.stats->class_counts;
    for (size_t cls = 0; cls < t.num_classes; ++cls) {
      double p = norm > 0 ? log_post_[cls] / norm : 0;
      if (p <= 0) continue;
      prediction.Offer({static_cast<int>(cls), p,
                        cls < class_counts.size() ? class_counts[cls] : 0, 0},
                       t.ranked);
    }
    prediction.Finish(t.ranked);
  }
  // dmx-hot-end(nb-predict)
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<CaseScorer>> NaiveBayesModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  return std::unique_ptr<CaseScorer>(
      std::make_unique<NaiveBayesScorer>(*this, attrs, demand));
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
