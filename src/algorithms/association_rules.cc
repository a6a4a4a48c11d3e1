#include "algorithms/association_rules.h"

#include <algorithm>
#include <unordered_map>

#include "common/exec_guard.h"

namespace dmx {

namespace {

const std::string kServiceName = "Association_Rules";

// Hash for interning items during training.
struct ItemHash {
  size_t operator()(const AssociationModel::Item& item) const {
    return (static_cast<size_t>(item.group + 1) * 1315423911u) ^
           (static_cast<size_t>(item.attribute + 1) * 2654435761u) ^
           static_cast<size_t>(item.state);
  }
};

// True when `subset` (sorted) is contained in `transaction` (sorted).
bool IsSubset(const std::vector<int>& subset,
              const std::vector<int>& transaction) {
  size_t t = 0;
  for (int item : subset) {
    while (t < transaction.size() && transaction[t] < item) ++t;
    if (t == transaction.size() || transaction[t] != item) return false;
  }
  return true;
}

}  // namespace

AssociationModel::AssociationModel(std::vector<Item> items,
                                   std::vector<Itemset> itemsets,
                                   std::vector<Rule> rules, double case_count)
    : items_(std::move(items)),
      itemsets_(std::move(itemsets)),
      rules_(std::move(rules)),
      case_count_(case_count) {}

const std::string& AssociationModel::service_name() const {
  return kServiceName;
}

std::string AssociationModel::ItemName(const AttributeSet& attrs,
                                       int item_id) const {
  if (item_id < 0 || static_cast<size_t>(item_id) >= items_.size()) return "?";
  const Item& item = items_[item_id];
  if (item.group >= 0) {
    const NestedGroup& group = attrs.groups[item.group];
    if (item.state >= 0 && static_cast<size_t>(item.state) < group.keys.size()) {
      return group.keys[item.state].ToString();
    }
    return "?";
  }
  const Attribute& attr = attrs.attributes[item.attribute];
  return attr.name + " = '" + attr.StateName(item.state) + "'";
}

namespace {

// Recommends items for each demanded output group: the best applicable rule
// per item, then a popularity fallback. The item interning table is built
// once per statement.
class AssociationScorer : public CaseScorer {
 public:
  AssociationScorer(const AssociationModel& model, const AttributeSet& attrs,
                    const PredictionDemand& demand)
      : model_(model), attrs_(attrs) {
    const std::vector<AssociationModel::Item>& items = model.items();
    for (size_t id = 0; id < items.size(); ++id) {
      lookup_.emplace(items[id], static_cast<int>(id));
    }
    for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
      const TargetDemand& want = demand.targets[slot];
      if (want.target.kind != PredictionTarget::Kind::kGroup ||
          want.target.index < 0 ||
          !attrs.groups[static_cast<size_t>(want.target.index)].is_output) {
        continue;
      }
      targets_.push_back({slot, want.histogram, want.target.index});
    }
    // Each known item once, before duplicates are dropped.
    transaction_.reserve(items.size());
  }

  Status Score(const DataCase& input,
               std::span<TargetPrediction> out) override {
    // dmx-hot-begin(ar-predict)
    DMX_RETURN_IF_ERROR(GuardCheck());
    if (targets_.empty()) return Status::OK();
    const std::vector<AssociationModel::Item>& items = model_.items();
    // Intern the case's items (only ones the model has seen matter).
    transaction_.clear();
    for (size_t g = 0; g < attrs_.groups.size(); ++g) {
      for (const CaseItem& entry : input.groups[g]) {
        AssociationModel::Item item{static_cast<int>(g), -1, entry.key};
        auto it = lookup_.find(item);
        if (it != lookup_.end()) transaction_.push_back(it->second);
      }
    }
    for (size_t a = 0; a < attrs_.attributes.size(); ++a) {
      const Attribute& attr = attrs_.attributes[a];
      if (!attr.is_input || attr.is_continuous) continue;
      double v = input.values[a];
      if (IsMissing(v)) continue;
      AssociationModel::Item item{-1, static_cast<int>(a),
                                  static_cast<int>(v)};
      auto it = lookup_.find(item);
      if (it != lookup_.end()) transaction_.push_back(it->second);
    }
    std::sort(transaction_.begin(), transaction_.end());
    transaction_.erase(std::unique(transaction_.begin(), transaction_.end()),
                       transaction_.end());

    // `best_rule` maps item id to the best applicable rule and is reused
    // across groups; its iteration order ranks equal-confidence items.
    std::unordered_map<int, const AssociationModel::Rule*> best_rule;
    for (const Target& t : targets_) {
      TargetPrediction& prediction = out[t.slot];
      prediction.Reset();
      best_rule.clear();
      for (const AssociationModel::Rule& rule : model_.rules()) {
        if (items[rule.consequent].group != t.group) continue;
        if (std::binary_search(transaction_.begin(), transaction_.end(),
                               rule.consequent)) {
          continue;  // Already owned.
        }
        if (!IsSubset(rule.antecedent, transaction_)) continue;
        auto [it, inserted] = best_rule.emplace(rule.consequent, &rule);
        if (!inserted && rule.confidence > it->second->confidence) {
          it->second = &rule;
        }
      }
      for (const auto& [item_id, rule] : best_rule) {
        prediction.Offer(
            {items[item_id].state, rule->confidence, rule->support, 0},
            t.ranked);
      }
      // Popularity fallback so every case gets recommendations: frequent
      // singleton items of this group, scored by their marginal probability
      // scaled below any rule-based score.
      if (model_.case_count() > 0) {
        for (const AssociationModel::Itemset& itemset : model_.itemsets()) {
          if (itemset.items.size() != 1) continue;
          const AssociationModel::Item& item = items[itemset.items[0]];
          if (item.group != t.group) continue;
          if (std::binary_search(transaction_.begin(), transaction_.end(),
                                 itemset.items[0])) {
            continue;
          }
          if (best_rule.count(itemset.items[0]) > 0) continue;
          prediction.Offer({item.state,
                            0.01 * itemset.support / model_.case_count(),
                            itemset.support, 0},
                           t.ranked);
        }
      }
      prediction.Finish(t.ranked);
    }
    // dmx-hot-end(ar-predict)
    return Status::OK();
  }

 private:
  struct Target {
    size_t slot;
    bool ranked;
    int group;
  };
  const AssociationModel& model_;
  const AttributeSet& attrs_;
  std::unordered_map<AssociationModel::Item, int, ItemHash> lookup_;
  std::vector<Target> targets_;
  std::vector<int> transaction_;  ///< The case's item ids, reused.
};

}  // namespace

Result<std::unique_ptr<CaseScorer>> AssociationModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  return std::unique_ptr<CaseScorer>(
      std::make_unique<AssociationScorer>(*this, attrs, demand));
}

Result<ContentNodePtr> AssociationModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "AR";
  root->caption = "Association model (" + std::to_string(itemsets_.size()) +
                  " itemsets, " + std::to_string(rules_.size()) + " rules)";
  root->support = case_count_;
  root->probability = 1.0;

  int counter = 0;
  for (const Itemset& itemset : itemsets_) {
    auto node = std::make_shared<ContentNode>();
    node->type = NodeType::kItemset;
    node->unique_name = "AR/I" + std::to_string(++counter);
    std::string caption;
    for (size_t i = 0; i < itemset.items.size(); ++i) {
      if (i > 0) caption += ", ";
      caption += ItemName(attrs, itemset.items[i]);
    }
    node->caption = caption;
    node->support = itemset.support;
    node->probability = case_count_ > 0 ? itemset.support / case_count_ : 0;
    root->children.push_back(std::move(node));
  }
  counter = 0;
  for (const Rule& rule : rules_) {
    auto node = std::make_shared<ContentNode>();
    node->type = NodeType::kRule;
    node->unique_name = "AR/R" + std::to_string(++counter);
    std::string caption;
    for (size_t i = 0; i < rule.antecedent.size(); ++i) {
      if (i > 0) caption += ", ";
      caption += ItemName(attrs, rule.antecedent[i]);
    }
    caption += " => " + ItemName(attrs, rule.consequent);
    node->caption = caption;
    node->rule = caption;
    node->support = rule.support;
    node->probability = rule.confidence;
    node->score = rule.lift;
    root->children.push_back(std::move(node));
  }
  return root;
}

AssociationService::AssociationService() {
  caps_.name = kServiceName;
  caps_.display_name = "Association Rules";
  caps_.description =
      "Apriori frequent itemsets and rules over nested-table items; predicts "
      "ranked item recommendations for the PREDICT table column";
  caps_.supports_prediction = true;
  caps_.supports_association = true;
  caps_.supports_discrete_targets = false;
  caps_.supports_continuous_targets = false;
  caps_.supports_table_prediction = true;
  caps_.parameters = {
      {"MINIMUM_SUPPORT",
       "Itemset support floor (fraction when < 1, else absolute)",
       Value::Double(0.03)},
      {"MINIMUM_PROBABILITY", "Rule confidence floor", Value::Double(0.4)},
      {"MAXIMUM_ITEMSET_SIZE", "Largest itemset explored", Value::Long(3)},
      {"INCLUDE_SCALAR_ITEMS",
       "Treat discrete case attributes as items (0/1)", Value::Long(1)},
  };
}

Status AssociationService::ValidateBinding(const AttributeSet& attrs) const {
  bool has_group = false;
  for (const NestedGroup& group : attrs.groups) {
    if (group.is_input || group.is_output) has_group = true;
  }
  if (!has_group) {
    return InvalidArgument()
           << "Association_Rules needs at least one nested TABLE column";
  }
  return MiningService::ValidateBinding(attrs);
}

Result<std::unique_ptr<TrainedModel>> AssociationService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(double min_support_param,
                       params.at("MINIMUM_SUPPORT").AsDouble());
  DMX_ASSIGN_OR_RETURN(double min_confidence,
                       params.at("MINIMUM_PROBABILITY").AsDouble());
  DMX_ASSIGN_OR_RETURN(int64_t max_size,
                       params.at("MAXIMUM_ITEMSET_SIZE").AsLong());
  DMX_ASSIGN_OR_RETURN(int64_t scalar_items,
                       params.at("INCLUDE_SCALAR_ITEMS").AsLong());
  if (max_size < 1) {
    return InvalidArgument() << "MAXIMUM_ITEMSET_SIZE must be >= 1";
  }

  double total_weight = 0;
  for (const DataCase& c : cases) total_weight += c.weight;
  double min_support = min_support_param < 1
                           ? min_support_param * total_weight
                           : min_support_param;
  min_support = std::max(min_support, 1e-9);

  // Intern items and build sorted transactions.
  std::unordered_map<AssociationModel::Item, int, ItemHash> intern;
  std::vector<AssociationModel::Item> items;
  auto intern_item = [&](const AssociationModel::Item& item) {
    auto [it, inserted] = intern.emplace(item, static_cast<int>(items.size()));
    if (inserted) items.push_back(item);
    return it->second;
  };

  std::vector<std::vector<int>> transactions;
  std::vector<double> weights;
  transactions.reserve(cases.size());
  for (const DataCase& c : cases) {
    std::vector<int> transaction;
    for (size_t g = 0; g < attrs.groups.size(); ++g) {
      const NestedGroup& group = attrs.groups[g];
      if (!group.is_input && !group.is_output) continue;
      for (const CaseItem& entry : c.groups[g]) {
        if (entry.key < 0) continue;
        transaction.push_back(
            intern_item({static_cast<int>(g), -1, entry.key}));
      }
    }
    if (scalar_items != 0) {
      for (size_t a = 0; a < attrs.attributes.size(); ++a) {
        const Attribute& attr = attrs.attributes[a];
        if (!attr.is_input || attr.is_continuous) continue;
        double v = c.values[a];
        if (IsMissing(v)) continue;
        transaction.push_back(
            intern_item({-1, static_cast<int>(a), static_cast<int>(v)}));
      }
    }
    std::sort(transaction.begin(), transaction.end());
    transaction.erase(std::unique(transaction.begin(), transaction.end()),
                      transaction.end());
    transactions.push_back(std::move(transaction));
    weights.push_back(c.weight);
  }

  // --- Apriori level-wise search ---
  std::vector<AssociationModel::Itemset> frequent;
  std::unordered_map<size_t, double> support_index;  // hash of items -> supp
  auto set_hash = [](const std::vector<int>& s) {
    size_t h = 14695981039346656037ULL;
    for (int i : s) {
      h ^= static_cast<size_t>(i);
      h *= 1099511628211ULL;
    }
    return h;
  };

  // Level 1.
  std::vector<double> single_support(items.size(), 0.0);
  for (size_t t = 0; t < transactions.size(); ++t) {
    for (int item : transactions[t]) single_support[item] += weights[t];
  }
  std::vector<std::vector<int>> level;
  for (size_t id = 0; id < items.size(); ++id) {
    if (single_support[id] >= min_support) {
      std::vector<int> set{static_cast<int>(id)};
      support_index[set_hash(set)] = single_support[id];
      frequent.push_back({set, single_support[id]});
      level.push_back(std::move(set));
    }
  }

  for (int64_t size = 2; size <= max_size && level.size() > 1; ++size) {
    // Candidate generation: join sets sharing the first size-2 items.
    std::vector<std::vector<int>> candidates;
    candidates.reserve(level.size());
    // Scratch for the prune step, reused across candidates.
    std::vector<int> subset;
    subset.reserve(static_cast<size_t>(size));
    // dmx-hot-begin(ar-candidate-join)
    for (size_t i = 0; i < level.size(); ++i) {
      // Candidate generation is quadratic in the level width — the classic
      // apriori blow-up — so it checkpoints per outer row.
      DMX_RETURN_IF_ERROR(GuardCheck());
      for (size_t j = i + 1; j < level.size(); ++j) {
        if (!std::equal(level[i].begin(), level[i].end() - 1,
                        level[j].begin())) {
          break;  // `level` is lexicographically sorted; prefixes diverged.
        }
        // Each accepted candidate is moved into the candidate list, so the
        // buffer cannot be reused across joins.
        std::vector<int> candidate;  // dmx-lint: allow(hot-loop-alloc)
        candidate.reserve(level[i].size() + 1);
        candidate.assign(level[i].begin(), level[i].end());
        candidate.push_back(level[j].back());
        // Prune: all (size-1)-subsets must be frequent.
        bool all_frequent = true;
        for (size_t drop = 0; drop + 1 < candidate.size() && all_frequent;
             ++drop) {
          subset.clear();
          for (size_t p = 0; p < candidate.size(); ++p) {
            if (p != drop) subset.push_back(candidate[p]);
          }
          if (support_index.count(set_hash(subset)) == 0) all_frequent = false;
        }
        if (all_frequent) candidates.push_back(std::move(candidate));
      }
    }
    // dmx-hot-end(ar-candidate-join)
    // Count candidates.
    std::vector<double> counts(candidates.size(), 0.0);
    // dmx-hot-begin(ar-support-count)
    for (size_t t = 0; t < transactions.size(); ++t) {
      if ((t & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
      if (transactions[t].size() < static_cast<size_t>(size)) continue;
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        if (IsSubset(candidates[ci], transactions[t])) {
          counts[ci] += weights[t];
        }
      }
    }
    // dmx-hot-end(ar-support-count)
    std::vector<std::vector<int>> next_level;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      if (counts[ci] >= min_support) {
        support_index[set_hash(candidates[ci])] = counts[ci];
        frequent.push_back({candidates[ci], counts[ci]});
        next_level.push_back(std::move(candidates[ci]));
      }
    }
    std::sort(next_level.begin(), next_level.end());
    level = std::move(next_level);
  }

  // --- Rule generation: single-item consequents ---
  std::vector<AssociationModel::Rule> rules;
  for (const AssociationModel::Itemset& itemset : frequent) {
    if (itemset.items.size() < 2) continue;
    for (size_t drop = 0; drop < itemset.items.size(); ++drop) {
      std::vector<int> antecedent;
      for (size_t p = 0; p < itemset.items.size(); ++p) {
        if (p != drop) antecedent.push_back(itemset.items[p]);
      }
      auto it = support_index.find(set_hash(antecedent));
      if (it == support_index.end() || it->second <= 0) continue;
      double confidence = itemset.support / it->second;
      if (confidence < min_confidence) continue;
      AssociationModel::Rule rule;
      rule.antecedent = std::move(antecedent);
      rule.consequent = itemset.items[drop];
      rule.support = itemset.support;
      rule.confidence = confidence;
      double consequent_prob =
          single_support[rule.consequent] / std::max(total_weight, 1e-9);
      rule.lift = consequent_prob > 0 ? confidence / consequent_prob : 0;
      rules.push_back(std::move(rule));
    }
  }
  std::stable_sort(rules.begin(), rules.end(),
                   [](const AssociationModel::Rule& a,
                      const AssociationModel::Rule& b) {
                     return a.confidence > b.confidence;
                   });

  return std::unique_ptr<TrainedModel>(new AssociationModel(
      std::move(items), std::move(frequent), std::move(rules), total_weight));
}

}  // namespace dmx
