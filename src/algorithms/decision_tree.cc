#include "algorithms/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/exec_guard.h"
#include "common/string_util.h"

namespace dmx {

namespace {

const std::string kServiceName = "Decision_Trees";

bool CaseContains(const DataCase& c, int group, int item) {
  if (group < 0 || static_cast<size_t>(group) >= c.groups.size()) return false;
  for (const CaseItem& entry : c.groups[group]) {
    if (entry.key == item) return true;
  }
  return false;
}

double Entropy(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  double h = 0;
  for (double n : counts) {
    if (n <= 0) continue;
    double p = n / total;
    h -= p * std::log2(p);
  }
  return h;
}

// Builder state for one target tree.
class TreeBuilder {
 public:
  TreeBuilder(const AttributeSet& attrs, const std::vector<DataCase>& cases,
              int target, bool regression, int max_depth, double min_support,
              double score_threshold, int max_thresholds)
      : attrs_(attrs),
        cases_(cases),
        target_(target),
        regression_(regression),
        max_depth_(max_depth),
        min_support_(min_support),
        score_threshold_(score_threshold),
        max_thresholds_(max_thresholds) {}

  Result<DecisionTreeModel::TargetTree> Build() {
    DecisionTreeModel::TargetTree tree;
    tree.target = target_;
    tree.regression = regression_;
    std::vector<int> all;
    all.reserve(cases_.size());
    for (size_t i = 0; i < cases_.size(); ++i) {
      if (!IsMissing(cases_[i].values[target_])) {
        all.push_back(static_cast<int>(i));
      }
    }
    nodes_.clear();
    BuildNode(all, 0);
    // A tripped guard stops the recursion early; surface the trip instead of
    // returning a half-grown tree.
    DMX_RETURN_IF_ERROR(guard_status_);
    tree.nodes = std::move(nodes_);
    return tree;
  }

 private:
  double CaseWeight(int index) const {
    const DataCase& c = cases_[index];
    return c.weight * c.confidence(static_cast<size_t>(target_));
  }

  // Fills the leaf statistics of `node` from `members`.
  void FillStats(const std::vector<int>& members,
                 DecisionTreeModel::Node* node) const {
    double total = 0;
    if (regression_) {
      double mean = 0;
      double m2 = 0;
      for (int i : members) {
        double w = CaseWeight(i);
        double v = cases_[i].values[target_];
        total += w;
        double delta = v - mean;
        mean += delta * w / total;
        m2 += w * delta * (v - mean);
      }
      node->mean = mean;
      node->variance = total > 0 ? m2 / total : 0;
    } else {
      int card = attrs_.attributes[target_].cardinality();
      node->class_counts.assign(std::max(card, 1), 0.0);
      for (int i : members) {
        double w = CaseWeight(i);
        int cls = static_cast<int>(cases_[i].values[target_]);
        if (cls >= static_cast<int>(node->class_counts.size())) {
          node->class_counts.resize(cls + 1, 0.0);
        }
        node->class_counts[cls] += w;
        total += w;
      }
    }
    node->support = total;
  }

  // Impurity of a candidate partition; lower is better. Classification uses
  // weighted entropy, regression weighted variance.
  struct SideStats {
    double total = 0;
    std::vector<double> counts;  // classification
    double sum = 0, sum2 = 0;    // regression
  };

  double Impurity(const SideStats& side) const {
    if (regression_) {
      if (side.total <= 0) return 0;
      double mean = side.sum / side.total;
      return side.sum2 / side.total - mean * mean;
    }
    return Entropy(side.counts, side.total);
  }

  void AddTo(SideStats* side, int index) const {
    double w = CaseWeight(index);
    side->total += w;
    if (regression_) {
      double v = cases_[index].values[target_];
      side->sum += w * v;
      side->sum2 += w * v * v;
    } else {
      int cls = static_cast<int>(cases_[index].values[target_]);
      if (cls >= static_cast<int>(side->counts.size())) {
        side->counts.resize(cls + 1, 0.0);
      }
      side->counts[cls] += w;
    }
  }

  double Gain(const SideStats& parent, const SideStats& left,
              const SideStats& right) const {
    if (left.total < min_support_ || right.total < min_support_) return -1;
    double parent_impurity = Impurity(parent);
    double split_impurity = (left.total * Impurity(left) +
                             right.total * Impurity(right)) /
                            parent.total;
    return parent_impurity - split_impurity;
  }

  struct BestSplit {
    DecisionTreeModel::Split split;
    double gain = -1;
  };

  void ConsiderSplit(const std::vector<int>& members,
                     const SideStats& parent,
                     const DecisionTreeModel::Split& split, BestSplit* best,
                     const std::function<bool(const DataCase&)>& test) const {
    SideStats left;
    SideStats right;
    for (int i : members) {
      if (test(cases_[i])) {
        AddTo(&left, i);
      } else {
        AddTo(&right, i);
      }
    }
    double gain = Gain(parent, left, right);
    if (gain > best->gain) {
      best->gain = gain;
      best->split = split;
    }
  }

  BestSplit FindBestSplit(const std::vector<int>& members) const {
    SideStats parent;
    for (int i : members) AddTo(&parent, i);
    BestSplit best;

    // Categorical one-vs-rest splits.
    for (size_t a = 0; a < attrs_.attributes.size(); ++a) {
      const Attribute& attr = attrs_.attributes[a];
      if (!attr.is_input || static_cast<int>(a) == target_) continue;
      if (attr.is_continuous) {
        // Continuous: candidate thresholds at quantiles of distinct values.
        std::vector<double> values;
        values.reserve(members.size());
        for (int i : members) {
          double v = cases_[i].values[a];
          if (!IsMissing(v)) values.push_back(v);
        }
        if (values.size() < 2) continue;
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        if (values.size() < 2) continue;
        size_t candidates =
            std::min<size_t>(values.size() - 1,
                             static_cast<size_t>(max_thresholds_));
        for (size_t t = 0; t < candidates; ++t) {
          size_t idx = (values.size() - 1) * (t + 1) / (candidates + 1);
          double threshold = (values[idx] + values[idx + 1]) / 2;
          DecisionTreeModel::Split split;
          split.kind = DecisionTreeModel::Split::Kind::kContinuous;
          split.attribute = static_cast<int>(a);
          split.threshold = threshold;
          ConsiderSplit(members, parent, split, &best,
                        [a, threshold](const DataCase& c) {
                          double v = c.values[a];
                          return !IsMissing(v) && v <= threshold;
                        });
        }
      } else {
        // One pass builds per-state stats; each state yields a candidate.
        std::vector<SideStats> per_state;
        for (int i : members) {
          double v = cases_[i].values[a];
          if (IsMissing(v)) continue;
          int state = static_cast<int>(v);
          if (state >= static_cast<int>(per_state.size())) {
            per_state.resize(state + 1);
          }
          AddTo(&per_state[state], i);
        }
        for (size_t state = 0; state < per_state.size(); ++state) {
          const SideStats& left = per_state[state];
          if (left.total <= 0) continue;
          SideStats right;
          right.total = parent.total - left.total;
          if (regression_) {
            right.sum = parent.sum - left.sum;
            right.sum2 = parent.sum2 - left.sum2;
          } else {
            right.counts = parent.counts;
            for (size_t cls = 0; cls < left.counts.size(); ++cls) {
              right.counts[cls] -= left.counts[cls];
            }
          }
          double gain = Gain(parent, left, right);
          if (gain > best.gain) {
            best.gain = gain;
            best.split.kind = DecisionTreeModel::Split::Kind::kCategorical;
            best.split.attribute = static_cast<int>(a);
            best.split.state = static_cast<int>(state);
          }
        }
      }
    }

    // Item existence splits over nested groups.
    for (size_t g = 0; g < attrs_.groups.size(); ++g) {
      if (!attrs_.groups[g].is_input) continue;
      std::vector<SideStats> per_item;
      for (int i : members) {
        for (const CaseItem& item : cases_[i].groups[g]) {
          if (item.key < 0) continue;
          if (item.key >= static_cast<int>(per_item.size())) {
            per_item.resize(item.key + 1);
          }
          AddTo(&per_item[item.key], i);
        }
      }
      for (size_t item = 0; item < per_item.size(); ++item) {
        const SideStats& left = per_item[item];
        if (left.total <= 0) continue;
        SideStats right;
        right.total = parent.total - left.total;
        if (regression_) {
          right.sum = parent.sum - left.sum;
          right.sum2 = parent.sum2 - left.sum2;
        } else {
          right.counts = parent.counts;
          for (size_t cls = 0; cls < left.counts.size(); ++cls) {
            right.counts[cls] -= left.counts[cls];
          }
        }
        double gain = Gain(parent, left, right);
        if (gain > best.gain) {
          best.gain = gain;
          best.split.kind = DecisionTreeModel::Split::Kind::kItem;
          best.split.attribute = -1;
          best.split.group = static_cast<int>(g);
          best.split.item = static_cast<int>(item);
        }
      }
    }
    return best;
  }

  // Appends a node for `members` and recursively splits it. Returns its
  // index in nodes_.
  int BuildNode(const std::vector<int>& members, int depth) {
    int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    FillStats(members, &nodes_[index]);

    // One guard checkpoint per node keeps the overhead proportional to tree
    // size, not case count; a trip prunes the rest of the recursion.
    // dmx-hot-begin(dt-build-partition)
    if (guard_status_.ok()) guard_status_ = GuardCheck();
    if (!guard_status_.ok()) return index;

    if (depth >= max_depth_ ||
        nodes_[index].support < 2 * min_support_) {
      return index;
    }
    BestSplit best = FindBestSplit(members);
    if (best.gain <= score_threshold_) return index;

    std::vector<int> then_members;
    std::vector<int> else_members;
    then_members.reserve(members.size());
    else_members.reserve(members.size());
    for (int i : members) {
      if (best.split.Test(cases_[i])) {
        then_members.push_back(i);
      } else {
        else_members.push_back(i);
      }
    }
    // dmx-hot-end(dt-build-partition)
    if (then_members.empty() || else_members.empty()) return index;

    nodes_[index].split = best.split;
    nodes_[index].score = best.gain;
    int then_child = BuildNode(then_members, depth + 1);
    int else_child = BuildNode(else_members, depth + 1);
    nodes_[index].then_child = then_child;
    nodes_[index].else_child = else_child;
    return index;
  }

  const AttributeSet& attrs_;
  const std::vector<DataCase>& cases_;
  int target_;
  bool regression_;
  int max_depth_;
  double min_support_;
  double score_threshold_;
  int max_thresholds_;
  std::vector<DecisionTreeModel::Node> nodes_;
  Status guard_status_ = Status::OK();
};

}  // namespace

bool DecisionTreeModel::Split::Test(const DataCase& c) const {
  switch (kind) {
    case Kind::kCategorical: {
      double v = c.values[attribute];
      return !IsMissing(v) && static_cast<int>(v) == state;
    }
    case Kind::kContinuous: {
      double v = c.values[attribute];
      return !IsMissing(v) && v <= threshold;
    }
    case Kind::kItem:
      return CaseContains(c, group, item);
  }
  return false;
}

std::string DecisionTreeModel::Split::Describe(const AttributeSet& attrs) const {
  switch (kind) {
    case Kind::kCategorical: {
      const Attribute& attr = attrs.attributes[attribute];
      return attr.name + " = '" + attr.StateName(state) + "'";
    }
    case Kind::kContinuous:
      return attrs.attributes[attribute].name + " <= " +
             FormatDouble(threshold);
    case Kind::kItem: {
      const NestedGroup& g = attrs.groups[group];
      std::string key = item >= 0 && item < static_cast<int>(g.keys.size())
                            ? g.keys[item].ToString()
                            : "?";
      return g.name + " contains '" + key + "'";
    }
  }
  return "?";
}

const std::string& DecisionTreeModel::service_name() const {
  return kServiceName;
}

namespace {

// Walks each demanded target's tree to a leaf and reports the leaf.
class DecisionTreeScorer : public CaseScorer {
 public:
  DecisionTreeScorer(const DecisionTreeModel& model,
                     const PredictionDemand& demand) {
    for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
      const TargetDemand& want = demand.targets[slot];
      if (want.target.kind != PredictionTarget::Kind::kAttribute) continue;
      for (const DecisionTreeModel::TargetTree& tree : model.trees()) {
        if (tree.target != want.target.index) continue;
        targets_.push_back({slot, want.histogram, &tree});
        break;
      }
    }
  }

  Status Score(const DataCase& input,
               std::span<TargetPrediction> out) override {
    // dmx-hot-begin(dt-predict)
    for (const Target& t : targets_) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      const DecisionTreeModel::TargetTree& tree = *t.tree;
      TargetPrediction& prediction = out[t.slot];
      prediction.Reset();
      if (tree.nodes.empty()) continue;
      // Walk to a leaf.
      int node = 0;
      while (!tree.nodes[node].is_leaf()) {
        node = tree.nodes[node].split.Test(input)
                   ? tree.nodes[node].then_child
                   : tree.nodes[node].else_child;
      }
      const DecisionTreeModel::Node& leaf = tree.nodes[node];
      if (tree.regression) {
        prediction.SetEstimate(leaf.mean, leaf.support, leaf.variance,
                               t.ranked);
      } else {
        for (size_t cls = 0; cls < leaf.class_counts.size(); ++cls) {
          double p =
              leaf.support > 0 ? leaf.class_counts[cls] / leaf.support : 0;
          if (p <= 0) continue;
          prediction.Offer(
              {static_cast<int>(cls), p, leaf.class_counts[cls], 0}, t.ranked);
        }
        prediction.Finish(t.ranked);
      }
      // The leaf's support, not the winning class's.
      prediction.support = leaf.support;
    }
    // dmx-hot-end(dt-predict)
    return Status::OK();
  }

 private:
  struct Target {
    size_t slot;
    bool ranked;
    const DecisionTreeModel::TargetTree* tree;
  };
  std::vector<Target> targets_;
};

}  // namespace

Result<std::unique_ptr<CaseScorer>> DecisionTreeModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  (void)attrs;
  return std::unique_ptr<CaseScorer>(
      std::make_unique<DecisionTreeScorer>(*this, demand));
}

namespace {

// Recursively renders tree nodes as content nodes.
ContentNodePtr RenderNode(const DecisionTreeModel::TargetTree& tree,
                          const AttributeSet& attrs, int index,
                          const std::string& prefix, const std::string& rule,
                          double parent_support) {
  const DecisionTreeModel::Node& node = tree.nodes[index];
  auto out = std::make_shared<ContentNode>();
  out->type = node.is_leaf() ? NodeType::kLeaf : NodeType::kInterior;
  out->unique_name = prefix + "/" + std::to_string(index);
  out->rule = rule;
  out->caption = rule.empty() ? "All" : rule;
  out->support = node.support;
  out->score = node.score;
  out->marginal_probability =
      parent_support > 0 ? node.support / parent_support : 1.0;
  const Attribute& target = attrs.attributes[tree.target];
  if (tree.regression) {
    out->distribution.push_back({target.name, Value::Double(node.mean),
                                 node.support, 1.0, node.variance});
  } else {
    for (size_t cls = 0; cls < node.class_counts.size(); ++cls) {
      if (node.class_counts[cls] <= 0) continue;
      out->distribution.push_back(
          {target.name, target.StateValue(static_cast<int>(cls)),
           node.class_counts[cls],
           node.support > 0 ? node.class_counts[cls] / node.support : 0, 0});
    }
  }
  if (!node.is_leaf()) {
    std::string condition = node.split.Describe(attrs);
    out->children.push_back(RenderNode(tree, attrs, node.then_child,
                                       out->unique_name, condition,
                                       node.support));
    out->children.push_back(RenderNode(tree, attrs, node.else_child,
                                       out->unique_name, "NOT " + condition,
                                       node.support));
  }
  return out;
}

}  // namespace

Result<ContentNodePtr> DecisionTreeModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "DT";
  root->caption = "Decision tree model";
  root->support = case_count_;
  root->probability = 1.0;
  for (const TargetTree& tree : trees_) {
    const Attribute& target = attrs.attributes[tree.target];
    auto tree_node = std::make_shared<ContentNode>();
    tree_node->type = NodeType::kTree;
    tree_node->unique_name = "DT/" + target.name;
    tree_node->caption = "Tree for " + target.name;
    if (!tree.nodes.empty()) {
      tree_node->support = tree.nodes[0].support;
      tree_node->children.push_back(
          RenderNode(tree, attrs, 0, tree_node->unique_name, "",
                     tree.nodes[0].support));
    }
    root->children.push_back(std::move(tree_node));
  }
  return root;
}

DecisionTreeService::DecisionTreeService() {
  caps_.name = kServiceName;
  caps_.display_name = "Decision Trees";
  caps_.description =
      "Binary classification and regression trees over scalar and "
      "nested-table attributes";
  caps_.supports_prediction = true;
  caps_.supports_continuous_targets = true;
  caps_.supports_discrete_targets = true;
  caps_.parameters = {
      {"MAXIMUM_DEPTH", "Maximum tree depth", Value::Long(8)},
      {"MINIMUM_SUPPORT", "Minimum weighted cases per leaf",
       Value::Double(10.0)},
      {"SCORE_THRESHOLD", "Minimum impurity gain to accept a split",
       Value::Double(1e-6)},
      {"MAXIMUM_THRESHOLDS",
       "Maximum candidate thresholds per continuous attribute",
       Value::Long(32)},
  };
}

// Guarding is delegated to TreeBuilder::BuildNode, which checkpoints once
// per emitted node (overhead proportional to tree size) and prunes the
// remaining recursion when the guard trips.
// dmx-lint: allow(guarded-loops)
Result<std::unique_ptr<TrainedModel>> DecisionTreeService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(int64_t max_depth, params.at("MAXIMUM_DEPTH").AsLong());
  DMX_ASSIGN_OR_RETURN(double min_support,
                       params.at("MINIMUM_SUPPORT").AsDouble());
  DMX_ASSIGN_OR_RETURN(double score_threshold,
                       params.at("SCORE_THRESHOLD").AsDouble());
  DMX_ASSIGN_OR_RETURN(int64_t max_thresholds,
                       params.at("MAXIMUM_THRESHOLDS").AsLong());
  if (max_depth < 1 || min_support < 0 || max_thresholds < 1) {
    return InvalidArgument() << "invalid Decision_Trees parameters";
  }
  std::vector<int> targets = attrs.OutputAttributeIndices();
  if (targets.empty()) {
    return InvalidArgument() << "Decision_Trees model has no PREDICT column";
  }
  double total_weight = 0;
  for (const DataCase& c : cases) total_weight += c.weight;
  std::vector<DecisionTreeModel::TargetTree> trees;
  trees.reserve(targets.size());
  for (int target : targets) {
    bool regression = attrs.attributes[target].is_continuous;
    TreeBuilder builder(attrs, cases, target, regression,
                        static_cast<int>(max_depth), min_support,
                        score_threshold, static_cast<int>(max_thresholds));
    DMX_ASSIGN_OR_RETURN(DecisionTreeModel::TargetTree tree, builder.Build());
    trees.push_back(std::move(tree));
  }
  return std::unique_ptr<TrainedModel>(
      new DecisionTreeModel(std::move(trees), total_weight));
}

}  // namespace dmx
