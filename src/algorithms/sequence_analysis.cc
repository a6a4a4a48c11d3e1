#include "algorithms/sequence_analysis.h"

#include <algorithm>

#include "common/exec_guard.h"

namespace dmx {

namespace {

const std::string kServiceName = "Sequence_Analysis";

void EnsureSquare(std::vector<std::vector<double>>* table, size_t size) {
  if (table->size() < size) table->resize(size);
  for (auto& row : *table) {
    if (row.size() < size) row.resize(size, 0.0);
  }
}

}  // namespace

MarkovSequenceModel::MarkovSequenceModel(std::vector<int> groups, double alpha)
    : alpha_(alpha) {
  for (int group : groups) {
    Chain chain;
    chain.group = group;
    chains_.push_back(std::move(chain));
  }
}

const std::string& MarkovSequenceModel::service_name() const {
  return kServiceName;
}

std::vector<int> MarkovSequenceModel::OrderedItems(
    const NestedGroup& group, const std::vector<CaseItem>& items) {
  struct Entry {
    int key;
    double time;
    size_t position;
  };
  std::vector<Entry> entries;
  entries.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    double time = std::numeric_limits<double>::infinity();
    if (group.sequence_time_value >= 0 &&
        static_cast<size_t>(group.sequence_time_value) <
            items[i].values.size() &&
        !IsMissing(items[i].values[group.sequence_time_value])) {
      time = items[i].values[group.sequence_time_value];
    }
    entries.push_back({items[i].key, time, i});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.time < b.time;
                   });
  std::vector<int> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    if (e.key >= 0) out.push_back(e.key);
  }
  return out;
}

Result<std::unique_ptr<TrainedModel>> MarkovSequenceModel::Clone() const {
  return std::unique_ptr<TrainedModel>(
      std::make_unique<MarkovSequenceModel>(*this));
}

// Loops here are over one case's own sequence items; the per-case guard
// checkpoint runs in the InsertCases driver right before each call
// (core/mining_model.cc).
// dmx-lint: allow(guarded-loops)
Status MarkovSequenceModel::ConsumeCase(const AttributeSet& attrs,
                                        const DataCase& c) {
  case_count_ += c.weight;
  for (Chain& chain : chains_) {
    const NestedGroup& group = attrs.groups[chain.group];
    std::vector<int> sequence = OrderedItems(group, c.groups[chain.group]);
    if (sequence.empty()) continue;
    size_t vocabulary = group.keys.size();
    EnsureSquare(&chain.transitions, vocabulary);
    if (chain.initial.size() < vocabulary) chain.initial.resize(vocabulary, 0);
    chain.sequence_count += c.weight;
    chain.initial[sequence[0]] += c.weight;
    for (size_t i = 1; i < sequence.size(); ++i) {
      chain.transitions[sequence[i - 1]][sequence[i]] += c.weight;
    }
  }
  return Status::OK();
}

namespace {

// Ranks the next item of each demanded chain from the transition row of the
// case's last item (or the initial distribution for an empty history).
class SequenceScorer : public CaseScorer {
 public:
  SequenceScorer(const MarkovSequenceModel& model, const AttributeSet& attrs,
                 const PredictionDemand& demand)
      : attrs_(attrs), alpha_(model.alpha()) {
    for (size_t slot = 0; slot < demand.targets.size(); ++slot) {
      const TargetDemand& want = demand.targets[slot];
      if (want.target.kind != PredictionTarget::Kind::kGroup) continue;
      for (const MarkovSequenceModel::Chain& chain : model.chains()) {
        if (chain.group != want.target.index) continue;
        targets_.push_back({slot, want.histogram, &chain});
        break;
      }
    }
  }

  Status Score(const DataCase& input,
               std::span<TargetPrediction> out) override {
    // dmx-hot-begin(sa-predict)
    DMX_RETURN_IF_ERROR(GuardCheck());
    for (const Target& t : targets_) {
      const MarkovSequenceModel::Chain& chain = *t.chain;
      const NestedGroup& group = attrs_.groups[chain.group];
      // OrderedItems sorts the case's items by sequence time into a fresh
      // buffer; a model has at most a handful of chains.
      std::vector<int> sequence =  // dmx-lint: allow(hot-loop-alloc)
          MarkovSequenceModel::OrderedItems(group, input.groups[chain.group]);
      const size_t vocabulary = group.keys.size();
      TargetPrediction& prediction = out[t.slot];
      prediction.Reset();

      // Distribution over the next item: transition row of the last item,
      // or the initial distribution for empty histories.
      const std::vector<double>* counts = nullptr;
      double total = 0;
      if (!sequence.empty() &&
          static_cast<size_t>(sequence.back()) < chain.transitions.size()) {
        counts = &chain.transitions[sequence.back()];
      } else if (sequence.empty() && !chain.initial.empty()) {
        counts = &chain.initial;
      }
      if (counts != nullptr) {
        for (double n : *counts) total += n;
      }
      for (size_t item = 0; item < vocabulary; ++item) {
        double count =
            counts != nullptr && item < counts->size() ? (*counts)[item] : 0;
        double p = (count + alpha_) /
                   (total + alpha_ * static_cast<double>(vocabulary));
        if (count <= 0 && total > 0) {
          continue;
        }
        prediction.Offer({static_cast<int>(item), p, count, 0}, t.ranked);
      }
      prediction.Finish(t.ranked);
    }
    // dmx-hot-end(sa-predict)
    return Status::OK();
  }

 private:
  struct Target {
    size_t slot;
    bool ranked;
    const MarkovSequenceModel::Chain* chain;
  };
  const AttributeSet& attrs_;
  double alpha_;
  std::vector<Target> targets_;
};

}  // namespace

Result<std::unique_ptr<CaseScorer>> MarkovSequenceModel::MakeScorer(
    const AttributeSet& attrs, const PredictionDemand& demand) const {
  return std::unique_ptr<CaseScorer>(
      std::make_unique<SequenceScorer>(*this, attrs, demand));
}

Result<ContentNodePtr> MarkovSequenceModel::BuildContent(
    const AttributeSet& attrs) const {
  auto root = std::make_shared<ContentNode>();
  root->type = NodeType::kModel;
  root->unique_name = "SEQ";
  root->caption = "Markov sequence model";
  root->support = case_count_;
  root->probability = 1.0;
  for (const Chain& chain : chains_) {
    const NestedGroup& group = attrs.groups[chain.group];
    auto chain_node = std::make_shared<ContentNode>();
    chain_node->type = NodeType::kTree;
    chain_node->unique_name = "SEQ/" + group.name;
    chain_node->caption = "Chain for " + group.name;
    chain_node->support = chain.sequence_count;
    // Initial-state distribution on the chain node itself.
    double initial_total = 0;
    for (double n : chain.initial) initial_total += n;
    for (size_t item = 0; item < chain.initial.size(); ++item) {
      if (chain.initial[item] <= 0) continue;
      chain_node->distribution.push_back(
          {"(start)", group.keys[item], chain.initial[item],
           initial_total > 0 ? chain.initial[item] / initial_total : 0, 0});
    }
    // One rule node per observed transition.
    int counter = 0;
    for (size_t from = 0; from < chain.transitions.size(); ++from) {
      double row_total = 0;
      for (double n : chain.transitions[from]) row_total += n;
      if (row_total <= 0) continue;
      for (size_t to = 0; to < chain.transitions[from].size(); ++to) {
        double count = chain.transitions[from][to];
        if (count <= 0) continue;
        auto node = std::make_shared<ContentNode>();
        node->type = NodeType::kRule;
        node->unique_name =
            chain_node->unique_name + "/R" + std::to_string(++counter);
        node->caption = group.keys[from].ToString() + " then " +
                        group.keys[to].ToString();
        node->rule = node->caption;
        node->support = count;
        node->probability = count / row_total;
        chain_node->children.push_back(std::move(node));
      }
    }
    root->children.push_back(std::move(chain_node));
  }
  return root;
}

SequenceAnalysisService::SequenceAnalysisService() {
  caps_.name = kServiceName;
  caps_.display_name = "Sequence Analysis";
  caps_.description =
      "First-order Markov chains over SEQUENCE_TIME-ordered nested items; "
      "predicts the next likely items; incremental";
  caps_.supports_prediction = true;
  caps_.supports_incremental = true;
  caps_.supports_discrete_targets = false;
  caps_.supports_continuous_targets = false;
  caps_.supports_table_prediction = true;
  caps_.supports_sequence_analysis = true;
  caps_.parameters = {
      {"ALPHA", "Transition smoothing pseudo-count", Value::Double(0.5)},
  };
}

Status SequenceAnalysisService::ValidateBinding(const AttributeSet& attrs) const {
  for (const NestedGroup& group : attrs.groups) {
    if (group.is_output && group.sequence_time_value >= 0) {
      return Status::OK();
    }
  }
  return InvalidArgument()
         << "Sequence_Analysis needs a PREDICT nested TABLE with a "
            "SEQUENCE_TIME column (e.g. [Purchase Time] DOUBLE SEQUENCE_TIME)";
}

Result<std::unique_ptr<TrainedModel>> SequenceAnalysisService::CreateEmpty(
    const AttributeSet& attrs, const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(double alpha, params.at("ALPHA").AsDouble());
  std::vector<int> groups;
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    if (attrs.groups[g].is_output && attrs.groups[g].sequence_time_value >= 0) {
      groups.push_back(static_cast<int>(g));
    }
  }
  if (groups.empty()) {
    return InvalidArgument() << "Sequence_Analysis model has no PREDICT "
                                "nested table with a SEQUENCE_TIME column";
  }
  return std::unique_ptr<TrainedModel>(
      new MarkovSequenceModel(std::move(groups), alpha));
}

Result<std::unique_ptr<TrainedModel>> SequenceAnalysisService::Train(
    const AttributeSet& attrs, const std::vector<DataCase>& cases,
    const ParamMap& params) const {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<TrainedModel> model,
                       CreateEmpty(attrs, params));
  size_t n = 0;
  // dmx-hot-begin(sa-train-consume)
  for (const DataCase& c : cases) {
    if ((n++ & 255) == 0) DMX_RETURN_IF_ERROR(GuardCheck());
    DMX_RETURN_IF_ERROR(model->ConsumeCase(attrs, c));
  }
  // dmx-hot-end(sa-train-consume)
  return model;
}

}  // namespace dmx
