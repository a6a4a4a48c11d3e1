// Shared helpers for algorithm-level tests: direct construction of
// AttributeSets and DataCases without going through the DMX/shaping layers.

#ifndef DMX_TESTS_TEST_UTIL_H_
#define DMX_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "model/attribute_set.h"
#include "model/mining_service.h"
#include "model/prediction.h"

namespace dmx::testutil {

/// Adds a categorical input attribute with named states; returns its index.
inline int AddCategorical(AttributeSet* attrs, const std::string& name,
                          const std::vector<std::string>& states,
                          bool is_output = false) {
  Attribute attr;
  attr.name = name;
  attr.is_continuous = false;
  attr.is_input = true;
  attr.is_output = is_output;
  for (const std::string& s : states) attr.InternCategory(Value::Text(s));
  attrs->attributes.push_back(std::move(attr));
  return static_cast<int>(attrs->attributes.size()) - 1;
}

/// Adds a continuous attribute; returns its index.
inline int AddContinuous(AttributeSet* attrs, const std::string& name,
                         bool is_output = false) {
  Attribute attr;
  attr.name = name;
  attr.is_continuous = true;
  attr.declared_type = AttributeType::kContinuous;
  attr.is_input = true;
  attr.is_output = is_output;
  attrs->attributes.push_back(std::move(attr));
  return static_cast<int>(attrs->attributes.size()) - 1;
}

/// Adds a nested item group with the given keys; returns its index.
inline int AddGroup(AttributeSet* attrs, const std::string& name,
                    const std::vector<std::string>& keys,
                    bool is_output = false) {
  NestedGroup group;
  group.name = name;
  group.is_input = !is_output;
  group.is_output = is_output;
  for (const std::string& k : keys) group.InternKey(Value::Text(k));
  attrs->groups.push_back(std::move(group));
  return static_cast<int>(attrs->groups.size()) - 1;
}

/// Builds a case over `attrs` with the given per-attribute values and
/// per-group item index lists.
inline DataCase MakeCase(const AttributeSet& attrs,
                         std::vector<double> values,
                         std::vector<std::vector<int>> items = {}) {
  DataCase c;
  c.values = std::move(values);
  c.values.resize(attrs.attributes.size(), kMissing);
  c.groups.resize(attrs.groups.size());
  for (size_t g = 0; g < items.size() && g < c.groups.size(); ++g) {
    for (int key : items[g]) {
      CaseItem item;
      item.key = key;
      c.groups[g].push_back(item);
    }
  }
  return c;
}

/// One histogram entry with its Value resolved.
struct ScoredEntry {
  Value value;
  int state = -1;
  double probability = 0;
  double support = 0;
  double variance = 0;
};

/// One target's prediction with its Values resolved.
struct ScoredTarget {
  Value predicted;
  int state = -1;  ///< The best estimate's state (cluster index for $CLUSTER).
  double probability = 0;
  double support = 0;
  double variance = 0;
  std::vector<ScoredEntry> histogram;
};

/// Everything a model predicts for one case, by target name: attribute and
/// group names, and "$CLUSTER" for cluster membership.
struct ScoredCase {
  std::vector<std::pair<std::string, ScoredTarget>> targets;

  const ScoredTarget* Find(const std::string& name) const {
    for (const auto& [target, prediction] : targets) {
      if (target == name) return &prediction;
    }
    return nullptr;
  }
};

/// The demand that reads every target of `attrs` with its histogram, and
/// cluster membership last.
inline PredictionDemand FullDemand(const AttributeSet& attrs) {
  PredictionDemand demand;
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    demand.Require({PredictionTarget::Kind::kAttribute, static_cast<int>(a)},
                   true);
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    demand.Require({PredictionTarget::Kind::kGroup, static_cast<int>(g)}, true);
  }
  demand.Require({PredictionTarget::Kind::kCluster, -1}, true);
  return demand;
}

/// Scores `input` with a full-demand scorer of `model`.
inline Result<ScoredCase> ScoreCase(const TrainedModel& model,
                                    const AttributeSet& attrs,
                                    const DataCase& input) {
  PredictionDemand demand = FullDemand(attrs);
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<CaseScorer> scorer,
                       model.MakeScorer(attrs, demand));
  std::vector<TargetPrediction> slots(demand.targets.size());
  DMX_RETURN_IF_ERROR(scorer->Score(input, slots));
  ScoredCase out;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    const TargetPrediction& p = slots[slot];
    if (!p.predicted) continue;
    const PredictionTarget target = demand.targets[slot].target;
    ScoredTarget scored;
    scored.predicted = PredictedValue(attrs, target, p);
    scored.state = p.state;
    scored.probability = p.probability;
    scored.support = p.support;
    scored.variance = p.variance;
    for (const ScoredState& entry : p.histogram) {
      scored.histogram.push_back({EntryValue(attrs, target, p, entry),
                                  entry.state, entry.probability,
                                  entry.support, entry.variance});
    }
    std::string name =
        target.kind == PredictionTarget::Kind::kAttribute
            ? attrs.attributes[static_cast<size_t>(target.index)].name
        : target.kind == PredictionTarget::Kind::kGroup
            ? attrs.groups[static_cast<size_t>(target.index)].name
            : std::string("$CLUSTER");
    out.targets.emplace_back(std::move(name), std::move(scored));
  }
  return out;
}

}  // namespace dmx::testutil

#endif  // DMX_TESTS_TEST_UTIL_H_
