#include "model/prediction.h"

#include <algorithm>
#include <string>

namespace dmx {

void TargetPrediction::Finish(bool ranked) {
  if (!ranked) return;
  std::stable_sort(histogram.begin(), histogram.end(),
                   [](const ScoredState& a, const ScoredState& b) {
                     return a.probability > b.probability;
                   });
  if (histogram.empty()) return;
  state = histogram[0].state;
  probability = histogram[0].probability;
  support = histogram[0].support;
}

Value TargetStateValue(const AttributeSet& attrs, PredictionTarget target,
                       int state) {
  switch (target.kind) {
    case PredictionTarget::Kind::kAttribute:
      return attrs.attributes[static_cast<size_t>(target.index)].StateValue(
          state);
    case PredictionTarget::Kind::kGroup:
      return attrs.groups[static_cast<size_t>(target.index)]
          .keys[static_cast<size_t>(state)];
    case PredictionTarget::Kind::kCluster:
      break;
  }
  return Value::Text("Cluster " + std::to_string(state + 1));
}

Value PredictedValue(const AttributeSet& attrs, PredictionTarget target,
                     const TargetPrediction& p) {
  if (p.continuous) return Value::Double(p.estimate);
  if (p.state < 0) return Value::Null();
  return TargetStateValue(attrs, target, p.state);
}

Value EntryValue(const AttributeSet& attrs, PredictionTarget target,
                 const TargetPrediction& p, const ScoredState& entry) {
  if (entry.state < 0) return Value::Double(p.estimate);
  return TargetStateValue(attrs, target, entry.state);
}

}  // namespace dmx
