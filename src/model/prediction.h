// Prediction results (paper §3.2.4): a prediction is not just a value — it
// carries probability, support, variance, and optionally a full histogram of
// alternatives; set-valued targets (nested tables) predict a ranked
// collection of items. The DMX UDFs (Predict, PredictProbability,
// PredictHistogram, TopCount, ...) read these structures.
//
// A prediction join scores many cases with one statement, so what it reads
// is fixed before the first case: its PredictionDemand names each target it
// reads and whether it reads that target's ranked histogram. The model turns
// the demand into a CaseScorer once (model/mining_service.h), and the scorer
// fills one caller-owned TargetPrediction per demanded target for each case.
// Predictions hold state indices, not Values: the reader builds a Value only
// for what it outputs (TargetStateValue).

#ifndef DMX_MODEL_PREDICTION_H_
#define DMX_MODEL_PREDICTION_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"
#include "model/attribute_set.h"

namespace dmx {

/// \brief What a prediction is about: a scalar attribute, a nested group
/// (ranked items), or a segmentation model's cluster membership.
struct PredictionTarget {
  enum class Kind : uint8_t { kAttribute, kGroup, kCluster };
  Kind kind = Kind::kAttribute;
  /// Index into AttributeSet::attributes or ::groups; -1 for kCluster, and
  /// for a model column that is neither (no model predicts it).
  int index = -1;

  bool operator==(const PredictionTarget&) const = default;
};

/// One target a statement reads.
struct TargetDemand {
  PredictionTarget target;
  /// Every candidate, ranked by descending probability: PredictHistogram,
  /// Predict(<table>, n), TopCount and explicit-value statistics read it.
  /// Without it a scorer fills only the best estimate and its statistics.
  bool histogram = false;
};

/// \brief What a statement reads of a model's predictions: one slot per
/// target, in the order the binder first met them.
struct PredictionDemand {
  std::vector<TargetDemand> targets;

  /// The slot of `target`, added on first use; `histogram` widens it.
  size_t Require(PredictionTarget target, bool histogram) {
    for (size_t slot = 0; slot < targets.size(); ++slot) {
      if (targets[slot].target == target) {
        targets[slot].histogram = targets[slot].histogram || histogram;
        return slot;
      }
    }
    targets.push_back({target, histogram});
    return targets.size() - 1;
  }
};

/// One histogram entry: a candidate state with its statistics.
struct ScoredState {
  /// Categorical state / bucket / item / cluster index behind the entry; -1
  /// for a continuous target's single entry, whose value is the estimate.
  int state = -1;
  double probability = 0;
  double support = 0;
  double variance = 0;

  double stdev() const { return variance > 0 ? std::sqrt(variance) : 0; }
};

/// \brief The prediction for one demanded target of one case.
struct TargetPrediction {
  /// False until a scorer fills the slot: the model does not predict this
  /// target. A scorer never clears it.
  bool predicted = false;
  /// Best estimate: a continuous target's `estimate`, else the state
  /// `state` (-1: the model cannot say, read as NULL).
  bool continuous = false;
  int state = -1;
  double estimate = 0;
  double probability = 0;  ///< Of the best estimate (continuous: of the leaf/cluster).
  double support = 0;      ///< Training cases behind the prediction.
  double variance = 0;     ///< Continuous targets: predictive variance.
  /// Filled only when the demand asks for it: all candidates sorted by
  /// descending probability, ties in state order. The capacity is kept
  /// from case to case.
  std::vector<ScoredState> histogram;

  /// Marks the slot predicted, with no estimate yet; keeps the histogram's
  /// capacity.
  void Reset() {
    predicted = true;
    continuous = false;
    state = -1;
    estimate = probability = support = variance = 0;
    histogram.clear();
  }

  /// Offers one discrete candidate (`entry.state` >= 0). With `ranked`
  /// every candidate is kept for Finish to rank; without it the best
  /// estimate is the running best, which is the first offered of the highest
  /// probability: the entry ranking would put on top.
  void Offer(const ScoredState& entry, bool ranked) {
    if (ranked) {
      histogram.push_back(entry);
    } else if (state < 0 || entry.probability > probability) {
      state = entry.state;
      probability = entry.probability;
      support = entry.support;
    }
  }

  /// Sets a continuous target's best estimate, of probability 1; with
  /// `ranked` its histogram is the one entry for that estimate.
  void SetEstimate(double value, double estimate_support,
                   double estimate_variance, bool ranked) {
    continuous = true;
    estimate = value;
    probability = 1.0;
    support = estimate_support;
    variance = estimate_variance;
    if (ranked) histogram.push_back({-1, 1.0, support, variance});
  }

  /// After the last Offer: with `ranked`, ranks the kept histogram and
  /// takes its top entry as the best estimate (state, probability, support).
  /// Without it there is nothing left to do.
  void Finish(bool ranked);
};

/// The Value of state `state` of `target` ("Cluster <state + 1>" for
/// cluster membership).
Value TargetStateValue(const AttributeSet& attrs, PredictionTarget target,
                       int state);

/// The best estimate of `p` as a Value (NULL when there is none).
Value PredictedValue(const AttributeSet& attrs, PredictionTarget target,
                     const TargetPrediction& p);

/// The Value of histogram entry `entry` of `p`.
Value EntryValue(const AttributeSet& attrs, PredictionTarget target,
                 const TargetPrediction& p, const ScoredState& entry);

}  // namespace dmx

#endif  // DMX_MODEL_PREDICTION_H_
