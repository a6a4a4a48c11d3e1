// Prediction result structures (paper §3.2.4): a prediction is not just a
// value — it carries probability, support, variance, and optionally a full
// histogram of alternatives; set-valued targets (nested tables) predict a
// ranked collection of items. The DMX UDFs (Predict, PredictProbability,
// PredictHistogram, TopCount, ...) read these structures.

#ifndef DMX_MODEL_PREDICTION_H_
#define DMX_MODEL_PREDICTION_H_

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/value.h"

namespace dmx {

/// One histogram entry: a candidate value with its statistics.
struct ScoredValue {
  Value value;
  double probability = 0;
  double support = 0;
  double variance = 0;
  /// Categorical state / bucket / item index behind `value` (-1 when the
  /// entry is not dictionary-backed). RangeMin/Mid/Max resolve DISCRETIZED
  /// bucket bounds through this.
  int state = -1;

  /// Standard deviation derived from variance.
  double stdev() const { return variance > 0 ? std::sqrt(variance) : 0; }
};

/// \brief The prediction for one target (scalar attribute or nested table).
struct AttributePrediction {
  /// Best estimate: the argmax value for discrete targets, the posterior
  /// mean for continuous ones, NULL when the model cannot say.
  Value predicted;
  double probability = 0;  ///< Of `predicted` (continuous: of the leaf/cluster).
  double support = 0;      ///< Training cases behind the prediction.
  double variance = 0;     ///< Continuous targets: predictive variance.

  /// All candidate values sorted by descending probability. For nested-table
  /// targets: the ranked item recommendations. Continuous targets may carry
  /// a bucketed histogram when the service provides one.
  std::vector<ScoredValue> histogram;

  /// For segmentation services: the winning cluster id (else -1).
  int cluster_id = -1;
};

/// \brief All target predictions for one input case, keyed by the model
/// column name ("Age") or nested table name ("Product Purchases").
struct CasePrediction {
  std::map<std::string, AttributePrediction, LessCi> targets;

  const AttributePrediction* Find(const std::string& name) const {
    auto it = targets.find(name);
    return it == targets.end() ? nullptr : &it->second;
  }
};

}  // namespace dmx

#endif  // DMX_MODEL_PREDICTION_H_
