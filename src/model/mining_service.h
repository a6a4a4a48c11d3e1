// MiningService: the pluggable-algorithm contract at the heart of the
// paper's design ("our intent is not to propose new algorithms, but to
// suggest a system infrastructure that makes it possible to 'plug in' any
// algorithm"). A service declares its capabilities (surfaced verbatim in the
// MINING_SERVICES schema rowset), validates USING-clause parameters, and
// produces TrainedModel instances that can predict, be browsed as a content
// graph, and optionally be trained incrementally.
//
// Prediction is per statement: a prediction join hands the model what it
// reads (a PredictionDemand, model/prediction.h) once, gets a CaseScorer
// back, and scores every case with it. A scorer computes only the demanded
// targets, builds a ranked histogram only where one is read, and may keep
// per-statement tables (smoothed log terms) that every case shares.

#ifndef DMX_MODEL_MINING_SERVICE_H_
#define DMX_MODEL_MINING_SERVICE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/attribute_set.h"
#include "model/content_node.h"
#include "model/model_definition.h"
#include "model/prediction.h"

namespace dmx {

/// One declared algorithm parameter (SERVICE_PARAMETERS schema rowset row).
struct ServiceParameter {
  std::string name;
  std::string description;
  Value default_value;
};

/// \brief Self-description of a mining service (MINING_SERVICES row).
struct ServiceCapabilities {
  std::string name;          ///< DMX name used in USING, e.g. "Decision_Trees".
  std::string display_name;
  std::string description;
  /// Task flags, as the paper's schema rowsets "describe the supported
  /// capabilities (e.g. prediction, segmentation, sequence analysis, ...)".
  bool supports_prediction = true;
  bool is_segmentation = false;
  bool supports_association = false;
  /// Incremental model maintenance: cases can be consumed one at a time and
  /// repeatedly (INSERT INTO refresh without retraining).
  bool supports_incremental = false;
  bool supports_continuous_targets = false;
  bool supports_discrete_targets = true;
  /// Can predict nested TABLE columns (ranked item sets).
  bool supports_table_prediction = false;
  /// Sequence analysis: consumes SEQUENCE_TIME-ordered nested items.
  bool supports_sequence_analysis = false;
  std::vector<ServiceParameter> parameters;
};

/// \brief Scores the cases of one statement against one trained model.
///
/// Made by TrainedModel::MakeScorer for one demand; it reads the model and
/// the attribute space it was made with, so it lives no longer than the
/// statement (which holds the catalog lock). Not thread-safe: it may fill
/// per-statement tables as cases read them.
class CaseScorer {
 public:
  virtual ~CaseScorer() = default;

  /// Scores `input`. `out` has one entry per demand slot; the scorer
  /// overwrites every slot whose target the model predicts (marking it
  /// `predicted`) and leaves the others as they are. `input` carries the
  /// bound input attribute values; output slots are ignored.
  virtual Status Score(const DataCase& input,
                       std::span<TargetPrediction> out) = 0;
};

/// \brief A trained data mining model's algorithm-side state.
///
/// The provider-side MiningModel object owns one of these after INSERT INTO;
/// DELETE FROM destroys it.
class TrainedModel {
 public:
  virtual ~TrainedModel() = default;

  /// The service that produced this model (for persistence round-trips).
  virtual const std::string& service_name() const = 0;

  /// Number of training cases consumed (weighted).
  virtual double case_count() const = 0;

  /// A scorer for the targets `demand` reads. Slots naming a target this
  /// model does not predict are never filled.
  virtual Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const = 0;

  /// Renders the learned structure as a content graph rooted at a
  /// NodeType::kModel node.
  virtual Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const = 0;

  /// Incremental maintenance: consume one more training case. Default:
  /// NotSupported (the provider falls back to cache-and-retrain).
  virtual Status ConsumeCase(const AttributeSet& attrs, const DataCase& c);

  /// A copy of this state for ConsumeCase to train, so that a failed
  /// INSERT INTO leaves the original untouched. Default: NotSupported, like
  /// ConsumeCase.
  virtual Result<std::unique_ptr<TrainedModel>> Clone() const;
};

/// \brief A mining algorithm plug-in.
class MiningService {
 public:
  virtual ~MiningService() = default;

  virtual const ServiceCapabilities& capabilities() const = 0;

  /// Resolves USING-clause parameters against the declared list: unknown
  /// names fail, missing ones take defaults.
  Result<ParamMap> ResolveParams(const std::vector<AlgorithmParam>& params) const;

  /// Batch training over fully bound cases.
  virtual Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const = 0;

  /// Creates an empty model for incremental consumption (services with
  /// supports_incremental). Default: NotSupported.
  virtual Result<std::unique_ptr<TrainedModel>> CreateEmpty(
      const AttributeSet& attrs, const ParamMap& params) const;

  /// Service-specific validation of the bound attribute space (e.g. a
  /// regression service requiring a continuous target). Default: checks the
  /// generic capability flags against the outputs.
  virtual Status ValidateBinding(const AttributeSet& attrs) const;
};

}  // namespace dmx

#endif  // DMX_MODEL_MINING_SERVICE_H_
