// MiningModel: the provider-side first-class model object (paper §2: "we
// have decided to represent a data mining model as analogous to a table in
// SQL"). It owns the definition, the bound attribute space, the algorithm
// parameters and — once populated — the trained state, and implements the
// paper's model operations:
//
//   INSERT INTO   -> InsertCases()  (population / refresh)
//   PREDICTION JOIN -> MakeScorer() (driven by core/prediction_join)
//   SELECT ... .CONTENT -> BuildContent()
//   DELETE FROM   -> Reset()
//
// Population strategy mirrors the "incremental model maintenance" capability
// flag: incremental services consume cases one at a time (after a small
// bootstrap that fixes DISCRETIZED bucket bounds); non-incremental services
// keep a training cache inside the model, so repeated INSERT INTO retrains
// on the union — the model, not the caller, owns refresh. Either way
// INSERT INTO trains a staged copy and swaps it in only on success, so a
// failed statement leaves the model as it was, with or without limits.

#ifndef DMX_CORE_MINING_MODEL_H_
#define DMX_CORE_MINING_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rowset.h"
#include "core/case_binder.h"
#include "core/dmx_ast.h"
#include "model/mining_service.h"
#include "model/service_registry.h"

namespace dmx {

/// \brief One named mining model in the provider catalog.
class MiningModel {
 public:
  /// Cases buffered before an incremental service starts streaming (the
  /// bootstrap pins discretization bounds and initial dictionaries).
  static constexpr size_t kBootstrapCases = 1024;

  MiningModel(ModelDefinition definition,
              std::shared_ptr<MiningService> service, ParamMap params);

  /// A new, untrained model for `definition`: resolves its service (an
  /// unknown one is kNotFound), runs the analyzer with `registry` and
  /// resolves its parameters. CREATE MINING MODEL, IMPORT and recovery all
  /// build models here, so they accept exactly the same definitions.
  static Result<std::unique_ptr<MiningModel>> Create(
      ModelDefinition definition, const ServiceRegistry& registry);

  const ModelDefinition& definition() const { return definition_; }
  const AttributeSet& attributes() const { return attrs_; }
  const MiningService& service() const { return *service_; }
  const ParamMap& params() const { return params_; }
  bool is_trained() const { return trained_ != nullptr; }
  double case_count() const {
    return trained_ != nullptr ? trained_->case_count() : 0;
  }
  /// Cases resident in the training cache (0 for incremental services) —
  /// what the streaming experiment (E3) measures.
  size_t cached_cases() const { return case_cache_.size(); }

  /// Populates / refreshes the model from a caseset stream (INSERT INTO).
  /// `mapping` is the statement's column list (nullptr: bind all by name).
  /// All or nothing: when any case fails (a bad value, a tripped guard) the
  /// model keeps its attributes, trained state and case cache.
  Status InsertCases(RowsetReader* reader,
                     const std::vector<InsertColumn>* mapping);

  /// Prediction entry point: a scorer of bound cases for what one statement
  /// reads (see prediction_join.cc). It reads the trained state and the
  /// attribute space, so it must not outlive the statement.
  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const PredictionDemand& demand) const;

  /// Content graph of the trained state (SELECT * FROM <model>.CONTENT).
  Result<ContentNodePtr> BuildContent() const;

  /// DELETE FROM <model>: back to the untrained state (definition kept).
  Status Reset();

  // --- persistence hooks (pmml library) ---
  const TrainedModel* trained() const { return trained_.get(); }
  AttributeSet* mutable_attributes() { return &attrs_; }
  void AdoptTrainedState(std::unique_ptr<TrainedModel> trained) {
    trained_ = std::move(trained);
  }

 private:
  /// InsertCases' training pass: leaves the trained stage in `*trained`,
  /// grows `*attrs` and appends to the case cache.
  Status TrainStage(RowsetReader* reader,
                    const std::vector<InsertColumn>* mapping,
                    AttributeSet* attrs,
                    std::unique_ptr<TrainedModel>* trained);

  ModelDefinition definition_;
  std::shared_ptr<MiningService> service_;
  ParamMap params_;
  AttributeSet attrs_;
  std::unique_ptr<TrainedModel> trained_;
  /// Bound cases kept for retraining (non-incremental services only).
  std::vector<DataCase> case_cache_;
};

}  // namespace dmx

#endif  // DMX_CORE_MINING_MODEL_H_
