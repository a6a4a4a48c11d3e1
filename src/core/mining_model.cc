#include "core/mining_model.h"

#include "common/exec_guard.h"
#include "core/dmx_analyzer.h"

namespace dmx {

MiningModel::MiningModel(ModelDefinition definition,
                         std::shared_ptr<MiningService> service,
                         ParamMap params)
    : definition_(std::move(definition)),
      service_(std::move(service)),
      params_(std::move(params)),
      attrs_(CaseBinder::BuildAttributeSet(definition_)) {}

Result<std::unique_ptr<MiningModel>> MiningModel::Create(
    ModelDefinition definition, const ServiceRegistry& registry) {
  // Service resolution first so an unknown service keeps its kNotFound
  // contract (the analyzer would fold it into a semantic error instead).
  DMX_ASSIGN_OR_RETURN(std::shared_ptr<MiningService> service,
                       registry.Find(definition.service_name));
  // The analyzer reports every column-metadata violation in one message.
  // The registry goes into the context so service-dependent rules fire
  // exactly as they do for standalone AnalyzeText — notably
  // predict-presence, which hardens from warning to error for
  // non-segmentation services. The fuzzer's differential oracle holds both
  // paths to the same verdict.
  AnalyzerContext context;
  context.services = &registry;
  DMX_RETURN_IF_ERROR(
      DmxAnalyzer(context).AnalyzeDefinition(definition).ToStatus());
  DMX_ASSIGN_OR_RETURN(ParamMap params,
                       service->ResolveParams(definition.parameters));
  return std::make_unique<MiningModel>(std::move(definition),
                                       std::move(service), std::move(params));
}

Status MiningModel::InsertCases(RowsetReader* reader,
                                const std::vector<InsertColumn>* mapping) {
  // Train a stage and swap it in only once every case went in, so a failed
  // statement leaves the model as it was. The stage is a copy of the
  // attributes and either a clone of the incremental state or the fresh
  // model Train returns; the case cache is cut back to its old size.
  AttributeSet attrs = attrs_;
  std::unique_ptr<TrainedModel> trained;
  const size_t cached = case_cache_.size();
  Status status = TrainStage(reader, mapping, &attrs, &trained);
  if (!status.ok()) {
    case_cache_.resize(cached);
    return status;
  }
  attrs_ = std::move(attrs);
  trained_ = std::move(trained);
  return Status::OK();
}

Status MiningModel::TrainStage(RowsetReader* reader,
                               const std::vector<InsertColumn>* mapping,
                               AttributeSet* attrs,
                               std::unique_ptr<TrainedModel>* trained) {
  DMX_ASSIGN_OR_RETURN(
      CaseBinder binder,
      CaseBinder::CreateForTraining(definition_, *reader->schema(), mapping));

  const bool incremental = service_->capabilities().supports_incremental;
  const bool first_training = !is_trained() && case_cache_.empty();

  if (incremental) {
    Row row;
    DataCase scratch;
    if (trained_ != nullptr) {
      DMX_ASSIGN_OR_RETURN(*trained, trained_->Clone());
    } else {
      // Bootstrap: buffer a prefix to pin bucket bounds and dictionaries.
      std::vector<Row> bootstrap;
      bootstrap.reserve(kBootstrapCases);
      // dmx-hot-begin(insert-stream)
      while (bootstrap.size() < kBootstrapCases) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        // Next() overwrites the row outright, so the moved-from buffer needs
        // no reset here.
        DMX_ASSIGN_OR_RETURN(bool has, reader->Next(&row));
        if (!has) break;
        DMX_RETURN_IF_ERROR(binder.CollectStatistics(row, attrs));
        bootstrap.push_back(std::move(row));
      }
      DMX_RETURN_IF_ERROR(binder.FinalizeStatistics(attrs, first_training));
      DMX_RETURN_IF_ERROR(service_->ValidateBinding(*attrs));
      DMX_ASSIGN_OR_RETURN(*trained, service_->CreateEmpty(*attrs, params_));
      for (const Row& buffered : bootstrap) {
        DMX_RETURN_IF_ERROR(binder.BindCaseInto(buffered, attrs, &scratch));
        DMX_RETURN_IF_ERROR((*trained)->ConsumeCase(*attrs, scratch));
      }
    }
    // Stream the remainder (or, on refresh, the whole caseset) one case at a
    // time — the paper's consumption model; nothing is cached.
    while (true) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      DMX_ASSIGN_OR_RETURN(bool has, reader->Next(&row));
      if (!has) break;
      DMX_RETURN_IF_ERROR(binder.CollectStatistics(row, attrs));
      DMX_RETURN_IF_ERROR(binder.BindCaseInto(row, attrs, &scratch));
      DMX_RETURN_IF_ERROR((*trained)->ConsumeCase(*attrs, scratch));
    }
    // dmx-hot-end(insert-stream)
    return Status::OK();
  }

  // Non-incremental: two passes over the new rows, then retrain on the
  // cached union.
  DMX_ASSIGN_OR_RETURN(Rowset rows, reader->ReadAll());
  // dmx-hot-begin(insert-retrain)
  for (const Row& row : rows.rows()) {
    DMX_RETURN_IF_ERROR(binder.CollectStatistics(row, attrs));
  }
  DMX_RETURN_IF_ERROR(binder.FinalizeStatistics(attrs, first_training));
  DMX_RETURN_IF_ERROR(service_->ValidateBinding(*attrs));
  case_cache_.reserve(case_cache_.size() + rows.num_rows());
  for (const Row& row : rows.rows()) {
    // The case cache is the dominant memory cost of non-incremental training;
    // each retained case counts against the working-set budget.
    DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
    // The cache owns each bound case for later retraining, so there is no
    // scratch buffer to reuse.
    DMX_ASSIGN_OR_RETURN(DataCase c,  // dmx-lint: allow(hot-loop-alloc)
                         binder.BindCase(row, attrs));
    case_cache_.push_back(std::move(c));
  }
  // dmx-hot-end(insert-retrain)
  if (case_cache_.empty()) {
    return InvalidState() << "INSERT INTO '" << definition_.model_name
                          << "' delivered zero cases";
  }
  DMX_ASSIGN_OR_RETURN(*trained, service_->Train(*attrs, case_cache_, params_));
  return Status::OK();
}

Result<std::unique_ptr<CaseScorer>> MiningModel::MakeScorer(
    const PredictionDemand& demand) const {
  if (trained_ == nullptr) {
    return InvalidState() << "model '" << definition_.model_name
                          << "' has not been trained (INSERT INTO it first)";
  }
  return trained_->MakeScorer(attrs_, demand);
}

Result<ContentNodePtr> MiningModel::BuildContent() const {
  if (trained_ == nullptr) {
    return InvalidState() << "model '" << definition_.model_name
                          << "' has no content: it has not been trained";
  }
  return trained_->BuildContent(attrs_);
}

Status MiningModel::Reset() {
  trained_.reset();
  case_cache_.clear();
  attrs_ = CaseBinder::BuildAttributeSet(definition_);
  return Status::OK();
}

}  // namespace dmx
