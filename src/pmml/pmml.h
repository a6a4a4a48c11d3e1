// PMML-inspired model persistence (paper §4: "We are currently working with
// the PMML group to use PMML format as an open persistence format"). A
// serialized model is one XML document carrying:
//
//   * the DMX definition (re-parsed on load, so the definition grammar is
//     the single source of truth),
//   * the bound attribute dictionaries / discretization bounds,
//   * the trained state of the producing service, rendered with PMML-style
//     model elements (TreeModel, NaiveBayesModel, ClusteringModel,
//     AssociationModel, RegressionModel).
//
// Deserialization reconstructs a fully working MiningModel: predictions,
// content browsing and incremental refresh continue where the saved model
// left off.

#ifndef DMX_PMML_PMML_H_
#define DMX_PMML_PMML_H_

#include <memory>
#include <string>

#include "common/env.h"
#include "core/mining_model.h"
#include "model/service_registry.h"

namespace dmx {

/// Serializes a model (trained or not) into a PMML-style XML document.
Result<std::string> SerializeModel(const MiningModel& model);

/// Reconstructs a model from SerializeModel output. Its definition goes
/// through MiningModel::Create, the check CREATE MINING MODEL runs, so a
/// document can carry no definition that CREATE would refuse.
Result<std::unique_ptr<MiningModel>> DeserializeModel(
    const std::string& document, const ServiceRegistry& registry);

/// Convenience file round-trip through `env` (Env::Default() when null).
/// Saves atomically (write-temp, fsync, rename); every write is checked and
/// failures return kIOError/kResourceExhausted naming the path.
Status SaveModelToFile(const MiningModel& model, const std::string& path,
                       Env* env = nullptr);
Result<std::unique_ptr<MiningModel>> LoadModelFromFile(
    const std::string& path, const ServiceRegistry& registry,
    Env* env = nullptr);

}  // namespace dmx

#endif  // DMX_PMML_PMML_H_
