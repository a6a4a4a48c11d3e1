// ModelCatalog: the named-model namespace of the provider. Mining models are
// first-class server objects (paper §2), so they live in a catalog exactly
// like tables do, with CREATE/DROP lifecycle.

#ifndef DMX_CORE_CATALOG_H_
#define DMX_CORE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/mining_model.h"
#include "model/service_registry.h"

namespace dmx {

/// \brief Case-insensitive name -> MiningModel map.
///
/// Not internally synchronized: the catalog is a plain container. The
/// provider declares its instance GUARDED_BY(catalog_mu_), so every access
/// from statement execution is compiler-checked to hold the catalog lock
/// (shared for lookups, exclusive for CREATE/DROP/ADOPT); standalone use in
/// tests is single-threaded.
class ModelCatalog {
 public:
  /// CREATE MINING MODEL: MiningModel::Create, then AdoptModel.
  Result<MiningModel*> CreateModel(ModelDefinition definition,
                                   const ServiceRegistry& registry);

  Result<MiningModel*> GetModel(const std::string& name);
  Result<const MiningModel*> GetModel(const std::string& name) const;

  bool HasModel(const std::string& name) const {
    return models_.count(name) > 0;
  }

  Status DropModel(const std::string& name);

  /// Adds an externally constructed model (PMML import path).
  Status AdoptModel(std::unique_ptr<MiningModel> model);

  std::vector<std::string> ListModels() const;

 private:
  std::map<std::string, std::unique_ptr<MiningModel>, LessCi> models_;
};

}  // namespace dmx

#endif  // DMX_CORE_CATALOG_H_
