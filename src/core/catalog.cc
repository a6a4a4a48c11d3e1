#include "core/catalog.h"

namespace dmx {

Result<MiningModel*> ModelCatalog::CreateModel(ModelDefinition definition,
                                               const ServiceRegistry& registry) {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<MiningModel> model,
                       MiningModel::Create(std::move(definition), registry));
  MiningModel* raw = model.get();
  DMX_RETURN_IF_ERROR(AdoptModel(std::move(model)));
  return raw;
}

Result<MiningModel*> ModelCatalog::GetModel(const std::string& name) {
  auto it = models_.find(name);
  if (it == models_.end()) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return it->second.get();
}

Result<const MiningModel*> ModelCatalog::GetModel(
    const std::string& name) const {
  auto it = models_.find(name);
  if (it == models_.end()) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return static_cast<const MiningModel*>(it->second.get());
}

Status ModelCatalog::DropModel(const std::string& name) {
  if (models_.erase(name) == 0) {
    return NotFound() << "mining model '" << name << "' does not exist";
  }
  return Status::OK();
}

Status ModelCatalog::AdoptModel(std::unique_ptr<MiningModel> model) {
  const std::string& name = model->definition().model_name;
  if (models_.count(name) > 0) {
    return AlreadyExists() << "mining model '" << name << "' already exists";
  }
  models_.emplace(name, std::move(model));
  return Status::OK();
}

std::vector<std::string> ModelCatalog::ListModels() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

}  // namespace dmx
