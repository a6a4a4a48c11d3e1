#include "model/mining_service.h"

namespace dmx {

Status TrainedModel::ConsumeCase(const AttributeSet& attrs, const DataCase& c) {
  (void)attrs;
  (void)c;
  return NotSupported() << "service '" << service_name()
                        << "' does not support incremental training";
}

Result<std::unique_ptr<TrainedModel>> TrainedModel::Clone() const {
  return NotSupported() << "service '" << service_name()
                        << "' does not support incremental training";
}

Result<ParamMap> MiningService::ResolveParams(
    const std::vector<AlgorithmParam>& params) const {
  ParamMap out;
  for (const ServiceParameter& declared : capabilities().parameters) {
    out[declared.name] = declared.default_value;
  }
  for (const AlgorithmParam& given : params) {
    auto it = out.find(given.name);
    if (it == out.end()) {
      return InvalidArgument()
             << "service '" << capabilities().name
             << "' has no parameter named '" << given.name << "'";
    }
    it->second = given.value;
  }
  return out;
}

Result<std::unique_ptr<TrainedModel>> MiningService::CreateEmpty(
    const AttributeSet& attrs, const ParamMap& params) const {
  (void)attrs;
  (void)params;
  return NotSupported() << "service '" << capabilities().name
                        << "' does not support incremental training";
}

Status MiningService::ValidateBinding(const AttributeSet& attrs) const {
  const ServiceCapabilities& caps = capabilities();
  bool any_output = false;
  for (const Attribute& attr : attrs.attributes) {
    if (!attr.is_output) continue;
    any_output = true;
    if (attr.is_continuous && !caps.supports_continuous_targets) {
      return NotSupported()
             << "service '" << caps.name
             << "' cannot predict continuous attribute '" << attr.name
             << "' (declare it DISCRETIZED instead)";
    }
    if (!attr.is_continuous && !caps.supports_discrete_targets) {
      return NotSupported() << "service '" << caps.name
                            << "' cannot predict discrete attribute '"
                            << attr.name << "'";
    }
  }
  for (const NestedGroup& group : attrs.groups) {
    if (group.is_output) {
      any_output = true;
      if (!caps.supports_table_prediction) {
        return NotSupported() << "service '" << caps.name
                              << "' cannot predict nested table '" << group.name
                              << "'";
      }
    }
  }
  if (!any_output && caps.supports_prediction && !caps.is_segmentation) {
    return InvalidArgument() << "model has no PREDICT column but service '"
                             << caps.name << "' is a predictive service";
  }
  return Status::OK();
}

}  // namespace dmx
