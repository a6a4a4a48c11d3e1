// ModelDefinition: the parsed form of CREATE MINING MODEL — the model name,
// its column specifications, and the USING clause (mining service plus
// algorithm parameters).

#ifndef DMX_MODEL_MODEL_DEFINITION_H_
#define DMX_MODEL_MODEL_DEFINITION_H_

#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/value.h"
#include "model/column_spec.h"

namespace dmx {

/// One USING-clause parameter, e.g. CLUSTER_COUNT = 4.
struct AlgorithmParam {
  std::string name;
  Value value;
};

/// Algorithm parameters resolved against a service's declared parameter list.
using ParamMap = std::map<std::string, Value, LessCi>;

/// \brief The definition half of a data mining model (paper §3.2).
struct ModelDefinition {
  std::string model_name;
  SourceSpan name_span;     ///< Model-name position in the CREATE text.
  std::vector<ModelColumn> columns;
  std::string service_name;
  SourceSpan service_span;  ///< USING-clause service-name position.
  std::vector<AlgorithmParam> parameters;

  /// Finds a top-level column by name; nullptr when absent.
  const ModelColumn* FindColumn(const std::string& name) const;

  /// All top-level output (PREDICT / PREDICT_ONLY) columns.
  std::vector<const ModelColumn*> OutputColumns() const;

  /// The case-level KEY column (validated definitions have exactly one).
  const ModelColumn* KeyColumn() const;

  /// Round-trippable CREATE MINING MODEL text.
  std::string ToDmx() const;
};

}  // namespace dmx

#endif  // DMX_MODEL_MODEL_DEFINITION_H_
