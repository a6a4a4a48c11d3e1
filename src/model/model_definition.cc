#include "model/model_definition.h"

namespace dmx {

const ModelColumn* ModelDefinition::FindColumn(const std::string& name) const {
  for (const ModelColumn& col : columns) {
    if (EqualsCi(col.name, name)) return &col;
  }
  return nullptr;
}

std::vector<const ModelColumn*> ModelDefinition::OutputColumns() const {
  std::vector<const ModelColumn*> out;
  for (const ModelColumn& col : columns) {
    if (col.is_output()) out.push_back(&col);
  }
  return out;
}

const ModelColumn* ModelDefinition::KeyColumn() const {
  for (const ModelColumn& col : columns) {
    if (col.is_key()) return &col;
  }
  return nullptr;
}

std::string ModelDefinition::ToDmx() const {
  std::string out = "CREATE MINING MODEL " + QuoteIdentifier(model_name) + " (\n";
  for (size_t i = 0; i < columns.size(); ++i) {
    out += "  " + columns[i].ToDmx();
    if (i + 1 < columns.size()) out += ',';
    out += '\n';
  }
  out += ") USING " + QuoteIdentifier(service_name);
  if (!parameters.empty()) {
    out += '(';
    for (size_t i = 0; i < parameters.size(); ++i) {
      if (i > 0) out += ", ";
      out += QuoteIdentifier(parameters[i].name) + " = ";
      if (parameters[i].value.is_text()) {
        out += "'" + parameters[i].value.text_value() + "'";
      } else {
        out += parameters[i].value.ToString();
      }
    }
    out += ')';
  }
  return out;
}

}  // namespace dmx
