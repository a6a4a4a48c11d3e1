#include "common/schema.h"

namespace dmx {

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    index_.emplace(columns_[i].name, i);
  }
}

int Schema::FindColumn(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : static_cast<int>(it->second);
}

Result<size_t> Schema::ResolveColumn(std::string_view name) const {
  int idx = FindColumn(name);
  if (idx < 0) {
    return BindError() << "unknown column '" << std::string(name)
                       << "' (schema: " << ToString() << ")";
  }
  return static_cast<size_t>(idx);
}

Result<std::vector<size_t>> Schema::ResolveColumns(
    const std::vector<std::string>& names) const {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    DMX_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(name));
    indices.push_back(idx);
  }
  return indices;
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnDef& a = columns_[i];
    const ColumnDef& b = other.columns_[i];
    if (!EqualsCi(a.name, b.name) || a.type != b.type) return false;
    if (a.type == DataType::kTable) {
      // A TABLE column without a nested schema knows no nested columns: it
      // equals one with an empty schema, which is how the wire sends it.
      static const Schema kEmpty;
      const Schema& a_nested = a.nested != nullptr ? *a.nested : kEmpty;
      const Schema& b_nested = b.nested != nullptr ? *b.nested : kEmpty;
      if (!a_nested.Equals(b_nested)) return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ' ';
    out += DataTypeToString(columns_[i].type);
    if (columns_[i].type == DataType::kTable && columns_[i].nested) {
      out += '(';
      out += columns_[i].nested->ToString();
      out += ')';
    }
  }
  return out;
}

}  // namespace dmx
