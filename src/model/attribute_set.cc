#include "model/attribute_set.h"

#include <algorithm>

#include "common/string_util.h"

namespace dmx {

int Attribute::InternCategory(const Value& value) {
  auto it = category_index.find(value);
  if (it != category_index.end()) return it->second;
  int index = static_cast<int>(categories.size());
  categories.push_back(value);
  category_index.emplace(value, index);
  return index;
}

int Attribute::LookupCategory(const Value& value) const {
  auto it = category_index.find(value);
  return it == category_index.end() ? -1 : it->second;
}

int Attribute::BucketOf(double v) const {
  int bucket = 0;
  while (bucket < static_cast<int>(bucket_bounds.size()) &&
         v >= bucket_bounds[bucket]) {
    ++bucket;
  }
  return bucket;
}

std::string Attribute::StateName(int index) const {
  if (existence_only) return index == 1 ? "Existing" : "Missing";
  if (is_discretized()) {
    const size_t n = bucket_bounds.size();
    if (index <= 0) {
      if (n == 0) return "(all)";
      return "< " + FormatDouble(bucket_bounds[0]);
    }
    if (static_cast<size_t>(index) >= n) {
      return ">= " + FormatDouble(bucket_bounds[n - 1]);
    }
    return StrCat("[", FormatDouble(bucket_bounds[index - 1]), ", ",
                  FormatDouble(bucket_bounds[index]), ")");
  }
  if (index < 0 || index >= static_cast<int>(categories.size())) {
    return "<unknown>";
  }
  return categories[index].ToString();
}

Value Attribute::StateValue(int index) const {
  if (existence_only) return Value::Bool(index == 1);
  if (is_discretized()) {
    // Representative value: the bucket midpoint (ends use the boundary).
    const size_t n = bucket_bounds.size();
    if (n == 0) return Value::Double(0);
    if (index <= 0) return Value::Double(bucket_bounds[0]);
    if (static_cast<size_t>(index) >= n) return Value::Double(bucket_bounds[n - 1]);
    return Value::Double((bucket_bounds[index - 1] + bucket_bounds[index]) / 2);
  }
  if (index < 0 || index >= static_cast<int>(categories.size())) {
    return Value::Null();
  }
  return categories[index];
}

int NestedGroup::InternKey(const Value& value) {
  auto it = key_index.find(value);
  if (it != key_index.end()) return it->second;
  int index = static_cast<int>(keys.size());
  keys.push_back(value);
  key_index.emplace(value, index);
  return index;
}

int NestedGroup::LookupKey(const Value& value) const {
  auto it = key_index.find(value);
  return it == key_index.end() ? -1 : it->second;
}

int AttributeSet::FindAttribute(const std::string& name) const {
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (EqualsCi(attributes[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

int AttributeSet::FindGroup(const std::string& name) const {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (EqualsCi(groups[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> AttributeSet::InputAttributeIndices() const {
  std::vector<int> out;
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i].is_input) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> AttributeSet::OutputAttributeIndices() const {
  std::vector<int> out;
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i].is_output) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace dmx
