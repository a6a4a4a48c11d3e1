#include "model/content_node.h"

#include <cmath>

namespace dmx {

const char* NodeTypeToString(NodeType type) {
  switch (type) {
    case NodeType::kModel: return "Model";
    case NodeType::kTree: return "Tree";
    case NodeType::kInterior: return "Interior";
    case NodeType::kLeaf: return "Leaf";
    case NodeType::kCluster: return "Cluster";
    case NodeType::kItemset: return "Itemset";
    case NodeType::kRule: return "Rule";
    case NodeType::kRegression: return "Regression";
    case NodeType::kNaiveBayesAttribute: return "NaiveBayesAttribute";
    case NodeType::kDistribution: return "Distribution";
  }
  return "?";
}

size_t ContentNode::SubtreeSize() const {
  size_t total = 1;
  for (const ContentNodePtr& child : children) total += child->SubtreeSize();
  return total;
}

void ContentNode::Flatten(
    const std::string& parent_unique_name,
    std::vector<std::pair<const ContentNode*, std::string>>* out) const {
  out->emplace_back(this, parent_unique_name);
  for (const ContentNodePtr& child : children) {
    child->Flatten(unique_name, out);
  }
}

const std::shared_ptr<const Schema>& ContentNode::DistributionSchema() {
  static const auto kSchema = Schema::Make({{"ATTRIBUTE_NAME", DataType::kText},
                                            {"ATTRIBUTE_VALUE", DataType::kText},
                                            {"SUPPORT", DataType::kDouble},
                                            {"PROBABILITY", DataType::kDouble},
                                            {"VARIANCE", DataType::kDouble}});
  return kSchema;
}

std::shared_ptr<const NestedTable> ContentNode::DistributionTable() const {
  std::vector<Row> rows;
  rows.reserve(distribution.size());
  for (const DistributionEntry& entry : distribution) {
    rows.push_back({Value::Text(entry.attribute),
                    Value::Text(entry.value.ToString()),
                    Value::Double(entry.support),
                    Value::Double(entry.probability),
                    Value::Double(entry.variance)});
  }
  return NestedTable::Make(DistributionSchema(), std::move(rows));
}

}  // namespace dmx
