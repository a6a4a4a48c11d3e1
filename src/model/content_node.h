// ContentNode: the directed-graph view of a trained model's content
// (paper §3.3, "Browsing model content"). Every service renders its learned
// structure — tree nodes, clusters, itemsets, rules, regression terms — as a
// tree of ContentNodes; the provider exposes it through the
// MINING_MODEL_CONTENT schema rowset and `SELECT * FROM <model>.CONTENT`.

#ifndef DMX_MODEL_CONTENT_NODE_H_
#define DMX_MODEL_CONTENT_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rowset.h"

namespace dmx {

/// Node types, following the OLE DB DM MINING_MODEL_CONTENT taxonomy.
enum class NodeType {
  kModel,
  kTree,
  kInterior,
  kLeaf,
  kCluster,
  kItemset,
  kRule,
  kRegression,
  kNaiveBayesAttribute,
  kDistribution,
};

const char* NodeTypeToString(NodeType type);

/// One row of a node's NODE_DISTRIBUTION nested table.
struct DistributionEntry {
  std::string attribute;  ///< Attribute name the statistic refers to.
  Value value;            ///< Attribute value / state.
  double support = 0;
  double probability = 0;
  double variance = 0;
};

/// \brief One node of the model-content graph.
struct ContentNode {
  NodeType type = NodeType::kModel;
  std::string unique_name;   ///< NODE_UNIQUE_NAME, unique within the model.
  std::string caption;       ///< Short display label.
  std::string description;   ///< Longer human-readable description.
  std::string rule;          ///< Path/condition, e.g. "Gender = 'Male'".
  double probability = 0;    ///< P(node) among sibling paths.
  double marginal_probability = 0;  ///< P(node | parent).
  double support = 0;        ///< Training cases covered.
  double score = 0;          ///< Service-specific quality score.
  std::vector<DistributionEntry> distribution;
  std::vector<std::shared_ptr<ContentNode>> children;

  /// Total number of nodes in this subtree (including this node).
  size_t SubtreeSize() const;

  /// Depth-first flatten of the subtree with parent unique names, in the
  /// order MINING_MODEL_CONTENT rows are emitted.
  void Flatten(const std::string& parent_unique_name,
               std::vector<std::pair<const ContentNode*, std::string>>* out)
      const;

  /// Renders the distribution as the standard nested rowset
  /// (ATTRIBUTE_NAME, ATTRIBUTE_VALUE, SUPPORT, PROBABILITY, VARIANCE).
  std::shared_ptr<const NestedTable> DistributionTable() const;

  /// The schema of every DistributionTable.
  static const std::shared_ptr<const Schema>& DistributionSchema();
};

using ContentNodePtr = std::shared_ptr<ContentNode>;

}  // namespace dmx

#endif  // DMX_MODEL_CONTENT_NODE_H_
