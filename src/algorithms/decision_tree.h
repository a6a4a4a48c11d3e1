// Decision-tree mining service: the paper's running example algorithm
// ("Decision_Trees_101"). Builds one binary tree per PREDICT column —
// classification trees (entropy gain) for discrete/discretized targets and
// regression trees (variance reduction) for continuous ones.
//
// Split predicates cover the whole bound attribute space:
//   * categorical attribute  == state          (one-vs-rest)
//   * continuous attribute   <= threshold
//   * nested table           contains item     (existence tests over the
//                                               caseset's nested keys)
// Cases with a missing tested value follow the "else" branch.

#ifndef DMX_ALGORITHMS_DECISION_TREE_H_
#define DMX_ALGORITHMS_DECISION_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// \brief Trained forest: one tree per output attribute.
class DecisionTreeModel : public TrainedModel {
 public:
  /// A binary split predicate.
  struct Split {
    enum class Kind { kCategorical, kContinuous, kItem };
    Kind kind = Kind::kCategorical;
    int attribute = -1;   ///< For kCategorical / kContinuous.
    int state = -1;       ///< kCategorical: test value == state.
    double threshold = 0; ///< kContinuous: test value <= threshold.
    int group = -1;       ///< kItem: nested group index.
    int item = -1;        ///< kItem: key index within the group.

    /// True when the case goes down the "then" (left) branch. Missing
    /// values answer false.
    bool Test(const DataCase& c) const;

    /// Human-readable predicate ("Gender = 'Male'", "Age <= 32.5",
    /// "Product Purchases contains 'Beer'").
    std::string Describe(const AttributeSet& attrs) const;
  };

  struct Node {
    int then_child = -1;  ///< -1 on leaves.
    int else_child = -1;
    Split split;
    double support = 0;
    double score = 0;  ///< Split gain.
    /// Classification: per-target-state weighted counts.
    std::vector<double> class_counts;
    /// Regression: sufficient statistics of the target at this node.
    double mean = 0;
    double variance = 0;

    bool is_leaf() const { return then_child < 0; }
  };

  struct TargetTree {
    int target = -1;  ///< Output attribute index.
    bool regression = false;
    std::vector<Node> nodes;  ///< nodes[0] is the root.
  };

  explicit DecisionTreeModel(std::vector<TargetTree> trees, double case_count)
      : trees_(std::move(trees)), case_count_(case_count) {}

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  const std::vector<TargetTree>& trees() const { return trees_; }

 private:
  std::vector<TargetTree> trees_;
  double case_count_ = 0;
};

/// \brief Decision-tree plug-in. Parameters:
///   MAXIMUM_DEPTH        (LONG, default 8)
///   MINIMUM_SUPPORT      (DOUBLE, default 10) — minimum cases per leaf
///   SCORE_THRESHOLD      (DOUBLE, default 1e-6) — minimum split gain
///   MAXIMUM_THRESHOLDS   (LONG, default 32) — continuous candidate cap
class DecisionTreeService : public MiningService {
 public:
  DecisionTreeService();

  const ServiceCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const override;

 private:
  ServiceCapabilities caps_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_DECISION_TREE_H_
