// Association-rules mining service (Apriori): frequent itemsets and
// single-consequent rules over nested-table items, optionally enriched with
// case-level discrete attributes as items (so rules like
// "Gender = 'Male', Beer => Ham" can surface). This is the service class the
// paper motivates with "the set of products that the customer is likely to
// buy" — a prediction that "may actually be a collection of predictions".
//
// Prediction targets the PREDICT nested table: given the case's current
// items, applicable rules vote for absent items; the ranked recommendations
// come back as the target's histogram (rendered as a nested table by
// PredictHistogram / Predict(<table column>, n)).

#ifndef DMX_ALGORITHMS_ASSOCIATION_RULES_H_
#define DMX_ALGORITHMS_ASSOCIATION_RULES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/mining_service.h"

namespace dmx {

/// \brief Trained association model: the frequent itemsets and rules.
class AssociationModel : public TrainedModel {
 public:
  /// One atomic item: a nested-group key or a scalar attribute state.
  struct Item {
    int group = -1;      ///< >=0: nested group index; -1: scalar attribute.
    int attribute = -1;  ///< Scalar attribute index when group < 0.
    int state = -1;      ///< Key index (group item) or category state.

    bool operator==(const Item& other) const {
      return group == other.group && attribute == other.attribute &&
             state == other.state;
    }
    bool operator<(const Item& other) const {
      if (group != other.group) return group < other.group;
      if (attribute != other.attribute) return attribute < other.attribute;
      return state < other.state;
    }
  };

  struct Itemset {
    std::vector<int> items;  ///< Item ids, sorted ascending.
    double support = 0;      ///< Weighted case count containing the set.
  };

  struct Rule {
    std::vector<int> antecedent;  ///< Item ids, sorted.
    int consequent = -1;          ///< Item id.
    double support = 0;           ///< Of antecedent + consequent.
    double confidence = 0;
    double lift = 0;
  };

  AssociationModel(std::vector<Item> items, std::vector<Itemset> itemsets,
                   std::vector<Rule> rules, double case_count);

  const std::string& service_name() const override;
  double case_count() const override { return case_count_; }

  Result<std::unique_ptr<CaseScorer>> MakeScorer(
      const AttributeSet& attrs, const PredictionDemand& demand) const override;

  Result<ContentNodePtr> BuildContent(const AttributeSet& attrs) const override;

  const std::vector<Item>& items() const { return items_; }
  const std::vector<Itemset>& itemsets() const { return itemsets_; }
  const std::vector<Rule>& rules() const { return rules_; }

  /// Display form of one interned item ("Beer" or "Gender = 'Male'").
  std::string ItemName(const AttributeSet& attrs, int item_id) const;

 private:
  std::vector<Item> items_;        ///< Interned item table; index == item id.
  std::vector<Itemset> itemsets_;  ///< All frequent itemsets (size >= 1).
  std::vector<Rule> rules_;
  double case_count_ = 0;
};

/// \brief Apriori plug-in. Parameters:
///   MINIMUM_SUPPORT       (DOUBLE, default 0.03) — fraction when < 1,
///                          absolute weighted count otherwise
///   MINIMUM_PROBABILITY   (DOUBLE, default 0.4) — rule confidence floor
///   MAXIMUM_ITEMSET_SIZE  (LONG, default 3)
///   INCLUDE_SCALAR_ITEMS  (LONG, default 1) — case attributes as items
class AssociationService : public MiningService {
 public:
  AssociationService();

  const ServiceCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<TrainedModel>> Train(
      const AttributeSet& attrs, const std::vector<DataCase>& cases,
      const ParamMap& params) const override;

  Status ValidateBinding(const AttributeSet& attrs) const override;

 private:
  ServiceCapabilities caps_;
};

}  // namespace dmx

#endif  // DMX_ALGORITHMS_ASSOCIATION_RULES_H_
