// Association-rules service: exact supports on hand data, Apriori
// monotonicity, rule confidence, recommendation semantics and scalar items.

#include "algorithms/association_rules.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddGroup;
using testutil::MakeCase;
using testutil::ScoreCase;
using testutil::ScoredEntry;
using testutil::ScoredTarget;

ParamMap Params(const MiningService& service,
                std::vector<AlgorithmParam> overrides = {}) {
  auto params = service.ResolveParams(overrides);
  EXPECT_TRUE(params.ok());
  return *params;
}

const AssociationModel& AsAssoc(const TrainedModel& m) {
  return static_cast<const AssociationModel&>(m);
}

// Fixed micro-dataset with known supports:
//   {beer, ham}, {beer, ham}, {beer}, {wine}, {beer, ham, wine}
AttributeSet MicroAttrs() {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "ham", "wine"}, /*is_output=*/true);
  return attrs;
}

std::vector<DataCase> MicroCases(const AttributeSet& attrs) {
  return {MakeCase(attrs, {}, {{0, 1}}), MakeCase(attrs, {}, {{0, 1}}),
          MakeCase(attrs, {}, {{0}}), MakeCase(attrs, {}, {{2}}),
          MakeCase(attrs, {}, {{0, 1, 2}})};
}

TEST(AssociationTest, ExactSupportsOnMicroData) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  auto model = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.1)}}));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const auto& assoc = AsAssoc(**model);
  std::map<std::string, double> supports;
  for (const auto& itemset : assoc.itemsets()) {
    std::string key;
    for (int id : itemset.items) {
      if (!key.empty()) key += ",";
      key += assoc.ItemName(attrs, id);
    }
    supports[key] = itemset.support;
  }
  EXPECT_DOUBLE_EQ(supports["beer"], 4);
  EXPECT_DOUBLE_EQ(supports["ham"], 3);
  EXPECT_DOUBLE_EQ(supports["wine"], 2);
  EXPECT_DOUBLE_EQ(supports["beer,ham"], 3);
  EXPECT_EQ(supports.count("beer,wine"), 0u);  // support 1 < 2

  // Rule ham => beer has confidence 3/3; beer => ham has 3/4.
  double ham_to_beer = -1;
  double beer_to_ham = -1;
  for (const auto& rule : assoc.rules()) {
    std::string antecedent = assoc.ItemName(attrs, rule.antecedent[0]);
    std::string consequent = assoc.ItemName(attrs, rule.consequent);
    if (antecedent == "ham" && consequent == "beer") {
      ham_to_beer = rule.confidence;
    }
    if (antecedent == "beer" && consequent == "ham") {
      beer_to_ham = rule.confidence;
    }
  }
  EXPECT_DOUBLE_EQ(ham_to_beer, 1.0);
  EXPECT_DOUBLE_EQ(beer_to_ham, 0.75);
}

TEST(AssociationTest, AprioriMonotonicity) {
  // Support of any itemset never exceeds the support of its subsets.
  AttributeSet attrs;
  AddGroup(&attrs, "Basket",
           {"a", "b", "c", "d", "e"}, /*is_output=*/true);
  Rng rng(11);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    std::vector<int> items;
    for (int k = 0; k < 5; ++k) {
      if (rng.Chance(0.4)) items.push_back(k);
    }
    cases.push_back(MakeCase(attrs, {}, {items}));
  }
  AssociationService service;
  auto model = service.Train(
      attrs, cases,
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(0.01)},
                       {"MAXIMUM_ITEMSET_SIZE", Value::Long(4)}}));
  ASSERT_TRUE(model.ok());
  const auto& assoc = AsAssoc(**model);
  std::map<std::vector<int>, double> support;
  for (const auto& itemset : assoc.itemsets()) {
    support[itemset.items] = itemset.support;
  }
  for (const auto& [items, s] : support) {
    if (items.size() < 2) continue;
    for (size_t drop = 0; drop < items.size(); ++drop) {
      std::vector<int> subset;
      for (size_t i = 0; i < items.size(); ++i) {
        if (i != drop) subset.push_back(items[i]);
      }
      ASSERT_TRUE(support.count(subset) > 0);  // downward closure
      EXPECT_LE(s, support[subset] + 1e-9);
    }
  }
}

TEST(AssociationTest, RecommendationsExcludeOwnedItems) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  auto model = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.1)}}));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {}, {{0}}));
  ASSERT_TRUE(p.ok());
  const ScoredTarget* basket = p->Find("Basket");
  ASSERT_NE(basket, nullptr);
  ASSERT_FALSE(basket->histogram.empty());
  // Top recommendation for a beer-holder is ham (conf 0.75), never beer.
  EXPECT_TRUE(basket->predicted.Equals(Value::Text("ham")));
  for (const ScoredEntry& sv : basket->histogram) {
    EXPECT_FALSE(sv.value.Equals(Value::Text("beer")));
  }
}

TEST(AssociationTest, PopularityFallbackWhenNoRuleApplies) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  auto model = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.99)}}));
  ASSERT_TRUE(model.ok());
  // With confidence floor 0.99 only ham=>beer survives; an empty basket gets
  // popularity-ranked suggestions anyway.
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {}, {{}}));
  const ScoredTarget* basket = p->Find("Basket");
  ASSERT_FALSE(basket->histogram.empty());
  EXPECT_TRUE(basket->predicted.Equals(Value::Text("beer")));  // most popular
}

TEST(AssociationTest, ScalarAttributesBecomeItems) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Gender", {"Male", "Female"});
  AddGroup(&attrs, "Basket", {"beer", "doll"}, /*is_output=*/true);
  Rng rng(12);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    int gender = static_cast<int>(rng.Uniform(2));
    std::vector<int> items;
    if (gender == 0 ? rng.Chance(0.8) : rng.Chance(0.1)) items.push_back(0);
    cases.push_back(
        MakeCase(attrs, {static_cast<double>(gender)}, {items}));
  }
  AssociationService service;
  auto model = service.Train(
      attrs, cases,
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(0.05)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.5)}}));
  ASSERT_TRUE(model.ok());
  bool found_gender_rule = false;
  const auto& assoc = AsAssoc(**model);
  for (const auto& rule : assoc.rules()) {
    if (assoc.ItemName(attrs, rule.antecedent[0]) == "Gender = 'Male'" &&
        assoc.ItemName(attrs, rule.consequent) == "beer") {
      found_gender_rule = true;
      EXPECT_GT(rule.confidence, 0.6);
      EXPECT_GT(rule.lift, 1.2);
    }
  }
  EXPECT_TRUE(found_gender_rule);
  // And scalar items can be switched off.
  auto without = service.Train(
      attrs, cases,
      Params(service, {{"INCLUDE_SCALAR_ITEMS", Value::Long(0)}}));
  ASSERT_TRUE(without.ok());
  for (const auto& item : AsAssoc(**without).items()) {
    EXPECT_GE(item.group, 0);
  }
}

TEST(AssociationTest, FractionalAndAbsoluteSupportAgree) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  // 0.4 of 5 cases == 2 absolute.
  auto fractional = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(0.4)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.1)}}));
  auto absolute = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.1)}}));
  ASSERT_TRUE(fractional.ok());
  ASSERT_TRUE(absolute.ok());
  EXPECT_EQ(AsAssoc(**fractional).itemsets().size(),
            AsAssoc(**absolute).itemsets().size());
}

TEST(AssociationTest, MaxItemsetSizeCapsExploration) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  auto capped = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(1.0)},
                       {"MAXIMUM_ITEMSET_SIZE", Value::Long(1)}}));
  ASSERT_TRUE(capped.ok());
  for (const auto& itemset : AsAssoc(**capped).itemsets()) {
    EXPECT_EQ(itemset.items.size(), 1u);
  }
  EXPECT_TRUE(AsAssoc(**capped).rules().empty());
}

TEST(AssociationTest, RequiresANestedTable) {
  AttributeSet attrs;
  AddCategorical(&attrs, "OnlyScalar", {"x"});
  AssociationService service;
  EXPECT_TRUE(service.ValidateBinding(attrs).code() ==
              StatusCode::kInvalidArgument);
}

TEST(AssociationTest, ContentListsItemsetsAndRules) {
  AttributeSet attrs = MicroAttrs();
  AssociationService service;
  auto model = service.Train(
      attrs, MicroCases(attrs),
      Params(service, {{"MINIMUM_SUPPORT", Value::Double(2.0)},
                       {"MINIMUM_PROBABILITY", Value::Double(0.1)}}));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  int itemsets = 0;
  int rules = 0;
  for (const auto& child : (*content)->children) {
    if (child->type == NodeType::kItemset) ++itemsets;
    if (child->type == NodeType::kRule) ++rules;
  }
  EXPECT_EQ(static_cast<size_t>(itemsets), AsAssoc(**model).itemsets().size());
  EXPECT_EQ(static_cast<size_t>(rules), AsAssoc(**model).rules().size());
  EXPECT_GT(rules, 0);
}

}  // namespace
}  // namespace dmx
