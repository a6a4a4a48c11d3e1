// Decision-tree service: split selection, regression trees, stopping
// parameters, item splits, determinism and content rendering.

#include "algorithms/decision_tree.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddContinuous;
using testutil::AddGroup;
using testutil::MakeCase;
using testutil::ScoreCase;

ParamMap Params(const MiningService& service,
                std::vector<AlgorithmParam> overrides = {}) {
  auto params = service.ResolveParams(overrides);
  EXPECT_TRUE(params.ok());
  return *params;
}

const DecisionTreeModel& AsTree(const TrainedModel& m) {
  return static_cast<const DecisionTreeModel&>(m);
}

TEST(DecisionTreeTest, SplitsOnTheInformativeAttribute) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Noise", {"a", "b", "c"});
  AddCategorical(&attrs, "Signal", {"x", "y"});
  AddCategorical(&attrs, "Label", {"L0", "L1"}, /*is_output=*/true);
  Rng rng(1);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    int signal = static_cast<int>(rng.Uniform(2));
    cases.push_back(MakeCase(attrs, {static_cast<double>(rng.Uniform(3)),
                                     static_cast<double>(signal),
                                     static_cast<double>(signal)}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  const auto& tree = AsTree(**model).trees()[0];
  ASSERT_FALSE(tree.nodes.empty());
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  EXPECT_EQ(tree.nodes[0].split.attribute, 1);  // Signal, not Noise
  // And predictions are perfect.
  for (int signal = 0; signal < 2; ++signal) {
    auto p = ScoreCase(**model, attrs, MakeCase(attrs, {0, static_cast<double>(signal), kMissing}));
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p->Find("Label")->predicted.Equals(
        Value::Text(signal == 0 ? "L0" : "L1")));
    EXPECT_GT(p->Find("Label")->probability, 0.99);
  }
}

TEST(DecisionTreeTest, ContinuousThresholdSplit) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"lo", "hi"}, /*is_output=*/true);
  Rng rng(2);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    double x = rng.NextDouble() * 100;
    cases.push_back(MakeCase(attrs, {x, x < 50 ? 0.0 : 1.0}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  const auto& root = AsTree(**model).trees()[0].nodes[0];
  ASSERT_FALSE(root.is_leaf());
  EXPECT_EQ(root.split.kind, DecisionTreeModel::Split::Kind::kContinuous);
  EXPECT_NEAR(root.split.threshold, 50, 10);
}

TEST(DecisionTreeTest, RegressionTreePredictsGroupMeans) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Group", {"g0", "g1"});
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  Rng rng(3);
  std::vector<DataCase> cases;
  for (int i = 0; i < 200; ++i) {
    int group = static_cast<int>(rng.Uniform(2));
    double y = rng.Gaussian(group == 0 ? 10 : 50, 1);
    cases.push_back(MakeCase(attrs, {static_cast<double>(group), y}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  auto p0 = ScoreCase(**model, attrs, MakeCase(attrs, {0, kMissing}));
  auto p1 = ScoreCase(**model, attrs, MakeCase(attrs, {1, kMissing}));
  EXPECT_NEAR(p0->Find("Y")->predicted.double_value(), 10, 1);
  EXPECT_NEAR(p1->Find("Y")->predicted.double_value(), 50, 1);
  EXPECT_LT(p0->Find("Y")->variance, 2.0);
}

TEST(DecisionTreeTest, ItemExistenceSplit) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "wine"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  Rng rng(4);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    bool beer = rng.Chance(0.5);
    std::vector<int> items;
    if (beer) items.push_back(0);
    if (rng.Chance(0.5)) items.push_back(1);
    cases.push_back(MakeCase(attrs, {beer ? 0.0 : 1.0}, {items}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  const auto& root = AsTree(**model).trees()[0].nodes[0];
  ASSERT_FALSE(root.is_leaf());
  EXPECT_EQ(root.split.kind, DecisionTreeModel::Split::Kind::kItem);
  EXPECT_EQ(root.split.item, 0);  // beer
  EXPECT_EQ(root.split.Describe(attrs), "Basket contains 'beer'");
}

TEST(DecisionTreeTest, MinimumSupportStopsSplitting) {
  AttributeSet attrs;
  AddCategorical(&attrs, "X", {"a", "b"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 20; ++i) {
    cases.push_back(MakeCase(attrs, {static_cast<double>(i % 2),
                                     static_cast<double>(i % 2)}));
  }
  DecisionTreeService service;
  // min support 50 > total cases: the tree must stay a stump.
  auto model = service.Train(
      attrs, cases, Params(service, {{"MINIMUM_SUPPORT", Value::Double(50)}}));
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(AsTree(**model).trees()[0].nodes.size(), 1u);
  EXPECT_TRUE(AsTree(**model).trees()[0].nodes[0].is_leaf());
}

TEST(DecisionTreeTest, DepthCapBoundsTheTree) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  Rng rng(5);
  std::vector<DataCase> cases;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    // A wiggly label to invite deep splits.
    double label = std::fmod(x * 8, 2.0) < 1 ? 0.0 : 1.0;
    cases.push_back(MakeCase(attrs, {x, label}));
  }
  DecisionTreeService service;
  auto depth1 = service.Train(
      attrs, cases,
      Params(service, {{"MAXIMUM_DEPTH", Value::Long(1)},
                       {"MINIMUM_SUPPORT", Value::Double(1)}}));
  ASSERT_TRUE(depth1.ok());
  EXPECT_LE(AsTree(**depth1).trees()[0].nodes.size(), 3u);
  auto depth6 = service.Train(
      attrs, cases,
      Params(service, {{"MAXIMUM_DEPTH", Value::Long(6)},
                       {"MINIMUM_SUPPORT", Value::Double(1)}}));
  ASSERT_TRUE(depth6.ok());
  EXPECT_GT(AsTree(**depth6).trees()[0].nodes.size(),
            AsTree(**depth1).trees()[0].nodes.size());
}

TEST(DecisionTreeTest, TrainingIsDeterministic) {
  AttributeSet attrs_a;
  AddContinuous(&attrs_a, "X");
  AddCategorical(&attrs_a, "Label", {"A", "B"}, /*is_output=*/true);
  AttributeSet attrs_b = attrs_a;
  Rng rng(6);
  std::vector<DataCase> cases;
  for (int i = 0; i < 200; ++i) {
    double x = rng.NextDouble();
    cases.push_back(MakeCase(attrs_a, {x, x < 0.3 ? 0.0 : 1.0}));
  }
  DecisionTreeService service;
  auto a = service.Train(attrs_a, cases, Params(service));
  auto b = service.Train(attrs_b, cases, Params(service));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& ta = AsTree(**a).trees()[0];
  const auto& tb = AsTree(**b).trees()[0];
  ASSERT_EQ(ta.nodes.size(), tb.nodes.size());
  for (size_t i = 0; i < ta.nodes.size(); ++i) {
    EXPECT_EQ(ta.nodes[i].split.threshold, tb.nodes[i].split.threshold);
    EXPECT_EQ(ta.nodes[i].support, tb.nodes[i].support);
  }
}

TEST(DecisionTreeTest, MultipleTargetsGetSeparateTrees) {
  AttributeSet attrs;
  AddCategorical(&attrs, "X", {"a", "b"});
  AddCategorical(&attrs, "L1", {"p", "q"}, /*is_output=*/true);
  AddContinuous(&attrs, "L2", /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 100; ++i) {
    double x = i % 2;
    cases.push_back(MakeCase(attrs, {x, x, x * 10}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(AsTree(**model).trees().size(), 2u);
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {1, kMissing, kMissing}));
  EXPECT_TRUE(p->Find("L1")->predicted.Equals(Value::Text("q")));
  EXPECT_NEAR(p->Find("L2")->predicted.double_value(), 10, 1e-6);
}

TEST(DecisionTreeTest, LeafSupportsPartitionTheTrainingSet) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  Rng rng(7);
  std::vector<DataCase> cases;
  for (int i = 0; i < 500; ++i) {
    double x = rng.NextDouble();
    cases.push_back(MakeCase(attrs, {x, x < 0.5 ? 0.0 : 1.0}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  const auto& tree = AsTree(**model).trees()[0];
  double leaf_total = 0;
  for (const auto& node : tree.nodes) {
    if (node.is_leaf()) leaf_total += node.support;
  }
  EXPECT_DOUBLE_EQ(leaf_total, tree.nodes[0].support);
  EXPECT_DOUBLE_EQ(leaf_total, 500.0);
}

TEST(DecisionTreeTest, InvalidParametersRejected) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Label", {"A"}, /*is_output=*/true);
  DecisionTreeService service;
  auto bad = service.ResolveParams({{"NOT_A_PARAM", Value::Long(1)}});
  EXPECT_FALSE(bad.ok());
  auto params = Params(service, {{"MAXIMUM_DEPTH", Value::Long(0)}});
  EXPECT_FALSE(service.Train(attrs, {MakeCase(attrs, {0})}, params).ok());
}

TEST(DecisionTreeTest, ContentTreeMirrorsStructure) {
  AttributeSet attrs;
  AddCategorical(&attrs, "X", {"a", "b"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 100; ++i) {
    double x = i % 2;
    cases.push_back(MakeCase(attrs, {x, x}));
  }
  DecisionTreeService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  // Model -> Tree -> root Interior -> two Leafs.
  size_t total_nodes = (*content)->SubtreeSize();
  EXPECT_EQ(total_nodes, 1 + 1 + AsTree(**model).trees()[0].nodes.size());
  const ContentNode& root = *(*content)->children[0]->children[0];
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->rule, "X = 'a'");
  EXPECT_EQ(root.children[1]->rule, "NOT X = 'a'");
  EXPECT_EQ(root.children[0]->type, NodeType::kLeaf);
}

}  // namespace
}  // namespace dmx
