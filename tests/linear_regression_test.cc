// Linear-regression service: exact coefficient recovery, categorical and
// item features, incremental == batch, ridge behaviour and guards.

#include "algorithms/linear_regression.h"

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

TEST(LinearRegressionTest, RecoversExactLinearFunction) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X1");
  AddContinuous(&attrs, "X2");
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  Rng rng(1);
  std::vector<DataCase> cases;
  for (int i = 0; i < 100; ++i) {
    double x1 = rng.NextDouble() * 10;
    double x2 = rng.NextDouble() * 10;
    cases.push_back(MakeCase(attrs, {x1, x2, 3 * x1 - 2 * x2 + 7}));
  }
  LinearRegressionService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {4, 5, kMissing}));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->Find("Y")->predicted.double_value(), 3 * 4 - 2 * 5 + 7, 0.05);
  EXPECT_LT(p->Find("Y")->variance, 0.01);  // noiseless fit
}

TEST(LinearRegressionTest, CategoricalOneHotEffects) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Group", {"base", "plus10", "plus20"});
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 90; ++i) {
    int g = i % 3;
    cases.push_back(MakeCase(attrs, {static_cast<double>(g), 5.0 + 10.0 * g}));
  }
  LinearRegressionService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  for (int g = 0; g < 3; ++g) {
    auto p = ScoreCase(**model, attrs, MakeCase(attrs, {static_cast<double>(g), kMissing}));
    EXPECT_NEAR(p->Find("Y")->predicted.double_value(), 5 + 10 * g, 0.1);
  }
}

TEST(LinearRegressionTest, ItemIndicatorsContribute) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "caviar"});
  AddContinuous(&attrs, "Spend", /*is_output=*/true);
  Rng rng(2);
  std::vector<DataCase> cases;
  for (int i = 0; i < 200; ++i) {
    bool beer = rng.Chance(0.5);
    bool caviar = rng.Chance(0.3);
    std::vector<int> items;
    if (beer) items.push_back(0);
    if (caviar) items.push_back(1);
    double spend = 10 + (beer ? 5 : 0) + (caviar ? 100 : 0);
    cases.push_back(MakeCase(attrs, {spend}, {items}));
  }
  LinearRegressionService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {kMissing}, {{1}}));
  EXPECT_NEAR(p->Find("Spend")->predicted.double_value(), 110, 1);
}

TEST(LinearRegressionTest, IncrementalEqualsBatch) {
  AttributeSet attrs_a;
  AddContinuous(&attrs_a, "X");
  AddContinuous(&attrs_a, "Y", /*is_output=*/true);
  AttributeSet attrs_b = attrs_a;
  Rng rng(3);
  std::vector<DataCase> cases;
  for (int i = 0; i < 150; ++i) {
    double x = rng.NextDouble() * 4;
    cases.push_back(MakeCase(attrs_a, {x, 2 * x + rng.Gaussian(0, 0.1)}));
  }
  LinearRegressionService service;
  auto batch = service.Train(attrs_a, cases, Params(service));
  auto inc = service.CreateEmpty(attrs_b, Params(service));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(inc.ok());
  for (const DataCase& c : cases) {
    ASSERT_TRUE((*inc)->ConsumeCase(attrs_b, c).ok());
  }
  DataCase probe = MakeCase(attrs_a, {1.5, kMissing});
  auto pa = ScoreCase(**batch, attrs_a, probe);
  auto pb = ScoreCase(**inc, attrs_b, probe);
  EXPECT_DOUBLE_EQ(pa->Find("Y")->predicted.double_value(),
                   pb->Find("Y")->predicted.double_value());
}

TEST(LinearRegressionTest, RefreshImprovesTheFit) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  LinearRegressionService service;
  auto model = service.CreateEmpty(attrs, Params(service));
  ASSERT_TRUE(model.ok());
  // Two points underdetermine nothing here, but a later refresh with many
  // points must dominate the fit.
  ASSERT_TRUE((*model)->ConsumeCase(attrs, MakeCase(attrs, {0, 100})).ok());
  ASSERT_TRUE((*model)->ConsumeCase(attrs, MakeCase(attrs, {1, 100})).ok());
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    double x = rng.NextDouble() * 10;
    ASSERT_TRUE((*model)->ConsumeCase(attrs, MakeCase(attrs, {x, x})).ok());
  }
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {8, kMissing}));
  EXPECT_NEAR(p->Find("Y")->predicted.double_value(), 8, 2.5);
}

TEST(LinearRegressionTest, HeavyRidgeShrinksTowardZero) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 50; ++i) {
    double x = i / 10.0;
    cases.push_back(MakeCase(attrs, {x, 10 * x}));
  }
  LinearRegressionService service;
  auto mild = service.Train(attrs, cases, Params(service));
  auto heavy = service.Train(
      attrs, cases, Params(service, {{"RIDGE_LAMBDA", Value::Double(1e6)}}));
  ASSERT_TRUE(mild.ok());
  ASSERT_TRUE(heavy.ok());
  DataCase probe = MakeCase(attrs, {5, kMissing});
  double mild_pred = ScoreCase(**mild, attrs, probe)
                         ->Find("Y")->predicted.double_value();
  double heavy_pred = ScoreCase(**heavy, attrs, probe)
                          ->Find("Y")->predicted.double_value();
  EXPECT_NEAR(mild_pred, 50, 1);
  EXPECT_LT(std::abs(heavy_pred), std::abs(mild_pred));
}

TEST(LinearRegressionTest, FeatureGuardAndTargetRequirements) {
  LinearRegressionService service;
  {
    AttributeSet attrs;
    AddContinuous(&attrs, "X");
    EXPECT_FALSE(service.CreateEmpty(attrs, Params(service)).ok());  // no target
  }
  {
    AttributeSet attrs;
    AddGroup(&attrs, "Huge", std::vector<std::string>(600, "k"));
    // 600 identical names intern to 1 key; build distinct ones instead.
    attrs.groups[0].keys.clear();
    attrs.groups[0].key_index.clear();
    for (int i = 0; i < 600; ++i) {
      attrs.groups[0].InternKey(Value::Long(i));
    }
    AddContinuous(&attrs, "Y", /*is_output=*/true);
    auto result = service.CreateEmpty(attrs, Params(service));
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("MAXIMUM_FEATURES"),
              std::string::npos);
  }
}

TEST(LinearRegressionTest, PredictingBeforeAnyLabeledCaseFails) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  LinearRegressionService service;
  auto model = service.CreateEmpty(attrs, Params(service));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {1, kMissing}));
  EXPECT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidState());
}

TEST(LinearRegressionTest, ContentExposesCoefficients) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddContinuous(&attrs, "Y", /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 20; ++i) {
    cases.push_back(MakeCase(attrs, {static_cast<double>(i),
                                     2.0 * i + 1}));
  }
  LinearRegressionService service;
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  ASSERT_EQ((*content)->children.size(), 1u);
  const ContentNode& reg = *(*content)->children[0];
  EXPECT_EQ(reg.type, NodeType::kRegression);
  ASSERT_EQ(reg.distribution.size(), 2u);  // intercept + X
  EXPECT_EQ(reg.distribution[0].attribute, "(intercept)");
  EXPECT_NEAR(reg.distribution[0].value.double_value(), 1, 0.05);
  EXPECT_NEAR(reg.distribution[1].value.double_value(), 2, 0.01);
}

}  // namespace
}  // namespace dmx
