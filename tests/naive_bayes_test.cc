// Naive-Bayes service: signal recovery, posterior invariants, incremental ==
// batch, qualifier handling (weights, soft labels), missing data and errors.

#include "algorithms/naive_bayes.h"

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
using testutil::ScoredEntry;
using testutil::ScoredTarget;

ParamMap DefaultParams(const MiningService& service) {
  return *service.ResolveParams({});
}

// A planted binary problem: label = color with noise; size is a distractor.
std::vector<DataCase> PlantedCases(const AttributeSet& attrs, int n,
                                   uint64_t seed, double noise = 0.1) {
  Rng rng(seed);
  std::vector<DataCase> cases;
  for (int i = 0; i < n; ++i) {
    int color = static_cast<int>(rng.Uniform(2));     // red / blue
    int size = static_cast<int>(rng.Uniform(3));      // distractor
    int label = rng.Chance(noise) ? 1 - color : color;
    cases.push_back(MakeCase(attrs, {static_cast<double>(color),
                                     static_cast<double>(size),
                                     static_cast<double>(label)}));
  }
  return cases;
}

AttributeSet PlantedAttrs() {
  AttributeSet attrs;
  AddCategorical(&attrs, "Color", {"red", "blue"});
  AddCategorical(&attrs, "Size", {"s", "m", "l"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  return attrs;
}

TEST(NaiveBayesTest, LearnsPlantedSignal) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 500, 1),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  int correct = 0;
  for (int color = 0; color < 2; ++color) {
    DataCase query = MakeCase(attrs, {static_cast<double>(color), kMissing,
                                      kMissing});
    auto p = ScoreCase(**model, attrs, query);
    ASSERT_TRUE(p.ok());
    const ScoredTarget* label = p->Find("Label");
    ASSERT_NE(label, nullptr);
    if (label->predicted.Equals(Value::Text(color == 0 ? "A" : "B"))) {
      ++correct;
    }
    EXPECT_GT(label->probability, 0.5);
  }
  EXPECT_EQ(correct, 2);
}

TEST(NaiveBayesTest, PosteriorSumsToOne) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 200, 2),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok());
  DataCase query = MakeCase(attrs, {0, 1, kMissing});
  auto p = ScoreCase(**model, attrs, query);
  ASSERT_TRUE(p.ok());
  double total = 0;
  for (const ScoredEntry& sv : p->Find("Label")->histogram) {
    EXPECT_GE(sv.probability, 0);
    total += sv.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NaiveBayesTest, IncrementalEqualsBatch) {
  AttributeSet attrs_batch = PlantedAttrs();
  AttributeSet attrs_inc = PlantedAttrs();
  NaiveBayesService service;
  auto cases = PlantedCases(attrs_batch, 300, 3);

  auto batch = service.Train(attrs_batch, cases, DefaultParams(service));
  ASSERT_TRUE(batch.ok());
  auto incremental = service.CreateEmpty(attrs_inc, DefaultParams(service));
  ASSERT_TRUE(incremental.ok());
  for (const DataCase& c : cases) {
    ASSERT_TRUE((*incremental)->ConsumeCase(attrs_inc, c).ok());
  }
  // Identical posteriors on a probe grid.
  for (int color = 0; color < 2; ++color) {
    for (int size = 0; size < 3; ++size) {
      DataCase query = MakeCase(attrs_batch, {static_cast<double>(color),
                                              static_cast<double>(size),
                                              kMissing});
      auto a = ScoreCase(**batch, attrs_batch, query);
      auto b = ScoreCase(**incremental, attrs_inc, query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_DOUBLE_EQ(a->Find("Label")->probability,
                       b->Find("Label")->probability);
    }
  }
}

TEST(NaiveBayesTest, GaussianContinuousInput) {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddCategorical(&attrs, "Label", {"lo", "hi"}, /*is_output=*/true);
  Rng rng(4);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    int label = static_cast<int>(rng.Uniform(2));
    double x = rng.Gaussian(label == 0 ? -3 : 3, 1.0);
    cases.push_back(MakeCase(attrs, {x, static_cast<double>(label)}));
  }
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto lo = ScoreCase(**model, attrs, MakeCase(attrs, {-3.5, kMissing}));
  auto hi = ScoreCase(**model, attrs, MakeCase(attrs, {3.5, kMissing}));
  EXPECT_TRUE(lo->Find("Label")->predicted.Equals(Value::Text("lo")));
  EXPECT_TRUE(hi->Find("Label")->predicted.Equals(Value::Text("hi")));
  EXPECT_GT(lo->Find("Label")->probability, 0.9);
}

TEST(NaiveBayesTest, NestedItemsCarrySignal) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "wine", "soda"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  Rng rng(5);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    int label = static_cast<int>(rng.Uniform(2));
    std::vector<int> items;
    if (label == 0 ? rng.Chance(0.9) : rng.Chance(0.1)) items.push_back(0);
    if (rng.Chance(0.5)) items.push_back(2);  // soda is noise
    cases.push_back(
        MakeCase(attrs, {static_cast<double>(label)}, {items}));
  }
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto with_beer = ScoreCase(**model, attrs, MakeCase(attrs, {kMissing}, {{0}}));
  auto without = ScoreCase(**model, attrs, MakeCase(attrs, {kMissing}, {{}}));
  EXPECT_TRUE(with_beer->Find("Label")->predicted.Equals(Value::Text("A")));
  EXPECT_TRUE(without->Find("Label")->predicted.Equals(Value::Text("B")));
}

TEST(NaiveBayesTest, CaseWeightsShiftThePrior) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  std::vector<DataCase> cases;
  DataCase a = MakeCase(attrs, {0});
  a.weight = 10;
  DataCase b = MakeCase(attrs, {1});
  b.weight = 1;
  cases.push_back(a);
  cases.push_back(b);
  NaiveBayesService service;
  auto model = service.Train(attrs, cases, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {kMissing}));
  EXPECT_TRUE(p->Find("Label")->predicted.Equals(Value::Text("A")));
  EXPECT_GT(p->Find("Label")->probability, 0.7);
  EXPECT_DOUBLE_EQ((*model)->case_count(), 11.0);
}

TEST(NaiveBayesTest, SoftLabelsCountFractionally) {
  AttributeSet attrs;
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  // One hard B, one A with confidence 0.2: B should dominate the prior.
  DataCase hard_b = MakeCase(attrs, {1});
  DataCase soft_a = MakeCase(attrs, {0});
  soft_a.confidences.assign(attrs.attributes.size(), 1.0);
  soft_a.confidences[0] = 0.2;
  NaiveBayesService service;
  auto model = service.Train(attrs, {hard_b, soft_a}, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {kMissing}));
  EXPECT_TRUE(p->Find("Label")->predicted.Equals(Value::Text("B")));
}

TEST(NaiveBayesTest, UnlabeledCasesAreSkipped) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.CreateEmpty(attrs, DefaultParams(service));
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(
      (*model)->ConsumeCase(attrs, MakeCase(attrs, {0, 0, kMissing})).ok());
  ASSERT_TRUE((*model)->ConsumeCase(attrs, MakeCase(attrs, {0, 0, 1})).ok());
  auto p = ScoreCase(**model, attrs, MakeCase(attrs, {0, 0, kMissing}));
  ASSERT_TRUE(p.ok());
  // Only the labeled case counts toward support.
  EXPECT_DOUBLE_EQ(p->Find("Label")->support, 1.0);
}

TEST(NaiveBayesTest, RequiresAnOutputColumn) {
  AttributeSet attrs;
  AddCategorical(&attrs, "OnlyInput", {"x"});
  NaiveBayesService service;
  EXPECT_FALSE(service.CreateEmpty(attrs, DefaultParams(service)).ok());
}

TEST(NaiveBayesTest, ContentGraphShapes) {
  AttributeSet attrs = PlantedAttrs();
  NaiveBayesService service;
  auto model = service.Train(attrs, PlantedCases(attrs, 100, 6),
                             DefaultParams(service));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ((*content)->type, NodeType::kModel);
  ASSERT_EQ((*content)->children.size(), 1u);  // one target
  const ContentNode& target = *(*content)->children[0];
  EXPECT_EQ(target.children.size(), 2u);  // two input attributes
  // Marginal label distribution is attached to the target node.
  double total = 0;
  for (const DistributionEntry& entry : target.distribution) {
    total += entry.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Incremental == batch across seeds (property).
class NaiveBayesSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NaiveBayesSeedSweep, IncrementalMatchesBatch) {
  AttributeSet attrs_a = PlantedAttrs();
  AttributeSet attrs_b = PlantedAttrs();
  NaiveBayesService service;
  auto cases = PlantedCases(attrs_a, 150, GetParam(), 0.25);
  auto batch = service.Train(attrs_a, cases, DefaultParams(service));
  auto inc = service.CreateEmpty(attrs_b, DefaultParams(service));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(inc.ok());
  for (const DataCase& c : cases) {
    ASSERT_TRUE((*inc)->ConsumeCase(attrs_b, c).ok());
  }
  DataCase query = MakeCase(attrs_a, {1, 2, kMissing});
  auto pa = ScoreCase(**batch, attrs_a, query);
  auto pb = ScoreCase(**inc, attrs_b, query);
  EXPECT_DOUBLE_EQ(pa->Find("Label")->probability,
                   pb->Find("Label")->probability);
  EXPECT_TRUE(pa->Find("Label")->predicted.Equals(pb->Find("Label")->predicted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveBayesSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace dmx
