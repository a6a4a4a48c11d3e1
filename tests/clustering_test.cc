// Clustering service: segment recovery, EM vs K-means, responsibility
// invariants, mixture-posterior prediction of PREDICT columns, determinism.

#include "algorithms/clustering.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddContinuous;
using testutil::AddGroup;
using testutil::MakeCase;
using testutil::ScoreCase;
using testutil::ScoredTarget;

ParamMap Params(const MiningService& service,
                std::vector<AlgorithmParam> overrides = {}) {
  auto params = service.ResolveParams(overrides);
  EXPECT_TRUE(params.ok()) << params.status().ToString();
  return *params;
}

// Two well-separated Gaussian blobs in 2-D.
std::vector<DataCase> TwoBlobs(const AttributeSet& attrs, int n,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<DataCase> cases;
  for (int i = 0; i < n; ++i) {
    int blob = static_cast<int>(rng.Uniform(2));
    double x = rng.Gaussian(blob == 0 ? 0 : 20, 1);
    double y = rng.Gaussian(blob == 0 ? 0 : 20, 1);
    cases.push_back(MakeCase(attrs, {x, y}));
  }
  return cases;
}

AttributeSet TwoDAttrs() {
  AttributeSet attrs;
  AddContinuous(&attrs, "X");
  AddContinuous(&attrs, "Y");
  return attrs;
}

TEST(ClusteringTest, RecoversSeparatedBlobs) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(attrs, TwoBlobs(attrs, 300, 1),
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(2)}}));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto p0 = ScoreCase(**model, attrs, MakeCase(attrs, {0, 0}));
  auto p20 = ScoreCase(**model, attrs, MakeCase(attrs, {20, 20}));
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p20.ok());
  const ScoredTarget* c0 = p0->Find("$CLUSTER");
  const ScoredTarget* c20 = p20->Find("$CLUSTER");
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c20, nullptr);
  EXPECT_NE(c0->state, c20->state);
  EXPECT_GT(c0->probability, 0.99);
  EXPECT_GT(c20->probability, 0.99);
}

TEST(ClusteringTest, ResponsibilitiesSumToOne) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(attrs, TwoBlobs(attrs, 200, 2),
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(4)}}));
  ASSERT_TRUE(model.ok());
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    DataCase probe = MakeCase(attrs, {rng.NextDouble() * 25,
                                      rng.NextDouble() * 25});
    auto p = ScoreCase(**model, attrs, probe);
    ASSERT_TRUE(p.ok());
    const ScoredTarget* membership = p->Find("$CLUSTER");
    ASSERT_NE(membership, nullptr);
    EXPECT_EQ(membership->histogram.size(), 4u);
    double total = 0;
    for (const auto& entry : membership->histogram) {
      EXPECT_GE(entry.probability, 0);
      total += entry.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ClusteringTest, ClusterWeightsSumToCaseCount) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(attrs, TwoBlobs(attrs, 250, 4),
                             Params(service));
  ASSERT_TRUE(model.ok());
  const auto& clustering = static_cast<const ClusteringModel&>(**model);
  double total = 0;
  for (const auto& cluster : clustering.clusters()) total += cluster.weight;
  EXPECT_NEAR(total, 250.0, 1e-6);
}

TEST(ClusteringTest, KMeansAlsoSeparates) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(
      attrs, TwoBlobs(attrs, 300, 5),
      Params(service, {{"CLUSTER_COUNT", Value::Long(2)},
                       {"CLUSTER_METHOD", Value::Text("KMEANS")}}));
  ASSERT_TRUE(model.ok());
  auto p0 = ScoreCase(**model, attrs, MakeCase(attrs, {0, 0}));
  auto p20 = ScoreCase(**model, attrs, MakeCase(attrs, {20, 20}));
  EXPECT_NE(p0->Find("$CLUSTER")->state,
            p20->Find("$CLUSTER")->state);
  // Hard assignments: every case weight lands in one cluster.
  const auto& clustering = static_cast<const ClusteringModel&>(**model);
  for (const auto& cluster : clustering.clusters()) {
    EXPECT_GT(cluster.weight, 0);  // no empty cluster on this data
  }
}

TEST(ClusteringTest, PredictsTargetsThroughTheMixture) {
  // Label correlates perfectly with blob; clustering predicts it without
  // being a classifier.
  AttributeSet attrs = TwoDAttrs();
  AddCategorical(&attrs, "Label", {"near", "far"}, /*is_output=*/true);
  Rng rng(6);
  std::vector<DataCase> cases;
  for (int i = 0; i < 300; ++i) {
    int blob = static_cast<int>(rng.Uniform(2));
    cases.push_back(MakeCase(attrs, {rng.Gaussian(blob * 20, 1),
                                     rng.Gaussian(blob * 20, 1),
                                     static_cast<double>(blob)}));
  }
  ClusteringService service;
  auto model = service.Train(attrs, cases,
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(2)}}));
  ASSERT_TRUE(model.ok());
  auto p = ScoreCase(**model, attrs,
                             MakeCase(attrs, {20, 20, kMissing}));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Find("Label")->predicted.Equals(Value::Text("far")));
  EXPECT_GT(p->Find("Label")->probability, 0.8);

  // Continuous targets: posterior mean tracks the blob's Y.
  AttributeSet attrs2;
  AddContinuous(&attrs2, "X");
  AddContinuous(&attrs2, "Y", /*is_output=*/true);
  std::vector<DataCase> cases2;
  for (int i = 0; i < 300; ++i) {
    int blob = static_cast<int>(rng.Uniform(2));
    cases2.push_back(MakeCase(attrs2, {rng.Gaussian(blob * 20, 1),
                                       rng.Gaussian(blob == 0 ? 5 : 50, 1)}));
  }
  auto model2 = service.Train(attrs2, cases2,
                              Params(service, {{"CLUSTER_COUNT",
                                                Value::Long(2)}}));
  ASSERT_TRUE(model2.ok());
  auto py = ScoreCase(**model2, attrs2, MakeCase(attrs2, {20, kMissing}));
  EXPECT_NEAR(py->Find("Y")->predicted.double_value(), 50, 3);
}

TEST(ClusteringTest, SameSeedSameClustering) {
  AttributeSet attrs_a = TwoDAttrs();
  AttributeSet attrs_b = TwoDAttrs();
  ClusteringService service;
  auto cases = TwoBlobs(attrs_a, 200, 7);
  auto a = service.Train(attrs_a, cases, Params(service));
  auto b = service.Train(attrs_b, cases, Params(service));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& ca = static_cast<const ClusteringModel&>(**a).clusters();
  const auto& cb = static_cast<const ClusteringModel&>(**b).clusters();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_DOUBLE_EQ(ca[i].weight, cb[i].weight);
  }
}

TEST(ClusteringTest, ItemGroupsShapeClusters) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"beer", "seeds"});
  Rng rng(8);
  std::vector<DataCase> cases;
  for (int i = 0; i < 200; ++i) {
    int blob = static_cast<int>(rng.Uniform(2));
    cases.push_back(MakeCase(attrs, {}, {{blob}}));
  }
  ClusteringService service;
  auto model = service.Train(attrs, cases,
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(2)}}));
  ASSERT_TRUE(model.ok());
  auto beer = ScoreCase(**model, attrs, MakeCase(attrs, {}, {{0}}));
  auto seeds = ScoreCase(**model, attrs, MakeCase(attrs, {}, {{1}}));
  EXPECT_NE(beer->Find("$CLUSTER")->state,
            seeds->Find("$CLUSTER")->state);
}

TEST(ClusteringTest, ContentExposesClusterNodes) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(attrs, TwoBlobs(attrs, 100, 9),
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(3)}}));
  ASSERT_TRUE(model.ok());
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ((*content)->children.size(), 3u);
  double probability_total = 0;
  for (const auto& cluster : (*content)->children) {
    EXPECT_EQ(cluster->type, NodeType::kCluster);
    probability_total += cluster->probability;
  }
  EXPECT_NEAR(probability_total, 1.0, 1e-9);
}

TEST(ClusteringTest, ParameterValidation) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  EXPECT_FALSE(service
                   .Train(attrs, TwoBlobs(attrs, 10, 1),
                          Params(service, {{"CLUSTER_METHOD",
                                            Value::Text("QUANTUM")}}))
                   .ok());
  EXPECT_FALSE(service
                   .Train(attrs, TwoBlobs(attrs, 10, 1),
                          Params(service, {{"CLUSTER_COUNT", Value::Long(0)}}))
                   .ok());
  EXPECT_FALSE(service.Train(attrs, {}, Params(service)).ok());
}

TEST(ClusteringTest, MoreClustersThanCasesClamps) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  auto model = service.Train(attrs, TwoBlobs(attrs, 3, 10),
                             Params(service, {{"CLUSTER_COUNT",
                                               Value::Long(10)}}));
  ASSERT_TRUE(model.ok());
  EXPECT_LE(static_cast<const ClusteringModel&>(**model).clusters().size(),
            3u);
}

// Purity sweep over seeds: the planted 2-blob structure is recovered with
// >= 95% purity regardless of initialization seed.
class ClusteringSeedSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ClusteringSeedSweep, HighPurityOnSeparatedData) {
  AttributeSet attrs = TwoDAttrs();
  ClusteringService service;
  Rng rng(42);
  std::vector<DataCase> cases;
  std::vector<int> truth;
  for (int i = 0; i < 200; ++i) {
    int blob = static_cast<int>(rng.Uniform(2));
    truth.push_back(blob);
    cases.push_back(MakeCase(attrs, {rng.Gaussian(blob * 30, 1),
                                     rng.Gaussian(blob * 30, 1)}));
  }
  auto model = service.Train(
      attrs, cases,
      Params(service, {{"CLUSTER_COUNT", Value::Long(2)},
                       {"SEED", Value::Long(GetParam())}}));
  ASSERT_TRUE(model.ok());
  std::map<std::pair<int, int>, int> crosstab;
  for (size_t i = 0; i < cases.size(); ++i) {
    auto p = ScoreCase(**model, attrs, cases[i]);
    crosstab[{p->Find("$CLUSTER")->state, truth[i]}]++;
  }
  int agree = 0;
  for (int cluster = 0; cluster < 2; ++cluster) {
    agree += std::max(crosstab[{cluster, 0}], crosstab[{cluster, 1}]);
  }
  EXPECT_GE(agree, 190) << "purity too low for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringSeedSweep,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace dmx
