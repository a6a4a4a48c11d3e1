// Case scorers against the per-case prediction they replace. A prediction
// join builds one scorer per statement (TrainedModel::MakeScorer) that keeps
// the model-constant log terms in tables and fills only the demanded
// targets. Two oracles hold it to the slow path:
//
//  - Reference posteriors: the per-case Naive_Bayes and Clustering posterior
//    as the model computed it before scorers existed, transcribed below with
//    its own copies of the smoothing, the Bernoulli terms and their clamp. A
//    scorer must reproduce every probability and support bit for bit.
//  - Narrow vs full demand: for every registered service, a scorer that
//    reads only a target's best estimate must report what the top entry of a
//    scorer that ranks every candidate reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/clustering.h"
#include "algorithms/naive_bayes.h"
#include "core/case_binder.h"
#include "core/caseset_source.h"
#include "core/dmx_parser.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "service_cases.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::AddCategorical;
using testutil::AddContinuous;
using testutil::AddGroup;
using testutil::FullDemand;
using testutil::kServices;
using testutil::MakeCase;
using testutil::ServiceCase;

// ---------------------------------------------------------------------------
// The reference: per-case posteriors, recomputed from the model's counts
// ---------------------------------------------------------------------------

/// One entry of a reference histogram.
struct RefEntry {
  int state = -1;
  double probability = 0;
  double support = 0;
};

constexpr size_t kRefMaxFullBernoulli = 512;

double RefLogGaussian(double x, double mean, double variance) {
  variance = std::max(variance, 1e-6);
  double d = x - mean;
  return -0.5 * (std::log(2 * M_PI * variance) + d * d / variance);
}

void RefRank(std::vector<RefEntry>* histogram) {
  std::stable_sort(histogram->begin(), histogram->end(),
                   [](const RefEntry& a, const RefEntry& b) {
                     return a.probability > b.probability;
                   });
}

// Naive_Bayes: P(class | case) for target `stats`, every term recomputed.
std::vector<RefEntry> RefNaiveBayes(const NaiveBayesModel& model,
                                    const NaiveBayesModel::TargetStats& stats,
                                    const AttributeSet& attrs,
                                    const DataCase& input) {
  const double alpha = model.alpha();
  const Attribute& target = attrs.attributes[stats.target];
  size_t num_classes = std::max<size_t>(
      stats.class_counts.size(), static_cast<size_t>(target.cardinality()));
  std::vector<RefEntry> histogram;
  if (num_classes == 0) return histogram;
  double total = 0;
  for (double n : stats.class_counts) total += n;
  std::vector<double> log_post(num_classes, 0.0);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    double prior =
        cls < stats.class_counts.size() ? stats.class_counts[cls] : 0.0;
    log_post[cls] = std::log((prior + alpha) / (total + alpha * num_classes));
  }
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    if (!attr.is_input || static_cast<int>(a) == stats.target) continue;
    double v = input.values[a];
    if (IsMissing(v)) continue;
    if (attr.is_continuous) {
      auto it = stats.cont_stats.find(static_cast<int>(a));
      if (it == stats.cont_stats.end()) continue;
      for (size_t cls = 0; cls < num_classes; ++cls) {
        if (cls < it->second.size() && it->second[cls].weight > 0) {
          log_post[cls] += RefLogGaussian(v, it->second[cls].mean,
                                          it->second[cls].variance());
        } else {
          log_post[cls] += RefLogGaussian(v, 0, 1e6);
        }
      }
    } else {
      auto it = stats.cat_counts.find(static_cast<int>(a));
      if (it == stats.cat_counts.end()) continue;
      int state = static_cast<int>(v);
      double card = std::max(1, attr.cardinality());
      for (size_t cls = 0; cls < num_classes; ++cls) {
        double count = 0;
        double class_total = 0;
        if (cls < it->second.size()) {
          const auto& row = it->second[cls];
          if (static_cast<size_t>(state) < row.size()) count = row[state];
          for (double n : row) class_total += n;
        }
        log_post[cls] += std::log((count + alpha) / (class_total + alpha * card));
      }
    }
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    if (!group.is_input) continue;
    auto it = stats.group_counts.find(static_cast<int>(g));
    if (it == stats.group_counts.end()) continue;
    std::vector<char> present(group.keys.size(), 0);
    for (const CaseItem& item : input.groups[g]) {
      if (item.key >= 0 && static_cast<size_t>(item.key) < present.size()) {
        present[item.key] = 1;
      }
    }
    bool full = group.keys.size() <= kRefMaxFullBernoulli;
    for (size_t cls = 0; cls < num_classes; ++cls) {
      double class_n =
          cls < stats.class_counts.size() ? stats.class_counts[cls] : 0.0;
      for (size_t item = 0; item < group.keys.size(); ++item) {
        double count = 0;
        if (cls < it->second.size() && item < it->second[cls].size()) {
          count = it->second[cls][item];
        }
        double p = (count + alpha) / (class_n + 2 * alpha);
        if (present[item]) {
          log_post[cls] += std::log(p);
        } else if (full) {
          log_post[cls] += std::log1p(-std::min(p, 1 - 1e-12));
        }
      }
    }
  }
  double max_log = *std::max_element(log_post.begin(), log_post.end());
  double norm = 0;
  for (double& lp : log_post) {
    lp = std::exp(lp - max_log);
    norm += lp;
  }
  for (size_t cls = 0; cls < num_classes; ++cls) {
    double p = norm > 0 ? log_post[cls] / norm : 0;
    if (p <= 0) continue;
    histogram.push_back(
        {static_cast<int>(cls), p,
         cls < stats.class_counts.size() ? stats.class_counts[cls] : 0});
  }
  RefRank(&histogram);
  return histogram;
}

// Clustering: one cluster's log-likelihood of the case's inputs.
double RefClusterLogLikelihood(const ClusteringModel::ClusterStats& cluster,
                               const AttributeSet& attrs, const DataCase& c,
                               double alpha) {
  double ll = 0;
  for (size_t a = 0; a < attrs.attributes.size(); ++a) {
    const Attribute& attr = attrs.attributes[a];
    if (!attr.is_input) continue;
    double v = c.values[a];
    if (IsMissing(v)) continue;
    if (attr.is_continuous) {
      auto it = cluster.cont_stats.find(static_cast<int>(a));
      if (it != cluster.cont_stats.end() && it->second.weight > 0) {
        ll += RefLogGaussian(v, it->second.mean, it->second.variance());
      } else {
        ll += RefLogGaussian(v, 0, 1e6);
      }
    } else {
      double card = std::max(1, attr.cardinality());
      int state = static_cast<int>(v);
      double count = 0;
      auto it = cluster.cat_counts.find(static_cast<int>(a));
      if (it != cluster.cat_counts.end() &&
          static_cast<size_t>(state) < it->second.size()) {
        count = it->second[state];
      }
      ll += std::log((count + alpha) / (cluster.weight + alpha * card));
    }
  }
  for (size_t g = 0; g < attrs.groups.size(); ++g) {
    const NestedGroup& group = attrs.groups[g];
    if (!group.is_input) continue;
    auto it = cluster.group_counts.find(static_cast<int>(g));
    std::vector<char> present(group.keys.size(), 0);
    for (const CaseItem& item : c.groups[g]) {
      if (item.key >= 0 && static_cast<size_t>(item.key) < present.size()) {
        present[item.key] = 1;
      }
    }
    bool full = group.keys.size() <= kRefMaxFullBernoulli;
    for (size_t item = 0; item < group.keys.size(); ++item) {
      double count = 0;
      if (it != cluster.group_counts.end() && item < it->second.size()) {
        count = it->second[item];
      }
      double p = (count + alpha) / (cluster.weight + 2 * alpha);
      if (present[item]) {
        ll += std::log(p);
      } else if (full) {
        ll += std::log1p(-std::min(p, 1 - 1e-12));
      }
    }
  }
  return ll;
}

// Clustering: P(cluster | case), unranked.
std::vector<double> RefResponsibilities(const ClusteringModel& model,
                                        const AttributeSet& attrs,
                                        const DataCase& c) {
  const auto& clusters = model.clusters();
  const size_t k = clusters.size();
  std::vector<double> log_post(k);
  double total_weight = 0;
  for (const auto& cluster : clusters) total_weight += cluster.weight;
  for (size_t i = 0; i < k; ++i) {
    double prior = (clusters[i].weight + model.alpha()) /
                   (total_weight + model.alpha() * static_cast<double>(k));
    log_post[i] = std::log(prior) + RefClusterLogLikelihood(
                                        clusters[i], attrs, c, model.alpha());
  }
  double max_log = *std::max_element(log_post.begin(), log_post.end());
  double norm = 0;
  for (double& lp : log_post) {
    lp = std::exp(lp - max_log);
    norm += lp;
  }
  if (norm > 0) {
    for (double& lp : log_post) lp /= norm;
  }
  return log_post;
}

// Clustering: the mixture posterior of discrete PREDICT attribute `target`.
std::vector<RefEntry> RefClusterTarget(const ClusteringModel& model,
                                       const AttributeSet& attrs, int target,
                                       const std::vector<double>& resp) {
  const auto& clusters = model.clusters();
  const double alpha = model.alpha();
  int card = std::max(1, attrs.attributes[target].cardinality());
  std::vector<double> probs(card, 0.0);
  std::vector<double> supports(card, 0.0);
  for (size_t i = 0; i < clusters.size(); ++i) {
    auto it = clusters[i].cat_counts.find(target);
    for (int state = 0; state < card; ++state) {
      double count = 0;
      if (it != clusters[i].cat_counts.end() &&
          static_cast<size_t>(state) < it->second.size()) {
        count = it->second[state];
      }
      probs[state] +=
          resp[i] * (count + alpha) / (clusters[i].weight + alpha * card);
      supports[state] += resp[i] * count;
    }
  }
  std::vector<RefEntry> histogram;
  for (int state = 0; state < card; ++state) {
    if (probs[state] <= 0) continue;
    histogram.push_back({state, probs[state], supports[state]});
  }
  RefRank(&histogram);
  return histogram;
}

// Clustering: the ranked cluster membership.
std::vector<RefEntry> RefMembership(const ClusteringModel& model,
                                    const std::vector<double>& resp) {
  std::vector<RefEntry> histogram;
  for (size_t c = 0; c < resp.size(); ++c) {
    histogram.push_back(
        {static_cast<int>(c), resp[c], model.clusters()[c].weight});
  }
  RefRank(&histogram);
  return histogram;
}

// ---------------------------------------------------------------------------
// Scoring through the scorer
// ---------------------------------------------------------------------------

// A scorer for `demand` and one prediction buffer to score into.
struct Scoring {
  PredictionDemand demand;
  std::unique_ptr<CaseScorer> scorer;
  std::vector<TargetPrediction> slots;

  static Scoring Make(const TrainedModel& model, const AttributeSet& attrs,
                      PredictionDemand demand) {
    Scoring s;
    s.demand = std::move(demand);
    auto scorer = model.MakeScorer(attrs, s.demand);
    EXPECT_TRUE(scorer.ok()) << scorer.status().ToString();
    if (scorer.ok()) s.scorer = std::move(*scorer);
    s.slots.resize(s.demand.targets.size());
    return s;
  }

  // Scores `input`; returns the prediction of `target` (nullptr when the
  // model does not predict it).
  const TargetPrediction* Score(const DataCase& input,
                                PredictionTarget target) {
    Status status = scorer->Score(input, slots);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return Find(target);
  }

  // The last scored case's prediction of `target`.
  const TargetPrediction* Find(PredictionTarget target) const {
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (demand.targets[slot].target == target) {
        return slots[slot].predicted ? &slots[slot] : nullptr;
      }
    }
    return nullptr;
  }
};

PredictionDemand Narrow(PredictionTarget target) {
  PredictionDemand demand;
  demand.Require(target, /*histogram=*/false);
  return demand;
}

// `full`'s histogram equals the reference's entry for entry, and both
// predictions' best estimates are the reference's top entry.
void ExpectMatchesReference(const std::vector<RefEntry>& ref,
                            const TargetPrediction& full,
                            const TargetPrediction& narrow,
                            const std::string& where) {
  ASSERT_EQ(full.histogram.size(), ref.size()) << where;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(full.histogram[i].state, ref[i].state) << where << " entry " << i;
    EXPECT_EQ(full.histogram[i].probability, ref[i].probability)
        << where << " entry " << i;
    EXPECT_EQ(full.histogram[i].support, ref[i].support)
        << where << " entry " << i;
  }
  for (const TargetPrediction* p : {&full, &narrow}) {
    if (ref.empty()) {
      EXPECT_EQ(p->state, -1) << where;
      continue;
    }
    EXPECT_EQ(p->state, ref[0].state) << where;
    EXPECT_EQ(p->probability, ref[0].probability) << where;
    EXPECT_EQ(p->support, ref[0].support) << where;
  }
  EXPECT_TRUE(narrow.histogram.empty()) << where;
}

// The cases PREDICTION JOIN `query` scores, bound to `model`'s attributes.
Result<std::vector<DataCase>> BoundCases(const Provider& provider,
                                         const MiningModel& model,
                                         const std::string& query) {
  DMX_ASSIGN_OR_RETURN(DmxParseResult parsed, ParseDmx(query));
  const auto* stmt = parsed.statement.has_value()
                         ? std::get_if<PredictionJoinStatement>(&*parsed.statement)
                         : nullptr;
  if (stmt == nullptr) return InvalidArgument() << "not a prediction join";
  DMX_ASSIGN_OR_RETURN(Rowset source,
                       MaterializeCasesetSource(*provider.database(),
                                                stmt->source));
  DMX_ASSIGN_OR_RETURN(
      CaseBinder binder,
      CaseBinder::CreateForPrediction(model.definition(), *source.schema(),
                                      stmt->source_alias,
                                      stmt->natural ? nullptr : &stmt->on));
  std::vector<DataCase> cases;
  for (const Row& row : source.rows()) {
    DMX_ASSIGN_OR_RETURN(DataCase c, binder.BindCase(row, model.attributes()));
    cases.push_back(std::move(c));
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Reference oracle: batch_score's model shape on the datagen warehouse
// ---------------------------------------------------------------------------

constexpr int kTrainCustomers = 500;
constexpr int kTestCustomers = 500;

std::string AgeModel(const std::string& name, const std::string& service) {
  return "CREATE MINING MODEL [" + name +
         "] ([Customer ID] LONG KEY, [Gender] TEXT DISCRETE, "
         "[Income] DOUBLE CONTINUOUS, "
         "[Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT, "
         "[Product Purchases] TABLE([Product Name] TEXT KEY, "
         "[Product Type] TEXT DISCRETE RELATED TO [Product Name])) USING " +
         service;
}

std::string AgeShape(const std::string& prefix, const std::string& master) {
  return "SHAPE {SELECT " + master + " FROM " + prefix +
         "Customers ORDER BY [Customer ID]} APPEND ({SELECT [CustID], "
         "[Product Name], [Product Type] FROM " + prefix +
         "Sales ORDER BY [CustID]} RELATE [Customer ID] TO [CustID]) AS "
         "[Product Purchases]";
}

// Trains the [Age] models on a warehouse of datagen seed GetParam() and
// scores a test warehouse of the next seed.
class ReferenceOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    datagen::WarehouseConfig train;
    train.num_customers = kTrainCustomers;
    train.seed = GetParam();
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), train).ok());
    datagen::WarehouseConfig test;
    test.num_customers = kTestCustomers;
    test.seed = GetParam() + 1;
    test.first_customer_id = 10'000'000;
    test.customers_table = "TestCustomers";
    test.sales_table = "TestSales";
    test.cars_table = "TestCars";
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), test).ok());
  }

  // Creates and trains [name] USING `service`; returns the model and the
  // bound test cases.
  const MiningModel* Train(const std::string& name, const std::string& service,
                           std::vector<DataCase>* cases) {
    auto conn = provider_.Connect();
    EXPECT_TRUE(conn->Execute(AgeModel(name, service)).ok());
    auto trained = conn->Execute(
        "INSERT INTO [" + name +
        "] ([Customer ID], [Gender], [Income], [Age], [Product "
        "Purchases]([Product Name], [Product Type])) " +
        AgeShape("", "[Customer ID], [Gender], [Income], [Age]"));
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    auto model = provider_.models()->GetModel(name);
    EXPECT_TRUE(model.ok());
    if (!model.ok()) return nullptr;
    auto bound = BoundCases(
        provider_, **model,
        "SELECT Predict([Age]) FROM [" + name + "] NATURAL PREDICTION JOIN (" +
            AgeShape("Test", "[Customer ID], [Gender], [Income]") +
            ") AS t");
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (bound.ok()) *cases = std::move(*bound);
    EXPECT_EQ(cases->size(), static_cast<size_t>(kTestCustomers));
    return *model;
  }

  Provider provider_;
};

TEST_P(ReferenceOracleTest, NaiveBayesScorerEqualsPerCasePosterior) {
  std::vector<DataCase> cases;
  const MiningModel* model = Train("Age NB", "Naive_Bayes", &cases);
  ASSERT_NE(model, nullptr);
  const auto& nb = dynamic_cast<const NaiveBayesModel&>(*model->trained());
  const AttributeSet& attrs = model->attributes();
  const PredictionTarget age{PredictionTarget::Kind::kAttribute,
                             attrs.FindAttribute("Age")};
  Scoring full = Scoring::Make(nb, attrs, FullDemand(attrs));
  Scoring narrow = Scoring::Make(nb, attrs, Narrow(age));
  ASSERT_EQ(nb.targets().size(), 1u);
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<RefEntry> ref =
        RefNaiveBayes(nb, nb.targets()[0], attrs, cases[i]);
    const TargetPrediction* f = full.Score(cases[i], age);
    const TargetPrediction* n = narrow.Score(cases[i], age);
    ASSERT_NE(f, nullptr);
    ASSERT_NE(n, nullptr);
    ExpectMatchesReference(ref, *f, *n, "case " + std::to_string(i));
  }
}

TEST_P(ReferenceOracleTest, ClusteringScorerEqualsPerCasePosterior) {
  std::vector<DataCase> cases;
  const MiningModel* model =
      Train("Age CL", "Clustering(CLUSTER_COUNT = 4, SEED = 3)", &cases);
  ASSERT_NE(model, nullptr);
  const auto& cl = dynamic_cast<const ClusteringModel&>(*model->trained());
  const AttributeSet& attrs = model->attributes();
  const PredictionTarget age{PredictionTarget::Kind::kAttribute,
                             attrs.FindAttribute("Age")};
  const PredictionTarget cluster{PredictionTarget::Kind::kCluster, -1};
  Scoring full = Scoring::Make(cl, attrs, FullDemand(attrs));
  Scoring narrow_age = Scoring::Make(cl, attrs, Narrow(age));
  Scoring narrow_cluster = Scoring::Make(cl, attrs, Narrow(cluster));
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string where = "case " + std::to_string(i);
    std::vector<double> resp = RefResponsibilities(cl, attrs, cases[i]);
    const TargetPrediction* f = full.Score(cases[i], age);
    const TargetPrediction* n_age = narrow_age.Score(cases[i], age);
    const TargetPrediction* n_cluster = narrow_cluster.Score(cases[i], cluster);
    ASSERT_NE(f, nullptr);
    ASSERT_NE(n_age, nullptr);
    ASSERT_NE(n_cluster, nullptr);
    ASSERT_NE(full.Find(cluster), nullptr);
    ExpectMatchesReference(RefClusterTarget(cl, attrs, age.index, resp), *f,
                           *n_age, where);
    ExpectMatchesReference(RefMembership(cl, resp), *full.Find(cluster),
                           *n_cluster, where + " membership");
  }
}

INSTANTIATE_TEST_SUITE_P(DatagenSeeds, ReferenceOracleTest,
                         ::testing::Values(2, 3));

// The absent-item term clamps p below 1: an item every training case of a
// class held would otherwise score log(0) for every case without it. With
// a vanishing ALPHA the clamp decides the posterior.
TEST(AbsentItemClampTest, ScorersMatchReference) {
  AttributeSet attrs;
  AddGroup(&attrs, "Basket", {"bread", "jam", "tea"});
  AddCategorical(&attrs, "Label", {"A", "B"}, /*is_output=*/true);
  std::vector<DataCase> cases;
  for (int i = 0; i < 30; ++i) {
    std::vector<int> items = {0};  // Every case holds bread.
    if (i % 3 == 0) items.push_back(1);
    if (i % 5 == 0) items.push_back(2);
    cases.push_back(MakeCase(attrs, {static_cast<double>(i % 4 == 0)},
                             {items}));
  }
  NaiveBayesService nb_service;
  auto nb = nb_service.Train(
      attrs, cases, *nb_service.ResolveParams({{"ALPHA", Value::Double(1e-15)}}));
  ASSERT_TRUE(nb.ok()) << nb.status().ToString();
  ClusteringService cl_service;
  auto cl = cl_service.Train(
      attrs, cases,
      *cl_service.ResolveParams({{"ALPHA", Value::Double(1e-15)},
                                 {"CLUSTER_COUNT", Value::Long(2)}}));
  ASSERT_TRUE(cl.ok()) << cl.status().ToString();
  const PredictionTarget label{PredictionTarget::Kind::kAttribute, 0};
  const PredictionTarget cluster{PredictionTarget::Kind::kCluster, -1};
  const auto& nb_model = dynamic_cast<const NaiveBayesModel&>(**nb);
  const auto& cl_model = dynamic_cast<const ClusteringModel&>(**cl);
  Scoring nb_full = Scoring::Make(nb_model, attrs, FullDemand(attrs));
  Scoring nb_narrow = Scoring::Make(nb_model, attrs, Narrow(label));
  Scoring cl_full = Scoring::Make(cl_model, attrs, FullDemand(attrs));
  Scoring cl_narrow = Scoring::Make(cl_model, attrs, Narrow(cluster));
  for (const std::vector<int>& basket :
       std::vector<std::vector<int>>{{}, {1}, {2}, {1, 2}, {0, 1}}) {
    DataCase probe = MakeCase(attrs, {kMissing}, {basket});
    const std::string where = "basket of " + std::to_string(basket.size());
    const TargetPrediction* nb_f = nb_full.Score(probe, label);
    const TargetPrediction* nb_n = nb_narrow.Score(probe, label);
    ASSERT_NE(nb_f, nullptr);
    ASSERT_NE(nb_n, nullptr);
    ExpectMatchesReference(
        RefNaiveBayes(nb_model, nb_model.targets()[0], attrs, probe), *nb_f,
        *nb_n, where);
    const TargetPrediction* cl_f = cl_full.Score(probe, cluster);
    const TargetPrediction* cl_n = cl_narrow.Score(probe, cluster);
    ASSERT_NE(cl_f, nullptr);
    ASSERT_NE(cl_n, nullptr);
    ExpectMatchesReference(
        RefMembership(cl_model, RefResponsibilities(cl_model, attrs, probe)),
        *cl_f, *cl_n, where + " membership");
  }
}

// A class or cluster without moments for a continuous input scores it with
// the vague Gaussian; a fitted one with a zero variance scores it with the
// clamped variance. Both must match the reference bit for bit.
TEST(VagueGaussianTest, ScorersMatchReference) {
  AttributeSet attrs;
  const int label =
      AddCategorical(&attrs, "Label", {"A", "B", "C"}, /*is_output=*/true);
  const int weight = AddContinuous(&attrs, "Weight");
  // Only class B cases carry a Weight, all of it 70: class A has moments of
  // no weight, class C (never seen) none at all, class B a zero variance.
  NaiveBayesModel nb({label}, /*alpha=*/1.0);
  for (int i = 0; i < 12; ++i) {
    const bool b = i % 3 == 0;
    ASSERT_TRUE(
        nb.ConsumeCase(attrs, MakeCase(attrs, {b ? 1.0 : 0.0, b ? 70 : kMissing}))
            .ok());
  }
  ASSERT_EQ(nb.targets().size(), 1u);
  const auto& moments = nb.targets()[0].cont_stats.at(weight);
  ASSERT_EQ(moments.size(), 2u);
  ASSERT_EQ(moments[0].weight, 0);
  // Cluster 1 has moments, cluster 2 moments of no weight, cluster 3 none.
  std::vector<ClusteringModel::ClusterStats> clusters(3);
  clusters[0].weight = 5;
  clusters[0].cont_stats[weight] = {5, 60, 40};
  clusters[0].cat_counts[label] = {3, 1, 1};
  clusters[1].weight = 4;
  clusters[1].cont_stats[weight] = {0, 0, 0};
  clusters[1].cat_counts[label] = {0, 4};
  clusters[2].weight = 3;
  clusters[2].cat_counts[label] = {1, 0, 2};
  ClusteringModel cl(std::move(clusters), 12, /*alpha=*/1.0);

  const PredictionTarget target{PredictionTarget::Kind::kAttribute, label};
  const PredictionTarget cluster{PredictionTarget::Kind::kCluster, -1};
  Scoring nb_full = Scoring::Make(nb, attrs, FullDemand(attrs));
  Scoring nb_narrow = Scoring::Make(nb, attrs, Narrow(target));
  Scoring cl_full = Scoring::Make(cl, attrs, FullDemand(attrs));
  Scoring cl_narrow = Scoring::Make(cl, attrs, Narrow(target));
  Scoring cl_membership = Scoring::Make(cl, attrs, Narrow(cluster));
  for (double w : {0.0, 58.5, 70.0, 1e4, -5.0}) {
    DataCase probe = MakeCase(attrs, {kMissing, w});
    const std::string where = "weight " + std::to_string(w);
    const TargetPrediction* nb_f = nb_full.Score(probe, target);
    const TargetPrediction* nb_n = nb_narrow.Score(probe, target);
    ASSERT_NE(nb_f, nullptr);
    ASSERT_NE(nb_n, nullptr);
    ExpectMatchesReference(RefNaiveBayes(nb, nb.targets()[0], attrs, probe),
                           *nb_f, *nb_n, where);
    std::vector<double> resp = RefResponsibilities(cl, attrs, probe);
    const TargetPrediction* cl_f = cl_full.Score(probe, target);
    const TargetPrediction* cl_n = cl_narrow.Score(probe, target);
    const TargetPrediction* cl_m = cl_membership.Score(probe, cluster);
    ASSERT_NE(cl_f, nullptr);
    ASSERT_NE(cl_n, nullptr);
    ASSERT_NE(cl_m, nullptr);
    ASSERT_NE(cl_full.Find(cluster), nullptr);
    ExpectMatchesReference(RefClusterTarget(cl, attrs, label, resp), *cl_f,
                           *cl_n, where);
    ExpectMatchesReference(RefMembership(cl, resp), *cl_full.Find(cluster),
                           *cl_m, where + " membership");
  }
}

// ---------------------------------------------------------------------------
// Narrow vs full demand, for every registered service
// ---------------------------------------------------------------------------

class NarrowDemandTest : public ::testing::TestWithParam<int> {};

TEST_P(NarrowDemandTest, BestEstimateIsTheTopRankedEntry) {
  const ServiceCase& sc = kServices[GetParam()];
  Provider provider;
  datagen::WarehouseConfig config;
  config.num_customers = 120;
  ASSERT_TRUE(datagen::PopulateWarehouse(provider.database(), config).ok());
  auto conn = provider.Connect();
  ASSERT_TRUE(conn->Execute(sc.create).ok());
  ASSERT_TRUE(conn->Execute(sc.insert).ok());
  auto model = provider.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  const AttributeSet& attrs = (*model)->attributes();
  const TrainedModel& trained = *(*model)->trained();
  auto cases = BoundCases(provider, **model, sc.query);
  ASSERT_TRUE(cases.ok()) << cases.status().ToString();
  ASSERT_FALSE(cases->empty());

  Scoring full = Scoring::Make(trained, attrs, FullDemand(attrs));
  int compared = 0;
  for (size_t slot = 0; slot < full.demand.targets.size(); ++slot) {
    const PredictionTarget target = full.demand.targets[slot].target;
    Scoring narrow = Scoring::Make(trained, attrs, Narrow(target));
    for (size_t i = 0; i < cases->size(); ++i) {
      const std::string where = std::string(sc.name) + " slot " +
                                std::to_string(slot) + " case " +
                                std::to_string(i);
      const TargetPrediction* f = full.Score((*cases)[i], target);
      const TargetPrediction* n = narrow.Score((*cases)[i], target);
      ASSERT_EQ(f == nullptr, n == nullptr) << where;
      if (f == nullptr) continue;
      ++compared;
      EXPECT_TRUE(n->histogram.empty()) << where;
      // Predict.
      EXPECT_TRUE(PredictedValue(attrs, target, *n)
                      .Equals(PredictedValue(attrs, target, *f)))
          << where;
      if (f->histogram.empty()) {
        EXPECT_EQ(n->state, -1) << where;
        continue;
      }
      const ScoredState& top = f->histogram[0];
      EXPECT_TRUE(PredictedValue(attrs, target, *n)
                      .Equals(EntryValue(attrs, target, *f, top)))
          << where;
      // PredictProbability.
      EXPECT_EQ(n->probability, top.probability) << where;
      // PredictSupport: the top entry's, except that a decision tree
      // reports its leaf's support for every candidate of the leaf.
      EXPECT_EQ(n->support, f->support) << where;
      if (std::string(sc.name).rfind("Decision_Trees", 0) != 0) {
        EXPECT_EQ(n->support, top.support) << where;
      }
      EXPECT_EQ(n->variance, f->variance) << where;
    }
  }
  EXPECT_GT(compared, 0) << sc.name << " predicted nothing";
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, NarrowDemandTest,
    ::testing::Range(0, static_cast<int>(std::size(kServices))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kServices[info.param].name);
    });

}  // namespace
}  // namespace dmx
