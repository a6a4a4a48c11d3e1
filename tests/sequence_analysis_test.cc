// Sequence-analysis service: SEQUENCE_TIME ordering, Markov transition
// recovery, next-item prediction, incremental behaviour, and the end-to-end
// DMX path over the warehouse's planted purchase orders.

#include "algorithms/sequence_analysis.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "test_util.h"

namespace dmx {
namespace {

using testutil::MakeCase;
using testutil::ScoreCase;
using testutil::ScoredTarget;

ParamMap Params(const MiningService& service) {
  return *service.ResolveParams({});
}

// A group with a sequence-time value column.
AttributeSet SequenceAttrs(const std::vector<std::string>& items) {
  AttributeSet attrs;
  NestedGroup group;
  group.name = "Events";
  group.is_input = true;
  group.is_output = true;
  for (const std::string& item : items) group.InternKey(Value::Text(item));
  group.value_names = {"When"};
  group.sequence_time_value = 0;
  attrs.groups.push_back(std::move(group));
  return attrs;
}

DataCase SequenceCase(const AttributeSet& attrs,
                      std::vector<std::pair<int, double>> events) {
  DataCase c;
  c.values.resize(attrs.attributes.size(), kMissing);
  c.groups.resize(attrs.groups.size());
  for (auto [key, when] : events) {
    CaseItem item;
    item.key = key;
    item.values = {when};
    c.groups[0].push_back(std::move(item));
  }
  return c;
}

TEST(SequenceAnalysisTest, OrderedItemsSortsBySequenceTime) {
  AttributeSet attrs = SequenceAttrs({"a", "b", "c"});
  DataCase c = SequenceCase(attrs, {{2, 30}, {0, 10}, {1, 20}});
  auto ordered = MarkovSequenceModel::OrderedItems(attrs.groups[0],
                                                   c.groups[0]);
  EXPECT_EQ(ordered, (std::vector<int>{0, 1, 2}));
  // Missing times sort last, stably.
  DataCase mixed = SequenceCase(attrs, {{2, kMissing}, {1, 5}, {0, kMissing}});
  ordered = MarkovSequenceModel::OrderedItems(attrs.groups[0], mixed.groups[0]);
  EXPECT_EQ(ordered, (std::vector<int>{1, 2, 0}));
}

TEST(SequenceAnalysisTest, RecoversPlantedTransitions) {
  AttributeSet attrs = SequenceAttrs({"tv", "vcr", "beer", "ham"});
  SequenceAnalysisService service;
  Rng rng(1);
  std::vector<DataCase> cases;
  for (int i = 0; i < 400; ++i) {
    // tv -> vcr with 0.9; beer -> ham with 0.8; independent noise otherwise.
    std::vector<std::pair<int, double>> events;
    double t = 1;
    if (rng.Chance(0.5)) {
      events.push_back({0, t++});
      if (rng.Chance(0.9)) events.push_back({1, t++});
    } else {
      events.push_back({2, t++});
      if (rng.Chance(0.8)) events.push_back({3, t++});
    }
    cases.push_back(SequenceCase(attrs, std::move(events)));
  }
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  auto after_tv = ScoreCase(**model, attrs, SequenceCase(attrs, {{0, 1}}));
  ASSERT_TRUE(after_tv.ok());
  const ScoredTarget* p = after_tv->Find("Events");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->predicted.Equals(Value::Text("vcr")));
  EXPECT_GT(p->probability, 0.7);

  auto after_beer = ScoreCase(**model, attrs, SequenceCase(attrs, {{2, 1}}));
  EXPECT_TRUE(after_beer->Find("Events")->predicted.Equals(Value::Text("ham")));

  // Empty history predicts from the initial distribution (tv and beer only).
  auto empty = ScoreCase(**model, attrs, SequenceCase(attrs, {}));
  const Value& first = empty->Find("Events")->predicted;
  EXPECT_TRUE(first.Equals(Value::Text("tv")) ||
              first.Equals(Value::Text("beer")));
}

TEST(SequenceAnalysisTest, OnlyTheLastItemMatters) {
  AttributeSet attrs = SequenceAttrs({"a", "b", "c"});
  SequenceAnalysisService service;
  std::vector<DataCase> cases;
  for (int i = 0; i < 50; ++i) {
    cases.push_back(SequenceCase(attrs, {{0, 1}, {1, 2}, {2, 3}}));  // a,b,c
  }
  auto model = service.Train(attrs, cases, Params(service));
  ASSERT_TRUE(model.ok());
  // History ending in b predicts c regardless of prefix.
  auto p1 = ScoreCase(**model, attrs, SequenceCase(attrs, {{1, 9}}));
  auto p2 = ScoreCase(**model, attrs, SequenceCase(attrs, {{0, 1}, {1, 2}}));
  EXPECT_TRUE(p1->Find("Events")->predicted.Equals(Value::Text("c")));
  EXPECT_DOUBLE_EQ(p1->Find("Events")->probability,
                   p2->Find("Events")->probability);
}

TEST(SequenceAnalysisTest, IncrementalConsumptionAndContent) {
  AttributeSet attrs = SequenceAttrs({"a", "b"});
  SequenceAnalysisService service;
  EXPECT_TRUE(service.capabilities().supports_incremental);
  EXPECT_TRUE(service.capabilities().supports_sequence_analysis);
  auto model = service.CreateEmpty(attrs, Params(service));
  ASSERT_TRUE(model.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*model)->ConsumeCase(attrs, SequenceCase(attrs, {{0, 1}, {1, 2}}))
            .ok());
  }
  EXPECT_DOUBLE_EQ((*model)->case_count(), 10);
  auto content = (*model)->BuildContent(attrs);
  ASSERT_TRUE(content.ok());
  ASSERT_EQ((*content)->children.size(), 1u);
  const ContentNode& chain = *(*content)->children[0];
  ASSERT_EQ(chain.children.size(), 1u);  // one observed transition
  EXPECT_EQ(chain.children[0]->caption, "a then b");
  EXPECT_DOUBLE_EQ(chain.children[0]->probability, 1.0);
  EXPECT_DOUBLE_EQ(chain.children[0]->support, 10.0);
}

TEST(SequenceAnalysisTest, BindingValidation) {
  SequenceAnalysisService service;
  // No groups at all.
  AttributeSet empty;
  EXPECT_FALSE(service.ValidateBinding(empty).ok());
  // Group without a sequence-time column.
  AttributeSet no_time;
  NestedGroup group;
  group.name = "G";
  group.is_output = true;
  no_time.groups.push_back(group);
  EXPECT_FALSE(service.ValidateBinding(no_time).ok());
  // Input-only sequence group is not a target.
  AttributeSet input_only = SequenceAttrs({"a"});
  input_only.groups[0].is_output = false;
  EXPECT_FALSE(service.ValidateBinding(input_only).ok());
}

TEST(SequenceAnalysisTest, EndToEndOverTheWarehouse) {
  Provider provider;
  datagen::WarehouseConfig config;
  config.num_customers = 1500;
  ASSERT_TRUE(datagen::PopulateWarehouse(provider.database(), config).ok());
  auto conn = provider.Connect();
  auto create = conn->Execute(R"(
    CREATE MINING MODEL [Next Purchase] (
      [Customer ID] LONG KEY,
      [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Purchase Time] DOUBLE SEQUENCE_TIME
      ) PREDICT
    ) USING Sequence_Analysis)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  auto insert = conn->Execute(R"(
    INSERT INTO [Next Purchase]
    SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Product Name], [Purchase Time] FROM Sales
             ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();

  // A shopper whose last purchase is a TV should be steered to the VCR
  // (the generator inserts bundle consequents right after antecedents).
  auto prediction = conn->Execute(R"(
    SELECT Predict([Product Purchases], 3) AS [Next]
    FROM [Next Purchase]
    NATURAL PREDICTION JOIN
      (SELECT 1 AS [Customer ID],
              (SELECT 'TV' AS [Product Name], 1 AS [Purchase Time]) AS
                [Product Purchases]) AS t)");
  // Singleton nested-table sources are not supported; use a real table.
  if (!prediction.ok()) {
    ASSERT_TRUE(conn->Execute("CREATE TABLE P (Id LONG)").ok());
    ASSERT_TRUE(conn->Execute("INSERT INTO P VALUES (1)").ok());
    ASSERT_TRUE(
        conn->Execute("CREATE TABLE PB (Id LONG, Product TEXT, T LONG)").ok());
    ASSERT_TRUE(conn->Execute("INSERT INTO PB VALUES (1, 'TV', 1)").ok());
    prediction = conn->Execute(R"(
      SELECT Predict([Product Purchases], 3) AS [Next]
      FROM [Next Purchase]
      PREDICTION JOIN
        (SHAPE {SELECT [Id] FROM P ORDER BY [Id]}
         APPEND ({SELECT [Id] AS [BId], [Product], [T] FROM PB
                  ORDER BY [BId]}
                 RELATE [Id] TO [BId]) AS [Basket]) AS t
      ON [Next Purchase].[Product Purchases].[Product Name] =
           t.[Basket].[Product] AND
         [Next Purchase].[Product Purchases].[Purchase Time] =
           t.[Basket].[T])");
  }
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_EQ(prediction->num_rows(), 1u);
  const NestedTable& next = *prediction->at(0, 0).table_value();
  ASSERT_GT(next.num_rows(), 0u);
  EXPECT_TRUE(next.rows()[0][0].Equals(Value::Text("VCR")))
      << next.rows()[0][0].ToString();
}

}  // namespace
}  // namespace dmx
