// PMML persistence: for EVERY built-in service, train -> serialize -> load
// must reproduce identical predictions, content and case counts; incremental
// services must keep refreshing after a reload. Parameterized over services
// and seeds.

#include "pmml/pmml.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

constexpr const char* kInsert = R"(
  INSERT INTO [P]
  SHAPE {SELECT [Customer ID], [Gender], [Age], [Income], [Customer Loyalty]
         FROM Customers ORDER BY [Customer ID]}
  APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
           ORDER BY [CustID]}
          RELATE [Customer ID] TO [CustID]) AS [Product Purchases])";

constexpr const char* kQueryScalar = R"(
  SELECT t.[Customer ID], Predict([Age]) AS P0,
         PredictProbability([Age]) AS P1, PredictSupport([Age]) AS P2
  FROM [P]
  NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID], [Gender], [Income], [Customer Loyalty]
            FROM Customers ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
              ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

constexpr const char* kQueryLoyalty = R"(
  SELECT t.[Customer ID], Predict([Customer Loyalty]) AS P0,
         PredictProbability([Customer Loyalty]) AS P1
  FROM [P]
  NATURAL PREDICTION JOIN
    (SELECT [Customer ID], [Age], [Income] FROM Customers) AS t)";

constexpr const char* kQueryBasket = R"(
  SELECT FLATTENED t.[Customer ID], Predict([Product Purchases], 5) AS R
  FROM [P]
  NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

// Sequence models need the purchase timestamps in both training and
// prediction casesets.
constexpr const char* kInsertSequence = R"(
  INSERT INTO [P]
  SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
  APPEND ({SELECT [CustID], [Product Name], [Purchase Time] FROM Sales
           ORDER BY [CustID]}
          RELATE [Customer ID] TO [CustID]) AS [Product Purchases])";

constexpr const char* kQuerySequence = R"(
  SELECT FLATTENED t.[Customer ID], Predict([Product Purchases], 3) AS R
  FROM [P]
  NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
     APPEND ({SELECT [CustID], [Product Name], [Purchase Time] FROM Sales
              ORDER BY [CustID]}
             RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

struct ServiceCase {
  const char* service;
  const char* create;
  const char* insert;  ///< nullptr: the shared kInsert.
  const char* query;   ///< nullptr: kQueryScalar.
};

// Per-service model definitions over the shared warehouse schema. Every
// service the registry exposes must appear here (enforced below).
constexpr ServiceCase kServices[] = {
    {"Decision_Trees", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Gender] TEXT DISCRETE,
         [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
         [Product Purchases] TABLE(
           [Product Name] TEXT KEY,
           [Product Type] TEXT DISCRETE RELATED TO [Product Name])
       ) USING Decision_Trees(MINIMUM_SUPPORT = 15.0))",
     nullptr, nullptr},
    {"Naive_Bayes", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Gender] TEXT DISCRETE,
         [Age] DOUBLE DISCRETIZED(EQUAL_RANGES, 5) PREDICT,
         [Product Purchases] TABLE(
           [Product Name] TEXT KEY,
           [Product Type] TEXT DISCRETE RELATED TO [Product Name])
       ) USING Naive_Bayes)",
     nullptr, nullptr},
    {"Clustering", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Age] DOUBLE CONTINUOUS,
         [Income] DOUBLE CONTINUOUS,
         [Customer Loyalty] LONG DISCRETE PREDICT
       ) USING Clustering(CLUSTER_COUNT = 3, SEED = 11))",
     nullptr, kQueryLoyalty},
    {"Association_Rules", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
       ) USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                                 MINIMUM_PROBABILITY = 0.3))",
     nullptr, kQueryBasket},
    {"Linear_Regression", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Gender] TEXT DISCRETE,
         [Customer Loyalty] LONG ORDERED,
         [Income] DOUBLE CONTINUOUS,
         [Age] DOUBLE CONTINUOUS PREDICT
       ) USING Linear_Regression)",
     nullptr, nullptr},
    {"Sequence_Analysis", R"(
       CREATE MINING MODEL [P] (
         [Customer ID] LONG KEY,
         [Product Purchases] TABLE(
           [Product Name] TEXT KEY,
           [Purchase Time] DOUBLE SEQUENCE_TIME) PREDICT
       ) USING Sequence_Analysis)",
     kInsertSequence, kQuerySequence},
};

class PmmlRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PmmlRoundTrip, PredictionsSurviveSaveAndLoad) {
  auto [service_index, seed] = GetParam();
  const ServiceCase& sc = kServices[service_index];

  Provider original;
  datagen::WarehouseConfig config;
  config.num_customers = 250;
  config.seed = seed;
  ASSERT_TRUE(datagen::PopulateWarehouse(original.database(), config).ok());
  auto conn = original.Connect();
  ASSERT_TRUE(conn->Execute(sc.create).ok());
  auto insert = conn->Execute(sc.insert != nullptr ? sc.insert : kInsert);
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();

  const char* query = sc.query != nullptr ? sc.query : kQueryScalar;
  auto before = conn->Execute(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Serialize and reload into a second provider with the same warehouse.
  auto model = original.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  auto document = SerializeModel(**model);
  ASSERT_TRUE(document.ok()) << document.status().ToString();

  Provider reloaded;
  ASSERT_TRUE(
      datagen::PopulateWarehouse(reloaded.database(), config).ok());
  auto loaded = DeserializeModel(*document, *reloaded.services());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ((*loaded)->case_count(), (*model)->case_count());
  ASSERT_TRUE(reloaded.models()->AdoptModel(std::move(*loaded)).ok());

  auto conn2 = reloaded.Connect();
  auto after = conn2->Execute(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  ASSERT_EQ(before->num_rows(), after->num_rows());
  ASSERT_EQ(before->num_columns(), after->num_columns());
  for (size_t r = 0; r < before->num_rows(); ++r) {
    for (size_t c = 0; c < before->num_columns(); ++c) {
      EXPECT_TRUE(before->at(r, c).Equals(after->at(r, c)))
          << sc.service << " row " << r << " col " << c << ": "
          << before->at(r, c).ToString() << " vs "
          << after->at(r, c).ToString();
    }
  }

  // Content survives too (same node count and captions).
  auto content_before = conn->Execute("SELECT * FROM [P].CONTENT");
  auto content_after = conn2->Execute("SELECT * FROM [P].CONTENT");
  ASSERT_TRUE(content_before.ok());
  ASSERT_TRUE(content_after.ok());
  ASSERT_EQ(content_before->num_rows(), content_after->num_rows());
  for (size_t r = 0; r < content_before->num_rows(); ++r) {
    EXPECT_TRUE(content_before->at(r, 4).Equals(content_after->at(r, 4)));
    EXPECT_TRUE(content_before->at(r, 7).Equals(content_after->at(r, 7)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServicesAndSeeds, PmmlRoundTrip,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(42u, 77u)));

// The round-trip table above must not silently fall behind the registry:
// every service ListServices reports needs a ServiceCase entry.
TEST(PmmlTest, RoundTripCoversEveryRegisteredService) {
  Provider provider;
  for (const std::string& name : provider.services()->ListServices()) {
    bool covered = false;
    for (const ServiceCase& sc : kServices) {
      if (name == sc.service) covered = true;
    }
    EXPECT_TRUE(covered) << "service '" << name
                         << "' has no PMML round-trip case";
  }
}

TEST(PmmlTest, FileRoundTripAndRefreshAfterLoad) {
  Provider original;
  datagen::WarehouseConfig config;
  config.num_customers = 150;
  ASSERT_TRUE(datagen::PopulateWarehouse(original.database(), config).ok());
  auto conn = original.Connect();
  ASSERT_TRUE(conn->Execute(kServices[1].create).ok());  // Naive_Bayes
  ASSERT_TRUE(conn->Execute(kInsert).ok());

  std::string path = ::testing::TempDir() + "/pmml_roundtrip.xml";
  auto model = original.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveModelToFile(**model, path).ok());

  Provider reloaded;
  datagen::WarehouseConfig fresh = config;
  fresh.seed = 123;
  ASSERT_TRUE(datagen::PopulateWarehouse(reloaded.database(), fresh).ok());
  auto loaded = LoadModelFromFile(path, *reloaded.services());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(reloaded.models()->AdoptModel(std::move(*loaded)).ok());
  // Incremental refresh continues from the restored counts.
  auto conn2 = reloaded.Connect();
  ASSERT_TRUE(conn2->Execute(kInsert).ok());
  auto restored = reloaded.models()->GetModel("P");
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ((*restored)->case_count(), 300.0);
  std::remove(path.c_str());
}

TEST(PmmlTest, UntrainedModelsSerializeDefinitionsOnly) {
  Provider provider;
  auto conn = provider.Connect();
  ASSERT_TRUE(conn->Execute(kServices[0].create).ok());
  auto model = provider.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  auto document = SerializeModel(**model);
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->find("TreeModel"), std::string::npos);
  auto loaded = DeserializeModel(*document, *provider.services());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->is_trained());
  EXPECT_EQ((*loaded)->definition().model_name, "P");
}

// IMPORT runs the check CREATE runs: a document whose definition lost its
// only case-level KEY is refused, with the same rule CREATE names.
TEST(PmmlTest, ImportRefusesWhatCreateRefuses) {
  Provider provider;
  auto conn = provider.Connect();
  ASSERT_TRUE(conn->Execute(kServices[0].create).ok());
  auto model = provider.models()->GetModel("P");
  ASSERT_TRUE(model.ok());
  auto document = SerializeModel(**model);
  ASSERT_TRUE(document.ok());
  auto without_key = [](std::string text) {
    const std::string key = "[Customer ID] LONG KEY";
    const size_t at = text.find(key);
    if (at != std::string::npos) {
      text.replace(at, key.size(), "[Customer ID] LONG DISCRETE");
    }
    return text;
  };
  const std::string edited = without_key(*document);
  ASSERT_NE(edited, *document);

  auto loaded = DeserializeModel(edited, *provider.services());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("key-count"), std::string::npos)
      << loaded.status().ToString();

  ASSERT_TRUE(conn->Execute("DROP MINING MODEL [P]").ok());
  auto created = conn->Execute(without_key(kServices[0].create));
  ASSERT_FALSE(created.ok());
  EXPECT_TRUE(created.status().IsInvalidArgument());
  EXPECT_NE(created.status().message().find("key-count"), std::string::npos)
      << created.status().ToString();
}

TEST(PmmlTest, ErrorPaths) {
  Provider provider;
  EXPECT_TRUE(DeserializeModel("<NotPMML/>", *provider.services())
                  .status().code() == StatusCode::kIOError);
  EXPECT_TRUE(DeserializeModel("garbage", *provider.services())
                  .status().code() == StatusCode::kIOError);
  EXPECT_TRUE(DeserializeModel("<PMML version=\"1.0\"/>",
                               *provider.services())
                  .status().code() == StatusCode::kIOError);
  EXPECT_FALSE(LoadModelFromFile("/nonexistent/path.xml",
                                 *provider.services()).ok());
}

}  // namespace
}  // namespace dmx
