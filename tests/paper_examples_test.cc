// End-to-end tests running the paper's own statements: the CREATE MINING
// MODEL of §3.2, the INSERT INTO ... SHAPE of §3.3, both PREDICTION JOIN
// forms, content browsing, DELETE FROM and DROP — against the Table 1
// micro-warehouse and the synthetic warehouse.

#include <gtest/gtest.h>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

// The paper's §3.2 example, with the quantity distribution hint and all.
constexpr const char* kCreateAgePrediction = R"(
CREATE MINING MODEL [Age Prediction] (
  [Customer ID] LONG KEY,
  [Gender] TEXT DISCRETE,
  [Age] DOUBLE DISCRETIZED PREDICT,  -- prediction column
  [Product Purchases] TABLE(
    [Product Name] TEXT KEY,
    [Quantity] DOUBLE NORMAL CONTINUOUS,
    [Product Type] TEXT DISCRETE RELATED TO [Product Name]
  )
) USING [Decision_Trees_101]
)";

// The paper's §3.3 INSERT INTO example, verbatim modulo table names.
constexpr const char* kInsertAgePrediction = R"(
INSERT INTO [Age Prediction] (
  [Customer ID], [Gender], [Age],
  [Product Purchases]([Product Name], [Quantity], [Product Type]))
SHAPE
  {SELECT [Customer ID], [Gender], [Age] FROM Customers
   ORDER BY [Customer ID]}
APPEND (
  {SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales
   ORDER BY [CustID]}
  RELATE [Customer ID] To [CustID]) AS [Product Purchases]
)";

// The paper's §3.3 prediction-join example (including its trailing comma
// after [Gender], which the parser tolerates as the paper prints it).
constexpr const char* kPredictionJoin = R"(
SELECT t.[Customer ID], [Age Prediction].[Age]
FROM [Age Prediction]
PREDICTION JOIN
  (SHAPE {
     SELECT [Customer ID], [Gender], FROM Customers ORDER BY [Customer ID]}
   APPEND ({SELECT [CustID], [Product Name], [Quantity] FROM Sales
            ORDER BY [CustID]}
           RELATE [Customer ID] To [CustID]) AS [Product Purchases]) as t
ON [Age Prediction].Gender = t.Gender and
   [Age Prediction].[Product Purchases].[Product Name] =
     t.[Product Purchases].[Product Name] and
   [Age Prediction].[Product Purchases].[Quantity] =
     t.[Product Purchases].[Quantity]
)";

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
  }

  // Loads the synthetic warehouse (the paper's schema at scale).
  void LoadWarehouse(int customers) {
    datagen::WarehouseConfig config;
    config.num_customers = customers;
    ASSERT_TRUE(
        datagen::PopulateWarehouse(provider_.database(), config).ok());
  }

  Rowset MustExecute(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_TRUE(result.ok()) << command << "\n-> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(PaperExamplesTest, Table1MicroWarehouseEndToEnd) {
  ASSERT_TRUE(datagen::LoadPaperExample(provider_.database()).ok());
  MustExecute(kCreateAgePrediction);
  MustExecute(kInsertAgePrediction);

  // The model is populated and predicts through the paper's own join.
  Rowset predictions = MustExecute(kPredictionJoin);
  EXPECT_EQ(predictions.num_rows(), 3u);
  ASSERT_EQ(predictions.num_columns(), 2u);
  EXPECT_EQ(predictions.schema()->column(0).name, "Customer ID");
  EXPECT_EQ(predictions.schema()->column(1).name, "Age");
  for (const Row& row : predictions.rows()) {
    EXPECT_FALSE(row[1].is_null());
  }

  // Content browsing works.
  Rowset content = MustExecute("SELECT * FROM [Age Prediction].CONTENT");
  EXPECT_GE(content.num_rows(), 2u);

  // DELETE FROM resets; prediction then fails with InvalidState.
  MustExecute("DELETE FROM [Age Prediction]");
  auto after_reset = conn_->Execute(kPredictionJoin);
  EXPECT_FALSE(after_reset.ok());
  EXPECT_TRUE(after_reset.status().IsInvalidState());

  // DROP removes the model.
  MustExecute("DROP MINING MODEL [Age Prediction]");
  auto after_drop = conn_->Execute("SELECT * FROM [Age Prediction].CONTENT");
  EXPECT_FALSE(after_drop.ok());
  EXPECT_TRUE(after_drop.status().IsNotFound());
}

TEST_F(PaperExamplesTest, NaturalPredictionJoinAtScale) {
  LoadWarehouse(300);
  MustExecute(kCreateAgePrediction);
  MustExecute(kInsertAgePrediction);

  Rowset predictions = MustExecute(R"(
    SELECT t.[Customer ID], [Age Prediction].[Age],
           PredictProbability([Age]) AS [Prob]
    FROM [Age Prediction]
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Quantity] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] To [CustID]) AS [Product Purchases]) AS t
  )");
  EXPECT_EQ(predictions.num_rows(), 300u);
  for (const Row& row : predictions.rows()) {
    ASSERT_TRUE(row[2].is_double());
    EXPECT_GE(row[2].double_value(), 0.0);
    EXPECT_LE(row[2].double_value(), 1.0 + 1e-9);
  }
}

TEST_F(PaperExamplesTest, HistogramAndFlattenedOutput) {
  LoadWarehouse(200);
  MustExecute(kCreateAgePrediction);
  MustExecute(kInsertAgePrediction);

  Rowset nested = MustExecute(R"(
    SELECT t.[Customer ID], PredictHistogram([Age]) AS [Hist]
    FROM [Age Prediction]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Gender] FROM Customers) AS t
  )");
  ASSERT_EQ(nested.num_columns(), 2u);
  EXPECT_EQ(nested.schema()->column(1).type, DataType::kTable);
  ASSERT_GT(nested.num_rows(), 0u);
  ASSERT_TRUE(nested.rows()[0][1].is_table());
  EXPECT_GT(nested.rows()[0][1].table_value()->num_rows(), 0u);

  Rowset flat = MustExecute(R"(
    SELECT FLATTENED t.[Customer ID], PredictHistogram([Age]) AS [Hist]
    FROM [Age Prediction]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Gender] FROM Customers) AS t
  )");
  EXPECT_GT(flat.num_rows(), nested.num_rows());
  EXPECT_GT(flat.num_columns(), 2u);
  for (const ColumnDef& col : flat.schema()->columns()) {
    EXPECT_NE(col.type, DataType::kTable);
  }
}

TEST_F(PaperExamplesTest, SchemaRowsetsDescribeTheProvider) {
  LoadWarehouse(50);
  MustExecute(kCreateAgePrediction);

  // Schema rowsets are tables read through the same command pipe.
  Rowset services =
      MustExecute("SELECT * FROM $system.DMSCHEMA_MINING_SERVICES");
  EXPECT_EQ(services.num_rows(), 6u);  // the six built-in services

  Rowset params =
      MustExecute("SELECT * FROM $system.DMSCHEMA_MINING_SERVICE_PARAMETERS");
  EXPECT_GT(params.num_rows(), 10u);

  Rowset models = MustExecute("SELECT * FROM $system.DMSCHEMA_MINING_MODELS");
  ASSERT_EQ(models.num_rows(), 1u);
  EXPECT_EQ(models.Get(0, "MODEL_NAME")->text_value(), "Age Prediction");
  EXPECT_FALSE(models.Get(0, "IS_POPULATED")->bool_value());

  Rowset columns = MustExecute(
      "SELECT * FROM $system.DMSCHEMA_MINING_COLUMNS "
      "WHERE MODEL_NAME = 'Age Prediction'");
  EXPECT_EQ(columns.num_rows(), 7u);  // 4 top-level + 3 nested

  MustExecute(kInsertAgePrediction);
  models = MustExecute("SELECT * FROM $system.DMSCHEMA_MINING_MODELS");
  EXPECT_TRUE(models.Get(0, "IS_POPULATED")->bool_value());
  EXPECT_EQ(models.Get(0, "CASE_COUNT")->double_value(), 50.0);
}

TEST_F(PaperExamplesTest, SqlFallsThroughTheSamePipe) {
  // Plain SQL through the same Execute() pipe (Figure 1's single stack).
  MustExecute("CREATE TABLE Scratch (Id LONG, Name TEXT)");
  MustExecute("INSERT INTO Scratch VALUES (1, 'a'), (2, 'b')");
  Rowset rows = MustExecute("SELECT Id, Name FROM Scratch ORDER BY Id DESC");
  ASSERT_EQ(rows.num_rows(), 2u);
  EXPECT_EQ(rows.at(0, 0).long_value(), 2);
  MustExecute("DROP TABLE Scratch");
}

}  // namespace
}  // namespace dmx
