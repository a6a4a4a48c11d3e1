// Consistency property between the output column BindDmxExpr derives for
// each bound node and run-time evaluation (EvaluateDmxExpr): for a sweep of
// projection expressions, the declared output column type must match the
// kind of every evaluated value (NULLs excepted), and nested-table outputs
// must carry the declared nested schema.

#include <gtest/gtest.h>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class UdfInferenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    provider_ = new Provider();
    datagen::WarehouseConfig config;
    config.num_customers = 150;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_->database(), config).ok());
    conn_ = provider_->Connect().release();
    ASSERT_TRUE(conn_->Execute(R"(
      CREATE MINING MODEL [M] (
        [Customer ID] LONG KEY,
        [Gender] TEXT DISCRETE,
        [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
        [Product Purchases] TABLE(
          [Product Name] TEXT KEY,
          [Product Type] TEXT DISCRETE RELATED TO [Product Name]))
      USING Naive_Bayes)").ok());
    auto insert = conn_->Execute(R"(
      INSERT INTO [M]
      SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers
             ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
               ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  }

  static void TearDownTestSuite() {
    delete conn_;
    delete provider_;
    conn_ = nullptr;
    provider_ = nullptr;
  }

  static Provider* provider_;
  static Connection* conn_;
};

Provider* UdfInferenceTest::provider_ = nullptr;
Connection* UdfInferenceTest::conn_ = nullptr;

bool KindMatchesType(const Value& v, DataType declared) {
  if (v.is_null()) return true;
  switch (declared) {
    case DataType::kBool:
      return v.is_bool();
    case DataType::kLong:
      return v.is_long();
    case DataType::kDouble:
      return v.is_double() || v.is_long();  // numeric widening is fine
    case DataType::kText:
      return v.is_text();
    case DataType::kTable:
      return v.is_table();
  }
  return false;
}

TEST_P(UdfInferenceTest, DeclaredTypeMatchesEvaluatedValues) {
  std::string query = std::string("SELECT ") + GetParam() + R"( AS X FROM [M]
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";
  auto result = conn_->Execute(query);
  ASSERT_TRUE(result.ok()) << GetParam() << " -> "
                           << result.status().ToString();
  ASSERT_EQ(result->num_columns(), 1u);
  const ColumnDef& declared = result->schema()->column(0);
  ASSERT_GT(result->num_rows(), 0u);
  for (const Row& row : result->rows()) {
    EXPECT_TRUE(KindMatchesType(row[0], declared.type))
        << GetParam() << ": declared " << DataTypeToString(declared.type)
        << " but evaluated to " << row[0].ToString();
    if (declared.type == DataType::kTable && !row[0].is_null()) {
      ASSERT_NE(declared.nested, nullptr) << GetParam();
      EXPECT_TRUE(row[0].table_value()->schema()->Equals(*declared.nested))
          << GetParam() << ": nested schema mismatch";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Projections, UdfInferenceTest,
    ::testing::Values(
        "t.[Customer ID]",                                  // source long
        "t.[Gender]",                                       // source text
        "[M].[Age]",                                        // predicted value
        "Predict([Age])",                                   //
        "PredictProbability([Age])",                        //
        "PredictProbability([Age], 30.0)",                  //
        "PredictSupport([Age])",                            //
        "PredictVariance([Age])",                           //
        "PredictStdev([Age])",                              //
        "PredictHistogram([Age])",                          // nested table
        "TopCount(PredictHistogram([Age]), $Probability, 2)",
        "RangeMin([Age])", "RangeMid([Age])", "RangeMax([Age])",
        "t.[Product Purchases]",                            // source table
        "'literal'", "42", "2.5"));

}  // namespace
}  // namespace dmx
