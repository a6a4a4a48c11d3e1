// Quickstart: the paper's running example, end to end.
//
// Builds the 3-table customer warehouse from Table 1, defines the
// [Age Prediction] decision-tree model of §3.2 over a hierarchical caseset,
// populates it with INSERT INTO ... SHAPE (§3.3), predicts ages with a
// PREDICTION JOIN, and browses the learned tree through
// SELECT * FROM [Age Prediction].CONTENT.

#include <cstdlib>
#include <iostream>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace {

dmx::Rowset Run(dmx::Connection* conn, const std::string& command) {
  auto result = conn->Execute(command);
  if (!result.ok()) {
    std::cerr << "command failed: " << result.status().ToString() << "\n"
              << command << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  dmx::Provider provider;
  auto conn = provider.Connect();

  // A realistic warehouse: 2000 customers drawn from latent segments, plus
  // 500 held-out customers we will predict for.
  dmx::datagen::WarehouseConfig train_config;
  train_config.num_customers = 2000;
  auto status = dmx::datagen::PopulateWarehouse(provider.database(),
                                                train_config);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  dmx::datagen::WarehouseConfig test_config;
  test_config.num_customers = 500;
  test_config.seed = 7;
  test_config.first_customer_id = 1000000;
  test_config.customers_table = "TestCustomers";
  test_config.sales_table = "TestSales";
  test_config.cars_table = "TestCars";
  status = dmx::datagen::PopulateWarehouse(provider.database(), test_config);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  std::cout << "== 1. Define the mining model (paper §3.2) ==\n";
  Run(conn.get(), R"(
    CREATE MINING MODEL [Age Prediction] (
      [Customer ID] LONG KEY,
      [Gender] TEXT DISCRETE,
      [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
      [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Quantity] DOUBLE NORMAL CONTINUOUS,
        [Product Type] TEXT DISCRETE RELATED TO [Product Name]
      )
    ) USING [Decision_Trees_101](MINIMUM_SUPPORT = 25.0)
  )");
  std::cout << "model [Age Prediction] created\n\n";

  std::cout << "== 2. Populate it from the warehouse (paper §3.3) ==\n";
  Run(conn.get(), R"(
    INSERT INTO [Age Prediction] (
      [Customer ID], [Gender], [Age],
      [Product Purchases]([Product Name], [Quantity], [Product Type]))
    SHAPE
      {SELECT [Customer ID], [Gender], [Age] FROM Customers
       ORDER BY [Customer ID]}
    APPEND (
      {SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales
       ORDER BY [CustID]}
      RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
  )");
  dmx::Rowset models = Run(conn.get(), R"(
    SELECT MODEL_NAME, SERVICE_NAME, IS_POPULATED, CASE_COUNT,
           PREDICTION_COLUMNS
    FROM $system.DMSCHEMA_MINING_MODELS)");
  std::cout << models.ToString() << "\n";

  std::cout << "== 3. Predict ages for unseen customers ==\n";
  dmx::Rowset predictions = Run(conn.get(), R"(
    SELECT TOP 8 t.[Customer ID], [Age Prediction].[Age],
           PredictProbability([Age]) AS [Probability],
           PredictSupport([Age]) AS [Support],
           RangeMid([Age]) AS [Age Bucket Mid]
    FROM [Age Prediction]
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM TestCustomers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Quantity], [Product Type]
                FROM TestSales ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t
  )");
  std::cout << predictions.ToString() << "\n";

  std::cout << "== 4. Full prediction histogram for one customer ==\n";
  dmx::Rowset histogram = Run(conn.get(), R"(
    SELECT FLATTENED TOP 1 t.[Customer ID],
           PredictHistogram([Age]) AS [H]
    FROM [Age Prediction]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Gender] FROM TestCustomers) AS t
  )");
  std::cout << histogram.ToString() << "\n";

  std::cout << "== 5. Browse the learned tree (paper §3.3) ==\n";
  dmx::Rowset content = Run(conn.get(),
                            "SELECT * FROM [Age Prediction].CONTENT");
  size_t shown = 0;
  for (const dmx::Row& row : content.rows()) {
    if (shown++ >= 10) break;
    std::cout << "  [" << row[3].ToString() << "] "
              << (row[5].ToString().empty() ? row[4].ToString()
                                            : row[5].ToString())
              << " (support=" << row[7].ToString() << ")\n";
  }
  std::cout << "  ... " << content.num_rows() << " content nodes total\n";
  return 0;
}
