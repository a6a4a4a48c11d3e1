// Model lifecycle and deployment: the management story the paper argues past
// work ignored (§1: "how to store, maintain, and refresh [a model] as data
// in the warehouse is updated"). This example:
//
//   1. trains an incremental Naive-Bayes model,
//   2. refreshes it with new warehouse data via a second INSERT INTO,
//   3. persists it in the PMML-inspired XML format (§4),
//   4. reloads it in a fresh provider (a "deployment" server) and keeps
//      predicting and refreshing there,
//   5. shows the provider self-description consumers would use to discover
//      all of this (schema rowsets).

#include <cstdlib>
#include <iostream>

#include "core/provider.h"
#include "datagen/warehouse.h"
#include "pmml/pmml.h"

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

void Check(const dmx::Status& status) {
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    std::exit(1);
  }
}

constexpr const char* kInsert = R"(
  INSERT INTO [Loyalty Model]
  SHAPE
    {SELECT [Customer ID], [Gender], [Age], [Income], [Customer Loyalty]
     FROM %TABLE% ORDER BY [Customer ID]}
  APPEND (
    {SELECT [CustID], [Product Name], [Product Type] FROM %SALES%
     ORDER BY [CustID]}
    RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
)";

std::string InsertFrom(const std::string& customers, const std::string& sales) {
  std::string command = kInsert;
  command.replace(command.find("%TABLE%"), 7, customers);
  command.replace(command.find("%SALES%"), 7, sales);
  return command;
}

}  // namespace

int main() {
  dmx::Provider dev;  // The "development" server of Figure 1.
  auto conn = dev.Connect();

  dmx::datagen::WarehouseConfig initial;
  initial.num_customers = 1500;
  Check(dmx::datagen::PopulateWarehouse(dev.database(), initial));

  std::cout << "== 1. Create + train (incremental service) ==\n";
  Run(conn.get(), R"(
    CREATE MINING MODEL [Loyalty Model] (
      [Customer ID] LONG KEY,
      [Gender] TEXT DISCRETE,
      [Age] DOUBLE DISCRETIZED(EQUAL_RANGES, 5),
      [Income] DOUBLE NORMAL CONTINUOUS,
      [Customer Loyalty] LONG DISCRETE PREDICT,
      [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Product Type] TEXT DISCRETE RELATED TO [Product Name]
      )
    ) USING Naive_Bayes(ALPHA = 1.0)
  )");
  Run(conn.get(), InsertFrom("Customers", "Sales"));
  const std::string kCaseCount =
      "SELECT CASE_COUNT FROM $system.DMSCHEMA_MINING_MODELS "
      "WHERE MODEL_NAME = 'Loyalty Model'";
  dmx::Rowset models = Run(conn.get(), kCaseCount);
  std::cout << "  trained on " << models.Get(0, "CASE_COUNT")->ToString()
            << " cases\n";

  std::cout << "== 2. Refresh with a new month of data ==\n";
  dmx::datagen::WarehouseConfig fresh;
  fresh.num_customers = 500;
  fresh.seed = 99;
  fresh.first_customer_id = 500000;
  fresh.customers_table = "NewCustomers";
  fresh.sales_table = "NewSales";
  fresh.cars_table = "NewCars";
  Check(dmx::datagen::PopulateWarehouse(dev.database(), fresh));
  Run(conn.get(), InsertFrom("NewCustomers", "NewSales"));
  models = Run(conn.get(), kCaseCount);
  std::cout << "  after refresh: " << models.Get(0, "CASE_COUNT")->ToString()
            << " cases (no retraining: Naive_Bayes is incremental)\n";

  std::cout << "== 3. Persist to PMML-style XML ==\n";
  const std::string path = "/tmp/opendmx_loyalty_model.xml";
  {
    auto model = dev.models()->GetModel("Loyalty Model");
    Check(model.status());
    Check(dmx::SaveModelToFile(**model, path));
    auto serialized = dmx::SerializeModel(**model);
    std::cout << "  saved " << serialized->size() << " bytes to " << path
              << "\n";
  }

  std::cout << "== 4. Deploy: load into a fresh provider and predict ==\n";
  dmx::Provider production;
  {
    auto loaded = dmx::LoadModelFromFile(path, *production.services());
    Check(loaded.status());
    Check(production.models()->AdoptModel(std::move(*loaded)));
  }
  // The production server has its own (new) customers.
  dmx::datagen::WarehouseConfig prod_data;
  prod_data.num_customers = 10;
  prod_data.seed = 123;
  Check(dmx::datagen::PopulateWarehouse(production.database(), prod_data));
  auto prod_conn = production.Connect();
  dmx::Rowset predictions = Run(prod_conn.get(), R"(
    SELECT t.[Customer ID], Predict([Customer Loyalty]) AS [Loyalty],
           PredictProbability([Customer Loyalty]) AS [P]
    FROM [Loyalty Model]
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender], [Age], [Income] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t
  )");
  std::cout << predictions.ToString() << "\n";

  std::cout << "== 5. Provider self-description (schema rowsets) ==\n";
  dmx::Rowset services = Run(prod_conn.get(), R"(
    SELECT SERVICE_NAME, INCREMENTAL_MAINTENANCE
    FROM $system.DMSCHEMA_MINING_SERVICES)");
  std::cout << "  installed services:\n";
  for (const dmx::Row& row : services.rows()) {
    std::cout << "    " << row[0].ToString()
              << (row[1].bool_value() ? "  [incremental]" : "") << "\n";
  }
  dmx::Rowset columns = Run(prod_conn.get(), R"(
    SELECT COLUMN_NAME FROM $system.DMSCHEMA_MINING_COLUMNS
    WHERE MODEL_NAME = 'Loyalty Model')");
  std::cout << "  deployed model columns: " << columns.num_rows() << "\n";
  return 0;
}
