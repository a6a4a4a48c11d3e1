// MiningModel lifecycle: population strategies (incremental streaming vs
// cache-and-retrain), refresh, reset, state guards and catalog behaviour.

#include "core/mining_model.h"

#include <gtest/gtest.h>

#include "algorithms/builtin_services.h"
#include "core/catalog.h"
#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class MiningModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
    datagen::WarehouseConfig config;
    config.num_customers = 200;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    datagen::WarehouseConfig more;
    more.num_customers = 100;
    more.seed = 9;
    more.first_customer_id = 100000;
    more.customers_table = "MoreCustomers";
    more.sales_table = "MoreSales";
    more.cars_table = "MoreCars";
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), more).ok());
  }

  Rowset Must(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_TRUE(result.ok()) << command << "\n-> "
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  MiningModel* Model(const std::string& name) {
    auto model = provider_.models()->GetModel(name);
    EXPECT_TRUE(model.ok());
    return model.ok() ? *model : nullptr;
  }

  void CreateModel(const std::string& service) {
    Must("CREATE MINING MODEL [L] ([Customer ID] LONG KEY, "
         "[Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED, "
         "[Customer Loyalty] LONG DISCRETE PREDICT) USING " + service);
  }

  void Insert(const std::string& table) {
    Must("INSERT INTO [L] SELECT [Customer ID], [Gender], [Age], "
         "[Customer Loyalty] FROM " + table);
  }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(MiningModelTest, IncrementalServiceKeepsNoCache) {
  CreateModel("Naive_Bayes");
  Insert("Customers");
  MiningModel* model = Model("L");
  EXPECT_TRUE(model->is_trained());
  EXPECT_DOUBLE_EQ(model->case_count(), 200);
  EXPECT_EQ(model->cached_cases(), 0u);  // streamed, not cached
  Insert("MoreCustomers");
  EXPECT_DOUBLE_EQ(model->case_count(), 300);
  EXPECT_EQ(model->cached_cases(), 0u);
}

TEST_F(MiningModelTest, BatchServiceCachesAndRetrains) {
  CreateModel("Decision_Trees");
  Insert("Customers");
  MiningModel* model = Model("L");
  EXPECT_TRUE(model->is_trained());
  EXPECT_EQ(model->cached_cases(), 200u);
  Insert("MoreCustomers");
  EXPECT_EQ(model->cached_cases(), 300u);  // union retrain
  EXPECT_DOUBLE_EQ(model->case_count(), 300);
}

TEST_F(MiningModelTest, RefreshChangesPredictions) {
  CreateModel("Naive_Bayes");
  Insert("Customers");
  std::string query = R"(
    SELECT TOP 1 PredictProbability([Customer Loyalty]) AS P FROM [L]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Gender], [Age] FROM Customers) AS t)";
  double before = Must(query).at(0, 0).double_value();
  Insert("MoreCustomers");
  double after = Must(query).at(0, 0).double_value();
  EXPECT_NE(before, after);  // counts moved
}

TEST_F(MiningModelTest, ResetReturnsToUntrained) {
  CreateModel("Decision_Trees");
  Insert("Customers");
  MiningModel* model = Model("L");
  ASSERT_TRUE(model->Reset().ok());
  EXPECT_FALSE(model->is_trained());
  EXPECT_EQ(model->cached_cases(), 0u);
  EXPECT_EQ(model->attributes().attributes[0].cardinality(), 0);
  // And it can be repopulated from scratch.
  Insert("MoreCustomers");
  EXPECT_TRUE(model->is_trained());
  EXPECT_DOUBLE_EQ(model->case_count(), 100);
}

TEST_F(MiningModelTest, DiscretizationBoundsPinnedAtFirstTraining) {
  CreateModel("Naive_Bayes");
  Insert("Customers");
  MiningModel* model = Model("L");
  int age = model->attributes().FindAttribute("Age");
  ASSERT_GE(age, 0);
  std::vector<double> bounds = model->attributes().attributes[age].bucket_bounds;
  ASSERT_FALSE(bounds.empty());
  Insert("MoreCustomers");
  EXPECT_EQ(model->attributes().attributes[age].bucket_bounds, bounds);
}

TEST_F(MiningModelTest, PredictBeforeTrainingFails) {
  CreateModel("Naive_Bayes");
  MiningModel* model = Model("L");
  auto scorer = model->MakeScorer(PredictionDemand{});
  EXPECT_TRUE(scorer.status().IsInvalidState());
  EXPECT_TRUE(model->BuildContent().status().IsInvalidState());
}

TEST_F(MiningModelTest, InsertZeroCasesFailsForBatchServices) {
  CreateModel("Decision_Trees");
  auto result = conn_->Execute(
      "INSERT INTO [L] SELECT [Customer ID], [Gender], [Age], "
      "[Customer Loyalty] FROM Customers WHERE [Customer ID] < 0");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidState());
}

TEST_F(MiningModelTest, CatalogLifecycle) {
  ModelCatalog catalog;
  ServiceRegistry registry;
  ASSERT_TRUE(RegisterBuiltinServices(&registry).ok());
  ModelDefinition def;
  def.model_name = "X";
  def.service_name = "Naive_Bayes";
  ModelColumn key;
  key.name = "K";
  key.role = ContentRole::kKey;
  key.data_type = DataType::kLong;
  ModelColumn target;
  target.name = "T";
  target.data_type = DataType::kText;
  target.usage = PredictUsage::kPredict;
  def.columns = {key, target};
  ASSERT_TRUE(catalog.CreateModel(def, registry).ok());
  EXPECT_TRUE(catalog.CreateModel(def, registry).status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.HasModel("x"));  // case-insensitive
  EXPECT_EQ(catalog.ListModels().size(), 1u);
  ASSERT_TRUE(catalog.DropModel("X").ok());
  EXPECT_TRUE(catalog.DropModel("X").IsNotFound());
  // Unknown service.
  def.service_name = "Quantum_Oracle";
  EXPECT_TRUE(catalog.CreateModel(def, registry).status().IsNotFound());
  // Unknown parameter.
  def.service_name = "Naive_Bayes";
  def.parameters = {{"BOGUS", Value::Long(1)}};
  EXPECT_FALSE(catalog.CreateModel(def, registry).ok());
}

}  // namespace
}  // namespace dmx
