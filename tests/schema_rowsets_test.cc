// Schema rowsets: the provider's self-description surface — services,
// parameters, models, columns, functions and content — read as read-only
// tables through the same SQL pipe as any other SELECT. Every SQL read is
// compared, row for row, with the producer the resolver calls.

#include "core/schema_rowsets.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class SchemaRowsetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
    datagen::WarehouseConfig config;
    config.num_customers = 60;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    Must(R"(CREATE MINING MODEL [A] (
              [Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
              [Customer Loyalty] LONG DISCRETE PREDICT)
            USING Naive_Bayes)");
    Must(R"(CREATE MINING MODEL [B] (
              [Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS,
              [Income] DOUBLE CONTINUOUS)
            USING Clustering(CLUSTER_COUNT = 2))");
  }

  Rowset Must(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_TRUE(result.ok()) << command << " -> "
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  void TrainA() {
    Must("INSERT INTO [A] SELECT [Customer ID], [Gender], [Customer Loyalty] "
         "FROM Customers");
  }

  // Reads `$system.<table>` through SQL and checks it, row for row, against
  // the producer the resolver calls.
  Rowset Get(const std::string& table) {
    Rowset via_sql = Must("SELECT * FROM $system." + table);
    auto produced =
        GetSchemaRowset(table, *provider_.services(), *provider_.models());
    EXPECT_TRUE(produced.ok()) << produced.status().ToString();
    if (produced.ok()) ExpectSameRowset(via_sql, *produced, table);
    return via_sql;
  }

  static void ExpectSameRowset(const Rowset& a, const Rowset& b,
                               const std::string& what) {
    ASSERT_TRUE(a.schema() != nullptr && b.schema() != nullptr) << what;
    EXPECT_TRUE(a.schema()->Equals(*b.schema())) << what;
    EXPECT_EQ(a.num_rows(), b.num_rows()) << what;
    // Nested NODE_DISTRIBUTION tables are built afresh per read, so compare
    // them by contents.
    EXPECT_EQ(a.ToString(/*expand_nested=*/true),
              b.ToString(/*expand_nested=*/true))
        << what;
  }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(SchemaRowsetsTest, MiningServicesDescribeCapabilities) {
  Rowset services = Get("DMSCHEMA_MINING_SERVICES");
  ASSERT_EQ(services.num_rows(), 6u);
  std::set<std::string> names;
  bool nb_incremental = false;
  bool clustering_segmentation = false;
  bool assoc_table_prediction = false;
  for (const Row& row : services.rows()) {
    names.insert(row[0].text_value());
    if (row[0].text_value() == "Naive_Bayes") {
      nb_incremental = row[6].bool_value();
    }
    if (row[0].text_value() == "Clustering") {
      clustering_segmentation = row[4].bool_value();
    }
    if (row[0].text_value() == "Association_Rules") {
      assoc_table_prediction = row[9].bool_value();
    }
  }
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(names.count("Decision_Trees"));
  EXPECT_TRUE(names.count("Linear_Regression"));
  EXPECT_TRUE(nb_incremental);
  EXPECT_TRUE(clustering_segmentation);
  EXPECT_TRUE(assoc_table_prediction);
}

TEST_F(SchemaRowsetsTest, ServiceParametersListDefaults) {
  Rowset params = Get("DMSCHEMA_MINING_SERVICE_PARAMETERS");
  bool found_cluster_count = false;
  for (const Row& row : params.rows()) {
    if (row[0].text_value() == "Clustering" &&
        row[1].text_value() == "CLUSTER_COUNT") {
      found_cluster_count = true;
      EXPECT_EQ(row[3].text_value(), "4");
    }
    EXPECT_FALSE(row[2].text_value().empty());  // description present
  }
  EXPECT_TRUE(found_cluster_count);
}

TEST_F(SchemaRowsetsTest, MiningModelsTrackPopulation) {
  Rowset models = Get("DMSCHEMA_MINING_MODELS");
  ASSERT_EQ(models.num_rows(), 2u);
  for (const Row& row : models.rows()) {
    EXPECT_FALSE(row[2].bool_value());  // nothing populated yet
    // CREATION_STATEMENT is parseable DMX.
    EXPECT_NE(row[5].text_value().find("CREATE MINING MODEL"),
              std::string::npos);
  }
  TrainA();
  models = Get("DMSCHEMA_MINING_MODELS");
  EXPECT_TRUE(models.Get(0, "IS_POPULATED")->bool_value());   // A
  EXPECT_FALSE(models.Get(1, "IS_POPULATED")->bool_value());  // B
  EXPECT_EQ(models.Get(0, "PREDICTION_COLUMNS")->text_value(),
            "Customer Loyalty");
}

TEST_F(SchemaRowsetsTest, MiningColumnsIncludeNestedAndFilter) {
  Must(R"(CREATE MINING MODEL [C] (
            [Customer ID] LONG KEY,
            [T] TABLE ([K] TEXT KEY, [V] DOUBLE CONTINUOUS,
                       [R] TEXT DISCRETE RELATED TO [K]))
          USING Clustering)");
  Rowset all = Get("DMSCHEMA_MINING_COLUMNS");
  Rowset only_c = Must(
      "SELECT * FROM $system.DMSCHEMA_MINING_COLUMNS WHERE MODEL_NAME = 'C'");
  EXPECT_GT(all.num_rows(), only_c.num_rows());
  ASSERT_EQ(only_c.num_rows(), 5u);  // 2 top-level + 3 nested
  int nested_count = 0;
  for (const Row& row : only_c.rows()) {
    if (!row[2].text_value().empty()) {
      ++nested_count;
      EXPECT_EQ(row[2].text_value(), "T");
    }
    if (row[1].text_value() == "R") {
      EXPECT_EQ(row[6].text_value(), "K");  // RELATED_ATTRIBUTE
      EXPECT_EQ(row[4].text_value(), "RELATION");
    }
  }
  EXPECT_EQ(nested_count, 3);
}

TEST_F(SchemaRowsetsTest, ContentRowsetOnlyCoversPopulatedModels) {
  Rowset empty = Get("DMSCHEMA_MINING_MODEL_CONTENT");
  EXPECT_EQ(empty.num_rows(), 0u);
  TrainA();
  Rowset content = Get("DMSCHEMA_MINING_MODEL_CONTENT");
  ASSERT_GT(content.num_rows(), 0u);
  // Parent/child linkage is consistent: every non-root parent exists.
  std::set<std::string> names;
  for (const Row& row : content.rows()) {
    names.insert(row[1].text_value());
  }
  int roots = 0;
  for (const Row& row : content.rows()) {
    const std::string& parent = row[2].text_value();
    if (parent.empty()) {
      ++roots;
    } else {
      EXPECT_TRUE(names.count(parent)) << "dangling parent " << parent;
    }
    // NODE_DISTRIBUTION is a nested table.
    EXPECT_TRUE(row[12].is_table());
  }
  EXPECT_EQ(roots, 1);
  // A WHERE on the model name reads what SELECT ... .CONTENT reads.
  Rowset via_content = Must("SELECT * FROM [A].CONTENT");
  Rowset via_filter = Must(
      "SELECT * FROM $system.DMSCHEMA_MINING_MODEL_CONTENT "
      "WHERE MODEL_NAME = 'A'");
  ExpectSameRowset(via_content, via_filter, "A.CONTENT");
}

TEST_F(SchemaRowsetsTest, ModelContentMatchesItsProducer) {
  TrainA();
  Rowset via_sql = Must("SELECT * FROM [A].CONTENT");
  auto model = provider_.models()->GetModel("A");
  ASSERT_TRUE(model.ok());
  auto produced = GetContentRowset(**model);
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  ExpectSameRowset(via_sql, *produced, "[A].CONTENT");
  ASSERT_EQ(via_sql.schema()->column(12).type, DataType::kTable);
}

TEST_F(SchemaRowsetsTest, MiningFunctionsListTheUdfSurface) {
  TrainA();
  Rowset functions = Get("DMSCHEMA_MINING_FUNCTIONS");
  std::set<std::string> listed;
  for (const Row& row : functions.rows()) {
    listed.insert(row[0].text_value());
    EXPECT_FALSE(row[1].text_value().empty());  // returns
    EXPECT_FALSE(row[2].text_value().empty());  // syntax
    EXPECT_FALSE(row[3].text_value().empty());  // description
  }
  // The binder accepts a name when it does not answer "unknown function"
  // (an arity or argument error still means it dispatched the name).
  auto accepted = [&](const std::string& name) {
    auto result = conn_->Execute(
        "SELECT " + name + "() FROM [A] NATURAL PREDICTION JOIN "
        "(SELECT [Customer ID], [Gender] FROM Customers) AS t");
    return result.ok() ||
           result.status().message().find("unknown function") ==
               std::string::npos;
  };
  // Candidates: every listed name, the UDFs the paper and udf.h document,
  // and near misses. The names the binder accepts are exactly the listed
  // ones.
  std::set<std::string> candidates = listed;
  for (const char* name :
       {"Predict", "PredictAssociation", "PredictProbability",
        "PredictSupport", "PredictVariance", "PredictStdev",
        "PredictHistogram", "TopCount", "RangeMin", "RangeMid", "RangeMax",
        "Cluster", "ClusterProbability", "PredictNothing", "Range",
        "ClusterDistance", "PredictAdjustedProbability"}) {
    candidates.insert(name);
  }
  std::set<std::string> binds;
  for (const std::string& name : candidates) {
    if (accepted(name)) binds.insert(name);
  }
  EXPECT_EQ(binds, listed);
  EXPECT_EQ(listed.size(), 13u);
}

TEST_F(SchemaRowsetsTest, ContentSelectSupportsWhere) {
  TrainA();
  Rowset all = Must("SELECT * FROM [A].CONTENT");
  Rowset only_attrs = Must(
      "SELECT * FROM [A].CONTENT WHERE NODE_TYPE = 'NaiveBayesAttribute'");
  EXPECT_LT(only_attrs.num_rows(), all.num_rows());
  EXPECT_GT(only_attrs.num_rows(), 0u);
  for (const Row& row : only_attrs.rows()) {
    EXPECT_EQ(row[3].text_value(), "NaiveBayesAttribute");
  }
  Rowset supported = Must(
      "SELECT * FROM [A].CONTENT WHERE NODE_SUPPORT > 10 AND "
      "NODE_TYPE <> 'Model'");
  for (const Row& row : supported.rows()) {
    EXPECT_GT(row[7].double_value(), 10);
  }
  // Unknown column in the filter is a bind error.
  auto bad = conn_->Execute("SELECT * FROM [A].CONTENT WHERE GHOST = 1");
  EXPECT_TRUE(bad.status().IsBindError());
}

TEST_F(SchemaRowsetsTest, EngineClausesApplyToSystemTables) {
  TrainA();
  // Projection, ORDER BY and TOP.
  Rowset top = Must(
      "SELECT TOP 1 MODEL_NAME AS Name, CASE_COUNT "
      "FROM $system.DMSCHEMA_MINING_MODELS ORDER BY MODEL_NAME DESC");
  ASSERT_EQ(top.num_rows(), 1u);
  ASSERT_EQ(top.num_columns(), 2u);
  EXPECT_EQ(top.schema()->column(0).name, "Name");
  EXPECT_EQ(top.rows()[0][0].text_value(), "B");
  // An alias qualifies columns; GROUP BY aggregates.
  Rowset leaves = Must(
      "SELECT c.NODE_TYPE, COUNT(*) AS N FROM [A].CONTENT AS c "
      "GROUP BY c.NODE_TYPE");
  EXPECT_GT(leaves.num_rows(), 1u);
  // A join with a user table.
  Must("CREATE TABLE Owners (Model TEXT, Owner TEXT)");
  Must("INSERT INTO Owners VALUES ('A', 'ann'), ('B', 'bob'), ('Z', 'zed')");
  Rowset owned = Must(
      "SELECT o.Owner, m.IS_POPULATED FROM Owners AS o "
      "INNER JOIN $system.DMSCHEMA_MINING_MODELS AS m "
      "ON o.Model = m.MODEL_NAME ORDER BY o.Owner");
  ASSERT_EQ(owned.num_rows(), 2u);
  EXPECT_EQ(owned.rows()[0][0].text_value(), "ann");
  EXPECT_TRUE(owned.rows()[0][1].bool_value());
  EXPECT_EQ(owned.rows()[1][0].text_value(), "bob");
  EXPECT_FALSE(owned.rows()[1][1].bool_value());
  // Content joins the model catalog on MODEL_NAME.
  Rowset nodes = Must(
      "SELECT m.SERVICE_NAME FROM [A].CONTENT AS c "
      "INNER JOIN $system.DMSCHEMA_MINING_MODELS AS m "
      "ON c.MODEL_NAME = m.MODEL_NAME");
  EXPECT_EQ(nodes.num_rows(), Must("SELECT * FROM [A].CONTENT").num_rows());
}

TEST_F(SchemaRowsetsTest, UnknownNamesAreNotFound) {
  EXPECT_TRUE(
      conn_->Execute("SELECT * FROM $system.DMSCHEMA_NOTHING").status()
          .IsNotFound());
  EXPECT_TRUE(conn_->Execute("SELECT * FROM ghost.CONTENT").status()
                  .IsNotFound());
  EXPECT_TRUE(conn_->Execute("SELECT * FROM NoSuchTable").status()
                  .IsNotFound());
  // Names are case-insensitive, like every other table name.
  EXPECT_EQ(Must("SELECT * FROM $SYSTEM.dmschema_mining_models").num_rows(),
            2u);
}

TEST_F(SchemaRowsetsTest, WritesToSystemTablesFailAndChangeNothing) {
  TrainA();
  const std::string models_before =
      Must("SELECT * FROM $system.DMSCHEMA_MINING_MODELS").ToString(true);
  const std::string content_before =
      Must("SELECT * FROM [A].CONTENT").ToString(true);
  const std::vector<std::string> tables_before =
      provider_.database()->ListTables();
  for (const char* write : {
           "INSERT INTO $system.DMSCHEMA_MINING_MODELS VALUES ('x')",
           "DELETE FROM $system.DMSCHEMA_MINING_MODELS",
           "DELETE FROM $system.DMSCHEMA_MINING_MODELS WHERE CASE_COUNT > 0",
           "DROP TABLE $system.DMSCHEMA_MINING_MODELS",
           "INSERT INTO [A].CONTENT VALUES ('x')",
           "DELETE FROM [A].CONTENT",
           "DROP TABLE [A].CONTENT",
       }) {
    const Status status = conn_->Execute(write).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << write << ": "
                                            << status.ToString();
    const std::string table = std::string(write).find("CONTENT") !=
                                      std::string::npos
                                  ? "A.CONTENT"
                                  : "$system.DMSCHEMA_MINING_MODELS";
    EXPECT_NE(status.message().find("table '" + table + "' is read-only"),
              std::string::npos)
        << write << ": " << status.ToString();
    // A refusal, not a syntax error.
    EXPECT_EQ(status.ToString().find("parsing"), std::string::npos)
        << write << ": " << status.ToString();
  }
  EXPECT_EQ(Must("SELECT * FROM $system.DMSCHEMA_MINING_MODELS")
                .ToString(true),
            models_before);
  EXPECT_EQ(Must("SELECT * FROM [A].CONTENT").ToString(true), content_before);
  EXPECT_EQ(provider_.database()->ListTables(), tables_before);
}

TEST_F(SchemaRowsetsTest, DropAndRecreateShowInTheNextRead) {
  TrainA();
  Must("DROP MINING MODEL [A]");
  Rowset models = Must("SELECT MODEL_NAME FROM $system.DMSCHEMA_MINING_MODELS");
  ASSERT_EQ(models.num_rows(), 1u);
  EXPECT_EQ(models.rows()[0][0].text_value(), "B");
  EXPECT_TRUE(conn_->Execute("SELECT * FROM [A].CONTENT").status()
                  .IsNotFound());
  Must(R"(CREATE MINING MODEL [A] (
            [Customer ID] LONG KEY, [Gender] TEXT DISCRETE PREDICT)
          USING Decision_Trees)");
  models = Must(
      "SELECT SERVICE_NAME, IS_POPULATED FROM $system.DMSCHEMA_MINING_MODELS "
      "WHERE MODEL_NAME = 'A'");
  ASSERT_EQ(models.num_rows(), 1u);
  EXPECT_EQ(models.rows()[0][0].text_value(), "Decision_Trees");
  EXPECT_FALSE(models.rows()[0][1].bool_value());
}

TEST_F(SchemaRowsetsTest, SchemaReadsPassAdmissionAndTheDeadline) {
  const std::string read = "SELECT * FROM $system.DMSCHEMA_MINING_SERVICES";
  // A saturated admission queue rejects a schema read before it runs, as
  // it rejects any SELECT.
  provider_.SetAdmissionLimits(/*max_active=*/1, /*max_queued=*/0);
  ExecGuard holder(ExecLimits{});
  ASSERT_TRUE(provider_.admission()->Admit(&holder).ok());
  for (const std::string& text :
       {read, std::string("SELECT * FROM Customers")}) {
    auto rejected = conn_->Execute(text);
    EXPECT_TRUE(rejected.status().IsResourceExhausted())
        << text << ": " << rejected.status().ToString();
  }
  provider_.admission()->Release();
  EXPECT_TRUE(conn_->Execute(read).ok());

  // An expired deadline stops it like any other statement.
  ExecLimits limits;
  limits.deadline_ms = 1;
  ExecGuard expired(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto late = conn_->ExecuteGuarded(read, &expired);
  EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status().ToString();
}

}  // namespace
}  // namespace dmx
