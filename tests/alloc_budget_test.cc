// Allocation-budget regression gates (DESIGN.md §14): hard ceilings on
// allocs/row for the guard-checkpointed hot operations, measured after the
// PR-9 hot-path fixes and locked in with slack. A change that re-introduces
// per-row allocation — a hoisted temporary moved back into the loop, a
// string-keyed lookup per row, a dropped reserve — fails these tests in the
// hotpath CI job instead of waiting for a reviewer to spot it.
//
// Methodology: run the operation twice — the first run warms caches, lazy
// statics and the model catalogs — then measure the second with an AllocStats::Region and divide by the rows
// processed. Ceilings are the measured value times ~1.5 (libstdc++ growth
// policies and SSO thresholds vary across versions) rounded up. They are
// per-row asymptotes: fixed per-statement costs (parse, bind, schema
// construction) are amortized over the row count, so keep kCustomers large
// enough that they stay in the noise.
//
// The whole suite skips unless the binary was built with
// -DDMX_ALLOC_STATS=ON (the hotpath CI job; build-alloc locally).

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "core/provider.h"
#include "datagen/warehouse.h"
#include "gtest/gtest.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"
#include "shape/shape_parser.h"

namespace dmx {
namespace {

constexpr int kCustomers = 200;
constexpr int kTestCustomers = 100;

class AllocBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    provider_ = new Provider();
    datagen::WarehouseConfig train;
    train.num_customers = kCustomers;
    train.seed = 42;
    ASSERT_TRUE(
        datagen::PopulateWarehouse(provider_->database(), train).ok());
    datagen::WarehouseConfig test;
    test.num_customers = kTestCustomers;
    test.seed = 43;
    test.first_customer_id = 10000000;
    test.customers_table = "TestCustomers";
    test.sales_table = "TestSales";
    test.cars_table = "TestCars";
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_->database(), test).ok());
  }

  static void TearDownTestSuite() {
    delete provider_;
    provider_ = nullptr;
  }

  void SetUp() override {
    if (!AllocStats::Enabled()) {
      GTEST_SKIP() << "allocation budgets need -DDMX_ALLOC_STATS=ON";
    }
  }

  static Rowset Exec(Connection* conn, const std::string& command) {
    auto result = conn->Execute(command);
    EXPECT_TRUE(result.ok()) << command << "\n"
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset(nullptr);
  }

  /// The paper's [Age Prediction] model DDL over `service`.
  static std::string ModelDdl(const std::string& name,
                              const std::string& service) {
    return "CREATE MINING MODEL [" + name + "] (\n"
           "  [Customer ID] LONG KEY,\n"
           "  [Gender] TEXT DISCRETE,\n"
           "  [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,\n"
           "  [Product Purchases] TABLE(\n"
           "    [Product Name] TEXT KEY,\n"
           "    [Product Type] TEXT DISCRETE RELATED TO [Product Name]))\n"
           "USING " + service;
  }

  static std::string InsertDml(const std::string& name) {
    return "INSERT INTO [" + name + "] (\n"
           "  [Customer ID], [Gender], [Age],\n"
           "  [Product Purchases]([Product Name], [Product Type]))\n"
           "SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers"
           " ORDER BY [Customer ID]}\n"
           "APPEND ({SELECT [CustID], [Product Name], [Product Type]"
           " FROM Sales ORDER BY [CustID]}\n"
           "  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]";
  }

  static std::string PredictDmx(const std::string& name) {
    return "SELECT t.[Customer ID], Predict([Age]) AS [P] FROM [" + name +
           "]\nNATURAL PREDICTION JOIN\n"
           "  (SHAPE {SELECT [Customer ID], [Gender] FROM TestCustomers"
           " ORDER BY [Customer ID]}\n"
           "   APPEND ({SELECT [CustID], [Product Name], [Product Type]"
           " FROM TestSales ORDER BY [CustID]}\n"
           "     RELATE [Customer ID] TO [CustID]) AS [Product Purchases])"
           " AS t";
  }

  /// Trains the Age model under `service` once per suite run (idempotent:
  /// re-uses an already-created model).
  static void EnsureModel(Connection* conn, const std::string& name,
                          const std::string& service) {
    auto existing = provider_->models()->GetModel(name);
    if (existing.ok()) return;
    Exec(conn, ModelDdl(name, service));
    Exec(conn, InsertDml(name));
  }

  /// allocs/row of `fn` processing `rows` rows: one warm-up run, then one
  /// measured run on this thread. Always logs the measurement so ceiling
  /// updates can be read off a passing run.
  template <typename Fn>
  static double MeasureAllocsPerRow(const char* label, double rows,
                                    const Fn& fn) {
    fn();  // warm-up: lazy statics, catalog growth, first-touch caches
    AllocStats::Region r;
    fn();
    AllocCounts d = r.Delta();
    double per_row = static_cast<double>(d.allocs) / rows;
    std::cout << "[ measured ] " << label << ": " << per_row
              << " allocs/row (" << static_cast<double>(d.bytes) / rows
              << " bytes/row)\n";
    return per_row;
  }

  static Provider* provider_;
};

Provider* AllocBudgetTest::provider_ = nullptr;

// --- ceilings: measured post-fix allocs/row * ~1.5 slack, rounded up ----

// SELECT + numeric WHERE over Customers (every row scanned, ~half kept).
// Measured 0.49 after the selection-vector scan (was 1.42 pre-fix).
constexpr double kFilterScanCeiling = 1.0;

// ShapedCaseReader: both SELECTs, the relate-key order check and one Next()
// per case. Measured 6.6 once nested tables borrowed the child rowset
// instead of copying it (21.3 with the hash index and per-case copies).
constexpr double kShapeCeiling = 10.0;

// ORDER BY keeps its keys in one vector and orders row positions, so over
// the same rows it adds a per-statement constant to the plain SELECT: the
// parsed clause, the key vector, the order and stable_sort's buffer.
// Measured 6 (input in order) and 10 (sorted) over 200 rows.
constexpr double kOrderByPerStatement = 16.0;

// INSERT INTO (SHAPE ingest + statistics + train), per training case.
// Measured 26.7 after the BindCaseInto reuse path (was 37.1 pre-fix).
constexpr double kInsertCeiling = 40.0;

// NATURAL PREDICTION JOIN scoring, per test case, per service (SHAPE
// assembly included). Measured 13.3 / 13.5 / 13.3 / 13.5 once a
// per-statement scorer fills a reused prediction buffer by slot (18.2 /
// 33.2 / 16.2 / 16.4 with a name-keyed map and a Value histogram per case).
constexpr double kPredictNaiveBayesCeiling = 21.0;
constexpr double kPredictClusteringCeiling = 21.0;
constexpr double kPredictDecisionTreesCeiling = 20.0;
constexpr double kPredictLinearRegressionCeiling = 21.0;

// Filtered DELETE of one row: a keep-mask and in-place compaction, so the
// count is a per-statement constant, not one copy per kept row. Measured 13
// at 100k rows.
constexpr uint64_t kDeleteOneRowCeiling = 20;

// One point SELECT through Connection::Execute, end to end: tokenize,
// classify, parse, admit, lock, bind, scan and project. Measured 33 with one
// tokenization; a second Tokenize plus a copy of the token vector (39) fails
// it, so the ceiling keeps less than the usual slack.
constexpr uint64_t kPointSelectCeiling = 36;

TEST_F(AllocBudgetTest, PointSelectStatement) {
  auto conn = provider_->Connect();
  Exec(conn.get(), "CREATE TABLE W (Id LONG, City TEXT)");
  Exec(conn.get(),
       "INSERT INTO W VALUES (1, 'Oslo'), (2, 'Rome'), (3, 'Bern')");
  const std::string point = "SELECT Id, City FROM W WHERE Id = 2";
  Exec(conn.get(), point);  // warm-up
  AllocStats::Region r;
  Rowset out = Exec(conn.get(), point);
  AllocCounts d = r.Delta();
  std::cout << "[ measured ] PointSelectStatement: " << d.allocs
            << " allocs (" << d.bytes << " bytes)\n";
  EXPECT_EQ(out.num_rows(), 1u);
  EXPECT_LE(d.allocs, kPointSelectCeiling);
}

TEST_F(AllocBudgetTest, FilteredDeleteOfOneRowIsConstant) {
  rel::Database db;
  ASSERT_TRUE(rel::ExecuteSql(&db, "CREATE TABLE D (Id LONG, Name TEXT)").ok());
  rel::Table* table = *db.GetTable("D");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100'000; ++i) {
    rows.push_back({Value::Long(i), Value::Text("a name past the SSO limit")});
  }
  ASSERT_TRUE(table->InsertAll(std::move(rows)).ok());
  // Warm-up, then the measured statement.
  ASSERT_TRUE(rel::ExecuteSql(&db, "DELETE FROM D WHERE Id = 1").ok());
  AllocStats::Region r;
  ASSERT_TRUE(rel::ExecuteSql(&db, "DELETE FROM D WHERE Id = 2").ok());
  AllocCounts d = r.Delta();
  std::cout << "[ measured ] FilteredDeleteOfOneRow: " << d.allocs
            << " allocs for 1 of " << table->num_rows() + 1 << " rows\n";
  EXPECT_EQ(table->num_rows(), 99'998u);
  EXPECT_LE(d.allocs, kDeleteOneRowCeiling);
}

TEST_F(AllocBudgetTest, RelationalFilterScan) {
  auto conn = provider_->Connect();
  double per_row = MeasureAllocsPerRow("FilterScan", kCustomers, [&] {
    Rowset out = Exec(conn.get(),
                      "SELECT [Customer ID], [Age] FROM Customers"
                      " WHERE [Age] > 40");
    ASSERT_GT(out.rows().size(), 0u);
  });
  EXPECT_LE(per_row, kFilterScanCeiling);
}

TEST_F(AllocBudgetTest, OrderedSelect) {
  auto conn = provider_->Connect();
  const std::string select =
      "SELECT [Customer ID], [Gender], [Age] FROM Customers";
  auto measure = [&](const char* label, const std::string& sql) {
    return MeasureAllocsPerRow(label, kCustomers, [&] {
      Rowset out = Exec(conn.get(), sql);
      ASSERT_EQ(out.num_rows(), static_cast<size_t>(kCustomers));
    });
  };
  double plain = measure("Select", select);
  // Customers arrive in [Customer ID] order, so this sort is skipped; the
  // second key order needs a real sort.
  double in_order = measure("SelectOrderedInput",
                            select + " ORDER BY [Customer ID]");
  double sorted = measure("SelectSorted",
                          select + " ORDER BY [Age] DESC, [Gender]");
  EXPECT_LE(in_order, plain + kOrderByPerStatement / kCustomers);
  EXPECT_LE(sorted, plain + kOrderByPerStatement / kCustomers);
}

TEST_F(AllocBudgetTest, ShapeChildIndexing) {
  auto stmt = shape::ParseShape(
      "SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers"
      " ORDER BY [Customer ID]}\n"
      "APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales"
      " ORDER BY [CustID]}\n"
      "  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  double per_row = MeasureAllocsPerRow("Shape", kCustomers, [&] {
    auto reader = shape::ShapedCaseReader::Create(*provider_->database(),
                                                  *stmt);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    Row row;
    size_t cases = 0;
    while (true) {
      auto more = (*reader)->Next(&row);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      ++cases;
    }
    ASSERT_EQ(cases, static_cast<size_t>(kCustomers));
  });
  EXPECT_LE(per_row, kShapeCeiling);
}

TEST_F(AllocBudgetTest, InsertCases) {
  auto conn = provider_->Connect();
  int round = 0;
  double per_row = MeasureAllocsPerRow("InsertCases", kCustomers, [&] {
    const std::string name = "Budget Insert " + std::to_string(round++);
    Exec(conn.get(), ModelDdl(name, "Naive_Bayes"));
    Exec(conn.get(), InsertDml(name));
  });
  EXPECT_LE(per_row, kInsertCeiling);
}

TEST_F(AllocBudgetTest, PredictionJoinNaiveBayes) {
  auto conn = provider_->Connect();
  EnsureModel(conn.get(), "Budget NB", "Naive_Bayes");
  double per_row = MeasureAllocsPerRow("PredictNB", kTestCustomers, [&] {
    Rowset out = Exec(conn.get(), PredictDmx("Budget NB"));
    ASSERT_EQ(out.rows().size(), static_cast<size_t>(kTestCustomers));
  });
  EXPECT_LE(per_row, kPredictNaiveBayesCeiling);
}

TEST_F(AllocBudgetTest, PredictionJoinClustering) {
  auto conn = provider_->Connect();
  EnsureModel(conn.get(), "Budget Clu", "Clustering");
  double per_row = MeasureAllocsPerRow("PredictClu", kTestCustomers, [&] {
    Rowset out = Exec(conn.get(), PredictDmx("Budget Clu"));
    ASSERT_EQ(out.rows().size(), static_cast<size_t>(kTestCustomers));
  });
  EXPECT_LE(per_row, kPredictClusteringCeiling);
}

TEST_F(AllocBudgetTest, PredictionJoinDecisionTrees) {
  auto conn = provider_->Connect();
  EnsureModel(conn.get(), "Budget DT", "Decision_Trees");
  double per_row = MeasureAllocsPerRow("PredictDT", kTestCustomers, [&] {
    Rowset out = Exec(conn.get(), PredictDmx("Budget DT"));
    ASSERT_EQ(out.rows().size(), static_cast<size_t>(kTestCustomers));
  });
  EXPECT_LE(per_row, kPredictDecisionTreesCeiling);
}

TEST_F(AllocBudgetTest, PredictionJoinLinearRegression) {
  auto conn = provider_->Connect();
  // LR predicts a continuous target: Age stays un-discretized and the model
  // regresses on [Customer Loyalty], which the join source carries through.
  if (!provider_->models()->GetModel("Budget LR").ok()) {
    Exec(conn.get(),
         "CREATE MINING MODEL [Budget LR] (\n"
         "  [Customer ID] LONG KEY,\n"
         "  [Gender] TEXT DISCRETE,\n"
         "  [Customer Loyalty] LONG ORDERED,\n"
         "  [Age] DOUBLE CONTINUOUS PREDICT,\n"
         "  [Product Purchases] TABLE(\n"
         "    [Product Name] TEXT KEY,\n"
         "    [Product Type] TEXT DISCRETE RELATED TO [Product Name]))\n"
         "USING Linear_Regression");
    Exec(conn.get(),
         "INSERT INTO [Budget LR] (\n"
         "  [Customer ID], [Gender], [Customer Loyalty], [Age],\n"
         "  [Product Purchases]([Product Name], [Product Type]))\n"
         "SHAPE {SELECT [Customer ID], [Gender], [Customer Loyalty], [Age]"
         " FROM Customers ORDER BY [Customer ID]}\n"
         "APPEND ({SELECT [CustID], [Product Name], [Product Type]"
         " FROM Sales ORDER BY [CustID]}\n"
         "  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]");
  }
  const std::string query =
      "SELECT t.[Customer ID], Predict([Age]) AS [P] FROM [Budget LR]\n"
      "NATURAL PREDICTION JOIN\n"
      "  (SHAPE {SELECT [Customer ID], [Gender], [Customer Loyalty]"
      " FROM TestCustomers ORDER BY [Customer ID]}\n"
      "   APPEND ({SELECT [CustID], [Product Name], [Product Type]"
      " FROM TestSales ORDER BY [CustID]}\n"
      "     RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t";
  double per_row = MeasureAllocsPerRow("PredictLR", kTestCustomers, [&] {
    Rowset out = Exec(conn.get(), query);
    ASSERT_EQ(out.rows().size(), static_cast<size_t>(kTestCustomers));
  });
  EXPECT_LE(per_row, kPredictLinearRegressionCeiling);
}

}  // namespace
}  // namespace dmx
