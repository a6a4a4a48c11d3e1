// Prediction join + UDFs: end-to-end through the provider, covering every
// shipped function, ON vs NATURAL equivalence, FLATTENED semantics, TOP,
// and the error surface.

#include "core/prediction_join.h"

#include <gtest/gtest.h>

#include "core/dmx_parser.h"
#include "core/provider.h"
#include "datagen/warehouse.h"

namespace dmx {
namespace {

class PredictionJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
    datagen::WarehouseConfig config;
    config.num_customers = 400;
    ASSERT_TRUE(datagen::PopulateWarehouse(provider_.database(), config).ok());
    Must(R"(
      CREATE MINING MODEL [M] (
        [Customer ID] LONG KEY,
        [Gender] TEXT DISCRETE,
        [Age] DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 4) PREDICT,
        [Product Purchases] TABLE(
          [Product Name] TEXT KEY,
          [Product Type] TEXT DISCRETE RELATED TO [Product Name]
        )
      ) USING Naive_Bayes)");
    Must(R"(
      INSERT INTO [M]
      SHAPE {SELECT [Customer ID], [Gender], [Age] FROM Customers
             ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
               ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  }

  Rowset Must(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_TRUE(result.ok()) << command << "\n-> "
                             << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  Status Fails(const std::string& command) {
    auto result = conn_->Execute(command);
    EXPECT_FALSE(result.ok()) << command;
    return result.status();
  }

  static constexpr const char* kNaturalSource = R"(
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";

  Provider provider_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(PredictionJoinTest, EveryScalarUdf) {
  Rowset r = Must(std::string(R"(
    SELECT t.[Customer ID],
           Predict([Age]) AS P,
           [M].[Age] AS ColumnForm,
           PredictProbability([Age]) AS Prob,
           PredictSupport([Age]) AS Supp,
           PredictVariance([Age]) AS Var,
           PredictStdev([Age]) AS Sd,
           RangeMin([Age]) AS Lo,
           RangeMid([Age]) AS Mid,
           RangeMax([Age]) AS Hi
    FROM [M])") + kNaturalSource);
  ASSERT_EQ(r.num_rows(), 400u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    // Predict([Age]) and [M].[Age] agree.
    EXPECT_TRUE(r.at(i, 1).Equals(r.at(i, 2)));
    double prob = r.at(i, 3).double_value();
    EXPECT_GT(prob, 0);
    EXPECT_LE(prob, 1 + 1e-9);
    EXPECT_GT(r.at(i, 4).double_value(), 0);  // support
    // Range* bracket the bucket: Lo <= Mid <= Hi when bounded.
    if (!r.at(i, 7).is_null() && !r.at(i, 9).is_null()) {
      EXPECT_LE(r.at(i, 7).double_value(), r.at(i, 8).double_value());
      EXPECT_LE(r.at(i, 8).double_value(), r.at(i, 9).double_value());
    }
  }
}

TEST_F(PredictionJoinTest, HistogramIsSortedAndNormalized) {
  Rowset r = Must(std::string(R"(
    SELECT PredictHistogram([Age]) AS H FROM [M])") + kNaturalSource);
  for (const Row& row : r.rows()) {
    ASSERT_TRUE(row[0].is_table());
    const NestedTable& h = *row[0].table_value();
    ASSERT_GT(h.num_rows(), 0u);
    double total = 0;
    double previous = 2;
    size_t prob_col = *h.schema()->ResolveColumn("$PROBABILITY");
    for (const Row& entry : h.rows()) {
      double p = entry[prob_col].double_value();
      EXPECT_LE(p, previous + 1e-12);  // descending
      previous = p;
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST_F(PredictionJoinTest, TopCountTrimsHistograms) {
  Rowset r = Must(std::string(R"(
    SELECT TopCount(PredictHistogram([Age]), $Probability, 2) AS H
    FROM [M])") + kNaturalSource);
  for (const Row& row : r.rows()) {
    EXPECT_LE(row[0].table_value()->num_rows(), 2u);
  }
}

TEST_F(PredictionJoinTest, OnClauseMatchesNatural) {
  std::string on_query = R"(
    SELECT t.[Customer ID], [M].[Age]
    FROM [M]
    PREDICTION JOIN
      (SHAPE {SELECT [Customer ID], [Gender] FROM Customers
              ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t
    ON [M].[Gender] = t.[Gender] AND
       [M].[Product Purchases].[Product Name] =
         t.[Product Purchases].[Product Name] AND
       [M].[Product Purchases].[Product Type] =
         t.[Product Purchases].[Product Type])";
  Rowset on_result = Must(on_query);
  Rowset natural = Must(std::string(R"(
    SELECT t.[Customer ID], [M].[Age] FROM [M])") + kNaturalSource);
  ASSERT_EQ(on_result.num_rows(), natural.num_rows());
  for (size_t i = 0; i < natural.num_rows(); ++i) {
    EXPECT_TRUE(on_result.at(i, 0).Equals(natural.at(i, 0)));
    EXPECT_TRUE(on_result.at(i, 1).Equals(natural.at(i, 1)));
  }
}

TEST_F(PredictionJoinTest, TopLimitsCases) {
  Rowset r = Must(std::string(R"(
    SELECT TOP 7 t.[Customer ID] FROM [M])") + kNaturalSource);
  EXPECT_EQ(r.num_rows(), 7u);
}

TEST_F(PredictionJoinTest, FlattenedExpandsAndRenames) {
  Rowset nested = Must(std::string(R"(
    SELECT t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  Rowset flat = Must(std::string(R"(
    SELECT FLATTENED t.[Customer ID], PredictHistogram([Age]) AS H
    FROM [M])") + kNaturalSource);
  size_t expected = 0;
  for (const Row& row : nested.rows()) {
    expected += std::max<size_t>(1, row[1].table_value()->num_rows());
  }
  EXPECT_EQ(flat.num_rows(), expected);
  EXPECT_TRUE(flat.schema()->HasColumn("H.Age"));
  EXPECT_TRUE(flat.schema()->HasColumn("H.$PROBABILITY"));
}

TEST_F(PredictionJoinTest, FlattenRowsetHandlesEmptyTables) {
  auto nested_schema = Schema::Make({{"K", DataType::kLong}});
  Rowset input(Schema::Make({{"Id", DataType::kLong},
                             ColumnDef("T", nested_schema)}));
  (void)input.Append({Value::Long(1),
                      Value::Table(NestedTable::Make(nested_schema, {}))});
  auto flat = FlattenRowset(input);
  ASSERT_TRUE(flat.ok());
  ASSERT_EQ(flat->num_rows(), 1u);
  EXPECT_TRUE(flat->at(0, 1).is_null());  // empty table -> one NULL row
}

// Regression: a nested table whose actual width disagrees with the schema the
// outer TABLE column declares used to be *silently dropped* during FLATTENED
// expansion (the Append failure was discarded). It must surface as an error.
TEST_F(PredictionJoinTest, FlattenRowsetRejectsArityMismatchedNestedTable) {
  auto declared = Schema::Make({{"K", DataType::kLong}});
  auto actual = Schema::Make({{"K", DataType::kLong}, {"V", DataType::kText}});
  Rowset input(
      Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", declared)}));
  ASSERT_TRUE(input
                  .Append({Value::Long(1),
                           Value::Table(NestedTable::Make(
                               actual, {{Value::Long(7), Value::Text("x")}}))})
                  .ok());
  auto flat = FlattenRowset(input);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kInvalidArgument)
      << flat.status().ToString();
  EXPECT_NE(flat.status().ToString().find("flattening nested table"),
            std::string::npos)
      << flat.status().ToString();
}

TEST_F(PredictionJoinTest, PredictOnTableColumnErrorsForThisService) {
  // Naive_Bayes predicts scalars; [Product Purchases] is not a target.
  Status s = Fails(std::string(R"(
    SELECT Predict([Product Purchases], 3) FROM [M])") + kNaturalSource);
  EXPECT_TRUE(s.IsBindError());
}

TEST_F(PredictionJoinTest, ErrorSurface) {
  // Unknown model.
  EXPECT_TRUE(Fails("SELECT Predict(x) FROM nope NATURAL PREDICTION JOIN "
                    "(SELECT [Customer ID] FROM Customers) AS t")
                  .IsNotFound());
  // Unknown UDF.
  EXPECT_TRUE(Fails(std::string("SELECT Summon([Age]) FROM [M]") +
                    kNaturalSource)
                  .IsNotSupported());
  // Non-predict column in a Predict UDF.
  EXPECT_TRUE(Fails(std::string("SELECT Predict([Gender]) FROM [M]") +
                    kNaturalSource)
                  .IsBindError());
  // Unknown source column.
  EXPECT_TRUE(Fails(std::string("SELECT t.[Ghost] FROM [M]") + kNaturalSource)
                  .IsBindError());
  // Cluster() on a non-segmentation model.
  EXPECT_TRUE(Fails(std::string("SELECT Cluster() FROM [M]") + kNaturalSource)
                  .IsInvalidState());
  // RangeMin on a non-discretized column.
  EXPECT_TRUE(Fails(std::string("SELECT RangeMin([Gender]) FROM [M]") +
                    kNaturalSource)
                  .IsInvalidArgument());
}

// One malformed UDF use per row: the statement's projection item, the model
// it runs against, and the diagnostic it must fail with.
struct UdfDiagnostic {
  const char* model;
  const char* expr;
  StatusCode code;
  const char* message;
  /// The check needs a case's prediction (Cluster()'s $CLUSTER entry), so
  /// it only fires when the source has rows.
  bool per_case = false;
};

const UdfDiagnostic kUdfDiagnostics[] = {
    {"M", "Predict([Age], 1, 2)", StatusCode::kInvalidArgument,
     "Predict takes 1 or 2 arguments"},
    {"M", "PredictAssociation([Age], 1, 2)", StatusCode::kInvalidArgument,
     "takes 1 or 2 arguments"},
    {"M", "PredictProbability([Age], 1, 2)", StatusCode::kInvalidArgument,
     "PredictProbability takes 1 or 2 arguments"},
    {"M", "PredictSupport()", StatusCode::kInvalidArgument,
     "PredictSupport takes 1 or 2 arguments"},
    {"M", "PredictVariance([Age], 1, 2)", StatusCode::kInvalidArgument,
     "PredictVariance takes 1 or 2 arguments"},
    {"M", "PredictStdev()", StatusCode::kInvalidArgument,
     "PredictStdev takes 1 or 2 arguments"},
    {"M", "PredictHistogram([Age], 1)", StatusCode::kInvalidArgument,
     "PredictHistogram takes exactly 1 argument"},
    {"M", "TopCount(PredictHistogram([Age]), $Probability)",
     StatusCode::kInvalidArgument,
     "TopCount takes (table expr, rank column, count)"},
    {"M", "RangeMin([Age], 1)", StatusCode::kInvalidArgument,
     "RangeMin takes exactly 1 argument"},
    {"M", "RangeMid()", StatusCode::kInvalidArgument,
     "RangeMid takes exactly 1 argument"},
    {"M", "RangeMax([Age], [Age])", StatusCode::kInvalidArgument,
     "RangeMax takes exactly 1 argument"},
    {"M", "Cluster([Age])", StatusCode::kInvalidArgument,
     "Cluster takes no arguments"},
    {"M", "ClusterProbability(1)", StatusCode::kInvalidArgument,
     "ClusterProbability takes no arguments"},
    {"Rec", "Predict([Product Purchases], 2.5)", StatusCode::kInvalidArgument,
     "n must be an integer"},
    {"M", "PredictProbability([Age], t.[Gender])",
     StatusCode::kInvalidArgument, "second argument must be a literal value"},
    {"M", "Predict(t.[Gender])", StatusCode::kBindError,
     "not a model column"},
    {"M", "TopCount(Predict([Age]), $Probability, 2)",
     StatusCode::kInvalidArgument, "TopCount: first argument is not a table"},
    {"M", "TopCount(PredictHistogram([Age]), 2, 2)",
     StatusCode::kInvalidArgument, "rank must be $Stat or a column name"},
    {"M", "TopCount(PredictHistogram([Age]), [Nope], 2)",
     StatusCode::kBindError, "unknown column 'Nope'"},
    {"M", "TopCount(PredictHistogram([Age]), $Probability, 2.5)",
     StatusCode::kInvalidArgument, "count must be an integer literal"},
    {"M", "RangeMin([Gender])", StatusCode::kInvalidArgument,
     "'Gender' is not DISCRETIZED"},
    {"M", "RangeMin([Product Purchases])", StatusCode::kBindError,
     "'Product Purchases' is not a scalar attribute"},
    {"M", "Cluster()", StatusCode::kInvalidState,
     "requires a segmentation model", /*per_case=*/true},
    {"M", "Summon([Age])", StatusCode::kNotSupported,
     "unknown function 'Summon'"},
};

class PredictionJoinDiagnosticsTest : public PredictionJoinTest {
 protected:
  void SetUp() override {
    PredictionJoinTest::SetUp();
    Must(R"(
      CREATE MINING MODEL [Rec] (
        [Customer ID] LONG KEY,
        [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
      ) USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                                MINIMUM_PROBABILITY = 0.3))");
    Must(R"(
      INSERT INTO [Rec]
      SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
      APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
              RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  }

  /// The prediction-join source, optionally filtered down to zero cases.
  static std::string Source(bool empty) {
    return std::string(R"(
      NATURAL PREDICTION JOIN
        (SHAPE {SELECT [Customer ID], [Gender] FROM Customers )") +
           (empty ? "WHERE [Customer ID] < 0 " : "") +
           R"(ORDER BY [Customer ID]}
         APPEND ({SELECT [CustID], [Product Name], [Product Type] FROM Sales
                  ORDER BY [CustID]}
                 RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)";
  }

  static std::string AsItem(const UdfDiagnostic& d, bool empty) {
    return std::string("SELECT ") + d.expr + " FROM [" + d.model + "]" +
           Source(empty);
  }

  static std::string AsFilter(const UdfDiagnostic& d, bool empty) {
    return std::string("SELECT t.[Customer ID] FROM [") + d.model + "]" +
           Source(empty) + " WHERE " + d.expr + " = 1";
  }

  void ExpectDiagnostic(const UdfDiagnostic& d, const std::string& command) {
    auto result = conn_->Execute(command);
    ASSERT_FALSE(result.ok()) << command;
    EXPECT_EQ(result.status().code(), d.code)
        << command << "\n-> " << result.status().ToString();
    EXPECT_NE(result.status().ToString().find(d.message), std::string::npos)
        << command << "\n-> " << result.status().ToString();
  }
};

TEST_F(PredictionJoinDiagnosticsTest, MalformedUdfsFailWithTheirDiagnostic) {
  for (const UdfDiagnostic& d : kUdfDiagnostics) {
    ExpectDiagnostic(d, AsItem(d, /*empty=*/false));
  }
}

// Validity is a property of the statement, not of the data: a malformed
// projection item or WHERE operand fails the same way over zero cases as
// over many.
TEST_F(PredictionJoinDiagnosticsTest, ValidityDoesNotDependOnTheData) {
  ASSERT_EQ(Must(AsItem({"M", "Predict([Age])", StatusCode::kOk, ""},
                        /*empty=*/true))
                .num_rows(),
            0u);
  for (const UdfDiagnostic& d : kUdfDiagnostics) {
    if (d.per_case) continue;
    for (bool as_filter : {false, true}) {
      const std::string on_rows =
          as_filter ? AsFilter(d, false) : AsItem(d, false);
      const std::string on_none =
          as_filter ? AsFilter(d, true) : AsItem(d, true);
      auto with_rows = conn_->Execute(on_rows);
      auto without_rows = conn_->Execute(on_none);
      ASSERT_FALSE(with_rows.ok()) << on_rows;
      ASSERT_FALSE(without_rows.ok()) << on_none << "\n-> succeeded";
      EXPECT_EQ(without_rows.status().ToString(),
                with_rows.status().ToString())
          << on_none;
      ExpectDiagnostic(d, on_none);
    }
  }
}

// The WHERE operator binds once, next to its operands. One the parser never
// produces fails at bind time, so over zero cases as over many.
TEST_F(PredictionJoinDiagnosticsTest, UnknownWhereOperatorFailsAtBind) {
  for (bool empty : {false, true}) {
    auto parsed = ParseDmx("SELECT t.[Customer ID] FROM [M]" + Source(empty) +
                           " WHERE Predict([Age]) > 1");
    ASSERT_TRUE(parsed.ok() && parsed->statement.has_value());
    auto& join = std::get<PredictionJoinStatement>(*parsed->statement);
    ASSERT_EQ(join.where.size(), 1u);
    join.where[0].op = "=~";
    auto result = ExecutePredictionJoin(*provider_.database(),
                                        provider_.models(), join, nullptr);
    ASSERT_FALSE(result.ok()) << (empty ? "zero cases" : "all cases");
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find(
                  "unknown comparison operator '=~'"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(PredictionJoinTest, PredictProbabilityWithExplicitValue) {
  // Probabilities of every bucket value sum to ~1 for a given case; an
  // unknown value scores 0.
  Rowset hist = Must(std::string(R"(
    SELECT TOP 1 PredictHistogram([Age]) AS H FROM [M])") + kNaturalSource);
  const NestedTable& h = *hist.at(0, 0).table_value();
  size_t value_col = *h.schema()->ResolveColumn("Age");
  double total = 0;
  for (const Row& entry : h.rows()) {
    std::string value = entry[value_col].ToString();
    Rowset p = Must(std::string("SELECT TOP 1 PredictProbability([Age], ") +
                    value + ") AS P FROM [M]" + kNaturalSource);
    total += p.at(0, 0).double_value();
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  Rowset zero = Must(std::string(
      "SELECT TOP 1 PredictProbability([Age], -12345.0) AS P FROM [M]") +
      kNaturalSource);
  EXPECT_DOUBLE_EQ(zero.at(0, 0).double_value(), 0.0);
}

TEST_F(PredictionJoinTest, ClusterUdfsOnSegmentationModel) {
  Must(R"(
    CREATE MINING MODEL [Seg] (
      [Customer ID] LONG KEY,
      [Age] DOUBLE CONTINUOUS,
      [Income] DOUBLE CONTINUOUS
    ) USING Clustering(CLUSTER_COUNT = 3, SEED = 5))");
  Must(R"(
    INSERT INTO [Seg]
    SELECT [Customer ID], [Age], [Income] FROM Customers)");
  Rowset r = Must(R"(
    SELECT Cluster() AS C, ClusterProbability() AS P
    FROM [Seg]
    NATURAL PREDICTION JOIN
      (SELECT [Customer ID], [Age], [Income] FROM Customers) AS t)");
  ASSERT_EQ(r.num_rows(), 400u);
  std::set<std::string> clusters;
  for (const Row& row : r.rows()) {
    clusters.insert(row[0].text_value());
    EXPECT_GT(row[1].double_value(), 0.33);
  }
  EXPECT_GE(clusters.size(), 2u);
}

TEST_F(PredictionJoinTest, AssociationTablePrediction) {
  Must(R"(
    CREATE MINING MODEL [Rec] (
      [Customer ID] LONG KEY,
      [Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
    ) USING Association_Rules(MINIMUM_SUPPORT = 0.05,
                              MINIMUM_PROBABILITY = 0.3))");
  Must(R"(
    INSERT INTO [Rec]
    SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Product Purchases])");
  Rowset r = Must(R"(
    SELECT t.[Customer ID], Predict([Product Purchases], 3) AS R
    FROM [Rec]
    NATURAL PREDICTION JOIN
      (SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
       APPEND ({SELECT [CustID], [Product Name] FROM Sales
                ORDER BY [CustID]}
               RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t)");
  ASSERT_EQ(r.num_rows(), 400u);
  for (const Row& row : r.rows()) {
    ASSERT_TRUE(row[1].is_table());
    EXPECT_LE(row[1].table_value()->num_rows(), 3u);
    // The recommendation table is keyed by the nested KEY's name.
    EXPECT_EQ(row[1].table_value()->schema()->column(0).name, "Product Name");
  }
}

}  // namespace
}  // namespace dmx
