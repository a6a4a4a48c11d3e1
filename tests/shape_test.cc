// Data Shaping Service: SHAPE parsing, hierarchical rowset construction, the
// streaming case reader, and the structural invariants of shaping
// (child-row conservation, key containment).

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "datagen/warehouse.h"
#include "fuzz/fuzz_targets.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"
#include "shape/shape_parser.h"

namespace dmx::shape {
namespace {

constexpr const char* kPaperShape = R"(
SHAPE
  {SELECT [Customer ID], [Gender], [Age] FROM Customers
   ORDER BY [Customer ID]}
APPEND (
  {SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales
   ORDER BY [CustID]}
  RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
)";

class ShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::LoadPaperExample(&db_).ok());
  }

  rel::Database db_;
};

TEST_F(ShapeTest, ParsesThePaperStatement) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->appends.size(), 1u);
  EXPECT_EQ(stmt->appends[0].name, "Product Purchases");
  ASSERT_EQ(stmt->appends[0].relations.size(), 1u);
  EXPECT_EQ(stmt->appends[0].relations[0].parent_column, "Customer ID");
  EXPECT_EQ(stmt->appends[0].relations[0].child_column, "CustID");
}

TEST_F(ShapeTest, ParseErrors) {
  EXPECT_TRUE(ParseShape("SHAPE {SELECT a FROM t}").status().IsParseError());
  EXPECT_TRUE(ParseShape("SHAPE {SELECT a FROM t} APPEND ({SELECT b FROM u})")
                  .status()
                  .IsParseError());  // missing RELATE
  EXPECT_TRUE(
      ParseShape(
          "SHAPE {SELECT a FROM t} APPEND ({SELECT b FROM u} RELATE a TO b)")
          .status()
          .IsParseError());  // missing AS
}

TEST_F(ShapeTest, BuildsThePaperTable1Case) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok()) << caseset.status().ToString();
  ASSERT_EQ(caseset->num_rows(), 3u);
  // Customer 1 is Table 1: male, 35, with exactly 4 purchases.
  const Row& customer1 = caseset->rows()[0];
  EXPECT_TRUE(customer1[0].Equals(Value::Long(1)));
  EXPECT_TRUE(customer1[1].Equals(Value::Text("Male")));
  ASSERT_TRUE(customer1[3].is_table());
  const NestedTable& purchases = *customer1[3].table_value();
  EXPECT_EQ(purchases.num_rows(), 4u);
  // Beer has quantity 6 and type Beverage, exactly as in Table 1.
  bool found_beer = false;
  for (const Row& row : purchases.rows()) {
    if (row[1].Equals(Value::Text("Beer"))) {
      found_beer = true;
      EXPECT_TRUE(row[2].Equals(Value::Double(6)));
      EXPECT_TRUE(row[3].Equals(Value::Text("Beverage")));
    }
  }
  EXPECT_TRUE(found_beer);
}

TEST_F(ShapeTest, CustomersWithoutChildrenGetEmptyTables) {
  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Car] FROM CarOwnership ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Cars])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok());
  // Customer 2 owns no car.
  EXPECT_EQ(caseset->rows()[1][1].table_value()->num_rows(), 0u);
  EXPECT_EQ(caseset->rows()[0][1].table_value()->num_rows(), 2u);
}

TEST_F(ShapeTest, MultipleAppendsYieldMultipleNestedColumns) {
  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID], [Gender] FROM Customers}
    APPEND ({SELECT [CustID], [Product Name] FROM Sales}
            RELATE [Customer ID] TO [CustID]) AS [Purchases]
    APPEND ({SELECT [CustID], [Car], [Car Probability] FROM CarOwnership}
            RELATE [Customer ID] TO [CustID]) AS [Cars])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok());
  ASSERT_EQ(caseset->num_columns(), 4u);
  EXPECT_EQ(caseset->schema()->column(2).type, DataType::kTable);
  EXPECT_EQ(caseset->schema()->column(3).type, DataType::kTable);
  // Table 1's car ownership: truck 100%, van 50%.
  const NestedTable& cars = *caseset->rows()[0][3].table_value();
  ASSERT_EQ(cars.num_rows(), 2u);
}

TEST_F(ShapeTest, StreamingReaderMatchesMaterializedExecution) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok());
  auto materialized = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(materialized.ok());
  auto reader = ShapedCaseReader::Create(db_, *stmt);
  ASSERT_TRUE(reader.ok());
  Row row;
  size_t i = 0;
  while (true) {
    auto has = (*reader)->Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ASSERT_LT(i, materialized->num_rows());
    const Row& expected = materialized->rows()[i];
    ASSERT_EQ(row.size(), expected.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(row[c].Equals(expected[c])) << "case " << i << " col " << c;
    }
    ++i;
  }
  EXPECT_EQ(i, materialized->num_rows());
}

// Differential oracle: ShapedCaseReader against the nested-loop reference
// relate (fuzz::CheckShape) over inputs in every order. Parent keys
// repeat, some are NULL, some have no children; child keys include NULLs
// and keys no parent has. Rows are inserted in a seeded random order.
TEST(ShapeOracle, MatchesTheNestedLoopReference) {
  rel::Database db;
  ASSERT_TRUE(
      rel::ExecuteSql(&db, "CREATE TABLE Parents (Id LONG, Grp TEXT, Sub LONG)")
          .ok());
  ASSERT_TRUE(rel::ExecuteSql(&db, "CREATE TABLE Children (PId LONG, Grp "
                                   "TEXT, Sub LONG, Seq LONG)")
                  .ok());
  std::mt19937 rng(11);
  auto maybe_null = [&](Value v) {
    if (rng() % 9 == 0) v = Value::Null();
    return v;
  };
  auto group = [&] {
    return Value::Text(std::string(1, static_cast<char>('a' + rng() % 4)));
  };
  std::vector<Row> parents;
  for (int i = 0; i < 60; ++i) {
    parents.push_back({maybe_null(Value::Long(rng() % 30)), maybe_null(group()),
                       Value::Long(rng() % 3)});
  }
  std::vector<Row> children;
  for (int64_t seq = 0; seq < 250; ++seq) {
    children.push_back({maybe_null(Value::Long(rng() % 40)),
                        maybe_null(group()), Value::Long(rng() % 3),
                        Value::Long(seq)});
  }
  ASSERT_TRUE((*db.GetTable("Parents"))->InsertAll(parents).ok());
  ASSERT_TRUE((*db.GetTable("Children"))->InsertAll(children).ok());

  const char* kStatements[] = {
      // Unordered on both sides.
      "SHAPE {SELECT * FROM Parents} APPEND ({SELECT * FROM Children}"
      " RELATE Id TO PId) AS C",
      // The paper's form: both sides ordered on the key.
      "SHAPE {SELECT * FROM Parents ORDER BY Id} APPEND ({SELECT PId, Seq"
      " FROM Children ORDER BY PId} RELATE Id TO PId) AS C",
      // Descending on both sides.
      "SHAPE {SELECT * FROM Parents ORDER BY Id DESC} APPEND ({SELECT * FROM"
      " Children ORDER BY PId DESC} RELATE Id TO PId) AS C",
      // Children ordered on another column; filters on both sides.
      "SHAPE {SELECT * FROM Parents WHERE Sub <> 1} APPEND ({SELECT * FROM"
      " Children WHERE Seq > 40 ORDER BY Seq DESC} RELATE Id TO PId) AS C",
      // Two RELATE pairs, and a second APPEND on another key.
      "SHAPE {SELECT * FROM Parents ORDER BY Grp} APPEND ({SELECT * FROM"
      " Children ORDER BY Sub} RELATE Grp TO Grp, Sub TO Sub) AS ByGroup"
      " APPEND ({SELECT Seq, PId FROM Children} RELATE Id TO PId) AS ById",
  };
  for (const char* text : kStatements) {
    auto stmt = ParseShape(text);
    ASSERT_TRUE(stmt.ok()) << text << "\n" << stmt.status().ToString();
    auto caseset = ExecuteShape(db, *stmt);
    ASSERT_TRUE(caseset.ok()) << text << "\n" << caseset.status().ToString();
    ASSERT_GT(caseset->num_rows(), 0u) << text;
    fuzz::CheckResult check = fuzz::CheckShape(db, *stmt);
    EXPECT_TRUE(check.ok) << text << "\n" << check.error;
  }
}

// Relating is Value::Equals, under which NaN equals nothing, not even NaN:
// a NaN parent key relates to no child although NaN orders equal to NaN.
TEST(ShapeOracle, NaNKeyRelatesToNothing) {
  rel::Database db;
  ASSERT_TRUE(rel::ExecuteSql(&db, "CREATE TABLE P (K DOUBLE)").ok());
  ASSERT_TRUE(rel::ExecuteSql(&db, "CREATE TABLE C (K DOUBLE, Tag TEXT)").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE((*db.GetTable("P"))
                  ->InsertAll({{Value::Double(nan)}, {Value::Double(1)}})
                  .ok());
  ASSERT_TRUE((*db.GetTable("C"))
                  ->InsertAll({{Value::Double(nan), Value::Text("nan")},
                               {Value::Double(1), Value::Text("one")}})
                  .ok());
  auto stmt = ParseShape(
      "SHAPE {SELECT K FROM P} APPEND ({SELECT K, Tag FROM C ORDER BY K}"
      " RELATE K TO K) AS N");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db, *stmt);
  ASSERT_TRUE(caseset.ok()) << caseset.status().ToString();
  ASSERT_EQ(caseset->num_rows(), 2u);
  EXPECT_EQ(caseset->at(0, 1).table_value()->num_rows(), 0u);
  ASSERT_EQ(caseset->at(1, 1).table_value()->num_rows(), 1u);
  EXPECT_EQ(caseset->at(1, 1).table_value()->rows()[0][1].text_value(), "one");
  fuzz::CheckResult check = fuzz::CheckShape(db, *stmt);
  EXPECT_TRUE(check.ok) << check.error;
}

// Nested tables borrow the child rowset: the cases of consecutive parent
// keys view adjacent runs of one row vector instead of owning copies.
TEST_F(ShapeTest, NestedTablesViewOneChildRowset) {
  auto stmt = ParseShape(kPaperShape);
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db_, *stmt);
  ASSERT_TRUE(caseset.ok()) << caseset.status().ToString();
  ASSERT_GE(caseset->num_rows(), 2u);
  const NestedTable& first = *caseset->at(0, 3).table_value();
  const NestedTable& second = *caseset->at(1, 3).table_value();
  ASSERT_GT(first.num_rows(), 0u);
  EXPECT_EQ(first.rows().data() + first.num_rows(), second.rows().data());
}

// Property suite over warehouse sizes: shaping conserves child rows and only
// attaches children whose key matches the parent.
class ShapeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ShapeInvariants, ConservationAndContainment) {
  rel::Database db;
  datagen::WarehouseConfig config;
  config.num_customers = GetParam();
  config.seed = 1000 + GetParam();
  ASSERT_TRUE(datagen::PopulateWarehouse(&db, config).ok());

  auto stmt = ParseShape(R"(
    SHAPE {SELECT [Customer ID], [Gender] FROM Customers
           ORDER BY [Customer ID]}
    APPEND ({SELECT [CustID], [Product Name] FROM Sales ORDER BY [CustID]}
            RELATE [Customer ID] TO [CustID]) AS [Purchases])");
  ASSERT_TRUE(stmt.ok());
  auto caseset = ExecuteShape(db, *stmt);
  ASSERT_TRUE(caseset.ok());

  auto sales = db.GetTable("Sales");
  ASSERT_TRUE(sales.ok());

  // Every parent key is unique here, so conservation is exact: nested rows
  // across all cases == sales rows (every sale belongs to a customer).
  size_t nested_total = 0;
  for (const Row& row : caseset->rows()) {
    ASSERT_TRUE(row[2].is_table());
    const NestedTable& nested = *row[2].table_value();
    nested_total += nested.num_rows();
    // Containment: each child carries the parent's key.
    for (const Row& child : nested.rows()) {
      EXPECT_TRUE(child[0].Equals(row[0]));
    }
  }
  EXPECT_EQ(nested_total, (*sales)->num_rows());
  EXPECT_EQ(caseset->num_rows(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShapeInvariants,
                         ::testing::Values(1, 7, 50, 200));

}  // namespace
}  // namespace dmx::shape
