#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/nested_table.h"
#include "common/rowset.h"
#include "relational/sql_executor.h"
#include "shape/shape_executor.h"
#include "shape/shape_parser.h"

namespace dmx {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Long(7).long_value(), 7);
  EXPECT_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Text("hi").text_value(), "hi");
  EXPECT_TRUE(Value::Long(1).is_numeric());
  EXPECT_FALSE(Value::Text("1").is_numeric());
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_EQ(*Value::Bool(true).AsDouble(), 1.0);
  EXPECT_EQ(*Value::Long(3).AsDouble(), 3.0);
  EXPECT_EQ(*Value::Double(3.5).AsDouble(), 3.5);
  EXPECT_FALSE(Value::Text("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, AsLongRejectsFractions) {
  EXPECT_EQ(*Value::Double(4.0).AsLong(), 4);
  EXPECT_FALSE(Value::Double(4.5).AsLong().ok());
}

TEST(ValueTest, CoerceToColumnTypes) {
  EXPECT_EQ(Value::Long(1).CoerceTo(DataType::kDouble)->double_value(), 1.0);
  EXPECT_EQ(Value::Double(2.0).CoerceTo(DataType::kLong)->long_value(), 2);
  EXPECT_EQ(Value::Long(0).CoerceTo(DataType::kBool)->bool_value(), false);
  EXPECT_EQ(Value::Long(12).CoerceTo(DataType::kText)->text_value(), "12");
  // NULL survives coercion to any type.
  EXPECT_TRUE(Value::Null().CoerceTo(DataType::kDouble)->is_null());
  // Scalars never become tables.
  EXPECT_FALSE(Value::Long(1).CoerceTo(DataType::kTable).ok());
}

TEST(ValueTest, CrossKindNumericEquality) {
  EXPECT_TRUE(Value::Long(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Long(3).Equals(Value::Double(3.5)));
  EXPECT_FALSE(Value::Long(1).Equals(Value::Bool(true)));  // bool is not 1
  EXPECT_FALSE(Value::Long(3).Equals(Value::Text("3")));
  // Hash must agree with the cross-kind equality.
  EXPECT_EQ(Value::Long(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, TotalOrder) {
  // NULL < bool < numbers < text.
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Long(0)), 0);
  EXPECT_LT(Value::Long(5).Compare(Value::Text("")), 0);
  EXPECT_LT(Value::Long(2).Compare(Value::Double(2.5)), 0);
  EXPECT_EQ(Value::Long(2).Compare(Value::Double(2.0)), 0);
  EXPECT_GT(Value::Text("b").Compare(Value::Text("a")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

// 2^53 + 1 is the first LONG a double cannot hold: it rounds to 2^53.
constexpr int64_t kTwoPow53 = int64_t{1} << 53;

TEST(ValueTest, LongsCompareExactlyAboveTwoPow53) {
  Value odd = Value::Long(kTwoPow53 + 1);
  Value even = Value::Long(kTwoPow53);
  EXPECT_GT(odd.Compare(even), 0);
  EXPECT_LT(even.Compare(odd), 0);
  EXPECT_FALSE(odd.Equals(even));
  // Both round to the same double; only 2^53 itself equals it.
  Value rounded = Value::Double(static_cast<double>(kTwoPow53));
  EXPECT_TRUE(even.Equals(rounded));
  EXPECT_EQ(even.Compare(rounded), 0);
  EXPECT_EQ(even.Hash(), rounded.Hash());
  EXPECT_FALSE(odd.Equals(rounded));
  EXPECT_FALSE(rounded.Equals(odd));
  EXPECT_GT(odd.Compare(rounded), 0);
  EXPECT_LT(rounded.Compare(odd), 0);
  // Fractions and the ends of the int64 range.
  EXPECT_LT(Value::Long(-3).Compare(Value::Double(-2.5)), 0);
  EXPECT_GT(Value::Long(-2).Compare(Value::Double(-2.5)), 0);
  EXPECT_LT(Value::Long(INT64_MAX).Compare(Value::Double(0x1p63)), 0);
  EXPECT_EQ(Value::Long(INT64_MIN).Compare(Value::Double(-0x1p63)), 0);
  EXPECT_GT(Value::Long(INT64_MIN).Compare(Value::Double(-0x1p64)), 0);
}

TEST(ValueTest, CompareIsAStrictWeakOrderConsistentWithEquals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Null(),          Value::Null(),
      Value::Bool(false),     Value::Bool(true),
      Value::Long(INT64_MIN), Value::Double(-inf),
      Value::Double(-0x1p63), Value::Long(-3),
      Value::Double(-2.5),    Value::Double(-0.0),
      Value::Long(0),         Value::Double(0.0),
      Value::Long(2),         Value::Double(2.0),
      Value::Double(2.5),     Value::Long(kTwoPow53),
      Value::Double(0x1p53),  Value::Long(kTwoPow53 + 1),
      Value::Long(INT64_MAX), Value::Double(0x1p63),
      Value::Double(inf),     Value::Double(nan),
      Value::Double(-nan),    Value::Text(""),
      Value::Text("a"),       Value::Text("b")};
  auto sign = [](int cmp) { return (cmp > 0) - (cmp < 0); };
  auto is_nan = [](const Value& v) {
    return v.is_double() && std::isnan(v.double_value());
  };
  for (const Value& a : values) {
    EXPECT_EQ(a.Compare(a), 0) << a.ToString();  // irreflexive
    for (const Value& b : values) {
      const int ab = a.Compare(b);
      EXPECT_EQ(sign(ab), -sign(b.Compare(a)))
          << a.ToString() << " vs " << b.ToString();
      // Compare()==0 is Equals() except for NaN; Hash follows Equals.
      if (!is_nan(a) && !is_nan(b)) {
        EXPECT_EQ(ab == 0, a.Equals(b))
            << a.ToString() << " vs " << b.ToString();
      } else {
        EXPECT_FALSE(a.Equals(b));
      }
      if (a.Equals(b)) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString();
      }
      for (const Value& c : values) {
        const int bc = b.Compare(c);
        const int ac = a.Compare(c);
        if (ab < 0 && bc < 0) {
          EXPECT_LT(ac, 0) << a.ToString() << " < " << b.ToString() << " < "
                           << c.ToString();
        }
        if (ab == 0 && bc == 0) {  // equivalence is transitive
          EXPECT_EQ(ac, 0) << a.ToString() << " ~ " << b.ToString() << " ~ "
                           << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, OrderByKeepsLongsAboveTwoPow53Apart) {
  rel::Database db;
  ASSERT_TRUE(rel::ExecuteSql(&db, "CREATE TABLE T (Id LONG)").ok());
  ASSERT_TRUE(rel::ExecuteSql(&db, "INSERT INTO T VALUES (9007199254740993),"
                                   " (9007199254740992)")
                  .ok());
  auto sorted = rel::ExecuteSql(&db, "SELECT Id FROM T ORDER BY Id");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ(sorted->num_rows(), 2u);
  EXPECT_EQ(sorted->at(0, 0).long_value(), kTwoPow53);
  EXPECT_EQ(sorted->at(1, 0).long_value(), kTwoPow53 + 1);
}

TEST(ValueTest, ShapeRelatesAdjacentIdsAboveTwoPow53Apart) {
  rel::Database db;
  for (const char* sql :
       {"CREATE TABLE P (Id LONG)",
        "INSERT INTO P VALUES (9007199254740993), (9007199254740992)",
        "CREATE TABLE C (PId LONG, Tag TEXT)",
        "INSERT INTO C VALUES (9007199254740992, 'even'),"
        " (9007199254740993, 'odd'), (9007199254740992, 'even2')"}) {
    ASSERT_TRUE(rel::ExecuteSql(&db, sql).ok()) << sql;
  }
  auto stmt = shape::ParseShape(
      "SHAPE {SELECT Id FROM P} APPEND ({SELECT PId, Tag FROM C ORDER BY PId}"
      " RELATE Id TO PId) AS K");
  ASSERT_TRUE(stmt.ok());
  auto caseset = shape::ExecuteShape(db, *stmt);
  ASSERT_TRUE(caseset.ok()) << caseset.status().ToString();
  ASSERT_EQ(caseset->num_rows(), 2u);
  const NestedTable& odd = *caseset->at(0, 1).table_value();
  const NestedTable& even = *caseset->at(1, 1).table_value();
  ASSERT_EQ(odd.num_rows(), 1u);
  EXPECT_EQ(odd.rows()[0][1].text_value(), "odd");
  ASSERT_EQ(even.num_rows(), 2u);
  EXPECT_EQ(even.rows()[0][1].text_value(), "even");
  EXPECT_EQ(even.rows()[1][1].text_value(), "even2");
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Long(-5).ToString(), "-5");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(4.0).ToString(), "4");
  EXPECT_EQ(Value::Text("abc").ToString(), "abc");
}

std::shared_ptr<const NestedTable> MakeTable(std::vector<int64_t> keys) {
  auto schema = Schema::Make({{"K", DataType::kLong}});
  std::vector<Row> rows;
  for (int64_t k : keys) rows.push_back({Value::Long(k)});
  return NestedTable::Make(schema, std::move(rows));
}

TEST(ValueTest, NestedTableEqualityIsStructural) {
  Value a = Value::Table(MakeTable({1, 2}));
  Value b = Value::Table(MakeTable({1, 2}));
  Value c = Value::Table(MakeTable({1, 3}));
  Value d = Value::Table(MakeTable({1}));
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_FALSE(a.Equals(d));
  EXPECT_EQ(a.ToString(), "#rows=2");
}

TEST(ValueTest, NestedTableSchemaMismatchIsUnequal) {
  auto schema2 = Schema::Make({{"X", DataType::kLong}});
  auto other = NestedTable::Make(schema2, {{Value::Long(1)}});
  EXPECT_FALSE(Value::Table(MakeTable({1})).Equals(Value::Table(other)));
}

TEST(DataTypeTest, NamesRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kLong, DataType::kDouble,
                     DataType::kText, DataType::kTable}) {
    auto parsed = DataTypeFromString(DataTypeToString(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_EQ(*DataTypeFromString("long"), DataType::kLong);
  EXPECT_EQ(*DataTypeFromString("FLOAT"), DataType::kDouble);
  EXPECT_FALSE(DataTypeFromString("BLOB").ok());
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema schema({{"Customer ID", DataType::kLong}, {"Gender", DataType::kText}});
  EXPECT_EQ(schema.FindColumn("customer id"), 0);
  EXPECT_EQ(schema.FindColumn("GENDER"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
  EXPECT_TRUE(schema.ResolveColumn("missing").status().IsBindError());
}

TEST(SchemaTest, EqualsComparesNestedSchemas) {
  auto nested_a = Schema::Make({{"P", DataType::kText}});
  auto nested_b = Schema::Make({{"P", DataType::kLong}});
  Schema a({{"Id", DataType::kLong}, ColumnDef("T", nested_a)});
  Schema b({{"id", DataType::kLong}, ColumnDef("t", nested_a)});
  Schema c({{"Id", DataType::kLong}, ColumnDef("T", nested_b)});
  EXPECT_TRUE(a.Equals(b));  // names fold case
  EXPECT_FALSE(a.Equals(c));
}

TEST(RowsetTest, AppendChecksArity) {
  Rowset rs(Schema::Make({{"A", DataType::kLong}, {"B", DataType::kText}}));
  EXPECT_TRUE(rs.Append({Value::Long(1), Value::Text("x")}).ok());
  EXPECT_FALSE(rs.Append({Value::Long(1)}).ok());
  EXPECT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "b")->text_value(), "x");
  EXPECT_FALSE(rs.Get(0, "c").ok());
  EXPECT_FALSE(rs.Get(5, "a").ok());
}

TEST(RowsetTest, ApproxBytesGrowsWithData) {
  Rowset small(Schema::Make({{"A", DataType::kLong}}));
  Rowset big(Schema::Make({{"A", DataType::kLong}}));
  (void)small.Append({Value::Long(1)});
  for (int i = 0; i < 100; ++i) (void)big.Append({Value::Long(i)});
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes());
}

TEST(RowsetTest, ReaderRoundTrip) {
  Rowset rs(Schema::Make({{"A", DataType::kLong}}));
  for (int i = 0; i < 5; ++i) (void)rs.Append({Value::Long(i)});
  VectorRowsetReader reader(rs);
  auto copy = reader.ReadAll();
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->num_rows(), 5u);
  EXPECT_TRUE(copy->at(4, 0).Equals(Value::Long(4)));
  // Reader is exhausted now.
  Row row;
  auto again = reader.Next(&row);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(RowsetTest, ToStringShowsHeadersAndNested) {
  Rowset rs(Schema::Make({{"Id", DataType::kLong},
                          ColumnDef("T", Schema::Make({{"K", DataType::kLong}}))}));
  (void)rs.Append({Value::Long(1), Value::Table(MakeTable({9}))});
  std::string flat = rs.ToString();
  EXPECT_NE(flat.find("Id"), std::string::npos);
  EXPECT_NE(flat.find("#rows=1"), std::string::npos);
  std::string expanded = rs.ToString(/*expand_nested=*/true);
  EXPECT_NE(expanded.find("9"), std::string::npos);
}

}  // namespace
}  // namespace dmx
