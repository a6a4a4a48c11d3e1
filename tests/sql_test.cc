// SQL subset: parser, expression semantics, executor (filters, ordering,
// hash/nested-loop joins, TOP), DDL/DML, and CSV import/export.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <random>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/exec_guard.h"
#include "core/provider.h"
#include "relational/database.h"
#include "relational/sql_executor.h"
#include "relational/sql_parser.h"
#include "relational/table.h"

namespace dmx::rel {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE People (Id LONG, Name TEXT, Age LONG, City TEXT)");
    Must(R"(INSERT INTO People VALUES
        (1, 'Ann', 34, 'Oslo'),
        (2, 'Bob', 28, 'Rome'),
        (3, 'Cid', 42, 'Oslo'),
        (4, 'Dee', 28, 'Bern'))");
    Must("CREATE TABLE Pets (Owner LONG, Pet TEXT)");
    Must(R"(INSERT INTO Pets VALUES
        (1, 'cat'), (1, 'dog'), (3, 'fish'), (9, 'owl'))");
  }

  Rowset Must(const std::string& sql) {
    auto result = ExecuteSql(&db_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : Rowset();
  }

  Status Fails(const std::string& sql) {
    auto result = ExecuteSql(&db_, sql);
    EXPECT_FALSE(result.ok()) << sql;
    return result.status();
  }

  Database db_;
};

// `rows` in a canonical order (cells by Value::Compare, then by kind), so
// two results compare as multisets.
std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
      if (int cmp = a[c].Compare(b[c]); cmp != 0) return cmp < 0;
      if (a[c].kind() != b[c].kind()) return a[c].kind() < b[c].kind();
    }
    return a.size() < b.size();
  });
  return rows;
}

// Cell-for-cell identity: same kind, Equals, and NaN matching NaN.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.kind() != y.kind()) return false;
      const bool nan = x.is_double() && std::isnan(x.double_value());
      if (nan ? !std::isnan(y.double_value()) : !x.Equals(y)) return false;
    }
  }
  return true;
}

// Complexity, not speed: a one-row INSERT must not reallocate the whole
// table, so its median cost at 100k rows stays within 2x of its median cost
// at 1k rows. The two tables take turns, so load from other processes
// lands on both sides alike.
TEST(TableTest, SingleRowInsertCostDoesNotGrowWithTheTable) {
  constexpr int kSamples = 101;
  constexpr int kBatch = 16;
  auto schema = Schema::Make({ColumnDef("Id", DataType::kLong)});
  Table small("Small", schema);
  Table large("Large", schema);
  ASSERT_TRUE(
      small.InsertAll(std::vector<Row>(1'000, Row{Value::Long(0)})).ok());
  ASSERT_TRUE(
      large.InsertAll(std::vector<Row>(100'000, Row{Value::Long(0)})).ok());
  // Wall time of kBatch single-row InsertAll calls into `table`.
  auto time_batch = [](Table* table) {
    std::vector<std::vector<Row>> batch(kBatch);
    for (auto& one : batch) one.push_back(Row{Value::Long(1)});
    const auto start = std::chrono::steady_clock::now();
    for (auto& one : batch) EXPECT_TRUE(table->InsertAll(std::move(one)).ok());
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> small_ns, large_ns;
  for (int s = 0; s < kSamples; ++s) {
    if (s % 2 == 0) small_ns.push_back(time_batch(&small));
    large_ns.push_back(time_batch(&large));
    if (s % 2 == 1) small_ns.push_back(time_batch(&small));
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_LE(median(large_ns), 2 * median(small_ns))
      << "ns per batch of " << kBatch << ": 1k rows " << median(small_ns)
      << ", 100k rows " << median(large_ns);
}

TEST_F(SqlTest, SelectStarPreservesSchemaOrder) {
  Rowset r = Must("SELECT * FROM People");
  EXPECT_EQ(r.num_rows(), 4u);
  ASSERT_EQ(r.num_columns(), 4u);
  EXPECT_EQ(r.schema()->column(0).name, "Id");
  EXPECT_EQ(r.schema()->column(3).name, "City");
}

TEST_F(SqlTest, WhereFiltersAndProjects) {
  Rowset r = Must("SELECT Name FROM People WHERE Age = 28");
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Bob");
}

TEST_F(SqlTest, WhereComposesBooleans) {
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age > 30 AND City = 'Oslo'")
                .num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age > 40 OR City = 'Bern'")
                .num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE NOT (City = 'Oslo')").num_rows(),
            2u);
  EXPECT_EQ(Must("SELECT Id FROM People WHERE Age <> 28").num_rows(), 2u);
}

TEST_F(SqlTest, ArithmeticInProjection) {
  Rowset r = Must("SELECT Age * 2 + 1 AS D FROM People WHERE Id = 1");
  EXPECT_EQ(r.at(0, 0).long_value(), 69);
  EXPECT_EQ(r.schema()->column(0).name, "D");
  Rowset div = Must("SELECT Age / 4 AS Q FROM People WHERE Id = 1");
  EXPECT_EQ(div.at(0, 0).double_value(), 8.5);
}

TEST_F(SqlTest, DivisionByZeroYieldsNull) {
  Rowset r = Must("SELECT Age / 0 AS Q FROM People WHERE Id = 1");
  EXPECT_TRUE(r.at(0, 0).is_null());
}

TEST_F(SqlTest, OrderByMultipleKeysAndDirections) {
  Rowset r = Must("SELECT Name FROM People ORDER BY Age ASC, Name DESC");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Dee");  // 28, 'Dee' > 'Bob'
  EXPECT_EQ(r.at(1, 0).text_value(), "Bob");
  EXPECT_EQ(r.at(3, 0).text_value(), "Cid");
}

TEST_F(SqlTest, OrderByProjectionAlias) {
  Rowset r = Must("SELECT Id, Age * -1 AS NegAge FROM People ORDER BY NegAge");
  EXPECT_EQ(r.at(0, 0).long_value(), 3);  // oldest first
}

TEST_F(SqlTest, TopAppliesAfterOrdering) {
  Rowset r = Must("SELECT TOP 2 Name FROM People ORDER BY Age DESC");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Cid");
  EXPECT_EQ(r.at(1, 0).text_value(), "Ann");
}

// Differential oracle for ORDER BY. Table S holds rows in Id order and
// table Shuffled the same rows in a seeded random order. Over either table a
// statement must return a std::stable_sort of the table's unsorted rows (so
// ties keep insertion order), and the two tables' results must agree row for
// row on the sort keys, and on whole rows when Id is the last key.
TEST(SqlOrderByOracle, MatchesAStableSortOverOrderedAndShuffledCopies) {
  Database db;
  std::mt19937 rng(7);
  std::vector<Row> rows;
  for (int64_t id = 0; id < 300; ++id) {
    Value k = rng() % 10 == 0 ? Value::Null()
                              : Value::Long(static_cast<int64_t>(rng() % 7));
    Value x = rng() % 8 == 0 ? Value::Null()
                             : Value::Double((rng() % 50) / 4.0 - 3);
    Value name = Value::Text(std::string(1, static_cast<char>('a' + rng() % 5)));
    rows.push_back({Value::Long(id), k, x, name});
  }
  std::vector<Row> shuffled = rows;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const char* table : {"S", "Shuffled"}) {
    ASSERT_TRUE(ExecuteSql(&db, std::string("CREATE TABLE ") + table +
                                    " (Id LONG, K LONG, X DOUBLE, Name TEXT)")
                    .ok());
  }
  ASSERT_TRUE((*db.GetTable("S"))->InsertAll(rows).ok());
  ASSERT_TRUE((*db.GetTable("Shuffled"))->InsertAll(shuffled).ok());
  // S's Id is in order, so a WHERE on it narrows S's scan; K and X hold
  // NULLs and Name is random. Over Shuffled every scan reads all rows.
  const Table& s_table = **db.GetTable("S");
  const Table& shuffled_table = **db.GetTable("Shuffled");
  ASSERT_TRUE(s_table.in_order(0));
  for (size_t c = 0; c < 4; ++c) {
    if (c > 0) {
      ASSERT_FALSE(s_table.in_order(c)) << c;
    }
    ASSERT_FALSE(shuffled_table.in_order(c)) << c;
  }

  struct Case {
    const char* where;
    const char* order_by;
    std::vector<std::pair<size_t, bool>> keys;  // (column, ascending)
  };
  const std::vector<Case> cases = {
      {"", "K", {{1, true}}},
      {"", "K DESC", {{1, false}}},
      {"", "K, Name DESC", {{1, true}, {3, false}}},
      {"", "Name DESC, X", {{3, false}, {2, true}}},
      {"", "X DESC, K", {{2, false}, {1, true}}},
      {"", "Id", {{0, true}}},
      {"", "Id DESC", {{0, false}}},
      {"K > 2", "X, Id", {{2, true}, {0, true}}},
      {"Name <> 'c'", "K DESC, Name, Id DESC",
       {{1, false}, {3, true}, {0, false}}},
      // Range scans: S narrows them by binary search on Id.
      {"Id >= 40 AND Id < 56", "K, Id", {{1, true}, {0, true}}},
      {"Id = 7", "Id", {{0, true}}},
      {"150 <= Id AND K > 2 AND Id < 170", "X DESC, Id",
       {{2, false}, {0, true}}},
      {"K = 3 AND Id > 280", "Name, Id", {{3, true}, {0, true}}},
      {"Id > 12.5 AND Id <= 20.0", "Id DESC", {{0, false}}},
      {"Id < 0 OR Id > 297", "Id", {{0, true}}},
      {"Id <> 4 AND Id < 9", "Name DESC, Id", {{3, false}, {0, true}}},
      {"Id >= 100 AND Id < 50", "Id", {{0, true}}},
      {"Id > 'a'", "Id", {{0, true}}},
      {"Id < NULL", "Id", {{0, true}}},
  };
  auto same_cells = [](const Row& a, const Row& b,
                       const std::vector<size_t>& columns) {
    for (size_t c : columns) {
      if (!a[c].Equals(b[c])) return false;
    }
    return true;
  };
  for (const Case& c : cases) {
    std::vector<Rowset> results;
    std::vector<std::vector<Row>> unordered;
    for (const std::string table : {"S", "Shuffled"}) {
      std::string from = "SELECT * FROM " + table +
                         (*c.where ? std::string(" WHERE ") + c.where : "");
      auto sorted = ExecuteSql(&db, from + " ORDER BY " + c.order_by);
      auto unsorted = ExecuteSql(&db, from);
      ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
      ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
      unordered.push_back(Canonical(unsorted->rows()));
      std::vector<Row> expected = unsorted->rows();
      std::stable_sort(expected.begin(), expected.end(),
                       [&](const Row& a, const Row& b) {
                         for (auto [col, ascending] : c.keys) {
                           int cmp = a[col].Compare(b[col]);
                           if (cmp != 0) return ascending ? cmp < 0 : cmp > 0;
                         }
                         return false;
                       });
      ASSERT_EQ(sorted->num_rows(), expected.size()) << c.order_by;
      for (size_t r = 0; r < expected.size(); ++r) {
        ASSERT_TRUE(same_cells(sorted->rows()[r], expected[r], {0, 1, 2, 3}))
            << table << " ORDER BY " << c.order_by << ", row " << r;
      }
      results.push_back(std::move(sorted).value());
    }
    EXPECT_TRUE(SameRows(unordered[0], unordered[1]))
        << "S and Shuffled differ as multisets under WHERE " << c.where;
    std::vector<size_t> compared;
    for (auto [col, ascending] : c.keys) compared.push_back(col);
    if (compared.back() == 0) compared = {0, 1, 2, 3};
    for (size_t r = 0; r < results[0].num_rows(); ++r) {
      ASSERT_TRUE(same_cells(results[0].rows()[r], results[1].rows()[r],
                             compared))
          << "S and Shuffled differ under ORDER BY " << c.order_by
          << ", row " << r;
    }
  }
}

// The in-order bit and the range scans it enables. Each SELECT runs over
// table T, whose rows arrive as the test inserts them, and over table U,
// which holds the same rows reversed behind a NULL row that is deleted
// again. The NULL clears every in-order bit of U and RetainRows keeps them
// clear, so U is always scanned in full: the two results must be equal as
// multisets.
class InOrderScanTest : public ::testing::Test {
 protected:
  void Create(const std::string& columns) {
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE T (" + columns + ")").ok());
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE U (" + columns + ")").ok());
    t_ = *db_.GetTable("T");
    u_ = *db_.GetTable("U");
    const size_t width = t_->schema()->num_columns();
    ASSERT_TRUE(u_->Insert(Row(width, Value::Null())).ok());
    std::vector<bool> keep(1, false);
    u_->RetainRows(keep);
  }

  // Appends `rows` to T, and to U in front of its rows.
  void Insert(const std::vector<Row>& rows) {
    ASSERT_TRUE(t_->InsertAll(rows).ok());
    std::vector<Row> reversed(rows.rbegin(), rows.rend());
    reversed.insert(reversed.end(), u_->rows().begin(), u_->rows().end());
    u_->Clear();
    ASSERT_TRUE(u_->Insert(Row(reversed.front().size(), Value::Null())).ok());
    ASSERT_TRUE(u_->InsertAll(reversed).ok());
    std::vector<bool> keep(u_->num_rows(), true);
    keep[0] = false;
    u_->RetainRows(keep);
    for (size_t c = 0; c < u_->schema()->num_columns(); ++c) {
      ASSERT_FALSE(u_->in_order(c)) << c;
    }
  }

  // SELECT * over T and over U with `where`; returns T's rows after
  // checking that U's are the same multiset.
  std::vector<Row> Where(const std::string& where) {
    auto over_t = ExecuteSql(&db_, "SELECT * FROM T WHERE " + where);
    auto over_u = ExecuteSql(&db_, "SELECT * FROM U WHERE " + where);
    EXPECT_TRUE(over_t.ok()) << where << ": " << over_t.status().ToString();
    EXPECT_TRUE(over_u.ok()) << where << ": " << over_u.status().ToString();
    if (!over_t.ok() || !over_u.ok()) return {};
    EXPECT_TRUE(SameRows(Canonical(over_t->rows()), Canonical(over_u->rows())))
        << "WHERE " << where;
    return over_t->rows();
  }

  size_t Count(const std::string& where) { return Where(where).size(); }

  Database db_;
  Table* t_ = nullptr;
  Table* u_ = nullptr;
};

Row R(int64_t id, double x, const std::string& name) {
  return {Value::Long(id), Value::Double(x), Value::Text(name)};
}

TEST_F(InOrderScanTest, ANullOrAnOutOfOrderInsertClearsTheBit) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c));
  Insert({R(1, 0.5, "a"), R(2, 0.5, "b"), R(2, 1.5, "b")});
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c)) << c;
  EXPECT_EQ(Count("Id = 2"), 2u);
  EXPECT_EQ(Count("X >= 1 AND Name = 'b'"), 1u);

  ASSERT_TRUE(t_->Insert({Value::Long(3), Value::Null(), Value::Text("c")})
                  .ok());
  EXPECT_TRUE(t_->in_order(0));
  EXPECT_FALSE(t_->in_order(1));
  EXPECT_TRUE(t_->in_order(2));
  Insert({R(0, 9, "d")});  // Id goes down; X and Name still rise.
  EXPECT_FALSE(t_->in_order(0));
  EXPECT_FALSE(t_->in_order(1));
  EXPECT_TRUE(t_->in_order(2));
  ASSERT_TRUE(
      ExecuteSql(&db_, "INSERT INTO U VALUES (3, NULL, 'c')").ok());
  EXPECT_EQ(Count("Id >= 1"), 4u);
  EXPECT_EQ(Count("Id < 1"), 1u);
  EXPECT_EQ(Count("Name > 'b'"), 2u);
  EXPECT_EQ(Count("X > 0"), 4u);
}

TEST_F(InOrderScanTest, AFailedInsertAllLeavesTheBitsUnchanged) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  Insert({R(1, 1, "a"), R(5, 2, "b")});
  // The first row would clear Id's bit; the second fails coercion.
  Status bad_cell = t_->InsertAll(
      {R(2, 3, "c"), {Value::Text("x"), Value::Double(4), Value::Text("d")}});
  EXPECT_FALSE(bad_cell.ok());
  // The first row would clear X's bit; the second has the wrong width.
  Status bad_width =
      t_->InsertAll({R(6, 0, "c"), {Value::Long(7), Value::Double(5)}});
  EXPECT_FALSE(bad_width.ok());
  EXPECT_EQ(t_->num_rows(), 2u);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c)) << c;
  EXPECT_EQ(Count("Id > 1"), 1u);
  EXPECT_EQ(Count("X <= 1.5"), 1u);
}

TEST_F(InOrderScanTest, RetainRowsKeepsTheBitAndClearResetsIt) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  Insert({R(1, 1, "a"), R(2, 2, "b"), R(3, 3, "c"), R(4, 4, "d")});
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM T WHERE Id = 2 OR Id = 4").ok());
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM U WHERE Id = 2 OR Id = 4").ok());
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c)) << c;
  EXPECT_EQ(Count("Id >= 2"), 1u);
  EXPECT_EQ(Count("Id <= 3 AND Name <> 'a'"), 1u);

  Insert({R(0, 0, "z")});
  EXPECT_FALSE(t_->in_order(0));
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM T").ok());
  EXPECT_EQ(t_->num_rows(), 0u);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c)) << c;
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM U").ok());
  Insert({R(7, 1, "a"), R(8, 1, "a")});
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(t_->in_order(c)) << c;
  EXPECT_EQ(Count("Id = 8"), 1u);
}

// Value::Compare orders NaN after every number, so a DOUBLE column may end
// in NaNs and stay in order. A NaN cell equals nothing, and the ordered
// comparisons place it above every number.
TEST_F(InOrderScanTest, NaNsAtTheTailOfADoubleColumn) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Insert({R(1, -1.5, "a"), R(2, 0, "a"), R(3, 0, "a"), R(4, 2.5, "a"),
          R(5, nan, "a"), R(6, nan, "a")});
  ASSERT_TRUE(t_->in_order(1));
  EXPECT_EQ(Count("X = 0"), 2u);
  EXPECT_EQ(Count("X < 3"), 4u);
  EXPECT_EQ(Count("X <= 2.5"), 4u);
  EXPECT_EQ(Count("X > 0"), 3u);
  EXPECT_EQ(Count("X >= 0"), 5u);
  EXPECT_EQ(Count("X <> 0"), 4u);
  EXPECT_EQ(Count("1 < X"), 3u);
  EXPECT_EQ(Count("X > 1000000"), 2u);
  EXPECT_EQ(Count("X = 2.5"), 1u);

  // A NaN literal (SQL text cannot spell one) narrows nothing.
  for (auto [op, expected] : {std::pair{BinaryOp::kEq, 0u},
                              std::pair{BinaryOp::kLt, 4u},
                              std::pair{BinaryOp::kGe, 2u}}) {
    for (const char* table : {"T", "U"}) {
      auto parsed = ParseSql(std::string("SELECT * FROM ") + table);
      ASSERT_TRUE(parsed.ok());
      auto select = std::get<SelectStatement>(*parsed);
      select.where = Expr::MakeBinary(op, Expr::MakeColumnRef("", "X"),
                                      Expr::MakeLiteral(Value::Double(nan)));
      auto result = ExecuteSelect(db_, select);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->num_rows(), expected)
          << table << " " << BinaryOpToString(op);
    }
  }
}

// Value::Compare and Value::Equals compare a LONG with a DOUBLE exactly,
// also above 2^53 where a LONG has no DOUBLE of its own.
TEST_F(InOrderScanTest, ALongColumnAgainstDoublesAround2To53) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  const int64_t p53 = int64_t{1} << 53;
  std::vector<Row> rows;
  for (int64_t d = -3; d <= 3; ++d) rows.push_back(R(p53 + d, 0, "a"));
  Insert(rows);
  ASSERT_TRUE(t_->in_order(0));
  EXPECT_EQ(Count("Id = 9007199254740992.0"), 1u);
  EXPECT_EQ(Count("Id = 9007199254740993"), 1u);
  EXPECT_EQ(Count("Id < 9007199254740992.0"), 3u);
  EXPECT_EQ(Count("Id <= 9007199254740992.0"), 4u);
  EXPECT_EQ(Count("Id > 9007199254740992.0"), 3u);
  EXPECT_EQ(Count("Id >= 9007199254740994.0"), 2u);
  // 2^53 - 1.5 has no DOUBLE either: the literal rounds to 2^53 - 2.
  EXPECT_EQ(Count("Id > 9007199254740990.5"), 5u);
  EXPECT_EQ(Count("Id < 9.007199254740994e15 AND Id > 9007199254740990"), 3u);
  EXPECT_EQ(Count("9007199254740994.0 = Id"), 1u);
}

TEST_F(InOrderScanTest, TextColumns) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  Insert({R(1, 0, ""), R(2, 0, "a"), R(3, 0, "ab"), R(4, 0, "b"),
          R(5, 0, "b"), R(6, 0, "ba"), R(7, 0, "c")});
  ASSERT_TRUE(t_->in_order(2));
  EXPECT_EQ(Count("Name >= 'b'"), 4u);
  EXPECT_EQ(Count("Name < 'b'"), 3u);
  EXPECT_EQ(Count("Name = 'b'"), 2u);
  EXPECT_EQ(Count("Name > ''"), 6u);
  EXPECT_EQ(Count("Name <= 'ab' AND Name > 'a'"), 1u);
  // Numbers order below all text: no text cell equals or is below 3.
  EXPECT_EQ(Count("Name = 3"), 0u);
  EXPECT_EQ(Count("Name < 3"), 0u);
  EXPECT_EQ(Count("Name > 3"), 7u);
}

TEST_F(InOrderScanTest, ALiteralOnTheLeftFlipsTheOperator) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  Insert({R(1, 0, "a"), R(2, 0, "a"), R(3, 0, "a"), R(4, 0, "a"),
          R(5, 0, "a")});
  EXPECT_EQ(Where("3 < Id"), Where("Id > 3"));
  EXPECT_EQ(Where("3 <= Id"), Where("Id >= 3"));
  EXPECT_EQ(Where("3 > Id"), Where("Id < 3"));
  EXPECT_EQ(Where("3 >= Id"), Where("Id <= 3"));
  EXPECT_EQ(Where("3 = Id"), Where("Id = 3"));
  EXPECT_EQ(Count("2 < Id AND 4 >= Id"), 2u);
  EXPECT_EQ(Count("1 = 1 AND Id > 4"), 1u);
}

TEST_F(InOrderScanTest, NotEqualAndEmptyRanges) {
  Create("Id LONG, X DOUBLE, Name TEXT");
  Insert({R(1, 0, "a"), R(2, 0, "a"), R(3, 0, "a"), R(4, 0, "a"),
          R(5, 0, "a")});
  EXPECT_EQ(Count("Id <> 3"), 4u);
  EXPECT_EQ(Count("Id <> 3 AND Id > 1"), 3u);
  EXPECT_EQ(Count("Id > 10"), 0u);
  EXPECT_EQ(Count("Id < 1"), 0u);
  EXPECT_EQ(Count("Id >= 4 AND Id < 2"), 0u);
  EXPECT_EQ(Count("Id = 2.5"), 0u);
  EXPECT_EQ(Count("Id = NULL"), 0u);
  EXPECT_EQ(Count("Id < 'a'"), 5u);   // Numbers order below text,
  EXPECT_EQ(Count("Id > TRUE"), 5u);  // and above booleans.
  // A conjunct that could fail ends the narrowing run: the rows it would
  // have been evaluated on keep failing it.
  auto failing = ExecuteSql(&db_, "SELECT * FROM T WHERE Name + 1 > 0 AND "
                                  "Id > 10");
  EXPECT_FALSE(failing.ok());
}

// Recovery rebuilds the bit: snapshot tables load through InsertAll and
// journaled INSERTs replay through it.
TEST(InOrderRecoveryTest, TheBitIsRebuiltFromTheSnapshotAndTheJournal) {
  const std::string dir = ::testing::TempDir() + "/in_order_store";
  Env* env = Env::Default();
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& f : *names) (void)env->DeleteFile(dir + "/" + f);
  }
  {
    Provider provider;
    ASSERT_TRUE(provider.OpenStore(dir).ok());
    auto conn = provider.Connect();
    for (const char* sql : {
             "CREATE TABLE Snap (Id LONG, Name TEXT)",
             "CREATE TABLE Wal (Id LONG, Name TEXT)",
             "CREATE TABLE Late (Id LONG, Name TEXT)",
             "INSERT INTO Snap VALUES (1, 'b'), (2, 'a')",
             "INSERT INTO Wal VALUES (1, 'a')",
             "INSERT INTO Late VALUES (1, 'a'), (2, 'b')",
         }) {
      ASSERT_TRUE(conn->Execute(sql).ok()) << sql;
    }
    ASSERT_TRUE(provider.Checkpoint().ok());
    for (const char* sql : {
             "INSERT INTO Snap VALUES (3, 'c')",
             "INSERT INTO Wal VALUES (2, 'b'), (3, 'b')",
             "INSERT INTO Late VALUES (0, 'c')",
         }) {
      ASSERT_TRUE(conn->Execute(sql).ok()) << sql;
    }
  }
  Provider reopened;
  ASSERT_TRUE(reopened.OpenStore(dir).ok());
  const Database& db = *reopened.database();
  const Table& snap = **db.GetTable("Snap");
  const Table& wal = **db.GetTable("Wal");
  const Table& late = **db.GetTable("Late");
  EXPECT_TRUE(snap.in_order(0));
  EXPECT_FALSE(snap.in_order(1));
  EXPECT_TRUE(wal.in_order(0));
  EXPECT_TRUE(wal.in_order(1));
  EXPECT_FALSE(late.in_order(0));
  EXPECT_TRUE(late.in_order(1));
  auto conn = reopened.Connect();
  auto range = conn->Execute("SELECT Name FROM Wal WHERE Id >= 2 AND Id < 4");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->num_rows(), 2u);
  auto late_range = conn->Execute("SELECT Name FROM Late WHERE Id < 2");
  ASSERT_TRUE(late_range.ok()) << late_range.status().ToString();
  EXPECT_EQ(late_range->num_rows(), 2u);
}

// Complexity, not speed: a 4-key range SELECT on an in-order key finds its
// rows by binary search, so its median cost at 100k rows stays within 2x of
// its median cost at 1k rows. The tables take turns, as in the insert test
// above.
TEST(TableTest, RangeSelectCostDoesNotGrowWithTheTable) {
  constexpr int kSamples = 101;
  constexpr int kBatch = 16;
  Database db;
  for (auto [name, rows] : {std::pair<const char*, int64_t>{"Small", 1'000},
                            {"Large", 100'000}}) {
    auto table = db.CreateTable(
        name, Schema::Make({ColumnDef("Id", DataType::kLong),
                            ColumnDef("V", DataType::kDouble)}));
    ASSERT_TRUE(table.ok());
    std::vector<Row> all;
    all.reserve(static_cast<size_t>(rows));
    for (int64_t id = 0; id < rows; ++id) {
      all.push_back({Value::Long(id), Value::Double(0.5 * id)});
    }
    ASSERT_TRUE((*table)->InsertAll(std::move(all)).ok());
    ASSERT_TRUE((*table)->in_order(0));
  }
  // Wall time of kBatch range SELECTs over `table`, each on 4 keys.
  auto time_batch = [&](const std::string& table, int64_t rows, int s) {
    std::vector<SelectStatement> batch;
    for (int b = 0; b < kBatch; ++b) {
      const int64_t lo = (s * 7919 + b * 104729) % (rows - 4);
      auto parsed = ParseSql("SELECT Id, V FROM " + table + " WHERE Id >= " +
                             std::to_string(lo) + " AND Id < " +
                             std::to_string(lo + 4));
      EXPECT_TRUE(parsed.ok());
      batch.push_back(std::get<SelectStatement>(*parsed));
    }
    const auto start = std::chrono::steady_clock::now();
    for (const SelectStatement& select : batch) {
      auto result = ExecuteSelect(db, select);
      EXPECT_TRUE(result.ok() && result->num_rows() == 4);
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> small_ns, large_ns;
  for (int s = 0; s < kSamples; ++s) {
    if (s % 2 == 0) small_ns.push_back(time_batch("Small", 1'000, s));
    large_ns.push_back(time_batch("Large", 100'000, s));
    if (s % 2 == 1) small_ns.push_back(time_batch("Small", 1'000, s));
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_LE(median(large_ns), 2 * median(small_ns))
      << "ns per batch of " << kBatch << ": 1k rows " << median(small_ns)
      << ", 100k rows " << median(large_ns);
}

TEST_F(SqlTest, InnerJoinMatchesAndDropsDangling) {
  Rowset r = Must(R"(
      SELECT p.Name, t.Pet FROM People p
      INNER JOIN Pets t ON p.Id = t.Owner
      ORDER BY p.Name, t.Pet)");
  ASSERT_EQ(r.num_rows(), 3u);  // owner 9 has no person; Bob/Dee have no pets
  EXPECT_EQ(r.at(0, 0).text_value(), "Ann");
  EXPECT_EQ(r.at(0, 1).text_value(), "cat");
  EXPECT_EQ(r.at(2, 0).text_value(), "Cid");
}

TEST_F(SqlTest, JoinWithResidualCondition) {
  Rowset r = Must(R"(
      SELECT p.Name, t.Pet FROM People p
      INNER JOIN Pets t ON p.Id = t.Owner AND p.Age > 40)");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.at(0, 0).text_value(), "Cid");
}

TEST_F(SqlTest, NonEquiJoinFallsBackToNestedLoop) {
  Rowset r = Must(R"(
      SELECT p.Id, t.Owner FROM People p
      INNER JOIN Pets t ON p.Id < t.Owner AND t.Owner = 9)");
  EXPECT_EQ(r.num_rows(), 4u);
}

TEST_F(SqlTest, JoinChainOfThreeTables) {
  Must("CREATE TABLE Cities (City TEXT, Country TEXT)");
  Must("INSERT INTO Cities VALUES ('Oslo', 'NO'), ('Rome', 'IT')");
  Rowset r = Must(R"(
      SELECT p.Name, c.Country, t.Pet FROM People p
      INNER JOIN Cities c ON p.City = c.City
      INNER JOIN Pets t ON p.Id = t.Owner
      ORDER BY p.Name)");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.at(0, 1).text_value(), "NO");
}

TEST_F(SqlTest, DuplicateColumnNamesGetQualified) {
  Rowset r = Must(R"(
      SELECT * FROM People p INNER JOIN Pets t ON p.Id = t.Owner)");
  // All column names stay unique.
  std::set<std::string> names;
  for (const ColumnDef& col : r.schema()->columns()) {
    EXPECT_TRUE(names.insert(ToLower(col.name)).second) << col.name;
  }
}

TEST_F(SqlTest, NullSemantics) {
  Must("CREATE TABLE N (A LONG, B LONG)");
  Must("INSERT INTO N (A) VALUES (1)");  // B left NULL
  EXPECT_EQ(Must("SELECT A FROM N WHERE B = 0").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B <> 0").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B IS NULL").num_rows(), 1u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE B IS NOT NULL").num_rows(), 0u);
  EXPECT_EQ(Must("SELECT A FROM N WHERE A IS NOT NULL").num_rows(), 1u);
  // NULL never equi-joins.
  Must("CREATE TABLE M (B LONG)");
  Must("INSERT INTO M (B) VALUES (0)");
  EXPECT_EQ(Must("SELECT * FROM N INNER JOIN M ON N.B = M.B").num_rows(), 0u);
}

TEST_F(SqlTest, InsertWithColumnListAndCoercion) {
  Must("CREATE TABLE C (A DOUBLE, B TEXT)");
  Must("INSERT INTO C (B, A) VALUES ('x', 3)");  // 3 coerces LONG->DOUBLE
  Rowset r = Must("SELECT A, B FROM C");
  EXPECT_TRUE(r.at(0, 0).is_double());
  EXPECT_EQ(r.at(0, 0).double_value(), 3.0);
}

TEST_F(SqlTest, DeleteWithAndWithoutWhere) {
  Must("DELETE FROM Pets WHERE Owner = 1");
  EXPECT_EQ(Must("SELECT * FROM Pets").num_rows(), 2u);
  Must("DELETE FROM Pets");
  EXPECT_EQ(Must("SELECT * FROM Pets").num_rows(), 0u);
}

// A filtered DELETE whose guard trips mid-scan changes nothing: every row's
// predicate is evaluated before any row moves. The deadline is far shorter
// than the scan (100k rows, each testing a long arithmetic chain), and the
// statement is parsed before the guard starts its clock, so the trip lands
// inside the scan.
TEST(TableTest, FilteredDeleteStoppedMidScanLeavesTableUnchanged) {
  Database db;
  ASSERT_TRUE(ExecuteSql(&db, "CREATE TABLE T (Id LONG, Name TEXT)").ok());
  Table* table = *db.GetTable("T");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100'000; ++i) {
    rows.push_back({Value::Long(i), Value::Text("row " + std::to_string(i))});
  }
  ASSERT_TRUE(table->InsertAll(rows).ok());
  auto stmt = ParseSql(
      "DELETE FROM T WHERE Id * 2 + Id * 3 + Id * 5 + Id * 7 + Id * 11 + "
      "Id * 13 + Id * 17 + Id * 19 + Id * 23 + Id * 29 > 100");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  ExecLimits limits;
  limits.deadline_ms = 2;
  ExecGuard guard(limits);
  ExecGuardScope scope(&guard);
  auto result = Execute(&db, *stmt);
  ASSERT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  ASSERT_EQ(table->num_rows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_TRUE(table->rows()[r][0].Equals(rows[r][0])) << "row " << r;
    ASSERT_TRUE(table->rows()[r][1].Equals(rows[r][1])) << "row " << r;
  }
}

TEST_F(SqlTest, DropTable) {
  Must("DROP TABLE Pets");
  EXPECT_TRUE(Fails("SELECT * FROM Pets").IsNotFound());
  EXPECT_TRUE(Fails("DROP TABLE Pets").IsNotFound());
}

TEST_F(SqlTest, ErrorPaths) {
  EXPECT_TRUE(Fails("SELECT Nope FROM People").IsBindError());
  EXPECT_TRUE(Fails("SELECT * FROM Nowhere").IsNotFound());
  EXPECT_TRUE(Fails("SELECT FROM People").IsParseError());
  EXPECT_TRUE(Fails("FLY ME TO THE MOON").IsParseError());
  EXPECT_TRUE(Fails("CREATE TABLE People (X LONG)").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(Fails("INSERT INTO People VALUES (1)").ok() == false);
  // A VALUES row has no row scope: column references bind-fail cleanly
  // instead of reaching the evaluator unbound (fuzz finding; the reproducer
  // lives in fuzz/regressions/dmx_statement/insert-values-column-ref).
  EXPECT_TRUE(Fails("INSERT INTO People VALUES (5, Age, 30, 'Bern')")
                  .IsBindError());
  // Multi-row INSERT is atomic: a coercion failure in any row (here 'x' in
  // the LONG Age column of the second row) leaves the table untouched —
  // partial effects of failed statements would diverge from WAL recovery
  // (fuzz finding: fuzz/regressions/store_recovery/partial-insert-leak).
  EXPECT_FALSE(Fails("INSERT INTO People VALUES "
                     "(5, 'Eve', 30, 'Bern'), (6, 'Fay', 'x', 'Rome')")
                   .ok());
  EXPECT_EQ(Must("SELECT * FROM People").num_rows(), 4u);
  // Ambiguous unqualified column across joined tables.
  Must("CREATE TABLE People2 (Id LONG)");
  Must("INSERT INTO People2 VALUES (1)");
  EXPECT_TRUE(
      Fails("SELECT Id FROM People INNER JOIN People2 ON People.Id = "
            "People2.Id")
          .IsBindError());
}

TEST_F(SqlTest, BaseTablesRejectTableColumns) {
  auto nested = Schema::Make({{"K", DataType::kLong}});
  auto schema = Schema::Make({{"Id", DataType::kLong}, ColumnDef("T", nested)});
  EXPECT_FALSE(db_.CreateTable("Bad", schema).ok());
}

TEST_F(SqlTest, ParserRoundTripsExpressions) {
  // Print -> reparse -> print is a fixpoint.
  const char* exprs[] = {
      "(a = 1)", "((a + b) * 2)", "(NOT (x) OR (y < 3.5))",
      "(name = 'O''Brien')", "col IS NOT NULL",
  };
  for (const char* text : exprs) {
    auto tokens1 = Tokenize(text);
    ASSERT_TRUE(tokens1.ok());
    TokenStream ts1(std::move(tokens1).value());
    auto e1 = ParseExpression(&ts1);
    ASSERT_TRUE(e1.ok()) << text;
    std::string printed = (*e1)->ToString();
    auto tokens2 = Tokenize(printed);
    ASSERT_TRUE(tokens2.ok());
    TokenStream ts2(std::move(tokens2).value());
    auto e2 = ParseExpression(&ts2);
    ASSERT_TRUE(e2.ok()) << printed;
    EXPECT_EQ((*e2)->ToString(), printed);
  }
}

TEST_F(SqlTest, CsvRoundTrip) {
  std::string path = ::testing::TempDir() + "/sql_test_people.csv";
  auto table = db_.GetTable("People");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(SaveCsv(**table, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 4u);
  EXPECT_EQ(loaded->schema()->column(1).type, DataType::kText);
  EXPECT_EQ(loaded->schema()->column(2).type, DataType::kLong);
  EXPECT_TRUE(loaded->Get(0, "Name")->Equals(Value::Text("Ann")));
  std::remove(path.c_str());
}

TEST_F(SqlTest, CsvQuotingAndNulls) {
  Must("CREATE TABLE Q (A TEXT, B LONG)");
  Must("INSERT INTO Q (A) VALUES ('comma, quote \" and more')");
  std::string path = ::testing::TempDir() + "/sql_test_quoted.csv";
  auto table = db_.GetTable("Q");
  ASSERT_TRUE(SaveCsv(**table, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), 1u);
  // Commas and quotes survive the round trip; the empty LONG reloads as NULL.
  EXPECT_EQ(loaded->Get(0, "A")->ToString(), "comma, quote \" and more");
  EXPECT_TRUE(loaded->Get(0, "B")->is_null());
  std::remove(path.c_str());
}

TEST_F(SqlTest, CsvNewlinesAndEmptyStringsRoundTrip) {
  auto schema = Schema::Make(
      {ColumnDef("A", DataType::kText), ColumnDef("B", DataType::kText)});
  std::vector<Row> rows;
  rows.push_back({Value::Text("line one\nline two"), Value::Text("")});
  rows.push_back({Value::Text("with \"quotes\"\r\nand a CRLF"), Value::Null()});
  std::string csv = ToCsvString(*schema, rows);

  auto loaded = ParseCsvString(csv, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 2u);
  // Embedded newlines survive: the quoted field spans CSV lines.
  EXPECT_TRUE(loaded->Get(0, "A")->Equals(Value::Text("line one\nline two")));
  EXPECT_TRUE(
      loaded->Get(1, "A")->Equals(Value::Text("with \"quotes\"\r\nand a CRLF")));
  // Empty string round-trips as "" while NULL stays NULL.
  EXPECT_TRUE(loaded->Get(0, "B")->Equals(Value::Text("")));
  EXPECT_TRUE(loaded->Get(1, "B")->is_null());

  // Type inference sees the quoted empty cell as a text value, not a gap.
  auto inferred = ParseCsvString(csv);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred->schema()->column(1).type, DataType::kText);
  EXPECT_TRUE(inferred->Get(0, "B")->Equals(Value::Text("")));
  EXPECT_TRUE(inferred->Get(1, "B")->is_null());
}

TEST_F(SqlTest, DeepParenNestingFailsCleanly) {
  // 200 nested parens exceeds TokenStream::kMaxRecursionDepth: the parser
  // must reject with kInvalidArgument instead of overflowing the stack.
  std::string sql = "SELECT ";
  for (int i = 0; i < 200; ++i) sql += '(';
  sql += '1';
  for (int i = 0; i < 200; ++i) sql += ')';
  sql += " FROM People";
  Status deep = Fails(sql);
  EXPECT_EQ(deep.code(), StatusCode::kInvalidArgument) << deep.ToString();
  EXPECT_NE(deep.message().find("nests more than"), std::string::npos)
      << deep.ToString();

  // Nesting at half the cap still parses: the limit only bites absurd depth.
  std::string ok = "SELECT ";
  for (int i = 0; i < 50; ++i) ok += '(';
  ok += '1';
  for (int i = 0; i < 50; ++i) ok += ')';
  ok += " FROM People";
  EXPECT_EQ(Must(ok).num_rows(), 4u);
}

TEST_F(SqlTest, CsvTypeInference) {
  std::string path = ::testing::TempDir() + "/sql_test_infer.csv";
  {
    std::ofstream out(path);
    out << "a,b,c\n1,1.5,x\n2,,y\n";
  }
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->schema()->column(0).type, DataType::kLong);
  EXPECT_EQ(loaded->schema()->column(1).type, DataType::kDouble);
  EXPECT_EQ(loaded->schema()->column(2).type, DataType::kText);
  EXPECT_TRUE(loaded->at(1, 1).is_null());  // empty cell -> NULL
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmx::rel
