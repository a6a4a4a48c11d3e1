// SQL subset: parser, expression semantics, executor (filters, ordering,
// hash/nested-loop joins, TOP), DDL/DML, and CSV import/export.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <vector>

#include "common/exec_guard.h"
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
    for (const std::string table : {"S", "Shuffled"}) {
      std::string from = "SELECT * FROM " + table +
                         (*c.where ? std::string(" WHERE ") + c.where : "");
      auto sorted = ExecuteSql(&db, from + " ORDER BY " + c.order_by);
      auto unsorted = ExecuteSql(&db, from);
      ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
      ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
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
