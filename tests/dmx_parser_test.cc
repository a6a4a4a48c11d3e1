// DMX language: statement classification (DMX vs SQL through one pipe),
// CREATE MINING MODEL parsing with the full column-spec vocabulary, INSERT /
// PREDICTION JOIN / CONTENT parsing, and definition print->reparse fixpoints.

#include "core/dmx_parser.h"

#include <gtest/gtest.h>

#include "core/dmx_analyzer.h"
#include "relational/sql_parser.h"

namespace dmx {
namespace {

DmxParseResult MustParse(const std::string& text) {
  auto result = ParseDmx(text);
  EXPECT_TRUE(result.ok()) << text << "\n-> " << result.status().ToString();
  return result.ok() ? std::move(result).value() : DmxParseResult{};
}

TEST(DmxClassifierTest, SqlFallsThrough) {
  EXPECT_TRUE(MustParse("SELECT a FROM t").is_sql);
  EXPECT_TRUE(MustParse("SELECT a FROM t WHERE b = 1 ORDER BY a").is_sql);
  EXPECT_TRUE(MustParse("CREATE TABLE t (a LONG)").is_sql);
  EXPECT_TRUE(MustParse("INSERT INTO t VALUES (1)").is_sql);
  EXPECT_TRUE(MustParse("DROP TABLE t").is_sql);
  EXPECT_TRUE(MustParse("DELETE FROM t WHERE a = 1").is_sql);
}

TEST(DmxClassifierTest, DmxIsRecognized) {
  EXPECT_FALSE(
      MustParse("CREATE MINING MODEL m (k LONG KEY, x TEXT DISCRETE PREDICT) "
                "USING Naive_Bayes")
          .is_sql);
  EXPECT_FALSE(MustParse("INSERT INTO m SELECT a, b FROM t").is_sql);
  EXPECT_FALSE(
      MustParse("INSERT INTO m (a, b) SHAPE {SELECT a, b FROM t} APPEND "
                "({SELECT k, c FROM u} RELATE a TO k) AS n")
          .is_sql);
  EXPECT_FALSE(MustParse("INSERT INTO m OPENROWSET('CSV', '/tmp/x.csv')")
                   .is_sql);
  EXPECT_FALSE(MustParse("SELECT Predict(x) FROM m NATURAL PREDICTION JOIN "
                         "(SELECT a FROM t) AS t")
                   .is_sql);
  // Model content is a table of the relational engine: plain SQL.
  EXPECT_TRUE(MustParse("SELECT * FROM m.CONTENT").is_sql);
  EXPECT_FALSE(MustParse("DROP MINING MODEL m").is_sql);
  // DELETE FROM with a bare name is provisionally DMX (provider re-routes).
  auto del = MustParse("DELETE FROM m");
  EXPECT_FALSE(del.is_sql);
  EXPECT_TRUE(std::holds_alternative<DeleteFromModelStatement>(*del.statement));
}

TEST(DmxClassifierTest, SqlIsParsedOnceFromTheSameTokens) {
  auto select = MustParse("SELECT a FROM t WHERE b = 1;");
  ASSERT_TRUE(select.sql.has_value());
  EXPECT_FALSE(select.statement.has_value());
  const auto* parsed = std::get_if<rel::SelectStatement>(&*select.sql);
  ASSERT_NE(parsed, nullptr);
  ASSERT_NE(parsed->where, nullptr);
  EXPECT_EQ(parsed->where->ToString(), "(b = 1)");
  EXPECT_FALSE(MustParse("DROP MINING MODEL m").sql.has_value());

  // Malformed SQL fails in ParseDmx with the SQL parser's own status.
  for (const char* bad : {"SELECT", "DELETE FROM x WHERE",
                          "SELECT a FROM t u v", "CREATE TABLE", "DELETE",
                          "FOO BAR"}) {
    auto dmx = ParseDmx(bad);
    auto sql = rel::ParseSql(bad);
    ASSERT_FALSE(dmx.ok()) << bad;
    ASSERT_FALSE(sql.ok()) << bad;
    EXPECT_EQ(dmx.status().code(), sql.status().code()) << bad;
    EXPECT_EQ(dmx.status().message(), sql.status().message()) << bad;
  }
}

TEST(DmxClassifierTest, BareDeleteTakesOnlyOneStatement) {
  // "DELETE FROM m;" is a model-or-table delete; anything after the ';' is
  // trailing input, as it is for every other statement.
  EXPECT_FALSE(MustParse("DELETE FROM m;").is_sql);
  auto trailing = ParseDmx("DELETE FROM m; DROP TABLE t");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("unexpected trailing input"),
            std::string::npos)
      << trailing.status().ToString();
}

TEST(CreateModelTest, ParsesThePaperExample) {
  auto def = ParseCreateMiningModel(R"(
    CREATE MINING MODEL [Age Prediction] (
      [Customer ID] LONG KEY,
      [Gender] TEXT DISCRETE,
      [Age] DOUBLE DISCRETIZED PREDICT,
      [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Quantity] DOUBLE NORMAL CONTINUOUS,
        [Product Type] TEXT DISCRETE RELATED TO [Product Name]
      )
    ) USING [Decision_Trees_101])");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def->model_name, "Age Prediction");
  EXPECT_EQ(def->service_name, "Decision_Trees_101");
  ASSERT_EQ(def->columns.size(), 4u);
  EXPECT_EQ(def->columns[0].role, ContentRole::kKey);
  EXPECT_EQ(def->columns[1].attr_type, AttributeType::kDiscrete);
  EXPECT_EQ(def->columns[2].attr_type, AttributeType::kDiscretized);
  EXPECT_EQ(def->columns[2].usage, PredictUsage::kPredict);
  ASSERT_EQ(def->columns[3].nested.size(), 3u);
  EXPECT_EQ(def->columns[3].nested[1].distribution, DistributionHint::kNormal);
  EXPECT_EQ(def->columns[3].nested[2].role, ContentRole::kRelation);
  EXPECT_EQ(def->columns[3].nested[2].related_to, "Product Name");
  EXPECT_TRUE(DmxAnalyzer().AnalyzeDefinition(*def).ok());
}

TEST(CreateModelTest, FullColumnVocabulary) {
  auto def = ParseCreateMiningModel(R"(
    CREATE MINING MODEL m (
      k LONG KEY,
      a TEXT DISCRETE,
      b LONG ORDERED,
      c LONG CYCLICAL,
      d DOUBLE CONTINUOUS NOT NULL,
      e DOUBLE DISCRETIZED(EQUAL_FREQUENCIES, 7) PREDICT,
      f DOUBLE SEQUENCE_TIME,
      g DOUBLE PROBABILITY OF a,
      h DOUBLE VARIANCE OF d,
      i DOUBLE SUPPORT OF k,
      j DOUBLE PROBABILITY_VARIANCE OF a,
      o LONG ORDER OF f,
      p TEXT DISCRETE MODEL_EXISTENCE_ONLY,
      q TEXT DISCRETE PREDICT_ONLY,
      r DOUBLE POISSON CONTINUOUS
    ) USING Naive_Bayes(ALPHA = 0.5))");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def->columns[4].not_null, true);
  EXPECT_EQ(def->columns[5].discretization,
            DiscretizationMethod::kEqualFrequencies);
  EXPECT_EQ(def->columns[5].discretization_buckets, 7);
  EXPECT_EQ(def->columns[7].role, ContentRole::kQualifier);
  EXPECT_EQ(def->columns[7].qualifier, QualifierKind::kProbability);
  EXPECT_EQ(def->columns[9].qualifier, QualifierKind::kSupport);
  EXPECT_EQ(def->columns[11].qualifier, QualifierKind::kOrder);
  EXPECT_TRUE(def->columns[12].model_existence_only);
  EXPECT_EQ(def->columns[13].usage, PredictUsage::kPredictOnly);
  EXPECT_EQ(def->columns[14].distribution, DistributionHint::kPoisson);
  ASSERT_EQ(def->parameters.size(), 1u);
  EXPECT_EQ(def->parameters[0].name, "ALPHA");
  EXPECT_DOUBLE_EQ(def->parameters[0].value.double_value(), 0.5);
}

TEST(CreateModelTest, PrintReparseFixpoint) {
  const char* sources[] = {
      R"(CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE PREDICT)
         USING Naive_Bayes)",
      R"(CREATE MINING MODEL [With Space] (
           k LONG KEY,
           x DOUBLE DISCRETIZED(CLUSTERS, 3) PREDICT_ONLY,
           t TABLE (tk TEXT KEY, tv DOUBLE UNIFORM CONTINUOUS) PREDICT
         ) USING Clustering(CLUSTER_COUNT = 2, CLUSTER_METHOD = 'KMEANS'))",
      R"(CREATE MINING MODEL q (k LONG KEY, a TEXT DISCRETE,
           p DOUBLE PROBABILITY OF a, s DOUBLE SUPPORT OF k,
           z TEXT DISCRETE NOT NULL MODEL_EXISTENCE_ONLY PREDICT)
         USING Naive_Bayes)",
  };
  for (const char* source : sources) {
    auto def1 = ParseCreateMiningModel(source);
    ASSERT_TRUE(def1.ok()) << source << "\n" << def1.status().ToString();
    std::string printed1 = def1->ToDmx();
    auto def2 = ParseCreateMiningModel(printed1);
    ASSERT_TRUE(def2.ok()) << printed1 << "\n" << def2.status().ToString();
    EXPECT_EQ(def2->ToDmx(), printed1);
  }
}

// Definitions that parse but that the analyzer refuses. The DefinitionRules
// table in dmx_analyzer_test.cc has a row for each other rule; these two
// targets are TABLE columns, which no row there names.
TEST(CreateModelTest, ValidationErrors) {
  const struct {
    const char* dmx;
    const char* rule;
  } kCases[] = {
      {"CREATE MINING MODEL m (k LONG KEY, t TABLE (ik TEXT KEY), "
       "r TEXT DISCRETE RELATED TO t, c TEXT DISCRETE PREDICT) "
       "USING Naive_Bayes",
       rules::kRelatedToTarget},
      {"CREATE MINING MODEL m (k LONG KEY, t TABLE (ik TEXT KEY), "
       "p DOUBLE PROBABILITY OF t, c TEXT DISCRETE PREDICT) USING Naive_Bayes",
       rules::kQualifierTarget},
  };
  for (const auto& c : kCases) {
    auto def = ParseCreateMiningModel(c.dmx);
    ASSERT_TRUE(def.ok()) << c.dmx << "\n" << def.status().ToString();
    AnalysisReport report = DmxAnalyzer().AnalyzeDefinition(*def);
    EXPECT_FALSE(report.ok()) << c.dmx;
    EXPECT_TRUE(report.HasRule(c.rule)) << c.dmx << "\n" << report.ToString();
  }
}

TEST(CreateModelTest, SyntaxErrors) {
  EXPECT_TRUE(ParseCreateMiningModel("CREATE MINING MODEL m USING x")
                  .status().IsParseError());
  EXPECT_TRUE(ParseCreateMiningModel(
                  "CREATE MINING MODEL m (k LONG KEY)")
                  .status().IsParseError());  // missing USING
  EXPECT_TRUE(ParseCreateMiningModel(
                  "CREATE MINING MODEL m (k BLOB KEY) USING x")
                  .status().IsParseError());  // bad type
  EXPECT_TRUE(ParseCreateMiningModel(
                  "CREATE MINING MODEL m (t TABLE (u TABLE (k LONG KEY))) "
                  "USING x")
                  .status().IsParseError());  // nested nesting
}

TEST(InsertIntoTest, ColumnListAndSources) {
  auto with_shape = MustParse(R"(
    INSERT INTO [M] ([K], [A], [T]([TK], [TV]))
    SHAPE {SELECT K, A FROM c ORDER BY K}
    APPEND ({SELECT FK, TK, TV FROM s ORDER BY FK} RELATE K TO FK) AS [T])");
  const auto& insert = std::get<InsertIntoStatement>(*with_shape.statement);
  EXPECT_EQ(insert.model_name, "M");
  ASSERT_EQ(insert.columns.size(), 3u);
  EXPECT_FALSE(insert.columns[0].is_table);
  EXPECT_TRUE(insert.columns[2].is_table);
  EXPECT_EQ(insert.columns[2].nested.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<shape::ShapeStatement>(insert.source));

  auto with_select = MustParse("INSERT INTO m SELECT a, b FROM t");
  EXPECT_TRUE(std::holds_alternative<rel::SelectStatement>(
      std::get<InsertIntoStatement>(*with_select.statement).source));

  auto with_csv = MustParse("INSERT INTO m OPENROWSET('CSV', '/tmp/f.csv')");
  const auto& open = std::get<OpenRowsetSource>(
      std::get<InsertIntoStatement>(*with_csv.statement).source);
  EXPECT_EQ(open.format, "CSV");
  EXPECT_EQ(open.path, "/tmp/f.csv");
}

TEST(PredictionJoinTest, ParsesFullForm) {
  auto parsed = MustParse(R"(
    SELECT FLATTENED TOP 5 t.[Id], [M].[X], PredictProbability([X], 'a') AS P,
           TopCount(PredictHistogram([X]), $Probability, 3)
    FROM [M] PREDICTION JOIN (SELECT Id, G FROM src) AS t
    ON [M].[G] = t.[G] AND [M].[T].[K] = t.[T].[K])");
  const auto& join = std::get<PredictionJoinStatement>(*parsed.statement);
  EXPECT_TRUE(join.flattened);
  EXPECT_EQ(*join.top, 5);
  ASSERT_EQ(join.items.size(), 4u);
  EXPECT_EQ(join.items[2].alias, "P");
  EXPECT_EQ(join.items[3].expr.kind, DmxExpr::Kind::kFunction);
  EXPECT_EQ(join.items[3].expr.args[1].kind, DmxExpr::Kind::kDollar);
  EXPECT_EQ(join.items[3].expr.args[1].dollar, "Probability");
  EXPECT_FALSE(join.natural);
  EXPECT_EQ(join.source_alias, "t");
  ASSERT_EQ(join.on.size(), 2u);
  EXPECT_EQ(join.on[1].left.size(), 3u);
}

TEST(PredictionJoinTest, NaturalFormAndErrors) {
  auto natural = MustParse(R"(
    SELECT Predict(x) FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) AS t)");
  EXPECT_TRUE(std::get<PredictionJoinStatement>(*natural.statement).natural);
  // NATURAL with ON is an error.
  EXPECT_FALSE(ParseDmx(R"(
      SELECT Predict(x) FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) AS t
      ON m.x = t.x)")
                   .ok());
  // Missing both NATURAL and ON is an error.
  EXPECT_FALSE(ParseDmx(R"(
      SELECT Predict(x) FROM m PREDICTION JOIN (SELECT a FROM t) AS t)")
                   .ok());
  // SELECT * on a prediction join is an error.
  EXPECT_FALSE(ParseDmx(R"(
      SELECT * FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) AS t)")
                   .ok());
}

TEST(ContentSelectTest, Parses) {
  const std::string text = "SELECT * FROM [Age Prediction].CONTENT";
  auto parsed = MustParse(text);
  ASSERT_TRUE(parsed.is_sql);
  const auto& select = std::get<rel::SelectStatement>(*parsed.sql);
  EXPECT_EQ(select.from.table, "Age Prediction.CONTENT");
  EXPECT_EQ(select.from.effective_alias(), "CONTENT");
  EXPECT_EQ(select.from.span.offset, text.find("[Age Prediction]"));
}

TEST(DmxExprTest, ToStringForms) {
  auto parsed = MustParse(R"(
    SELECT t.[Customer ID], Predict([Age Prediction].[Age], 3), $Probability
    FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) AS t)");
  const auto& join = std::get<PredictionJoinStatement>(*parsed.statement);
  EXPECT_EQ(join.items[0].expr.ToString(), "t.[Customer ID]");
  EXPECT_EQ(join.items[1].expr.ToString(),
            "Predict([Age Prediction].Age, 3)");
  EXPECT_EQ(join.items[2].expr.ToString(), "$Probability");
}

TEST(DmxExprTest, DeepCallNestingFailsCleanly) {
  // Predict(Predict(...(x)...)) past kMaxRecursionDepth must be rejected
  // with kInvalidArgument, not a stack overflow.
  std::string expr;
  for (int i = 0; i < 200; ++i) expr += "Predict(";
  expr += 'x';
  for (int i = 0; i < 200; ++i) expr += ')';
  auto result = ParseDmx("SELECT " + expr +
                         " FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) "
                         "AS t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("nests more than"),
            std::string::npos)
      << result.status().ToString();

  // Fifty levels is fine.
  std::string shallow;
  for (int i = 0; i < 50; ++i) shallow += "Predict(";
  shallow += 'x';
  for (int i = 0; i < 50; ++i) shallow += ')';
  EXPECT_FALSE(MustParse("SELECT " + shallow +
                         " FROM m NATURAL PREDICTION JOIN (SELECT a FROM t) "
                         "AS t")
                   .is_sql);
}

}  // namespace
}  // namespace dmx
