// DmxAnalyzer: the semantic-analysis front end. Each named rule is pinned by
// a table-driven case asserting the rule id and the source span it points
// at, and a dedicated test proves the analyzer accumulates EVERY violation
// of a statement into one report (first-error-only behavior is a failure).

#include "core/dmx_analyzer.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "core/dmx_parser.h"
#include "core/provider.h"

namespace dmx {
namespace {

/// Finds the first diagnostic carrying `rule`; nullptr when absent.
const Diagnostic* FindRule(const AnalysisReport& report,
                           std::string_view rule) {
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.rule == rule) return &diag;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Definition-level rules, table-driven
// ---------------------------------------------------------------------------

struct DefinitionCase {
  const char* test_name;
  const char* dmx;          ///< Full CREATE MINING MODEL text.
  const char* rule;         ///< Expected rule id.
  DiagSeverity severity;
  /// Substring of `dmx` the diagnostic's span must start at (the offending
  /// token). Null skips the span assertion.
  const char* span_token;
};

// Names the case in its ctest name (see PrintTo in tokenizer_test.cc).
void PrintTo(const DefinitionCase& c, std::ostream* os) { *os << c.test_name; }

const DefinitionCase kDefinitionCases[] = {
    {"NoKey",
     "CREATE MINING MODEL m (a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kKeyCount, DiagSeverity::kError, "m"},
    {"TwoKeys",
     "CREATE MINING MODEL m (k LONG KEY, k2 LONG KEY, a TEXT DISCRETE "
     "PREDICT) USING Naive_Bayes",
     rules::kKeyCount, DiagSeverity::kError, "k2"},
    {"NestedTableWithoutKey",
     "CREATE MINING MODEL m (k LONG KEY, t TABLE (v DOUBLE CONTINUOUS) "
     "PREDICT) USING Association_Rules",
     rules::kTableNestedKey, DiagSeverity::kError, "t TABLE"},
    {"DuplicateColumn",
     "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, a TEXT DISCRETE "
     "PREDICT) USING Naive_Bayes",
     rules::kDuplicateColumn, DiagSeverity::kError, "a TEXT DISCRETE PREDICT"},
    {"KeyCannotBePredict",
     "CREATE MINING MODEL m (k LONG KEY PREDICT, a TEXT DISCRETE) "
     "USING Naive_Bayes",
     rules::kKeyPredict, DiagSeverity::kError, "k"},
    {"RelatedToMissingTarget",
     "CREATE MINING MODEL m (k LONG KEY, r TEXT DISCRETE RELATED TO ghost, "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kRelatedToTarget, DiagSeverity::kError, "r TEXT"},
    {"RelatedToContinuousTarget",
     "CREATE MINING MODEL m (k LONG KEY, c DOUBLE CONTINUOUS, "
     "r TEXT DISCRETE RELATED TO c, a TEXT DISCRETE PREDICT) "
     "USING Naive_Bayes",
     rules::kRelatedToTarget, DiagSeverity::kError, "r TEXT"},
    {"QualifierOfMissingTarget",
     "CREATE MINING MODEL m (k LONG KEY, q DOUBLE PROBABILITY OF ghost, "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kQualifierTarget, DiagSeverity::kError, "q DOUBLE"},
    {"DistributionHintOnDiscrete",
     "CREATE MINING MODEL m (k LONG KEY, d LONG NORMAL DISCRETE, "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kDistributionContinuous, DiagSeverity::kError, "d LONG"},
    {"ContinuousTextColumn",
     "CREATE MINING MODEL m (k LONG KEY, c TEXT CONTINUOUS, "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kNumericAttribute, DiagSeverity::kError, "c TEXT"},
    {"TextQualifier",
     "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE PREDICT, "
     "q TEXT PROBABILITY OF a) USING Naive_Bayes",
     rules::kNumericAttribute, DiagSeverity::kError, "q TEXT"},
    {"TwoSequenceTimeColumns",
     "CREATE MINING MODEL m (k LONG KEY, t TABLE (ik TEXT KEY, "
     "s1 DOUBLE SEQUENCE_TIME, s2 DOUBLE SEQUENCE_TIME) PREDICT) "
     "USING Sequence_Analysis",
     rules::kSequenceTime, DiagSeverity::kError, "s2"},
    {"PredictSequenceTime",
     "CREATE MINING MODEL m (k LONG KEY, t TABLE (ik TEXT KEY, "
     "s DOUBLE SEQUENCE_TIME PREDICT)) USING Sequence_Analysis",
     rules::kSequenceTime, DiagSeverity::kError, "s DOUBLE"},
    {"CaseLevelSequenceTimeWarns",
     "CREATE MINING MODEL m (k LONG KEY, s DOUBLE SEQUENCE_TIME, "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kSequenceTimeCaseLevel, DiagSeverity::kWarning, "s DOUBLE"},
    {"QualifierOfInputWarns",
     "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, "
     "p DOUBLE PROBABILITY OF a, o TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kQualifierOfInput, DiagSeverity::kWarning, "p DOUBLE"},
    {"KeyOnlyNestedTableWarns",
     "CREATE MINING MODEL m (k LONG KEY, t TABLE (ik TEXT KEY), "
     "a TEXT DISCRETE PREDICT) USING Naive_Bayes",
     rules::kUnusedColumn, DiagSeverity::kWarning, "t TABLE"},
    {"NoPredictColumnWarns",
     "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE) USING Clustering",
     rules::kPredictPresence, DiagSeverity::kWarning, "m"},
    {"DuplicateQualifier",
     "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE PREDICT, "
     "p1 DOUBLE PROBABILITY OF a, p2 DOUBLE PROBABILITY OF a) "
     "USING Naive_Bayes",
     rules::kDuplicateQualifier, DiagSeverity::kError, "p2 DOUBLE"},
};

class DefinitionRules : public ::testing::TestWithParam<DefinitionCase> {};

TEST_P(DefinitionRules, FlagsRuleAtSpan) {
  const DefinitionCase& c = GetParam();
  const std::string text = c.dmx;
  AnalysisReport report = DmxAnalyzer().AnalyzeText(text);
  const Diagnostic* diag = FindRule(report, c.rule);
  ASSERT_NE(diag, nullptr)
      << "expected rule '" << c.rule << "', got:\n" << report.ToString(text);
  EXPECT_EQ(diag->severity, c.severity) << diag->ToString(text);
  if (c.span_token != nullptr) {
    size_t expected = text.find(c.span_token);
    ASSERT_NE(expected, std::string::npos);
    EXPECT_EQ(diag->span.offset, expected) << diag->ToString(text);
    EXPECT_GT(diag->span.length, 0u);
  }
  EXPECT_FALSE(diag->message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    DmxAnalyzerTest, DefinitionRules, ::testing::ValuesIn(kDefinitionCases),
    [](const ::testing::TestParamInfo<DefinitionCase>& info) {
      return std::string(info.param.test_name);
    });

// The rule table must exercise the breadth the analyzer advertises: at
// least 8 distinct rule ids.
TEST(DmxAnalyzerTest, TableCoversAtLeastEightDistinctRules) {
  std::set<std::string> rules;
  for (const DefinitionCase& c : kDefinitionCases) rules.insert(c.rule);
  EXPECT_GE(rules.size(), 8u) << "definition table lost rule coverage";
}

// ---------------------------------------------------------------------------
// Multi-diagnostic accumulation
// ---------------------------------------------------------------------------

// One statement, five independent violations: the analyzer must report all
// of them. A first-error-only implementation fails this test.
TEST(DmxAnalyzerTest, AccumulatesEveryViolationOfOneStatement) {
  const std::string text =
      "CREATE MINING MODEL bad ("
      "  a TEXT CONTINUOUS PREDICT,"           // numeric-attribute (+ no KEY)
      "  b DOUBLE NORMAL DISCRETE,"            // distribution-continuous
      "  c DOUBLE PROBABILITY OF ghost,"       // qualifier-target
      "  d TABLE (x DOUBLE CONTINUOUS)"        // table-nested-key
      ") USING Naive_Bayes";
  AnalysisReport report = DmxAnalyzer().AnalyzeText(text);

  EXPECT_TRUE(report.HasRule(rules::kKeyCount)) << report.ToString(text);
  EXPECT_TRUE(report.HasRule(rules::kNumericAttribute));
  EXPECT_TRUE(report.HasRule(rules::kDistributionContinuous));
  EXPECT_TRUE(report.HasRule(rules::kQualifierTarget));
  EXPECT_TRUE(report.HasRule(rules::kTableNestedKey));
  EXPECT_GE(report.error_count(), 5u) << report.ToString(text);
  EXPECT_FALSE(report.ok());

  // Diagnostics point at four different source positions.
  std::set<size_t> offsets;
  for (const Diagnostic& diag : report.diagnostics) {
    offsets.insert(diag.span.offset);
  }
  EXPECT_GE(offsets.size(), 4u);

  // The rendered report carries one line per diagnostic plus the trailer.
  std::string rendered = report.ToString(text);
  EXPECT_NE(rendered.find("error [key-count]"), std::string::npos);
  EXPECT_NE(rendered.find("error(s)"), std::string::npos);

  // And ToStatus folds the whole report into one error message.
  Status status = report.ToStatus(text);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("qualifier-target"), std::string::npos);
  EXPECT_NE(status.message().find("table-nested-key"), std::string::npos);
}

TEST(DmxAnalyzerTest, CleanStatementProducesEmptyReport) {
  AnalysisReport report = DmxAnalyzer().AnalyzeText(
      "CREATE MINING MODEL ok (k LONG KEY, g TEXT DISCRETE, "
      "a DOUBLE DISCRETIZED PREDICT) USING Naive_Bayes");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.diagnostics.size(), 0u) << report.ToString();
  EXPECT_EQ(report.ToString(), "no issues found\n");
  EXPECT_TRUE(report.ToStatus().ok());
}

TEST(DmxAnalyzerTest, ParseFailureBecomesParseErrorDiagnostic) {
  AnalysisReport report =
      DmxAnalyzer().AnalyzeText("CREATE MINING MODEL m (k LONG KEY");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule(rules::kParseError)) << report.ToString();
}

// A write naming a read-only table parses; it is refused under its own
// rule, pointing at the table's name.
TEST(DmxAnalyzerTest, WriteToReadOnlyTableIsNotAParseError) {
  for (const std::string text : {
           "DELETE FROM $system.DMSCHEMA_MINING_MODELS",
           "DROP TABLE $system.DMSCHEMA_MINING_MODELS;",
           "INSERT INTO $system.DMSCHEMA_MINING_MODELS VALUES ('x')",
           "DELETE FROM [A].CONTENT WHERE NODE_TYPE = 1",
       }) {
    AnalysisReport report = DmxAnalyzer().AnalyzeText(text);
    ASSERT_EQ(report.diagnostics.size(), 1u) << text << report.ToString();
    const Diagnostic& diag = report.diagnostics[0];
    EXPECT_EQ(diag.rule, rules::kReadOnlyTable) << text;
    EXPECT_EQ(diag.severity, DiagSeverity::kError) << text;
    const std::string table = text.find("CONTENT") != std::string::npos
                                  ? "[A].CONTENT"
                                  : "$system.DMSCHEMA_MINING_MODELS";
    EXPECT_EQ(text.substr(diag.span.offset, diag.span.length), table) << text;
  }
  // Still a syntax error: the write grammar stops before the table name.
  EXPECT_TRUE(DmxAnalyzer()
                  .AnalyzeText("DELETE FROM $system.")
                  .HasRule(rules::kParseError));
}

TEST(DmxAnalyzerTest, PlainSqlIsNotAnalyzed) {
  AnalysisReport report =
      DmxAnalyzer().AnalyzeText("SELECT a, b FROM t WHERE a > 3");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics.empty());
}

// Programmatically built ASTs (PMML import path) hit the depth rule the
// parser cannot produce.
TEST(DmxAnalyzerTest, NestedTableInsideNestedTable) {
  ModelColumn inner_key;
  inner_key.name = "ik";
  inner_key.role = ContentRole::kKey;
  ModelColumn inner;
  inner.name = "inner";
  inner.role = ContentRole::kTable;
  inner.data_type = DataType::kTable;
  inner.nested.push_back(inner_key);
  ModelColumn outer_key = inner_key;
  outer_key.name = "ok";
  ModelColumn outer;
  outer.name = "outer";
  outer.role = ContentRole::kTable;
  outer.data_type = DataType::kTable;
  outer.usage = PredictUsage::kPredict;
  outer.nested.push_back(outer_key);
  outer.nested.push_back(inner);
  ModelColumn key;
  key.name = "k";
  key.role = ContentRole::kKey;
  ModelDefinition def;
  def.model_name = "deep";
  def.service_name = "Naive_Bayes";
  def.columns = {key, outer};

  AnalysisReport report = DmxAnalyzer().AnalyzeDefinition(def);
  EXPECT_TRUE(report.HasRule(rules::kNestingDepth)) << report.ToString();
}

// ---------------------------------------------------------------------------
// Statement-level rules (need a live catalog)
// ---------------------------------------------------------------------------

class StatementRules : public ::testing::Test {
 protected:
  void SetUp() override {
    conn_ = provider_.Connect();
    auto created = conn_->Execute(
        "CREATE MINING MODEL [M] ([Id] LONG KEY, [Gender] TEXT DISCRETE, "
        "[Age] DOUBLE DISCRETIZED PREDICT, [Items] TABLE ([Product] TEXT "
        "KEY, [Qty] DOUBLE CONTINUOUS)) USING Naive_Bayes");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    context_.catalog = provider_.models();
    context_.services = provider_.services();
    context_.database = provider_.database();
  }

  AnalysisReport Analyze(const std::string& text) {
    return DmxAnalyzer(context_).AnalyzeText(text);
  }

  Provider provider_;
  std::unique_ptr<Connection> conn_;
  AnalyzerContext context_;
};

TEST_F(StatementRules, UnknownModelInEveryModelStatement) {
  for (const char* text : {
           "INSERT INTO ghost SELECT a FROM t",
           "SELECT Predict([Age]) FROM ghost NATURAL PREDICTION JOIN "
           "(SELECT a FROM t) AS s",
           "SELECT * FROM ghost.CONTENT",
           "DROP MINING MODEL ghost",
           "EXPORT MINING MODEL ghost TO '/tmp/x.xml'",
           "DELETE FROM ghost",
       }) {
    AnalysisReport report = Analyze(text);
    const Diagnostic* diag = FindRule(report, rules::kUnknownModel);
    ASSERT_NE(diag, nullptr) << text << "\n" << report.ToString(text);
    size_t expected = std::string(text).find("ghost");
    EXPECT_EQ(diag->span.offset, expected) << text;
  }
}

TEST_F(StatementRules, UnknownServiceInCreate) {
  AnalysisReport report = Analyze(
      "CREATE MINING MODEL n (k LONG KEY, a TEXT DISCRETE PREDICT) "
      "USING No_Such_Service");
  const Diagnostic* diag = FindRule(report, rules::kUnknownService);
  ASSERT_NE(diag, nullptr) << report.ToString();
  EXPECT_EQ(diag->severity, DiagSeverity::kError);
}

TEST_F(StatementRules, InsertColumnsCheckedAgainstModel) {
  const std::string text =
      "INSERT INTO [M] ([Id], [Ghost], [Items]([Product], [Nope])) "
      "SELECT 1 FROM t";
  AnalysisReport report = Analyze(text);
  // Both the unknown top-level column and the unknown nested column are
  // reported in one pass.
  size_t unknown = 0;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.rule == rules::kUnknownColumn) ++unknown;
  }
  EXPECT_EQ(unknown, 2u) << report.ToString(text);
  const Diagnostic* first = FindRule(report, rules::kUnknownColumn);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->span.offset, text.find("[Ghost]"));
  // Unmapped trainable columns warn as unused.
  EXPECT_TRUE(report.HasRule(rules::kUnusedColumn)) << report.ToString(text);
}

TEST_F(StatementRules, ShadowedAliasWarns) {
  const std::string text =
      "SELECT Predict([Age]) FROM [M] NATURAL PREDICTION JOIN "
      "(SELECT 1 FROM t) AS [Gender]";
  AnalysisReport report = Analyze(text);
  const Diagnostic* diag = FindRule(report, rules::kShadowedAlias);
  ASSERT_NE(diag, nullptr) << report.ToString(text);
  EXPECT_EQ(diag->severity, DiagSeverity::kWarning);
  EXPECT_EQ(diag->span.offset, text.find("[Gender]"));
  // Warnings alone keep the report executable.
  EXPECT_TRUE(report.ok());
}

TEST_F(StatementRules, ModelRootedPathsAreResolved) {
  const std::string text =
      "SELECT M.[Ghost], Predict(M.[Age]) FROM [M] NATURAL PREDICTION JOIN "
      "(SELECT 1 FROM t) AS s WHERE M.[Items].[Nope] = 1";
  AnalysisReport report = Analyze(text);
  size_t unknown = 0;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.rule == rules::kUnknownColumn) ++unknown;
  }
  EXPECT_EQ(unknown, 2u) << report.ToString(text);
}

TEST_F(StatementRules, PredictionJoinAgainstNoOutputModel) {
  // The executor now agrees with the analyzer that a no-output model on a
  // non-segmentation service is an error at CREATE time (the catalog runs
  // the analyzer with the service registry in context)...
  auto create = conn_->Execute(
      "CREATE MINING MODEL [NoOut] ([Id] LONG KEY, "
      "[Age] DOUBLE CONTINUOUS) USING Naive_Bayes");
  ASSERT_FALSE(create.ok());
  EXPECT_NE(create.status().message().find(rules::kPredictPresence),
            std::string::npos)
      << create.status().ToString();

  // ...so a degenerate no-output model can only enter the catalog sideways
  // (a legacy import); adopt one directly to pin the join-time rule.
  ModelDefinition def;
  ModelColumn key;
  key.name = "Id";
  key.role = ContentRole::kKey;
  ModelColumn age;
  age.name = "Age";
  age.data_type = DataType::kDouble;
  age.attr_type = AttributeType::kContinuous;
  def.model_name = "NoOut";
  def.service_name = "Naive_Bayes";
  def.columns = {key, age};
  auto service = provider_.services()->Find("Naive_Bayes");
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(provider_.models()
                  ->AdoptModel(std::make_unique<MiningModel>(
                      std::move(def), *service, ParamMap{}))
                  .ok());
  AnalysisReport report = Analyze(
      "SELECT [Id] FROM [NoOut] NATURAL PREDICTION JOIN "
      "(SELECT 1 FROM t) AS s");
  const Diagnostic* diag = FindRule(report, rules::kPredictPresence);
  ASSERT_NE(diag, nullptr) << report.ToString();
  EXPECT_EQ(diag->severity, DiagSeverity::kError);

  // ...and the execution path rejects it with the same report.
  auto result = conn_->Execute(
      "SELECT [Id] FROM [NoOut] NATURAL PREDICTION JOIN "
      "(SELECT [Id], [Age] FROM Customers) AS s");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(rules::kPredictPresence),
            std::string::npos)
      << result.status().ToString();
}

// Segmentation models have no declared outputs by design: the join-time
// predict-presence rule must stay quiet for them.
TEST_F(StatementRules, SegmentationModelsExemptFromPredictPresence) {
  ASSERT_TRUE(conn_
                  ->Execute("CREATE MINING MODEL [Seg] ([Id] LONG KEY, "
                            "[Age] DOUBLE CONTINUOUS) USING Clustering")
                  .ok());
  AnalysisReport report = Analyze(
      "SELECT Cluster() FROM [Seg] NATURAL PREDICTION JOIN "
      "(SELECT 1 FROM t) AS s");
  EXPECT_FALSE(report.HasRule(rules::kPredictPresence)) << report.ToString();
}

// One qualifier of each kind per target column: PROBABILITY OF a twice is a
// duplicate-qualifier error, but PROBABILITY OF a + SUPPORT OF a is fine.
TEST_F(StatementRules, DistinctQualifierKindsOnOneTargetAreAllowed) {
  AnalysisReport report = Analyze(
      "CREATE MINING MODEL mq (k LONG KEY, a TEXT DISCRETE PREDICT, "
      "p DOUBLE PROBABILITY OF a, s DOUBLE SUPPORT OF a) USING Naive_Bayes");
  EXPECT_FALSE(report.HasRule(rules::kDuplicateQualifier))
      << report.ToString();
}

// ON clauses that feed a PREDICT column from the source supply the very
// value the model is asked to predict — almost always a copy-paste of the
// training column list.
TEST_F(StatementRules, PredictColumnFedInOnClauseWarns) {
  const std::string text =
      "SELECT Predict([Age]) FROM [M] PREDICTION JOIN "
      "(SELECT a, g FROM t) AS s ON [M].[Age] = s.a";
  AnalysisReport report = Analyze(text);
  const Diagnostic* diag = FindRule(report, rules::kPredictInput);
  ASSERT_NE(diag, nullptr) << report.ToString(text);
  EXPECT_EQ(diag->severity, DiagSeverity::kWarning);
  // A warning, not an error: the statement stays executable.
  EXPECT_TRUE(report.ok());
}

TEST_F(StatementRules, InputColumnInOnClauseDoesNotWarn) {
  AnalysisReport report = Analyze(
      "SELECT Predict([Age]) FROM [M] PREDICTION JOIN "
      "(SELECT a, g FROM t) AS s ON [M].[Gender] = s.g");
  EXPECT_FALSE(report.HasRule(rules::kPredictInput)) << report.ToString();
}

// A RELATED TO column depending on the PREDICT target legitimizes feeding
// it back: the known value conditions its dependents.
TEST_F(StatementRules, RelatedToColumnSilencesPredictInput) {
  ASSERT_TRUE(conn_
                  ->Execute("CREATE MINING MODEL [Cond] ([Id] LONG KEY, "
                            "[Age] DOUBLE DISCRETIZED PREDICT, "
                            "[AgeBand] TEXT DISCRETE RELATED TO [Age]) "
                            "USING Naive_Bayes")
                  .ok());
  AnalysisReport report = Analyze(
      "SELECT Predict([Age]) FROM [Cond] PREDICTION JOIN "
      "(SELECT a FROM t) AS s ON [Cond].[Age] = s.a");
  EXPECT_FALSE(report.HasRule(rules::kPredictInput)) << report.ToString();
}

// The catalog path rejects invalid definitions with the accumulated report,
// not just the first violation.
TEST_F(StatementRules, CreateModelReportsAllViolationsInOneStatus) {
  auto result = conn_->Execute(
      "CREATE MINING MODEL bad (a TEXT CONTINUOUS, b DOUBLE NORMAL DISCRETE, "
      "c DOUBLE PROBABILITY OF ghost) USING Naive_Bayes");
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  EXPECT_NE(message.find(rules::kKeyCount), std::string::npos) << message;
  EXPECT_NE(message.find(rules::kNumericAttribute), std::string::npos);
  EXPECT_NE(message.find(rules::kDistributionContinuous), std::string::npos);
  EXPECT_NE(message.find(rules::kQualifierTarget), std::string::npos);
}

}  // namespace
}  // namespace dmx
