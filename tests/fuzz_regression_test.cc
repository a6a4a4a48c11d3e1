// Crash-regression replay: every committed fuzz input — the seed corpus and
// each fixed finding in fuzz/regressions/ — runs through its target's oracle
// as a plain ctest in the DEFAULT build. A fuzz finding stays fixed without
// anyone configuring -DDMX_FUZZ=ON, and a regression shows up here as an
// ordinary test failure naming the input file.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "core/dmx_analyzer.h"
#include "core/dmx_parser.h"
#include "core/provider.h"
#include "fuzz/dmx_grammar.h"
#include "fuzz/fuzz_targets.h"
#include "shape/shape_executor.h"

#ifndef DMX_SOURCE_DIR
#error "tests/CMakeLists.txt must define DMX_SOURCE_DIR"
#endif

namespace dmx {
namespace {

using fuzz::CheckResult;

/// Loads every file in <source>/fuzz/<kind>/<target> as (name, bytes).
std::vector<std::pair<std::string, std::string>> LoadInputs(
    const std::string& kind, const std::string& target) {
  const std::string dir =
      std::string(DMX_SOURCE_DIR) + "/fuzz/" + kind + "/" + target;
  std::vector<std::pair<std::string, std::string>> inputs;
  Env* env = Env::Default();
  auto names = env->ListDir(dir);
  EXPECT_TRUE(names.ok()) << "missing corpus directory " << dir;
  if (!names.ok()) return inputs;
  for (const std::string& name : *names) {
    auto data = env->ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    if (data.ok()) inputs.emplace_back(name, *std::move(data));
  }
  // Deterministic order regardless of directory enumeration.
  std::sort(inputs.begin(), inputs.end());
  EXPECT_FALSE(inputs.empty()) << dir << " holds no inputs";
  return inputs;
}

void ReplayAll(const std::string& kind, const std::string& target,
               CheckResult (*check)(std::string_view)) {
  for (const auto& [name, data] : LoadInputs(kind, target)) {
    CheckResult result = check(data);
    EXPECT_TRUE(result.ok)
        << "fuzz/" << kind << "/" << target << "/" << name << ":\n"
        << result.error;
  }
}

TEST(FuzzRegressionTest, DmxStatementSeedCorpus) {
  ReplayAll("corpus", "dmx_statement", fuzz::CheckDmxStatement);
}

// The valid-shape-* seeds reach the SHAPE oracle: the reader accepts each
// one over the fuzz catalog, so CheckShape compares real casesets.
TEST(FuzzRegressionTest, ShapeSeedsExecute) {
  size_t seeds = 0;
  for (const auto& [name, data] : LoadInputs("corpus", "dmx_statement")) {
    if (name.rfind("valid-shape-", 0) != 0) continue;
    ++seeds;
    Provider provider;
    fuzz::PopulateFuzzCatalog(&provider);
    auto parsed = ParseDmx(data);
    ASSERT_TRUE(parsed.ok() && parsed->statement.has_value()) << name;
    const shape::ShapeStatement* shape =
        fuzz::ShapeSourceOf(*parsed->statement);
    ASSERT_NE(shape, nullptr) << name;
    auto caseset = shape::ExecuteShape(*provider.database(), *shape);
    ASSERT_TRUE(caseset.ok()) << name << ": " << caseset.status().ToString();
    EXPECT_GT(caseset->num_rows(), 0u) << name;
  }
  EXPECT_GE(seeds, 4u);
}

// The valid-range-* seeds narrow their scans: each runs over the fuzz
// catalog, whose People.Id is in order, passes the ordered-scan oracle and
// executes.
TEST(FuzzRegressionTest, RangeSeedsExecute) {
  size_t seeds = 0;
  for (const auto& [name, data] : LoadInputs("corpus", "dmx_statement")) {
    if (name.rfind("valid-range-", 0) != 0) continue;
    ++seeds;
    Provider provider;
    fuzz::PopulateFuzzCatalog(&provider);
    auto people = provider.database()->GetTable("People");
    ASSERT_TRUE(people.ok());
    ASSERT_TRUE((*people)->in_order(0)) << "People.Id";
    CheckResult scans = fuzz::CheckOrderedScans(*provider.database(), data);
    EXPECT_TRUE(scans.ok) << name << ": " << scans.error;
    auto result = provider.Connect()->Execute(data);
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  }
  EXPECT_GE(seeds, 4u);
}

// The valid-system-* seeds read the provider's read-only tables through the
// SQL pipe: each is analyzer-clean and executes over the fuzz catalog.
TEST(FuzzRegressionTest, SystemTableSeedsExecute) {
  size_t seeds = 0;
  for (const auto& [name, data] : LoadInputs("corpus", "dmx_statement")) {
    if (name.rfind("valid-system-", 0) != 0) continue;
    ++seeds;
    Provider provider;
    fuzz::PopulateFuzzCatalog(&provider);
    AnalysisReport report =
        DmxAnalyzer(AnalyzerContext{provider.models(), provider.services(),
                                    provider.database()})
            .AnalyzeText(data);
    EXPECT_EQ(report.error_count(), 0u) << name << "\n" << report.ToString();
    auto result = provider.Connect()->Execute(data);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_GT(result->num_columns(), 0u) << name;
  }
  EXPECT_GE(seeds, 4u);
}

// The insert-fails-mid-stream seed reaches the failure it is named for:
// its INSERT INTO [W] binds cases before one with a negative SUPPORT weight,
// so the oracle checks a failure that comes after training began.
TEST(FuzzRegressionTest, InsertFailsMidStreamSeedFails) {
  size_t seeds = 0;
  for (const auto& [name, data] : LoadInputs("corpus", "dmx_statement")) {
    if (name != "insert-fails-mid-stream") continue;
    ++seeds;
    Provider provider;
    fuzz::PopulateFuzzCatalog(&provider);
    auto result = provider.Connect()->Execute(data);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("negative SUPPORT weight -1"),
              std::string::npos)
        << result.status().ToString();
  }
  EXPECT_EQ(seeds, 1u);
}

// Statements drawn from the grammar, a share of them with key ranges on
// People.Id, through the ordered-scan oracle over one fuzz catalog.
TEST(FuzzRegressionTest, GeneratedSelectsMatchFullScans) {
  Provider provider;
  fuzz::PopulateFuzzCatalog(&provider);
  fuzz::Rng rng(27);
  for (int i = 0; i < 10000; ++i) {
    CheckResult scans = fuzz::CheckOrderedScans(*provider.database(),
                                                fuzz::GenerateStatement(rng));
    ASSERT_TRUE(scans.ok) << scans.error;
  }
}

TEST(FuzzRegressionTest, DmxStatementFixedFindings) {
  ReplayAll("regressions", "dmx_statement", fuzz::CheckDmxStatement);
}

TEST(FuzzRegressionTest, StoreRecoverySeedCorpus) {
  ReplayAll("corpus", "store_recovery", fuzz::CheckStoreRecovery);
}

TEST(FuzzRegressionTest, StoreRecoveryFixedFindings) {
  ReplayAll("regressions", "store_recovery", fuzz::CheckStoreRecovery);
}

TEST(FuzzRegressionTest, TokenizerParserSeedCorpus) {
  ReplayAll("corpus", "tokenizer_parser", fuzz::CheckTokenizerParser);
}

TEST(FuzzRegressionTest, TokenizerParserFixedFindings) {
  ReplayAll("regressions", "tokenizer_parser", fuzz::CheckTokenizerParser);
}

TEST(FuzzRegressionTest, WireProtocolSeedCorpus) {
  ReplayAll("corpus", "wire_protocol", fuzz::CheckWireProtocol);
}

TEST(FuzzRegressionTest, WireProtocolFixedFindings) {
  ReplayAll("regressions", "wire_protocol", fuzz::CheckWireProtocol);
}

// The allowlist is the contract that every analyzer/executor divergence is
// named and justified: entries must use registered rule ids and carry a
// non-empty justification (DESIGN.md §12 mirrors the table).
TEST(FuzzRegressionTest, DivergenceAllowlistIsWellFormed) {
  size_t entries = 0;
  for (const fuzz::DivergenceRule* entry = fuzz::kDivergenceAllowlist;
       entry->rule != nullptr; ++entry) {
    ++entries;
    EXPECT_NE(std::string(entry->why), "") << entry->rule;
    bool known = false;
    for (const char* rule : rules::kAll) {
      if (std::string(entry->rule) == rule) known = true;
    }
    EXPECT_TRUE(known) << "allowlist names unregistered rule '" << entry->rule
                       << "'";
    EXPECT_TRUE(fuzz::IsAllowlistedDivergence(entry->rule));
  }
  EXPECT_FALSE(fuzz::IsAllowlistedDivergence("key-count"))
      << "core semantic rules must never be allowlisted";
  EXPECT_FALSE(fuzz::IsAllowlistedDivergence("no-such-rule"));
  EXPECT_LE(entries, 8u) << "allowlist growing past a handful of entries "
                            "means divergences are being hidden, not fixed";
}

}  // namespace
}  // namespace dmx
