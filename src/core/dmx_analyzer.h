// DmxAnalyzer: the semantic-analysis front end of the provider. It walks a
// parsed DMX statement (and the model definition inside CREATE MINING MODEL)
// *before* execution and accumulates every rule violation into one
// AnalysisReport, instead of failing on the first bad Status the way the
// execution path does. Each finding carries a stable rule id, a severity, a
// source span and a fix hint, so consumers (dmxsh's ANALYZE command, CI
// linting of model scripts) can render compiler-style diagnostics:
//
//   error [key-count] at 1:26: mining model 'm' needs exactly one case-level
//       KEY column, got 0  (hint: mark the case id column KEY)
//
// The rules encode the paper's column-metadata contract (§3.2): KEY
// uniqueness per nesting level, RELATED TO / qualifier targets, distribution
// hints, SEQUENCE_TIME ordering, PREDICT-column presence for prediction
// joins, plus lint-grade warnings (unused columns, shadowed aliases).

#ifndef DMX_CORE_DMX_ANALYZER_H_
#define DMX_CORE_DMX_ANALYZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/source_span.h"
#include "common/status.h"
#include "core/dmx_ast.h"
#include "model/service_registry.h"

namespace dmx {

namespace rel {
class Database;
}  // namespace rel

class ModelCatalog;

/// Stable rule identifiers. Tests and docs refer to these by name; treat
/// them as public API (renaming one is a breaking change).
namespace rules {
// Errors.
inline constexpr const char kParseError[] = "parse-error";
/// A write (INSERT INTO, DELETE FROM, DROP TABLE) names one of the
/// provider's read-only tables: `$system.<rowset>` or `<model>.CONTENT`.
inline constexpr const char kReadOnlyTable[] = "read-only-table";
inline constexpr const char kKeyCount[] = "key-count";
inline constexpr const char kTableNestedKey[] = "table-nested-key";
inline constexpr const char kNestingDepth[] = "nesting-depth";
inline constexpr const char kDuplicateColumn[] = "duplicate-column";
inline constexpr const char kKeyPredict[] = "key-predict";
inline constexpr const char kRelatedToTarget[] = "related-to-target";
inline constexpr const char kQualifierTarget[] = "qualifier-target";
inline constexpr const char kDistributionContinuous[] =
    "distribution-continuous";
inline constexpr const char kNumericAttribute[] = "numeric-attribute";
inline constexpr const char kSequenceTime[] = "sequence-time";
inline constexpr const char kPredictPresence[] = "predict-presence";
inline constexpr const char kUnknownService[] = "unknown-service";
inline constexpr const char kUnknownModel[] = "unknown-model";
inline constexpr const char kUnknownColumn[] = "unknown-column";
/// Two qualifier columns of the same kind (PROBABILITY OF, SUPPORT OF, ...)
/// modifying the same sibling column: the second binding is ambiguous.
inline constexpr const char kDuplicateQualifier[] = "duplicate-qualifier";
// Warnings.
inline constexpr const char kUnusedColumn[] = "unused-column";
inline constexpr const char kShadowedAlias[] = "shadowed-alias";
inline constexpr const char kQualifierOfInput[] = "qualifier-of-input";
inline constexpr const char kSequenceTimeCaseLevel[] =
    "sequence-time-case-level";
/// A prediction join's ON clause feeds a model PREDICT column from the
/// source — the statement supplies the very value it asks the model to
/// predict — without a RELATED TO column declaring that dependence.
inline constexpr const char kPredictInput[] = "predict-input";

/// Every rule id, errors then warnings. A new rule MUST be added here: the
/// rule-coverage meta-test (tests/rule_coverage_test.cc) walks this array
/// and fails unless some committed fuzz corpus seed triggers each entry, so
/// rules cannot ship without fuzzer-visible coverage.
inline constexpr const char* kAll[] = {
    kParseError,     kReadOnlyTable,   kKeyCount,
    kTableNestedKey, kNestingDepth,   kDuplicateColumn, kKeyPredict,
    kRelatedToTarget, kQualifierTarget, kDistributionContinuous,
    kNumericAttribute, kSequenceTime,   kPredictPresence,
    kUnknownService, kUnknownModel,    kUnknownColumn,
    kDuplicateQualifier,
    kUnusedColumn,   kShadowedAlias,   kQualifierOfInput,
    kSequenceTimeCaseLevel, kPredictInput,
};
}  // namespace rules

enum class DiagSeverity { kError, kWarning };

/// \brief One finding of the semantic analyzer.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  std::string rule;      ///< One of the rules:: identifiers.
  std::string message;
  SourceSpan span;       ///< Offending range in the statement text.
  std::string fix_hint;  ///< How to repair the statement; may be empty.

  /// "error [key-count] at 1:26: <message>  (hint: ...)". Line:column is
  /// resolved against `source`; omitted when the span carries no position.
  std::string ToString(std::string_view source = "") const;
};

/// \brief The accumulated outcome of analyzing one statement.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  size_t error_count() const;
  size_t warning_count() const;
  bool ok() const { return error_count() == 0; }

  /// True when some diagnostic carries `rule`.
  bool HasRule(std::string_view rule) const;

  /// One diagnostic per line, followed by an "N error(s), M warning(s)"
  /// trailer ("no issues found" for a clean report).
  std::string ToString(std::string_view source = "") const;

  /// OK when the report has no errors; otherwise an InvalidArgument whose
  /// message is the full multi-diagnostic rendering (warnings included).
  Status ToStatus(std::string_view source = "") const;
};

/// \brief Optional name-resolution context. Null members simply disable the
/// checks that need them (unknown-model, unknown-service, ...).
struct AnalyzerContext {
  const ModelCatalog* catalog = nullptr;
  const ServiceRegistry* services = nullptr;
  const rel::Database* database = nullptr;  ///< DELETE FROM disambiguation.
};

class DmxAnalyzer {
 public:
  explicit DmxAnalyzer(AnalyzerContext context = {}) : context_(context) {}

  /// Checks a CREATE MINING MODEL definition (column-metadata rules).
  AnalysisReport AnalyzeDefinition(const ModelDefinition& def) const;

  /// Checks any parsed DMX statement, resolving names through the context.
  AnalysisReport AnalyzeStatement(const DmxStatement& statement) const;

  /// Checks one prediction join (PREDICT-column presence, shadowed aliases,
  /// model column paths). Exposed separately so the execution path can
  /// preflight without copying the statement's caseset source.
  AnalysisReport AnalyzePredictionJoin(const PredictionJoinStatement& stmt) const;

  /// Parses `text` and analyzes the result. Lexer/parser failures become a
  /// `parse-error` diagnostic; plain SQL yields an empty report (the
  /// relational engine has its own binder).
  AnalysisReport AnalyzeText(const std::string& text) const;

 private:
  AnalyzerContext context_;
};

}  // namespace dmx

#endif  // DMX_CORE_DMX_ANALYZER_H_
