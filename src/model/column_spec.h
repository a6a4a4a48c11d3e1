// Model column specifications: the rich column metadata of paper §3.2 —
// content roles (KEY / ATTRIBUTE / RELATION / QUALIFIER / TABLE), attribute
// types (DISCRETE / CONTINUOUS / DISCRETIZED / ORDERED / CYCLICAL /
// SEQUENCE_TIME), qualifiers (PROBABILITY OF, VARIANCE OF, SUPPORT OF, ...),
// distribution hints, modeling flags and prediction markers.

#ifndef DMX_MODEL_COLUMN_SPEC_H_
#define DMX_MODEL_COLUMN_SPEC_H_

#include <string>
#include <vector>

#include "common/source_span.h"
#include "common/status.h"
#include "common/value.h"

namespace dmx {

/// Content role of a model column (paper §3.2.1).
enum class ContentRole {
  kKey,        ///< Identifies the case (top level) or the nested row.
  kAttribute,  ///< A modeling attribute.
  kRelation,   ///< Classifies another column (RELATED TO target).
  kQualifier,  ///< Statistical modifier of an attribute (OF target).
  kTable,      ///< Nested table column.
};

/// Attribute types (paper §3.2.2).
enum class AttributeType {
  kDiscrete,
  kOrdered,
  kCyclical,
  kContinuous,
  kDiscretized,
  kSequenceTime,
};

/// Qualifier kinds (paper §3.2.1, QUALIFIER examples a-e).
enum class QualifierKind {
  kProbability,
  kVariance,
  kSupport,
  kProbabilityVariance,
  kOrder,
};

/// Distribution hints (paper §3.2.3).
enum class DistributionHint {
  kNone,
  kNormal,
  kLogNormal,
  kUniform,
  kBinomial,
  kMultinomial,
  kPoisson,
  kMixture,
};

/// Prediction marker: plain input, PREDICT (input and output) or
/// PREDICT_ONLY (output only).
enum class PredictUsage { kInput, kPredict, kPredictOnly };

/// Discretization methods accepted by DISCRETIZED(<method>, <buckets>).
enum class DiscretizationMethod { kEqualRanges, kEqualFrequencies, kClusters };

const char* ContentRoleToString(ContentRole role);
const char* AttributeTypeToString(AttributeType type);
const char* QualifierKindToString(QualifierKind kind);
const char* DistributionHintToString(DistributionHint hint);
const char* DiscretizationMethodToString(DiscretizationMethod method);
Result<DiscretizationMethod> DiscretizationMethodFromString(
    const std::string& s);

/// \brief One column of a CREATE MINING MODEL definition. TABLE columns
/// carry their nested column list.
struct ModelColumn {
  std::string name;
  /// Where the column name appeared in the CREATE statement (zero when the
  /// definition was built programmatically, e.g. on the PMML import path).
  SourceSpan span;
  DataType data_type = DataType::kText;
  ContentRole role = ContentRole::kAttribute;
  AttributeType attr_type = AttributeType::kDiscrete;

  // RELATION: the classified column; QUALIFIER: the modified attribute.
  std::string related_to;
  QualifierKind qualifier = QualifierKind::kProbability;

  DistributionHint distribution = DistributionHint::kNone;
  bool not_null = false;
  /// MODEL_EXISTENCE_ONLY: "the information of interest is ... that a value
  /// is present" (paper §3.2.3).
  bool model_existence_only = false;
  PredictUsage usage = PredictUsage::kInput;

  // DISCRETIZED options.
  DiscretizationMethod discretization = DiscretizationMethod::kEqualRanges;
  int discretization_buckets = 5;

  // Nested columns when role == kTable.
  std::vector<ModelColumn> nested;

  bool is_key() const { return role == ContentRole::kKey; }
  bool is_table() const { return role == ContentRole::kTable; }
  bool is_output() const { return usage != PredictUsage::kInput; }
  bool is_input() const { return usage != PredictUsage::kPredictOnly; }

  /// Round-trippable DMX fragment ("[Age] DOUBLE DISCRETIZED PREDICT").
  std::string ToDmx() const;
};

}  // namespace dmx

#endif  // DMX_MODEL_COLUMN_SPEC_H_
