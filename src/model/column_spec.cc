#include "model/column_spec.h"

#include "common/string_util.h"

namespace dmx {

const char* ContentRoleToString(ContentRole role) {
  switch (role) {
    case ContentRole::kKey: return "KEY";
    case ContentRole::kAttribute: return "ATTRIBUTE";
    case ContentRole::kRelation: return "RELATION";
    case ContentRole::kQualifier: return "QUALIFIER";
    case ContentRole::kTable: return "TABLE";
  }
  return "?";
}

const char* AttributeTypeToString(AttributeType type) {
  switch (type) {
    case AttributeType::kDiscrete: return "DISCRETE";
    case AttributeType::kOrdered: return "ORDERED";
    case AttributeType::kCyclical: return "CYCLICAL";
    case AttributeType::kContinuous: return "CONTINUOUS";
    case AttributeType::kDiscretized: return "DISCRETIZED";
    case AttributeType::kSequenceTime: return "SEQUENCE_TIME";
  }
  return "?";
}

const char* QualifierKindToString(QualifierKind kind) {
  switch (kind) {
    case QualifierKind::kProbability: return "PROBABILITY";
    case QualifierKind::kVariance: return "VARIANCE";
    case QualifierKind::kSupport: return "SUPPORT";
    case QualifierKind::kProbabilityVariance: return "PROBABILITY_VARIANCE";
    case QualifierKind::kOrder: return "ORDER";
  }
  return "?";
}

const char* DistributionHintToString(DistributionHint hint) {
  switch (hint) {
    case DistributionHint::kNone: return "";
    case DistributionHint::kNormal: return "NORMAL";
    case DistributionHint::kLogNormal: return "LOG_NORMAL";
    case DistributionHint::kUniform: return "UNIFORM";
    case DistributionHint::kBinomial: return "BINOMIAL";
    case DistributionHint::kMultinomial: return "MULTINOMIAL";
    case DistributionHint::kPoisson: return "POISSON";
    case DistributionHint::kMixture: return "MIXTURE";
  }
  return "";
}

const char* DiscretizationMethodToString(DiscretizationMethod method) {
  switch (method) {
    case DiscretizationMethod::kEqualRanges: return "EQUAL_RANGES";
    case DiscretizationMethod::kEqualFrequencies: return "EQUAL_FREQUENCIES";
    case DiscretizationMethod::kClusters: return "CLUSTERS";
  }
  return "?";
}

Result<DiscretizationMethod> DiscretizationMethodFromString(
    const std::string& s) {
  if (EqualsCi(s, "EQUAL_RANGES") || EqualsCi(s, "EQUAL_AREAS")) {
    return DiscretizationMethod::kEqualRanges;
  }
  if (EqualsCi(s, "EQUAL_FREQUENCIES")) {
    return DiscretizationMethod::kEqualFrequencies;
  }
  if (EqualsCi(s, "CLUSTERS")) return DiscretizationMethod::kClusters;
  return ParseError() << "unknown discretization method '" << s << "'";
}

std::string ModelColumn::ToDmx() const {
  std::string out = QuoteIdentifier(name);
  if (role == ContentRole::kTable) {
    out += " TABLE(";
    for (size_t i = 0; i < nested.size(); ++i) {
      if (i > 0) out += ", ";
      out += nested[i].ToDmx();
    }
    out += ")";
    if (usage == PredictUsage::kPredict) out += " PREDICT";
    if (usage == PredictUsage::kPredictOnly) out += " PREDICT_ONLY";
    return out;
  }
  out += ' ';
  out += DataTypeToString(data_type);
  switch (role) {
    case ContentRole::kKey:
      out += " KEY";
      break;
    case ContentRole::kAttribute: {
      const char* hint = DistributionHintToString(distribution);
      if (*hint != '\0') {
        out += ' ';
        out += hint;
      }
      out += ' ';
      out += AttributeTypeToString(attr_type);
      if (attr_type == AttributeType::kDiscretized) {
        out += '(';
        out += DiscretizationMethodToString(discretization);
        out += ", " + std::to_string(discretization_buckets) + ")";
      }
      break;
    }
    case ContentRole::kRelation:
      out += " DISCRETE RELATED TO " + QuoteIdentifier(related_to);
      break;
    case ContentRole::kQualifier:
      out += ' ';
      out += QualifierKindToString(qualifier);
      out += " OF " + QuoteIdentifier(related_to);
      break;
    case ContentRole::kTable:
      break;  // handled above
  }
  if (not_null) out += " NOT NULL";
  if (model_existence_only) out += " MODEL_EXISTENCE_ONLY";
  if (usage == PredictUsage::kPredict) out += " PREDICT";
  if (usage == PredictUsage::kPredictOnly) out += " PREDICT_ONLY";
  return out;
}

}  // namespace dmx
