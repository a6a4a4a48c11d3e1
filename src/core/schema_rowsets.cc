#include "core/schema_rowsets.h"

#include <string_view>
#include <utility>

#include "core/udf.h"

namespace dmx {

namespace {

// Every producer takes both catalogs, so kSystemTables can name them alike.

Result<Rowset> MiningServicesRowset(const ServiceRegistry& services,
                                    const ModelCatalog&) {
  auto schema = Schema::Make({{"SERVICE_NAME", DataType::kText},
                              {"SERVICE_DISPLAY_NAME", DataType::kText},
                              {"SERVICE_DESCRIPTION", DataType::kText},
                              {"PREDICTION_SUPPORTED", DataType::kBool},
                              {"SEGMENTATION_SUPPORTED", DataType::kBool},
                              {"ASSOCIATION_SUPPORTED", DataType::kBool},
                              {"INCREMENTAL_MAINTENANCE", DataType::kBool},
                              {"CONTINUOUS_TARGETS", DataType::kBool},
                              {"DISCRETE_TARGETS", DataType::kBool},
                              {"TABLE_PREDICTION", DataType::kBool},
                              {"SEQUENCE_SUPPORTED", DataType::kBool}});
  Rowset out(schema);
  for (const std::string& name : services.ListServices()) {
    const ServiceCapabilities& caps = services.Find(name).value()->capabilities();
    DMX_RETURN_IF_ERROR(
        out.Append({Value::Text(caps.name), Value::Text(caps.display_name),
                    Value::Text(caps.description),
                    Value::Bool(caps.supports_prediction),
                    Value::Bool(caps.is_segmentation),
                    Value::Bool(caps.supports_association),
                    Value::Bool(caps.supports_incremental),
                    Value::Bool(caps.supports_continuous_targets),
                    Value::Bool(caps.supports_discrete_targets),
                    Value::Bool(caps.supports_table_prediction),
                    Value::Bool(caps.supports_sequence_analysis)}));
  }
  return out;
}

Result<Rowset> ServiceParametersRowset(const ServiceRegistry& services,
                                       const ModelCatalog&) {
  auto schema = Schema::Make({{"SERVICE_NAME", DataType::kText},
                              {"PARAMETER_NAME", DataType::kText},
                              {"PARAMETER_DESCRIPTION", DataType::kText},
                              {"DEFAULT_VALUE", DataType::kText}});
  Rowset out(schema);
  for (const std::string& name : services.ListServices()) {
    const ServiceCapabilities& caps = services.Find(name).value()->capabilities();
    for (const ServiceParameter& param : caps.parameters) {
      DMX_RETURN_IF_ERROR(
          out.Append({Value::Text(caps.name), Value::Text(param.name),
                      Value::Text(param.description),
                      Value::Text(param.default_value.ToString())}));
    }
  }
  return out;
}

Result<Rowset> MiningModelsRowset(const ServiceRegistry&,
                                  const ModelCatalog& models) {
  auto schema = Schema::Make({{"MODEL_NAME", DataType::kText},
                              {"SERVICE_NAME", DataType::kText},
                              {"IS_POPULATED", DataType::kBool},
                              {"CASE_COUNT", DataType::kDouble},
                              {"PREDICTION_COLUMNS", DataType::kText},
                              {"CREATION_STATEMENT", DataType::kText}});
  Rowset out(schema);
  for (const std::string& name : models.ListModels()) {
    const MiningModel& model = *models.GetModel(name).value();
    std::string outputs;
    for (const ModelColumn& col : model.definition().columns) {
      if (!col.is_output()) continue;
      if (!outputs.empty()) outputs += ", ";
      outputs += col.name;
    }
    DMX_RETURN_IF_ERROR(
        out.Append({Value::Text(model.definition().model_name),
                    Value::Text(model.definition().service_name),
                    Value::Bool(model.is_trained()),
                    Value::Double(model.case_count()), Value::Text(outputs),
                    Value::Text(model.definition().ToDmx())}));
  }
  return out;
}

const char* UsageString(const ModelColumn& col) {
  switch (col.usage) {
    case PredictUsage::kInput:
      return "INPUT";
    case PredictUsage::kPredict:
      return "PREDICT";
    case PredictUsage::kPredictOnly:
      return "PREDICT_ONLY";
  }
  return "?";
}

std::string ContentTypeString(const ModelColumn& col) {
  switch (col.role) {
    case ContentRole::kKey:
      return "KEY";
    case ContentRole::kTable:
      return "TABLE";
    case ContentRole::kRelation:
      return "RELATION";
    case ContentRole::kQualifier:
      return QualifierKindToString(col.qualifier);
    case ContentRole::kAttribute:
      return AttributeTypeToString(col.attr_type);
  }
  return "?";
}

Status AppendColumnRows(const std::string& model_name, const ModelColumn& col,
                        const std::string& parent, Rowset* out) {
  DMX_RETURN_IF_ERROR(out->Append(
      {Value::Text(model_name), Value::Text(col.name), Value::Text(parent),
       Value::Text(DataTypeToString(col.data_type)),
       Value::Text(ContentTypeString(col)), Value::Text(UsageString(col)),
       Value::Text(col.related_to),
       Value::Text(DistributionHintToString(col.distribution))}));
  for (const ModelColumn& nested : col.nested) {
    DMX_RETURN_IF_ERROR(AppendColumnRows(model_name, nested, col.name, out));
  }
  return Status::OK();
}

Result<Rowset> MiningColumnsRowset(const ServiceRegistry&,
                                   const ModelCatalog& models) {
  auto schema = Schema::Make({{"MODEL_NAME", DataType::kText},
                              {"COLUMN_NAME", DataType::kText},
                              {"NESTED_TABLE", DataType::kText},
                              {"DATA_TYPE", DataType::kText},
                              {"CONTENT_TYPE", DataType::kText},
                              {"USAGE", DataType::kText},
                              {"RELATED_ATTRIBUTE", DataType::kText},
                              {"DISTRIBUTION_HINT", DataType::kText}});
  Rowset out(schema);
  for (const std::string& name : models.ListModels()) {
    DMX_ASSIGN_OR_RETURN(const MiningModel* model, models.GetModel(name));
    for (const ModelColumn& col : model->definition().columns) {
      DMX_RETURN_IF_ERROR(
          AppendColumnRows(model->definition().model_name, col, "", &out));
    }
  }
  return out;
}

std::shared_ptr<const Schema> ContentSchema() {
  static const auto kSchema =
      Schema::Make({{"MODEL_NAME", DataType::kText},
                    {"NODE_UNIQUE_NAME", DataType::kText},
                    {"PARENT_UNIQUE_NAME", DataType::kText},
                    {"NODE_TYPE", DataType::kText},
                    {"NODE_CAPTION", DataType::kText},
                    {"NODE_RULE", DataType::kText},
                    {"NODE_DESCRIPTION", DataType::kText},
                    {"NODE_SUPPORT", DataType::kDouble},
                    {"NODE_PROBABILITY", DataType::kDouble},
                    {"MARGINAL_PROBABILITY", DataType::kDouble},
                    {"NODE_SCORE", DataType::kDouble},
                    {"CHILDREN_CARDINALITY", DataType::kLong},
                    {"NODE_DISTRIBUTION", ContentNode::DistributionSchema()}});
  return kSchema;
}

Status AppendContentRows(const MiningModel& model, Rowset* out) {
  DMX_ASSIGN_OR_RETURN(ContentNodePtr root, model.BuildContent());
  std::vector<std::pair<const ContentNode*, std::string>> flat;
  root->Flatten("", &flat);
  for (const auto& [node, parent] : flat) {
    DMX_RETURN_IF_ERROR(out->Append(
        {Value::Text(model.definition().model_name),
         Value::Text(node->unique_name), Value::Text(parent),
         Value::Text(NodeTypeToString(node->type)), Value::Text(node->caption),
         Value::Text(node->rule), Value::Text(node->description),
         Value::Double(node->support), Value::Double(node->probability),
         Value::Double(node->marginal_probability), Value::Double(node->score),
         Value::Long(static_cast<int64_t>(node->children.size())),
         Value::Table(node->DistributionTable())}));
  }
  return Status::OK();
}

// Content rows of every populated model.
Result<Rowset> MiningModelContentRowset(const ServiceRegistry&,
                                        const ModelCatalog& models) {
  Rowset out(ContentSchema());
  for (const std::string& name : models.ListModels()) {
    DMX_ASSIGN_OR_RETURN(const MiningModel* model, models.GetModel(name));
    if (!model->is_trained()) continue;
    DMX_RETURN_IF_ERROR(AppendContentRows(*model, &out));
  }
  return out;
}

Result<Rowset> MiningFunctionsRowset(const ServiceRegistry&,
                                     const ModelCatalog&) {
  auto schema = Schema::Make({{"FUNCTION_NAME", DataType::kText},
                              {"RETURNS", DataType::kText},
                              {"SYNTAX", DataType::kText},
                              {"DESCRIPTION", DataType::kText}});
  Rowset out(schema);
  for (const Udf& f : ShippedUdfs()) {
    DMX_RETURN_IF_ERROR(
        out.Append({Value::Text(f.name), Value::Text(f.returns),
                    Value::Text(f.syntax), Value::Text(f.description)}));
  }
  return out;
}

// The schema rowsets by their `$system.` names, as Analysis Services
// spells them.
struct SystemTable {
  const char* name;
  Result<Rowset> (*produce)(const ServiceRegistry&, const ModelCatalog&);
};

constexpr SystemTable kSystemTables[] = {
    {"DMSCHEMA_MINING_SERVICES", MiningServicesRowset},
    {"DMSCHEMA_MINING_SERVICE_PARAMETERS", ServiceParametersRowset},
    {"DMSCHEMA_MINING_MODELS", MiningModelsRowset},
    {"DMSCHEMA_MINING_COLUMNS", MiningColumnsRowset},
    {"DMSCHEMA_MINING_MODEL_CONTENT", MiningModelContentRowset},
    {"DMSCHEMA_MINING_FUNCTIONS", MiningFunctionsRowset},
};

constexpr std::string_view kSystemPrefix = "$system.";
constexpr std::string_view kContentSuffix = ".CONTENT";

// A table holding `rowset`'s rows (InsertAll keeps its in-order bits).
Result<std::unique_ptr<rel::Table>> ToTable(const std::string& name,
                                            Rowset rowset) {
  auto table = std::make_unique<rel::Table>(name, rowset.schema());
  DMX_RETURN_IF_ERROR(table->InsertAll(std::move(rowset.mutable_rows())));
  return table;
}

}  // namespace

Result<Rowset> GetContentRowset(const MiningModel& model) {
  Rowset out(ContentSchema());
  DMX_RETURN_IF_ERROR(AppendContentRows(model, &out));
  return out;
}

Result<Rowset> GetSchemaRowset(std::string_view name,
                               const ServiceRegistry& services,
                               const ModelCatalog& models) {
  for (const SystemTable& table : kSystemTables) {
    if (EqualsCi(name, table.name)) return table.produce(services, models);
  }
  return NotFound() << "no system table '$system." << name << "'";
}

std::optional<std::string> ContentModelName(const std::string& table) {
  const std::string_view name(table);
  if (name.size() <= kContentSuffix.size() ||
      !EqualsCi(name.substr(name.size() - kContentSuffix.size()),
                kContentSuffix)) {
    return std::nullopt;
  }
  return table.substr(0, name.size() - kContentSuffix.size());
}

Result<std::unique_ptr<rel::Table>> BuildSystemTable(
    const std::string& name, const ServiceRegistry& services,
    const ModelCatalog& models) {
  const std::string_view view(name);
  if (view.size() > kSystemPrefix.size() &&
      EqualsCi(view.substr(0, kSystemPrefix.size()), kSystemPrefix)) {
    DMX_ASSIGN_OR_RETURN(
        Rowset rowset,
        GetSchemaRowset(view.substr(kSystemPrefix.size()), services, models));
    return ToTable(name, std::move(rowset));
  }
  if (std::optional<std::string> model_name = ContentModelName(name)) {
    DMX_ASSIGN_OR_RETURN(const MiningModel* model,
                         models.GetModel(*model_name));
    DMX_ASSIGN_OR_RETURN(Rowset rowset, GetContentRowset(*model));
    return ToTable(name, std::move(rowset));
  }
  return NotFound() << "table '" << name << "' does not exist";
}

}  // namespace dmx
