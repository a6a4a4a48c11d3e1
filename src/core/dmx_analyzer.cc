#include "core/dmx_analyzer.h"

#include <algorithm>

#include "core/catalog.h"
#include "core/dmx_parser.h"
#include "core/schema_rowsets.h"
#include "relational/database.h"

namespace dmx {

namespace {

const char* SeverityToString(DiagSeverity severity) {
  return severity == DiagSeverity::kError ? "error" : "warning";
}

/// Collector with the emit helpers all checks share.
class Diagnostics {
 public:
  explicit Diagnostics(std::vector<Diagnostic>* out) : out_(out) {}

  Diagnostic& Error(const char* rule, SourceSpan span, std::string message) {
    return Emit(DiagSeverity::kError, rule, span, std::move(message));
  }
  Diagnostic& Warn(const char* rule, SourceSpan span, std::string message) {
    return Emit(DiagSeverity::kWarning, rule, span, std::move(message));
  }

 private:
  Diagnostic& Emit(DiagSeverity severity, const char* rule, SourceSpan span,
                   std::string message) {
    Diagnostic diag;
    diag.severity = severity;
    diag.rule = rule;
    diag.span = span;
    diag.message = std::move(message);
    out_->push_back(std::move(diag));
    return out_->back();
  }

  std::vector<Diagnostic>* out_;
};

bool IsDiscreteValued(const ModelColumn& col) {
  return col.attr_type == AttributeType::kDiscrete ||
         col.attr_type == AttributeType::kOrdered ||
         col.attr_type == AttributeType::kCyclical ||
         col.attr_type == AttributeType::kDiscretized;
}

bool NeedsNumericType(const ModelColumn& col) {
  return col.attr_type == AttributeType::kContinuous ||
         col.attr_type == AttributeType::kDiscretized ||
         col.attr_type == AttributeType::kSequenceTime;
}

const ModelColumn* FindColumnCi(const std::vector<ModelColumn>& columns,
                                const std::string& name) {
  for (const ModelColumn& col : columns) {
    if (EqualsCi(col.name, name)) return &col;
  }
  return nullptr;
}

std::string LevelName(const ModelColumn* parent) {
  return parent == nullptr ? std::string("the case level")
                           : "nested table '" + parent->name + "'";
}

// ---------------------------------------------------------------------------
// Definition-level checks (the paper's §3.2 column-metadata contract)
// ---------------------------------------------------------------------------

/// Checks one nesting level of a column list. `parent` is the enclosing
/// TABLE column (null at the case level).
void CheckColumnLevel(const std::vector<ModelColumn>& columns,
                      const ModelColumn* parent, const SourceSpan& level_span,
                      Diagnostics* diags) {
  const bool top_level = parent == nullptr;

  // duplicate-column: every repeat after the first is flagged.
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (EqualsCi(columns[i].name, columns[j].name)) {
        diags->Error(rules::kDuplicateColumn, columns[i].span,
                     "duplicate column name '" + columns[i].name + "' in " +
                         LevelName(parent))
            .fix_hint = "rename or remove one of the duplicates";
        break;
      }
    }
  }

  // key-count / table-nested-key: exactly one KEY per nesting level.
  int key_count = 0;
  for (const ModelColumn& col : columns) {
    if (col.is_key()) ++key_count;
  }
  if (key_count != 1) {
    const char* rule = top_level ? rules::kKeyCount : rules::kTableNestedKey;
    SourceSpan span = level_span;
    if (key_count > 1) {
      // Point at the second KEY.
      int seen = 0;
      for (const ModelColumn& col : columns) {
        if (col.is_key() && ++seen == 2) {
          span = col.span;
          break;
        }
      }
    }
    diags->Error(rule, span,
                 LevelName(parent) + " needs exactly one KEY column, got " +
                     std::to_string(key_count))
        .fix_hint = key_count == 0
                        ? "mark the row-identifying column KEY"
                        : "keep one KEY and make the others attributes";
  }

  // duplicate-qualifier: at most one qualifier of each kind per target
  // column. The second PROBABILITY OF x (say) could only shadow or disagree
  // with the first, so every repeat is flagged.
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].role != ContentRole::kQualifier) continue;
    for (size_t j = 0; j < i; ++j) {
      if (columns[j].role == ContentRole::kQualifier &&
          columns[j].qualifier == columns[i].qualifier &&
          EqualsCi(columns[j].related_to, columns[i].related_to)) {
        diags->Error(rules::kDuplicateQualifier, columns[i].span,
                     std::string(QualifierKindToString(columns[i].qualifier)) +
                         " OF '" + columns[i].related_to +
                         "' is already declared by column '" +
                         columns[j].name + "'; '" + columns[i].name +
                         "' duplicates it")
            .fix_hint = "keep one qualifier of each kind per target column";
        break;
      }
    }
  }

  const ModelColumn* sequence_time = nullptr;
  for (const ModelColumn& col : columns) {
    switch (col.role) {
      case ContentRole::kKey:
        if (col.is_output()) {
          diags->Error(rules::kKeyPredict, col.span,
                       "KEY column '" + col.name + "' cannot be PREDICT")
              .fix_hint = "keys identify cases; predict an attribute instead";
        }
        break;

      case ContentRole::kAttribute:
        if (NeedsNumericType(col) && col.data_type == DataType::kText) {
          diags->Error(rules::kNumericAttribute, col.span,
                       std::string("a ") + AttributeTypeToString(col.attr_type) +
                           " attribute must have a numeric data type, but '" +
                           col.name + "' is TEXT")
              .fix_hint = "declare the column LONG or DOUBLE";
        }
        break;

      case ContentRole::kRelation: {
        const ModelColumn* target = FindColumnCi(columns, col.related_to);
        if (target == nullptr) {
          diags->Error(rules::kRelatedToTarget, col.span,
                       "RELATED TO target '" + col.related_to +
                           "' of column '" + col.name +
                           "' is not a column at the same level")
              .fix_hint = "RELATED TO must name a sibling column";
        } else if (target->role == ContentRole::kTable) {
          diags->Error(rules::kRelatedToTarget, col.span,
                       "RELATED TO target '" + col.related_to +
                           "' cannot be a TABLE column");
        } else if (target->role == ContentRole::kAttribute &&
                   !IsDiscreteValued(*target)) {
          diags->Error(rules::kRelatedToTarget, col.span,
                       "RELATED TO target '" + col.related_to +
                           "' must be a discrete-valued column or a KEY, not " +
                           AttributeTypeToString(target->attr_type))
              .fix_hint = "classifications relate discrete columns";
        }
        break;
      }

      case ContentRole::kQualifier: {
        const ModelColumn* target = FindColumnCi(columns, col.related_to);
        if (target == nullptr) {
          diags->Error(rules::kQualifierTarget, col.span,
                       "qualifier '" + col.name + "' modifies '" +
                           col.related_to +
                           "', which is not a column at the same level")
              .fix_hint = "the OF clause must name a sibling column";
        } else if (target->role != ContentRole::kAttribute &&
                   target->role != ContentRole::kKey) {
          diags->Error(rules::kQualifierTarget, col.span,
                       "qualifier '" + col.name +
                           "' must modify an attribute or KEY column, but '" +
                           col.related_to + "' is a " +
                           ContentRoleToString(target->role) + " column");
        } else if (!target->is_output() &&
                   (col.qualifier == QualifierKind::kProbability ||
                    col.qualifier == QualifierKind::kVariance ||
                    col.qualifier == QualifierKind::kProbabilityVariance)) {
          diags->Warn(rules::kQualifierOfInput, col.span,
                      std::string(QualifierKindToString(col.qualifier)) +
                          " OF qualifies a prediction statistic, but '" +
                          col.related_to + "' is not a PREDICT column")
              .fix_hint = "mark '" + col.related_to +
                          "' PREDICT, or drop the qualifier";
        }
        if (col.data_type == DataType::kText ||
            col.data_type == DataType::kTable) {
          diags->Error(rules::kNumericAttribute, col.span,
                       "qualifier '" + col.name +
                           "' must have a numeric data type")
              .fix_hint = "declare the column LONG or DOUBLE";
        }
        break;
      }

      case ContentRole::kTable: {
        if (!top_level) {
          diags->Error(rules::kNestingDepth, col.span,
                       "nested table '" + col.name +
                           "' inside a nested table: only one level of "
                           "nesting is supported")
              .fix_hint = "flatten the inner table into its parent";
          break;
        }
        if (col.nested.empty()) {
          diags->Error(rules::kTableNestedKey, col.span,
                       "TABLE column '" + col.name +
                           "' has no nested columns; it needs at least a "
                           "nested KEY")
              .fix_hint = "declare the nested row's KEY column";
          break;
        }
        bool has_non_key = false;
        for (const ModelColumn& nested : col.nested) {
          if (!nested.is_key()) has_non_key = true;
        }
        if (!has_non_key && !col.is_output()) {
          diags->Warn(rules::kUnusedColumn, col.span,
                      "nested table '" + col.name +
                          "' contains only its KEY and is not PREDICT; it "
                          "contributes nothing to the model")
              .fix_hint = "add nested attributes, mark the table PREDICT, or "
                          "drop it";
        }
        CheckColumnLevel(col.nested, &col, col.span, diags);
        break;
      }
    }

    // Distribution hints describe continuous densities (paper §3.2.3).
    if (col.distribution != DistributionHint::kNone &&
        (col.role != ContentRole::kAttribute ||
         col.attr_type != AttributeType::kContinuous)) {
      diags->Error(rules::kDistributionContinuous, col.span,
                   std::string("distribution hint ") +
                       DistributionHintToString(col.distribution) +
                       " on column '" + col.name +
                       "' is only meaningful for CONTINUOUS attributes")
          .fix_hint = "declare the column CONTINUOUS or drop the hint";
    }

    // SEQUENCE_TIME ordering constraints.
    if (col.role == ContentRole::kAttribute &&
        col.attr_type == AttributeType::kSequenceTime) {
      if (sequence_time != nullptr) {
        diags->Error(rules::kSequenceTime, col.span,
                     "more than one SEQUENCE_TIME column in " +
                         LevelName(parent) + " ('" + sequence_time->name +
                         "' and '" + col.name +
                         "'); rows can only be ordered by one clock")
            .fix_hint = "keep a single SEQUENCE_TIME column per table";
      }
      sequence_time = &col;
      if (col.is_output()) {
        diags->Error(rules::kSequenceTime, col.span,
                     "SEQUENCE_TIME column '" + col.name +
                         "' cannot be PREDICT: it orders the rows the "
                         "prediction is computed from")
            .fix_hint = "predict the sequenced attribute, not its clock";
      }
      if (top_level) {
        diags->Warn(rules::kSequenceTimeCaseLevel, col.span,
                    "SEQUENCE_TIME column '" + col.name +
                        "' at the case level has no effect: sequence "
                        "ordering applies to nested-table rows")
            .fix_hint = "move the column into the nested table it orders";
      }
    }
  }
}

bool HasOutputColumn(const std::vector<ModelColumn>& columns) {
  for (const ModelColumn& col : columns) {
    if (col.is_output()) return true;
    if (col.is_table() && HasOutputColumn(col.nested)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Statement-level checks
// ---------------------------------------------------------------------------

std::string JoinColumnNames(const std::vector<ModelColumn>& columns) {
  std::string out;
  for (const ModelColumn& col : columns) {
    if (!out.empty()) out += ", ";
    out += col.name;
  }
  return out;
}

/// Resolves `name` against the catalog; emits unknown-model when absent.
/// Returns null (without a diagnostic) when no catalog was provided.
const MiningModel* ResolveModel(const AnalyzerContext& context,
                                const std::string& name, SourceSpan span,
                                Diagnostics* diags) {
  if (context.catalog == nullptr) return nullptr;
  auto model = context.catalog->GetModel(name);
  if (!model.ok()) {
    diags->Error(rules::kUnknownModel, span,
                 "mining model '" + name + "' does not exist")
        .fix_hint = "CREATE MINING MODEL it first "
                    "($system.DMSCHEMA_MINING_MODELS lists the catalog)";
    return nullptr;
  }
  return *model;
}

void CheckInsertInto(const InsertIntoStatement& stmt,
                     const AnalyzerContext& context, Diagnostics* diags) {
  const MiningModel* model =
      ResolveModel(context, stmt.model_name, stmt.model_span, diags);
  if (model == nullptr || stmt.columns.empty()) return;
  const ModelDefinition& def = model->definition();

  for (const InsertColumn& col : stmt.columns) {
    const ModelColumn* spec = FindColumnCi(def.columns, col.name);
    if (spec == nullptr) {
      diags->Error(rules::kUnknownColumn, col.span,
                   "model '" + def.model_name + "' has no column '" +
                       col.name + "'")
          .fix_hint = "model columns are: " + JoinColumnNames(def.columns);
      continue;
    }
    if (col.is_table != spec->is_table()) {
      diags->Error(rules::kUnknownColumn, col.span,
                   col.is_table
                       ? "column '" + col.name + "' is not a TABLE column"
                       : "TABLE column '" + col.name +
                             "' needs a nested column list");
      continue;
    }
    for (const std::string& nested : col.nested) {
      if (FindColumnCi(spec->nested, nested) == nullptr) {
        diags->Error(rules::kUnknownColumn, col.span,
                     "nested table '" + col.name + "' has no column '" +
                         nested + "'")
            .fix_hint = "nested columns are: " + JoinColumnNames(spec->nested);
      }
    }
  }

  // unused-column: trainable model columns the explicit list leaves out.
  for (const ModelColumn& spec : def.columns) {
    if (spec.is_key()) continue;  // The key is bound implicitly.
    bool mapped = false;
    for (const InsertColumn& col : stmt.columns) {
      if (EqualsCi(col.name, spec.name)) mapped = true;
    }
    if (!mapped) {
      diags->Warn(rules::kUnusedColumn, stmt.model_span,
                  "model column '" + spec.name +
                      "' is not populated by this INSERT; it will train as "
                      "missing")
          .fix_hint = "add it to the column list or drop it from the model";
    }
  }
}

/// Flags column-path expressions that are explicitly rooted at the model but
/// do not resolve to a model column.
void CheckModelPathExpr(const DmxExpr& expr, const ModelDefinition& def,
                        Diagnostics* diags) {
  if (expr.kind == DmxExpr::Kind::kFunction) {
    for (const DmxExpr& arg : expr.args) {
      CheckModelPathExpr(arg, def, diags);
    }
    return;
  }
  if (expr.kind != DmxExpr::Kind::kColumnPath || expr.path.size() < 2) return;
  if (!EqualsCi(expr.path[0], def.model_name)) return;
  const ModelColumn* col = FindColumnCi(def.columns, expr.path[1]);
  if (col == nullptr) {
    diags->Error(rules::kUnknownColumn, expr.span,
                 "model '" + def.model_name + "' has no column '" +
                     expr.path[1] + "'")
        .fix_hint = "model columns are: " + JoinColumnNames(def.columns);
  } else if (expr.path.size() > 2 && col->is_table() &&
             FindColumnCi(col->nested, expr.path[2]) == nullptr) {
    diags->Error(rules::kUnknownColumn, expr.span,
                 "nested table '" + col->name + "' has no column '" +
                     expr.path[2] + "'")
        .fix_hint = "nested columns are: " + JoinColumnNames(col->nested);
  }
}

void CheckPredictionJoin(const PredictionJoinStatement& stmt,
                         const AnalyzerContext& context, Diagnostics* diags) {
  const MiningModel* model =
      ResolveModel(context, stmt.model_name, stmt.model_span, diags);
  if (model == nullptr) return;
  const ModelDefinition& def = model->definition();

  // predict-presence: a prediction join against a model with no outputs can
  // never produce a prediction — except for segmentation services, whose
  // Cluster()-style UDFs predict membership without declared outputs.
  if (!HasOutputColumn(def.columns) &&
      !model->service().capabilities().is_segmentation) {
    diags->Error(rules::kPredictPresence, stmt.model_span,
                 "model '" + def.model_name +
                     "' has no PREDICT column; a PREDICTION JOIN against it "
                     "cannot predict anything")
        .fix_hint = "recreate the model with PREDICT / PREDICT_ONLY columns";
  }

  // shadowed-alias: the source alias hiding the model (or one of its
  // columns) makes unqualified references ambiguous to readers.
  if (!stmt.source_alias.empty()) {
    if (EqualsCi(stmt.source_alias, def.model_name)) {
      diags->Warn(rules::kShadowedAlias, stmt.alias_span,
                  "source alias '" + stmt.source_alias +
                      "' shadows the model name")
          .fix_hint = "pick a distinct alias (e.g. AS t)";
    } else if (FindColumnCi(def.columns, stmt.source_alias) != nullptr) {
      diags->Warn(rules::kShadowedAlias, stmt.alias_span,
                  "source alias '" + stmt.source_alias +
                      "' shadows model column '" + stmt.source_alias + "'")
          .fix_hint = "pick an alias that is not a model column name";
    }
  }

  for (const DmxSelectItem& item : stmt.items) {
    CheckModelPathExpr(item.expr, def, diags);
  }
  for (const DmxFilter& filter : stmt.where) {
    CheckModelPathExpr(filter.lhs, def, diags);
    CheckModelPathExpr(filter.rhs, def, diags);
  }
  for (const OnPair& pair : stmt.on) {
    for (const std::vector<std::string>* side : {&pair.left, &pair.right}) {
      if (side->size() < 2 || !EqualsCi((*side)[0], def.model_name)) continue;
      DmxExpr as_expr;
      as_expr.kind = DmxExpr::Kind::kColumnPath;
      as_expr.path = *side;
      as_expr.span = stmt.model_span;
      CheckModelPathExpr(as_expr, def, diags);

      // predict-input: binding a PREDICT column from the source means the
      // statement supplies the very value it asks the model to predict —
      // usually a copy-paste of the training column list. A RELATED TO
      // column depending on the target legitimizes it (the known value
      // conditions its dependents), as does plain PREDICT usage when the
      // caller wants the input treated as evidence.
      if (side->size() != 2) continue;
      const ModelColumn* bound = FindColumnCi(def.columns, (*side)[1]);
      if (bound == nullptr || !bound->is_output()) continue;
      bool related_covers = false;
      for (const ModelColumn& other : def.columns) {
        if (other.role == ContentRole::kRelation &&
            EqualsCi(other.related_to, bound->name)) {
          related_covers = true;
          break;
        }
      }
      if (!related_covers) {
        diags->Warn(rules::kPredictInput, stmt.model_span,
                    "ON binds PREDICT column '" + bound->name +
                        "' from the source: the join supplies the value the "
                        "model is asked to predict")
            .fix_hint = "drop '" + bound->name +
                        "' from ON (read it with Predict(...)), or add a "
                        "RELATED TO column if feeding it back is intended";
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Diagnostic / AnalysisReport rendering
// ---------------------------------------------------------------------------

std::string Diagnostic::ToString(std::string_view source) const {
  std::string out = SeverityToString(severity);
  out += " [";
  out += rule;
  out += "]";
  std::string at = FormatSpan(source, span);
  if (!at.empty()) {
    out += " at ";
    out += at;
  }
  out += ": ";
  out += message;
  if (!fix_hint.empty()) {
    out += "  (hint: ";
    out += fix_hint;
    out += ")";
  }
  return out;
}

size_t AnalysisReport::error_count() const {
  return static_cast<size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == DiagSeverity::kError;
                    }));
}

size_t AnalysisReport::warning_count() const {
  return diagnostics.size() - error_count();
}

bool AnalysisReport::HasRule(std::string_view rule) const {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [rule](const Diagnostic& d) { return d.rule == rule; });
}

std::string AnalysisReport::ToString(std::string_view source) const {
  if (diagnostics.empty()) return "no issues found\n";
  std::string out;
  for (const Diagnostic& diag : diagnostics) {
    out += diag.ToString(source);
    out += '\n';
  }
  out += std::to_string(error_count()) + " error(s), " +
         std::to_string(warning_count()) + " warning(s)\n";
  return out;
}

Status AnalysisReport::ToStatus(std::string_view source) const {
  if (ok()) return Status::OK();
  return InvalidArgument() << ToString(source);
}

// ---------------------------------------------------------------------------
// DmxAnalyzer entry points
// ---------------------------------------------------------------------------

AnalysisReport DmxAnalyzer::AnalyzeDefinition(const ModelDefinition& def) const {
  AnalysisReport report;
  Diagnostics diags(&report.diagnostics);
  if (def.columns.empty()) {
    diags.Error(rules::kKeyCount, def.name_span,
                "mining model '" + def.model_name +
                    "' needs at least one column")
        .fix_hint = "declare a KEY column and the attributes to model";
    return report;
  }
  CheckColumnLevel(def.columns, /*parent=*/nullptr, def.name_span, &diags);
  if (!HasOutputColumn(def.columns)) {
    // Segmentation services legitimately mine models with no declared
    // outputs (Cluster() UDFs), so this only hardens into an error when the
    // service is known to require prediction targets.
    auto service = context_.services != nullptr
                       ? context_.services->Find(def.service_name)
                       : Result<std::shared_ptr<MiningService>>(
                             NotFound() << "no service registry");
    bool segmentation_ok =
        !service.ok() || (*service)->capabilities().is_segmentation;
    std::string message = "mining model '" + def.model_name +
                          "' has no PREDICT column";
    if (segmentation_ok) {
      diags.Warn(rules::kPredictPresence, def.name_span,
                 message + "; only segmentation-style services can mine it")
          .fix_hint = "mark at least one column PREDICT or PREDICT_ONLY";
    } else {
      diags.Error(rules::kPredictPresence, def.name_span,
                  message + ": service '" + def.service_name +
                      "' needs a prediction target")
          .fix_hint = "mark at least one column PREDICT or PREDICT_ONLY";
    }
  }
  if (context_.services != nullptr &&
      !context_.services->Find(def.service_name).ok()) {
    diags.Error(rules::kUnknownService, def.service_span,
                "unknown mining service '" + def.service_name + "'")
        .fix_hint = "$system.DMSCHEMA_MINING_SERVICES lists the installed "
                    "services";
  }
  return report;
}

AnalysisReport DmxAnalyzer::AnalyzeStatement(const DmxStatement& statement) const {
  AnalysisReport report;
  Diagnostics diags(&report.diagnostics);

  if (const auto* create = std::get_if<CreateModelStatement>(&statement)) {
    return AnalyzeDefinition(create->definition);
  }
  if (const auto* insert = std::get_if<InsertIntoStatement>(&statement)) {
    CheckInsertInto(*insert, context_, &diags);
  } else if (const auto* join =
                 std::get_if<PredictionJoinStatement>(&statement)) {
    return AnalyzePredictionJoin(*join);
  } else if (const auto* drop = std::get_if<DropModelStatement>(&statement)) {
    ResolveModel(context_, drop->model_name, drop->model_span, &diags);
  } else if (const auto* del =
                 std::get_if<DeleteFromModelStatement>(&statement)) {
    // DELETE FROM is shared syntax: only flag the name when it is neither a
    // model nor (when a database is available) a base table.
    if (context_.catalog != nullptr &&
        !context_.catalog->HasModel(del->model_name) &&
        (context_.database == nullptr ||
         !context_.database->HasTable(del->model_name))) {
      diags.Error(rules::kUnknownModel, del->model_span,
                  "'" + del->model_name + "' is neither a mining model nor a "
                                          "base table");
    }
  } else if (const auto* export_stmt =
                 std::get_if<ExportModelStatement>(&statement)) {
    ResolveModel(context_, export_stmt->model_name, export_stmt->model_span,
                 &diags);
  }
  // ImportModelStatement: nothing to check before reading the file.
  return report;
}

AnalysisReport DmxAnalyzer::AnalyzePredictionJoin(
    const PredictionJoinStatement& stmt) const {
  AnalysisReport report;
  Diagnostics diags(&report.diagnostics);
  CheckPredictionJoin(stmt, context_, &diags);
  return report;
}

AnalysisReport DmxAnalyzer::AnalyzeText(const std::string& text) const {
  SourceSpan read_only_table;
  auto parsed = ParseDmx(text, &read_only_table);
  AnalysisReport report;
  if (!parsed.ok()) {
    Diagnostic diag;
    diag.severity = DiagSeverity::kError;
    diag.rule = read_only_table.valid() ? rules::kReadOnlyTable
                                        : rules::kParseError;
    diag.span = read_only_table;
    diag.message = parsed.status().message();
    report.diagnostics.push_back(std::move(diag));
    return report;
  }
  // Plain SQL: ParseDmx already parsed it, and the relational binder owns
  // its semantic diagnostics. A `<model>.CONTENT` table still names a model.
  if (parsed->is_sql) {
    const auto* select = std::get_if<rel::SelectStatement>(&*parsed->sql);
    if (select == nullptr) return report;
    Diagnostics diags(&report.diagnostics);
    auto check = [&](const rel::TableRef& ref) {
      std::optional<std::string> model = ContentModelName(ref.table);
      if (model.has_value() && (context_.database == nullptr ||
                                !context_.database->HasTable(ref.table))) {
        ResolveModel(context_, *model, ref.span, &diags);
      }
    };
    check(select->from);
    for (const rel::JoinClause& join : select->joins) check(join.table);
    return report;
  }
  return AnalyzeStatement(*parsed->statement);
}

}  // namespace dmx
