#include "core/prediction_join.h"

#include <span>
#include <utility>

#include "common/exec_guard.h"
#include "core/case_binder.h"
#include "core/caseset_source.h"
#include "core/dmx_analyzer.h"
#include "core/udf.h"
#include "relational/expression.h"

namespace dmx {

namespace {

// One flattening step: unnests the single TABLE column at `column`. Fails
// (rather than silently dropping the row) when a nested table's arity does
// not match the schema the outer column declares.
Result<Rowset> FlattenOneColumn(const Rowset& input, size_t column) {
  const Schema& schema = *input.schema();
  const ColumnDef& table_col = schema.column(column);
  std::vector<ColumnDef> columns;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c != column) {
      columns.push_back(schema.column(c));
      continue;
    }
    for (const ColumnDef& nested : table_col.nested->columns()) {
      ColumnDef renamed = nested;
      renamed.name = table_col.name + "." + nested.name;
      columns.push_back(std::move(renamed));
    }
  }
  Rowset out(Schema::Make(std::move(columns)));
  const size_t nested_width = table_col.nested->num_columns();
  // An empty or NULL table still yields its outer row, padded with NULLs.
  const std::vector<Row> null_rows(1, Row(nested_width, Value::Null()));
  for (const Row& row : input.rows()) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    const Value& cell = row[column];
    const bool has_rows = cell.is_table() && cell.table_value() != nullptr &&
                          cell.table_value()->num_rows() > 0;
    for (const Row& nested : has_rows ? cell.table_value()->rows()
                                      : std::span<const Row>(null_rows)) {
      DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
      Row flat;
      flat.reserve(row.size() - 1 + nested_width);
      for (size_t c = 0; c < row.size(); ++c) {
        if (c != column) {
          flat.push_back(row[c]);
        } else {
          flat.insert(flat.end(), nested.begin(), nested.end());
        }
      }
      DMX_RETURN_IF_ERROR(
          out.Append(std::move(flat))
              .WithContext("flattening nested table column '" +
                           table_col.name + "'"));
    }
  }
  return out;
}

// One bound WHERE conjunct of a prediction join: both operands and the
// comparison, resolved once per statement.
struct BoundFilter {
  BoundDmxExpr lhs;
  rel::BinaryOp op;
  BoundDmxExpr rhs;
};

Result<rel::BinaryOp> BindComparison(const std::string& op) {
  static constexpr std::pair<const char*, rel::BinaryOp> kOps[] = {
      {"=", rel::BinaryOp::kEq}, {"<>", rel::BinaryOp::kNe},
      {"<", rel::BinaryOp::kLt}, {"<=", rel::BinaryOp::kLe},
      {">", rel::BinaryOp::kGt}, {">=", rel::BinaryOp::kGe}};
  for (const auto& [spelling, bound] : kOps) {
    if (op == spelling) return bound;
  }
  return InvalidArgument() << "unknown comparison operator '" << op
                           << "' in the prediction join WHERE";
}

// NULL on either side fails the conjunct.
bool Passes(const Value& lhs, rel::BinaryOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;
  switch (op) {
    case rel::BinaryOp::kEq:
      return lhs.Equals(rhs);
    case rel::BinaryOp::kNe:
      return !lhs.Equals(rhs);
    case rel::BinaryOp::kLt:
      return lhs.Compare(rhs) < 0;
    case rel::BinaryOp::kLe:
      return lhs.Compare(rhs) <= 0;
    case rel::BinaryOp::kGt:
      return lhs.Compare(rhs) > 0;
    default:  // kGe; BindComparison admits nothing else.
      return lhs.Compare(rhs) >= 0;
  }
}

}  // namespace

Result<Rowset> FlattenRowset(const Rowset& input) {
  Rowset current = input;
  while (true) {
    int table_column = -1;
    for (size_t c = 0; c < current.schema()->num_columns(); ++c) {
      if (current.schema()->column(c).type == DataType::kTable &&
          current.schema()->column(c).nested != nullptr) {
        table_column = static_cast<int>(c);
        break;
      }
    }
    if (table_column < 0) return current;
    DMX_ASSIGN_OR_RETURN(
        current, FlattenOneColumn(current, static_cast<size_t>(table_column)));
  }
}

Result<Rowset> ExecutePredictionJoin(const rel::Database& db,
                                     ModelCatalog* catalog,
                                     const PredictionJoinStatement& stmt,
                                     std::optional<Rowset>* preloaded_source) {
  DMX_ASSIGN_OR_RETURN(MiningModel * model, catalog->GetModel(stmt.model_name));
  // Semantic preflight: reject statements the binder would only fail on one
  // Status at a time (no PREDICT column, unknown model paths, ...) with the
  // full multi-diagnostic report.
  AnalyzerContext analyzer_context;
  analyzer_context.catalog = catalog;
  analyzer_context.database = &db;
  DMX_RETURN_IF_ERROR(
      DmxAnalyzer(analyzer_context).AnalyzePredictionJoin(stmt).ToStatus());
  if (!model->is_trained()) {
    return InvalidState() << "model '" << stmt.model_name
                          << "' has not been trained (INSERT INTO it first)";
  }
  DMX_ASSIGN_OR_RETURN(
      Rowset source,
      MaterializeCasesetSource(db, stmt.source, preloaded_source));

  DMX_ASSIGN_OR_RETURN(
      CaseBinder binder,
      CaseBinder::CreateForPrediction(model->definition(), *source.schema(),
                                      stmt.source_alias,
                                      stmt.natural ? nullptr : &stmt.on));

  // Bind once, before any case is scored: the items in order, then the
  // WHERE operands. The output schema is the bound items' columns, and the
  // demand is what they read of the model's predictions.
  const Schema& source_schema = *source.schema();
  PredictionDemand demand;
  std::vector<BoundDmxExpr> items;
  std::vector<ColumnDef> columns;
  items.reserve(stmt.items.size());
  columns.reserve(stmt.items.size());
  for (const DmxSelectItem& item : stmt.items) {
    DMX_ASSIGN_OR_RETURN(BoundDmxExpr bound,
                         BindDmxExpr(item.expr, *model, source_schema,
                                     stmt.source_alias, &demand));
    columns.push_back(bound.column);
    if (!item.alias.empty()) columns.back().name = item.alias;
    items.push_back(std::move(bound));
  }
  std::vector<BoundFilter> filters;
  filters.reserve(stmt.where.size());
  for (const DmxFilter& filter : stmt.where) {
    DMX_ASSIGN_OR_RETURN(BoundDmxExpr lhs,
                         BindDmxExpr(filter.lhs, *model, source_schema,
                                     stmt.source_alias, &demand));
    DMX_ASSIGN_OR_RETURN(rel::BinaryOp op, BindComparison(filter.op));
    DMX_ASSIGN_OR_RETURN(BoundDmxExpr rhs,
                         BindDmxExpr(filter.rhs, *model, source_schema,
                                     stmt.source_alias, &demand));
    filters.push_back({std::move(lhs), op, std::move(rhs)});
  }
  Rowset out(Schema::Make(std::move(columns)));

  // One scorer and one prediction buffer serve every case: the scorer
  // overwrites the slots the model predicts, and a slot it never fills
  // reads as "not predicted".
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<CaseScorer> scorer,
                       model->MakeScorer(demand));
  std::vector<TargetPrediction> predictions(demand.targets.size());
  PredictionRowContext ctx;
  ctx.model = model;
  ctx.predictions = predictions;

  size_t limit = stmt.top.has_value() ? static_cast<size_t>(*stmt.top)
                                      : source.num_rows();
  DataCase input;
  // dmx-hot-begin(prediction-scoring)
  for (size_t r = 0; r < source.num_rows() && out.num_rows() < limit; ++r) {
    DMX_RETURN_IF_ERROR(GuardCheck());
    const Row& source_row = source.rows()[r];
    DMX_RETURN_IF_ERROR(
        binder.BindCaseInto(source_row, model->attributes(), &input));
    DMX_RETURN_IF_ERROR(scorer->Score(input, predictions));
    ctx.source_row = &source_row;
    // WHERE: every conjunct must hold (NULL comparisons are false).
    bool keep = true;
    for (const BoundFilter& filter : filters) {
      DMX_ASSIGN_OR_RETURN(Value lhs, EvaluateDmxExpr(filter.lhs, ctx));
      DMX_ASSIGN_OR_RETURN(Value rhs, EvaluateDmxExpr(filter.rhs, ctx));
      if (!Passes(lhs, filter.op, rhs)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    // Each output row is moved into the result, so its buffer cannot be
    // reused across cases.
    Row out_row;  // dmx-lint: allow(hot-loop-alloc)
    out_row.reserve(items.size());
    for (const BoundDmxExpr& item : items) {
      DMX_ASSIGN_OR_RETURN(Value v, EvaluateDmxExpr(item, ctx));
      out_row.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
    DMX_RETURN_IF_ERROR(out.Append(std::move(out_row)));
  }
  // dmx-hot-end(prediction-scoring)
  if (stmt.flattened) return FlattenRowset(out);
  return out;
}

}  // namespace dmx
