#include "core/udf.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/string_util.h"

namespace dmx {

namespace {

using Fn = BoundDmxExpr::Fn;

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

// What a bind step resolves names against.
struct BindScope {
  const MiningModel& model;
  const Schema& source;
  const std::string& source_alias;
  PredictionDemand* demand;
};

constexpr Udf kUdfs[] = {
    {"Predict", Fn::kPredict, 1, 2, "1 or 2 arguments", "scalar or TABLE",
     "Predict(<column> [, n])",
     "Best estimate; on a TABLE column, the top-n recommended items"},
    {"PredictAssociation", Fn::kPredict, 1, 2, "1 or 2 arguments", "TABLE",
     "PredictAssociation(<table> [, n])",
     "Alias of Predict for set-valued targets"},
    {"PredictProbability", Fn::kPredictProbability, 1, 2, "1 or 2 arguments",
     "DOUBLE", "PredictProbability(<column> [, value])",
     "Probability of the prediction (or of an explicit value)"},
    {"PredictSupport", Fn::kPredictSupport, 1, 2, "1 or 2 arguments",
     "DOUBLE", "PredictSupport(<column> [, value])",
     "Training cases behind the prediction"},
    {"PredictVariance", Fn::kPredictVariance, 1, 2, "1 or 2 arguments",
     "DOUBLE", "PredictVariance(<column>)",
     "Predictive variance (continuous targets)"},
    {"PredictStdev", Fn::kPredictStdev, 1, 2, "1 or 2 arguments", "DOUBLE",
     "PredictStdev(<column>)", "Standard deviation of the prediction"},
    {"PredictHistogram", Fn::kPredictHistogram, 1, 1, "exactly 1 argument",
     "TABLE", "PredictHistogram(<column>)",
     "All candidate values with $SUPPORT/$PROBABILITY/$VARIANCE/$STDEV"},
    {"TopCount", Fn::kTopCount, 3, 3, "(table expr, rank column, count)",
     "TABLE", "TopCount(<table expr>, <rank column>, n)",
     "Top n rows of a table expression by the rank column"},
    {"RangeMin", Fn::kRangeMin, 1, 1, "exactly 1 argument", "DOUBLE",
     "RangeMin(<discretized column>)", "Lower bound of the predicted bucket"},
    {"RangeMid", Fn::kRangeMid, 1, 1, "exactly 1 argument", "DOUBLE",
     "RangeMid(<discretized column>)", "Midpoint of the predicted bucket"},
    {"RangeMax", Fn::kRangeMax, 1, 1, "exactly 1 argument", "DOUBLE",
     "RangeMax(<discretized column>)", "Upper bound of the predicted bucket"},
    {"Cluster", Fn::kCluster, 0, 0, "no arguments", "TEXT", "Cluster()",
     "Winning cluster caption (segmentation models)"},
    {"ClusterProbability", Fn::kClusterProbability, 0, 0, "no arguments",
     "DOUBLE", "ClusterProbability()", "Probability of the winning cluster"},
};

DataType LiteralType(const Value& literal) {
  return literal.is_long()     ? DataType::kLong
         : literal.is_double() ? DataType::kDouble
         : literal.is_bool()   ? DataType::kBool
                               : DataType::kText;
}

DataType ModelColumnType(const ModelColumn& spec) {
  if (spec.attr_type == AttributeType::kDiscretized) return DataType::kDouble;
  return spec.data_type;
}

// Schema of the histogram tables built for model column `spec`, spelled
// `column` in the statement: the value column takes the nested KEY's name
// for TABLE targets and the column's own name for scalar targets.
std::shared_ptr<const Schema> HistogramSchema(const ModelColumn& spec,
                                              const std::string& column) {
  ColumnDef value(column, ModelColumnType(spec));
  if (spec.is_table()) {
    for (const ModelColumn& nested : spec.nested) {
      if (nested.is_key()) {
        value = ColumnDef(nested.name, nested.data_type);
        break;
      }
    }
  }
  return Schema::Make({std::move(value),
                       {"$SUPPORT", DataType::kDouble},
                       {"$PROBABILITY", DataType::kDouble},
                       {"$VARIANCE", DataType::kDouble},
                       {"$STDEV", DataType::kDouble}});
}

// A column path: a source column, or a model column whose value is its
// prediction (declared as its histogram table for TABLE columns).
Result<BoundDmxExpr> BindPath(const std::vector<std::string>& path,
                              const BindScope& scope) {
  const ModelDefinition& def = scope.model.definition();
  BoundDmxExpr out;
  auto bind_source = [&](size_t index) {
    out.fn = Fn::kSourceColumn;
    out.source_column = static_cast<int>(index);
    out.column = scope.source.column(index);
    return out;
  };
  if (path.size() == 2) {
    if (!scope.source_alias.empty() && EqualsCi(path[0], scope.source_alias)) {
      DMX_ASSIGN_OR_RETURN(size_t index, scope.source.ResolveColumn(path[1]));
      return bind_source(index);
    }
    if (!EqualsCi(path[0], def.model_name)) {
      return BindError() << "unknown qualifier '" << path[0]
                         << "' (expected the model name or the source alias)";
    }
    if (def.FindColumn(path[1]) == nullptr) {
      return BindError() << "model '" << def.model_name << "' has no column '"
                         << path[1] << "'";
    }
  } else if (path.size() == 1) {
    // Prefer the model column (the paper qualifies ambiguous references).
    if (def.FindColumn(path[0]) == nullptr) {
      int index = scope.source.FindColumn(path[0]);
      if (index < 0) {
        return BindError() << "column '" << path[0]
                           << "' exists neither in the model nor in the source";
      }
      return bind_source(static_cast<size_t>(index));
    }
  } else {
    return BindError() << "unsupported column path depth " << path.size();
  }
  out.fn = Fn::kModelColumn;
  out.model_column = path.back();
  const ModelColumn& spec = *def.FindColumn(out.model_column);
  out.column = spec.is_table()
                   ? ColumnDef("", HistogramSchema(spec, out.model_column))
                   : ColumnDef("", ModelColumnType(spec));
  return out;
}

// Files what model-reading node `out` reads in the statement's demand: the
// target its model column names (Cluster*: cluster membership) and, with
// `histogram`, every ranked candidate. Keeps the slot it comes back in.
void RequireTarget(const BindScope& scope, bool histogram, BoundDmxExpr* out) {
  if (out->fn == Fn::kCluster || out->fn == Fn::kClusterProbability) {
    out->target = {PredictionTarget::Kind::kCluster, -1};
  } else {
    const AttributeSet& attrs = scope.model.attributes();
    const ModelColumn& spec =
        *scope.model.definition().FindColumn(out->model_column);
    out->target = spec.is_table()
                      ? PredictionTarget{PredictionTarget::Kind::kGroup,
                                         attrs.FindGroup(out->model_column)}
                      : PredictionTarget{PredictionTarget::Kind::kAttribute,
                                         attrs.FindAttribute(out->model_column)};
  }
  out->slot = scope.demand->Require(out->target, histogram);
}

// Binds a Predict*/Range* function's first argument, which must name a
// model column, into `out`; returns that column's definition.
Result<const ModelColumn*> BindModelColumnArg(const Udf& udf,
                                              const DmxExpr& arg,
                                              const BindScope& scope,
                                              BoundDmxExpr* out) {
  if (arg.kind != DmxExpr::Kind::kColumnPath) {
    return BindError() << udf.name << ": expected a model column reference, "
                       << "got " << arg.ToString();
  }
  DMX_ASSIGN_OR_RETURN(BoundDmxExpr path, BindPath(arg.path, scope));
  if (path.fn != Fn::kModelColumn) {
    return BindError() << udf.name << ": " << arg.ToString()
                       << " is a source column, not a model column";
  }
  out->model_column = std::move(path.model_column);
  out->column = std::move(path.column);
  return scope.model.definition().FindColumn(out->model_column);
}

Result<BoundDmxExpr> Bind(const DmxExpr& expr, const BindScope& scope);

Status BindTopCount(const DmxExpr& expr, const BindScope& scope,
                    BoundDmxExpr* out) {
  DMX_ASSIGN_OR_RETURN(BoundDmxExpr table, Bind(expr.args[0], scope));
  if (table.column.type != DataType::kTable ||
      table.column.nested == nullptr) {
    return InvalidArgument() << "TopCount: first argument is not a table";
  }
  // Rank column: $Stat or a column name.
  const DmxExpr& rank = expr.args[1];
  std::string rank_name;
  if (rank.kind == DmxExpr::Kind::kDollar) {
    rank_name = StrCat("$", ToUpper(rank.dollar));
  } else if (rank.kind == DmxExpr::Kind::kColumnPath && rank.path.size() == 1) {
    rank_name = rank.path[0];
  } else {
    return InvalidArgument() << "TopCount: rank must be $Stat or a column name";
  }
  const DmxExpr& count = expr.args[2];
  if (count.kind != DmxExpr::Kind::kLiteral || !count.literal.is_long()) {
    return InvalidArgument() << "TopCount: count must be an integer literal";
  }
  out->count = count.literal.long_value();
  DMX_ASSIGN_OR_RETURN(out->rank_column,
                       table.column.nested->ResolveColumn(rank_name));
  out->column = table.column;
  out->args.push_back(std::move(table));
  return Status::OK();
}

// Binds a function whose first argument is a model column.
Status BindModelFunction(const Udf& udf, const DmxExpr& expr,
                         const BindScope& scope, BoundDmxExpr* out) {
  DMX_ASSIGN_OR_RETURN(const ModelColumn* spec,
                       BindModelColumnArg(udf, expr.args[0], scope, out));
  switch (udf.fn) {
    case Fn::kPredict:
      // On a TABLE column the optional n caps the recommended items; on a
      // scalar column Predict is the best estimate and ignores it.
      if (spec->is_table()) {
        out->count = 10;
        if (expr.args.size() == 2) {
          const DmxExpr& n = expr.args[1];
          if (n.kind != DmxExpr::Kind::kLiteral || !n.literal.is_long()) {
            return InvalidArgument()
                   << "Predict(<table>, n): n must be an integer";
          }
          out->count = n.literal.long_value();
        }
      }
      RequireTarget(scope, /*histogram=*/spec->is_table(), out);
      return Status::OK();
    case Fn::kPredictHistogram:
      out->column = ColumnDef("", HistogramSchema(*spec, out->model_column));
      RequireTarget(scope, /*histogram=*/true, out);
      return Status::OK();
    case Fn::kRangeMin:
    case Fn::kRangeMid:
    case Fn::kRangeMax: {
      int index = scope.model.attributes().FindAttribute(out->model_column);
      if (index < 0) {
        return BindError() << udf.name << ": '" << out->model_column
                           << "' is not a scalar attribute";
      }
      const Attribute& attr = scope.model.attributes().attributes[index];
      if (!attr.is_discretized()) {
        return InvalidArgument() << udf.name << ": '" << out->model_column
                                 << "' is not DISCRETIZED";
      }
      out->bucket_bounds = attr.bucket_bounds;
      out->column = ColumnDef("", DataType::kDouble);
      RequireTarget(scope, /*histogram=*/false, out);
      return Status::OK();
    }
    default:  // PredictProbability / Support / Variance / Stdev
      if (expr.args.size() == 2) {
        if (expr.args[1].kind != DmxExpr::Kind::kLiteral) {
          return InvalidArgument()
                 << udf.name << ": second argument must be a literal value";
        }
        out->explicit_value = expr.args[1].literal;
      }
      out->column = ColumnDef("", DataType::kDouble);
      // An explicit value's statistics are its histogram entry's.
      RequireTarget(scope, out->explicit_value.has_value(), out);
      return Status::OK();
  }
}

Result<BoundDmxExpr> Bind(const DmxExpr& expr, const BindScope& scope) {
  BoundDmxExpr out;
  switch (expr.kind) {
    case DmxExpr::Kind::kLiteral:
      out.literal = expr.literal;
      out.column = ColumnDef(expr.ToString(), LiteralType(expr.literal));
      return out;
    case DmxExpr::Kind::kDollar:
      return BindError() << "$" << expr.dollar
                         << " is only meaningful inside table functions";
    case DmxExpr::Kind::kColumnPath: {
      DMX_ASSIGN_OR_RETURN(out, BindPath(expr.path, scope));
      out.column.name = expr.path.back();
      if (out.fn == Fn::kModelColumn) {
        RequireTarget(scope, /*histogram=*/false, &out);
      }
      return out;
    }
    case DmxExpr::Kind::kFunction:
      break;
  }
  const Udf* udf = nullptr;
  for (const Udf& candidate : kUdfs) {
    if (EqualsCi(expr.function, candidate.name)) {
      udf = &candidate;
      break;
    }
  }
  if (udf == nullptr) {
    return NotSupported() << "unknown function '" << expr.function << "'";
  }
  if (expr.args.size() < udf->min_args || expr.args.size() > udf->max_args) {
    return InvalidArgument() << udf->name << " takes " << udf->arity;
  }
  out.fn = udf->fn;
  switch (udf->fn) {
    case Fn::kCluster:
      out.column = ColumnDef("", DataType::kText);
      RequireTarget(scope, /*histogram=*/false, &out);
      break;
    case Fn::kClusterProbability:
      out.column = ColumnDef("", DataType::kDouble);
      RequireTarget(scope, /*histogram=*/false, &out);
      break;
    case Fn::kTopCount:
      DMX_RETURN_IF_ERROR(BindTopCount(expr, scope, &out));
      break;
    default:
      DMX_RETURN_IF_ERROR(BindModelFunction(*udf, expr, scope, &out));
      break;
  }
  out.column.name = expr.ToString();
  return out;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

// The case's prediction for a model-reading node; errors when the model
// does not predict its column.
Result<const TargetPrediction*> Prediction(const BoundDmxExpr& expr,
                                           const PredictionRowContext& ctx) {
  const TargetPrediction* p = &ctx.predictions[expr.slot];
  if (!p->predicted) {
    return BindError() << "column '" << expr.model_column
                       << "' is not predicted by model '"
                       << ctx.model->definition().model_name
                       << "' (is it marked PREDICT?)";
  }
  return p;
}

// The top `limit` histogram entries (all when limit <= 0) as a nested table
// of the node's declared histogram schema.
Value HistogramTable(const BoundDmxExpr& expr, const TargetPrediction& p,
                     const PredictionRowContext& ctx, int64_t limit) {
  const AttributeSet& attrs = ctx.model->attributes();
  std::vector<Row> rows;
  size_t n = p.histogram.size();
  if (limit > 0) n = std::min(n, static_cast<size_t>(limit));
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ScoredState& entry = p.histogram[i];
    rows.push_back({EntryValue(attrs, expr.target, p, entry),
                    Value::Double(entry.support),
                    Value::Double(entry.probability),
                    Value::Double(entry.variance),
                    Value::Double(entry.stdev())});
  }
  return Value::Table(NestedTable::Make(expr.column.nested, std::move(rows)));
}

Value PredictStat(const BoundDmxExpr& expr, const TargetPrediction& p,
                  const PredictionRowContext& ctx) {
  double probability = p.probability;
  double support = p.support;
  double variance = p.variance;
  if (expr.explicit_value.has_value()) {
    // The explicit value's histogram entry; an unknown value scores 0.
    probability = support = variance = 0;
    for (const ScoredState& entry : p.histogram) {
      if (!EntryValue(ctx.model->attributes(), expr.target, p, entry)
               .Equals(*expr.explicit_value)) {
        continue;
      }
      probability = entry.probability;
      support = entry.support;
      variance = entry.variance;
      break;
    }
  }
  switch (expr.fn) {
    case Fn::kPredictProbability:
      return Value::Double(probability);
    case Fn::kPredictSupport:
      return Value::Double(support);
    case Fn::kPredictVariance:
      return Value::Double(variance);
    default:  // kPredictStdev
      return Value::Double(variance > 0 ? std::sqrt(variance) : 0);
  }
}

// RangeMin/Mid/Max: the bounds of the predicted DISCRETIZED bucket.
Value Range(const BoundDmxExpr& expr, const TargetPrediction& p) {
  const std::vector<double>& bounds = expr.bucket_bounds;
  const int n = static_cast<int>(bounds.size());
  if (p.continuous || p.state < 0 || n == 0) return Value::Null();
  int bucket = p.state;
  bool open_low = bucket <= 0;
  bool open_high = bucket >= n;
  double lo = open_low ? bounds[0] : bounds[bucket - 1];
  double hi = open_high ? bounds[n - 1] : bounds[bucket];
  switch (expr.fn) {
    case Fn::kRangeMin:
      return open_low ? Value::Null() : Value::Double(lo);
    case Fn::kRangeMax:
      return open_high ? Value::Null() : Value::Double(hi);
    default:  // kRangeMid
      if (open_low) return Value::Double(bounds[0]);
      if (open_high) return Value::Double(bounds[n - 1]);
      return Value::Double((lo + hi) / 2);
  }
}

Result<Value> TopCount(const BoundDmxExpr& expr,
                       const PredictionRowContext& ctx) {
  DMX_ASSIGN_OR_RETURN(Value table, EvaluateDmxExpr(expr.args[0], ctx));
  if (!table.is_table() || table.table_value() == nullptr) {
    return InvalidArgument() << "TopCount: first argument is not a table";
  }
  const NestedTable& nested = *table.table_value();
  const size_t rank = expr.rank_column;
  std::vector<Row> rows(nested.rows().begin(), nested.rows().end());
  std::stable_sort(rows.begin(), rows.end(), [rank](const Row& a, const Row& b) {
    return a[rank].Compare(b[rank]) > 0;
  });
  if (rows.size() > static_cast<size_t>(expr.count)) {
    rows.resize(static_cast<size_t>(expr.count));
  }
  return Value::Table(NestedTable::Make(nested.schema(), std::move(rows)));
}

Result<Value> Cluster(const BoundDmxExpr& expr,
                      const PredictionRowContext& ctx) {
  const bool probability = expr.fn == Fn::kClusterProbability;
  const TargetPrediction& p = ctx.predictions[expr.slot];
  if (!p.predicted) {
    return InvalidState() << (probability ? "ClusterProbability" : "Cluster")
                          << " requires a segmentation model";
  }
  return probability ? Value::Double(p.probability)
                     : PredictedValue(ctx.model->attributes(), expr.target, p);
}

}  // namespace

Result<BoundDmxExpr> BindDmxExpr(const DmxExpr& expr, const MiningModel& model,
                                 const Schema& source,
                                 const std::string& source_alias,
                                 PredictionDemand* demand) {
  return Bind(expr, BindScope{model, source, source_alias, demand});
}

Result<Value> EvaluateDmxExpr(const BoundDmxExpr& expr,
                              const PredictionRowContext& ctx) {
  switch (expr.fn) {
    case Fn::kLiteral:
      return expr.literal;
    case Fn::kSourceColumn:
      return (*ctx.source_row)[expr.source_column];
    case Fn::kTopCount:
      return TopCount(expr, ctx);
    case Fn::kCluster:
    case Fn::kClusterProbability:
      return Cluster(expr, ctx);
    default:
      break;
  }
  DMX_ASSIGN_OR_RETURN(const TargetPrediction* p, Prediction(expr, ctx));
  switch (expr.fn) {
    case Fn::kPredict:
      if (expr.column.type == DataType::kTable) {
        return HistogramTable(expr, *p, ctx, expr.count);
      }
      return PredictedValue(ctx.model->attributes(), expr.target, *p);
    case Fn::kPredictHistogram:
      return HistogramTable(expr, *p, ctx, /*limit=*/0);
    case Fn::kRangeMin:
    case Fn::kRangeMid:
    case Fn::kRangeMax:
      return Range(expr, *p);
    case Fn::kPredictProbability:
    case Fn::kPredictSupport:
    case Fn::kPredictVariance:
    case Fn::kPredictStdev:
      return PredictStat(expr, *p, ctx);
    default:
      // A bare model column reference means its prediction (the paper's
      // "SELECT ..., [Age Prediction].[Age] FROM ... PREDICTION JOIN ...").
      return PredictedValue(ctx.model->attributes(), expr.target, *p);
  }
}

std::span<const Udf> ShippedUdfs() { return kUdfs; }

}  // namespace dmx
