// DMX projection evaluation: column paths and the provider's user-defined
// functions over prediction results (paper §3.2.4: "Each provider ships a
// set of functions that can be referenced in the prediction query. Some
// UDFs are scalar-valued, such as probability or support. Others have tables
// as values, such as histogram, and hence return nested tables").
//
// Shipped UDFs:
//   Predict(<col> [, n])           best estimate; on a TABLE column: nested
//                                  table of the top-n recommended items
//   PredictAssociation(<col> [, n])  alias of Predict
//   PredictProbability(<col> [, value])
//   PredictSupport(<col> [, value])
//   PredictVariance(<col> [, value]) / PredictStdev(<col> [, value])
//   PredictHistogram(<col>)        nested table: value, $SUPPORT,
//                                  $PROBABILITY, $VARIANCE, $STDEV
//   TopCount(<table expr>, <rank column | $stat>, n)
//   RangeMin/RangeMid/RangeMax(<col>)   DISCRETIZED bucket bounds
//   Cluster() / ClusterProbability()    segmentation membership
//
// A prediction join evaluates in two steps. BindDmxExpr runs once per
// statement: it resolves every column path against the model and the
// source, dispatches every function name, validates arities and literal
// arguments, and derives each node's output column. Whether a statement is
// valid therefore never depends on how many cases it scores. Binding also
// files what each node reads of the model's predictions in the statement's
// PredictionDemand (model/prediction.h) and keeps the slot the prediction
// comes back in. EvaluateDmxExpr then runs once per case over the bound tree
// and reads its prediction by that slot, with no name lookups; it builds a
// Value only for what it returns. The only errors it can raise are those
// that need the case's prediction.

#ifndef DMX_CORE_UDF_H_
#define DMX_CORE_UDF_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rowset.h"
#include "core/dmx_ast.h"
#include "core/mining_model.h"

namespace dmx {

/// One DMX expression node, bound to a model and a source schema.
struct BoundDmxExpr {
  enum class Fn : uint8_t {
    kLiteral,        ///< `literal`
    kSourceColumn,   ///< source_row[source_column]
    kModelColumn,    ///< bare model column: its predicted value
    kPredict,        ///< also PredictAssociation
    kPredictProbability,
    kPredictSupport,
    kPredictVariance,
    kPredictStdev,
    kPredictHistogram,
    kTopCount,
    kRangeMin,
    kRangeMid,
    kRangeMax,
    kCluster,
    kClusterProbability,
  };

  Fn fn = Fn::kLiteral;
  /// The node's output column. Named after the path's last part or the
  /// expression text; for TABLE values `column.nested` is the schema every
  /// value of this node carries (the histogram schema for model columns).
  ColumnDef column;
  Value literal;                ///< kLiteral
  int source_column = -1;       ///< kSourceColumn
  /// The model column a model-reading node reads, as the statement spells
  /// it, and what it names: a scalar attribute or a nested group.
  std::string model_column;
  PredictionTarget target;
  /// Model-reading nodes (model columns, Predict*, Range*, Cluster*): the
  /// slot of `target` in the statement's PredictionDemand.
  size_t slot = 0;
  /// PredictProbability/Support/Variance/Stdev: the explicit value whose
  /// histogram entry to report instead of the best estimate's.
  std::optional<Value> explicit_value;
  /// Predict on a TABLE column: top-n items; TopCount: rows kept.
  int64_t count = 0;
  size_t rank_column = 0;       ///< TopCount: index in the table's schema.
  std::vector<double> bucket_bounds;  ///< Range*: the attribute's bounds.
  std::vector<BoundDmxExpr> args;     ///< TopCount: the table expression.
};

/// One shipped UDF: its name, bound function and arity, and how
/// DMSCHEMA_MINING_FUNCTIONS describes it. `arity` completes the diagnostic
/// "<name> takes <arity>".
struct Udf {
  const char* name;
  BoundDmxExpr::Fn fn;
  size_t min_args;
  size_t max_args;
  const char* arity;
  const char* returns;
  const char* syntax;
  const char* description;
};

/// Every UDF BindDmxExpr accepts, in the order the schema rowset lists them.
std::span<const Udf> ShippedUdfs();

/// Binds `expr` for a prediction join of `model` with a source of schema
/// `source` aliased `source_alias`, adding what it reads of the model's
/// predictions to `demand`. Every diagnostic that does not depend on a
/// case's prediction is reported here.
Result<BoundDmxExpr> BindDmxExpr(const DmxExpr& expr, const MiningModel& model,
                                 const Schema& source,
                                 const std::string& source_alias,
                                 PredictionDemand* demand);

/// Evaluation context for one joined case.
struct PredictionRowContext {
  const MiningModel* model = nullptr;
  /// The case's predictions, one per slot of the statement's demand.
  std::span<const TargetPrediction> predictions;
  const Row* source_row = nullptr;
};

/// Evaluates one bound expression for one joined case.
Result<Value> EvaluateDmxExpr(const BoundDmxExpr& expr,
                              const PredictionRowContext& ctx);

}  // namespace dmx

#endif  // DMX_CORE_UDF_H_
