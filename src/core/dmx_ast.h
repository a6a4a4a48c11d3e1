// AST for the DMX statements of paper §3:
//
//   CREATE MINING MODEL <name> ( <column specs> ) USING <service>[(params)]
//   INSERT INTO <model> [(<column list>)] <source>
//   SELECT [FLATTENED] [TOP n] <items> FROM <model>
//       [NATURAL] PREDICTION JOIN <source> [AS alias] [ON <path> = <path> ...]
//   DELETE FROM <model>
//   DROP MINING MODEL <model>
//
// Model content is read with SQL (SELECT ... FROM <model>.CONTENT), as a
// table of the relational engine (core/schema_rowsets.h).
//
// <source> is a SHAPE statement, an embedded SELECT (optionally braced), or
// OPENROWSET('CSV', '<path>') — the OLE DB escape hatch for external data.

#ifndef DMX_CORE_DMX_AST_H_
#define DMX_CORE_DMX_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/source_span.h"
#include "common/value.h"
#include "model/model_definition.h"
#include "relational/sql_ast.h"
#include "shape/shape_ast.h"

namespace dmx {

/// OPENROWSET('CSV', 'path'): reads an external file as the caseset source.
struct OpenRowsetSource {
  std::string format;  ///< Only "CSV" is supported.
  std::string path;
};

/// The three caseset sources an INSERT INTO / PREDICTION JOIN can consume.
using CasesetSource =
    std::variant<shape::ShapeStatement, rel::SelectStatement, OpenRowsetSource>;

struct CreateModelStatement {
  ModelDefinition definition;
};

/// One entry of an INSERT INTO column list. Names refer to *model* columns;
/// binding against the source rowset is by column name (see case_binder.h).
struct InsertColumn {
  std::string name;
  SourceSpan span;  ///< Name position in the INSERT column list.
  bool is_table = false;
  std::vector<std::string> nested;  ///< Nested model column names.
};

struct InsertIntoStatement {
  std::string model_name;
  SourceSpan model_span;  ///< Model-name position in the statement text.
  std::vector<InsertColumn> columns;  ///< Empty: populate all model columns.
  CasesetSource source;
};

/// \brief DMX projection expression: a column path, a UDF call, a literal,
/// or a $-statistic reference (usable inside TopCount et al.).
struct DmxExpr {
  enum class Kind { kColumnPath, kFunction, kLiteral, kDollar };
  Kind kind = Kind::kColumnPath;

  /// Position of the expression's first token.
  SourceSpan span;

  /// kColumnPath: qualified segments, e.g. {"Age Prediction", "Age"} or
  /// {"t", "Customer ID"} or just {"Age"}.
  std::vector<std::string> path;

  /// kFunction: case-insensitive UDF name and arguments.
  std::string function;
  std::vector<DmxExpr> args;

  /// kLiteral.
  Value literal;

  /// kDollar: statistic name without the '$' ("Probability", "Support").
  std::string dollar;

  std::string ToString() const;
};

struct DmxSelectItem {
  DmxExpr expr;
  std::string alias;
};

/// One ON-clause equality: a model-side column path joined to a source-side
/// path. Which side is which is resolved at bind time (the model-side path
/// starts with the model name).
struct OnPair {
  std::vector<std::string> left;
  std::vector<std::string> right;
};

/// One WHERE conjunct of a prediction query: <expr> <cmp> <expr>, where
/// either side may be a UDF call ("WHERE PredictProbability([Age]) > 0.6").
struct DmxFilter {
  DmxExpr lhs;
  std::string op;  ///< =, <>, <, <=, >, >=
  DmxExpr rhs;
};

struct PredictionJoinStatement {
  bool flattened = false;
  std::optional<int64_t> top;
  std::vector<DmxSelectItem> items;
  std::string model_name;
  SourceSpan model_span;  ///< Model-name position in the statement text.
  bool natural = false;
  CasesetSource source;
  std::string source_alias;  ///< "AS t"; empty when unaliased.
  SourceSpan alias_span;     ///< Alias position; invalid when unaliased.
  std::vector<OnPair> on;    ///< Empty for NATURAL joins.
  std::vector<DmxFilter> where;  ///< Conjunction; empty = no filter.
};

/// DELETE FROM <name>: resolved against the model catalog first, falling
/// back to the relational engine when <name> is a table.
struct DeleteFromModelStatement {
  std::string model_name;
  SourceSpan model_span;
};

struct DropModelStatement {
  std::string model_name;
  SourceSpan model_span;
};

/// EXPORT MINING MODEL <name> TO '<path>': persist as PMML-style XML.
struct ExportModelStatement {
  std::string model_name;
  SourceSpan model_span;
  std::string path;
};

/// IMPORT MINING MODEL FROM '<path>': load a persisted model into the
/// catalog under its stored name.
struct ImportModelStatement {
  std::string path;
};

using DmxStatement =
    std::variant<CreateModelStatement, InsertIntoStatement,
                 PredictionJoinStatement, DeleteFromModelStatement, DropModelStatement,
                 ExportModelStatement, ImportModelStatement>;

}  // namespace dmx

#endif  // DMX_CORE_DMX_AST_H_
