// AST for the SQL subset the provider's relational engine executes:
//
//   SELECT [TOP n] item, ...      item := expr [AS alias] | *
//   FROM table [alias] [INNER JOIN table [alias] ON expr]...
//   [WHERE expr] [ORDER BY expr [ASC|DESC], ...]
//
//   table := name | $system.<rowset> | <model>.CONTENT
//
//   CREATE TABLE name (col TYPE, ...)
//   INSERT INTO name [(cols)] VALUES (...), (...)
//   DROP TABLE name
//   DELETE FROM name [WHERE expr]
//
// This covers every query the paper issues against the relational engine
// (caseset feeding queries, the Table-1 flattening join) plus the DDL/DML the
// examples and benches need to build their warehouses.

#ifndef DMX_RELATIONAL_SQL_AST_H_
#define DMX_RELATIONAL_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/schema.h"
#include "common/source_span.h"
#include "relational/expression.h"

namespace dmx::rel {

/// One projection item; `star` renders all columns of the FROM scope.
struct SelectItem {
  bool star = false;
  ExprPtr expr;
  std::string alias;
};

/// A table reference with optional alias. Besides a base table it may name
/// one of the provider's read-only tables: the parser folds `$system.<rowset>`
/// and `<model>.CONTENT` into `table` as written, with the dot, and aliases
/// them by their last part ("CONTENT") unless the statement names an alias.
/// Database::ReadTable resolves them.
struct TableRef {
  std::string table;
  std::string alias;  ///< Defaults to the table name when empty.
  SourceSpan span;    ///< The name; for `<model>.CONTENT`, the model name.

  const std::string& effective_alias() const {
    return alias.empty() ? table : alias;
  }
};

struct JoinClause {
  TableRef table;
  ExprPtr on;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStatement {
  std::optional<int64_t> top;
  std::vector<SelectItem> items;
  /// FROM is optional: a singleton SELECT (constant projections, one output
  /// row) has an empty table name — the form DMX singleton prediction
  /// queries feed into PREDICTION JOIN.
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;  ///< May be null.
  std::vector<ExprPtr> group_by;
  std::vector<OrderItem> order_by;

  bool has_from() const { return !from.table.empty(); }
};

struct CreateTableStatement {
  std::string name;
  std::vector<ColumnDef> columns;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;  ///< Empty means "all, in schema order".
  std::vector<std::vector<ExprPtr>> rows;
};

struct DropTableStatement {
  std::string name;
};

struct DeleteStatement {
  std::string table;
  ExprPtr where;  ///< May be null (delete all).
};

using SqlStatement = std::variant<SelectStatement, CreateTableStatement,
                                  InsertStatement, DropTableStatement,
                                  DeleteStatement>;

}  // namespace dmx::rel

#endif  // DMX_RELATIONAL_SQL_AST_H_
