#include "relational/sql_executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/exec_guard.h"
#include "relational/sql_parser.h"

namespace dmx::rel {

namespace {

struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0;
    for (const Value& v : key) h = h * 1315423911u + v.Hash();
    return h;
  }
};

struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

// A conjunct of a join condition split into the equi-pairs usable for hashing
// and the residual predicate evaluated per joined row.
struct JoinAnalysis {
  std::vector<std::pair<int, int>> equi;  // (left position, right position)
  std::vector<ExprPtr> residual;
};

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(expr->children[0], out);
    CollectConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

// Tries to bind a column ref exclusively in one scope.
bool BindsIn(const Expr& column_ref, const Scope& scope, int* position) {
  auto result = scope.Resolve(column_ref.qualifier, column_ref.column);
  if (!result.ok()) return false;
  *position = static_cast<int>(*result);
  return true;
}

// Splits `on` into hashable equi-join pairs and a residual. `left_scope`
// covers the rows accumulated so far, `right_scope` only the newly joined
// table (positions relative to its own row).
JoinAnalysis AnalyzeJoin(const ExprPtr& on, const Scope& left_scope,
                         const Scope& right_scope) {
  JoinAnalysis analysis;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(on, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      int l = -1;
      int r = -1;
      if (BindsIn(*c->children[0], left_scope, &l) &&
          BindsIn(*c->children[1], right_scope, &r)) {
        analysis.equi.emplace_back(l, r);
        continue;
      }
      if (BindsIn(*c->children[1], left_scope, &l) &&
          BindsIn(*c->children[0], right_scope, &r)) {
        analysis.equi.emplace_back(l, r);
        continue;
      }
    }
    analysis.residual.push_back(c);
  }
  return analysis;
}

// A comparison whose operands are each a column reference or a literal.
// Its evaluation cannot fail: it yields TRUE, FALSE or NULL.
bool IsLeafComparison(const Expr& expr) {
  if (expr.kind != ExprKind::kBinary) return false;
  switch (expr.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  for (const ExprPtr& side : expr.children) {
    if (side->kind != ExprKind::kColumnRef &&
        side->kind != ExprKind::kLiteral) {
      return false;
    }
  }
  return true;
}

// `literal op column` as `column op' literal`.
BinaryOp Flip(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

struct RowRange {
  size_t lo;
  size_t hi;
};

// The row range [lo, hi) of `table` outside which no row passes `where`
// (bound against the table alone), found by binary search over columns
// whose rows are in order (Table::in_order). Only the leading run of
// top-level AND conjuncts that are leaf comparisons is read. Such a
// conjunct cannot fail, so evaluating `where` on a row outside the range
// stops, FALSE, inside that run: skipping the row changes neither the
// result nor any error. A conjunct `column op literal` (or `literal op
// column`) narrows when the column is in order, `op` is =, <, <=, > or >=,
// and the literal is neither NULL nor NaN. The caller still evaluates the
// whole WHERE on every row of the range.
RowRange NarrowScan(const Table& table, const ExprPtr& where) {
  const std::vector<Row>& rows = table.rows();
  RowRange range{0, rows.size()};
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    if (!IsLeafComparison(*conjunct)) break;
    const Expr* column = conjunct->children[0].get();
    const Expr* literal = conjunct->children[1].get();
    BinaryOp op = conjunct->binary_op;
    if (column->kind == ExprKind::kLiteral) {
      std::swap(column, literal);
      op = Flip(op);
    }
    if (column->kind != ExprKind::kColumnRef ||
        literal->kind != ExprKind::kLiteral || op == BinaryOp::kNe) {
      continue;
    }
    const Value& bound = literal->literal;
    const auto col = static_cast<size_t>(column->bound_index);
    const bool nan = bound.is_double() && std::isnan(bound.double_value());
    if (bound.is_null() || nan || !table.in_order(col)) {
      continue;
    }
    // First row of the range at which `holds` turns false; `holds` is
    // true on a prefix of an in-order column.
    auto end_of = [&](auto holds) {
      return static_cast<size_t>(
          std::partition_point(rows.begin() + range.lo,
                               rows.begin() + range.hi,
                               [&](const Row& row) {
                                 return holds(row[col].Compare(bound));
                               }) -
          rows.begin());
    };
    auto below = [](int cmp) { return cmp < 0; };
    auto not_above = [](int cmp) { return cmp <= 0; };
    switch (op) {
      case BinaryOp::kEq:
        range.lo = end_of(below);
        range.hi = end_of(not_above);
        break;
      case BinaryOp::kLt:
        range.hi = end_of(below);
        break;
      case BinaryOp::kLe:
        range.hi = end_of(not_above);
        break;
      case BinaryOp::kGt:
        range.lo = end_of(not_above);
        break;
      default:  // kGe
        range.lo = end_of(below);
        break;
    }
  }
  return range;
}

// Unique output column naming: bare name unless it collides, then
// "alias.name".
std::vector<ColumnDef> UniquifyColumns(std::vector<ColumnDef> columns,
                                       const std::vector<std::string>& quals) {
  std::map<std::string, int, LessCi> counts;
  for (const ColumnDef& col : columns) counts[col.name]++;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (counts[columns[i].name] > 1 && !quals[i].empty()) {
      columns[i].name = quals[i] + "." + columns[i].name;
    }
  }
  return columns;
}

Result<DataType> InferExprType(const Expr& expr,
                               const std::vector<const Schema*>& schemas,
                               const std::vector<size_t>& offsets) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      switch (expr.literal.kind()) {
        case Value::Kind::kBool:
          return DataType::kBool;
        case Value::Kind::kLong:
          return DataType::kLong;
        case Value::Kind::kDouble:
          return DataType::kDouble;
        case Value::Kind::kTable:
          return DataType::kTable;
        default:
          return DataType::kText;
      }
    case ExprKind::kColumnRef: {
      size_t pos = static_cast<size_t>(expr.bound_index);
      for (size_t s = 0; s < schemas.size(); ++s) {
        size_t begin = offsets[s];
        size_t end = begin + schemas[s]->num_columns();
        if (pos >= begin && pos < end) {
          return schemas[s]->column(pos - begin).type;
        }
      }
      return Internal() << "bound index outside all ranges";
    }
    case ExprKind::kUnary:
      return expr.unary_op == UnaryOp::kNot ? DataType::kBool : DataType::kDouble;
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          DMX_ASSIGN_OR_RETURN(DataType lhs,
                               InferExprType(*expr.children[0], schemas, offsets));
          DMX_ASSIGN_OR_RETURN(DataType rhs,
                               InferExprType(*expr.children[1], schemas, offsets));
          if (lhs == DataType::kText && rhs == DataType::kText) {
            return DataType::kText;
          }
          return (lhs == DataType::kLong && rhs == DataType::kLong)
                     ? DataType::kLong
                     : DataType::kDouble;
        }
        case BinaryOp::kDiv:
          return DataType::kDouble;
        default:
          return DataType::kBool;
      }
    case ExprKind::kIsNull:
      return DataType::kBool;
    case ExprKind::kCall:
      if (expr.function == "COUNT") return DataType::kLong;
      if (expr.function == "AVG" || expr.function == "SUM") {
        return DataType::kDouble;
      }
      if (!expr.children.empty()) {
        return InferExprType(*expr.children[0], schemas, offsets);
      }
      return DataType::kDouble;
  }
  return DataType::kText;
}

bool HasColumnRef(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) return true;
  for (const ExprPtr& child : expr.children) {
    if (HasColumnRef(*child)) return true;
  }
  return false;
}

// Computes one aggregate call over a group of rows.
Result<Value> ComputeAggregate(const Expr& call,
                               const std::vector<const Row*>& group) {
  const std::string& f = call.function;
  if (f == "COUNT") {
    if (call.call_star) return Value::Long(static_cast<int64_t>(group.size()));
    if (call.children.size() != 1) {
      return InvalidArgument() << "COUNT takes one argument or *";
    }
    int64_t count = 0;
    for (const Row* row : group) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*call.children[0], *row));
      if (!v.is_null()) ++count;
    }
    return Value::Long(count);
  }
  if (call.children.size() != 1) {
    return InvalidArgument() << f << " takes exactly one argument";
  }
  if (f == "SUM" || f == "AVG") {
    double total = 0;
    int64_t count = 0;
    bool all_long = true;
    for (const Row* row : group) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*call.children[0], *row));
      if (v.is_null()) continue;
      if (!v.is_long()) all_long = false;
      DMX_ASSIGN_OR_RETURN(double d, v.AsDouble());
      total += d;
      ++count;
    }
    if (count == 0) return Value::Null();
    if (f == "AVG") return Value::Double(total / count);
    return all_long ? Value::Long(static_cast<int64_t>(total))
                    : Value::Double(total);
  }
  if (f == "MIN" || f == "MAX") {
    Value best;
    for (const Row* row : group) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*call.children[0], *row));
      if (v.is_null()) continue;
      if (best.is_null() ||
          (f == "MIN" ? v.Compare(best) < 0 : v.Compare(best) > 0)) {
        best = std::move(v);
      }
    }
    return best;
  }
  return NotSupported() << "unknown function '" << f << "'";
}

// Evaluates a (possibly aggregate-bearing) expression over a row group:
// aggregate calls reduce the group, everything else evaluates against the
// group's first row (legal because non-aggregate projections are restricted
// to GROUP BY expressions).
Result<Value> EvalOverGroup(const Expr& expr,
                            const std::vector<const Row*>& group) {
  if (expr.kind == ExprKind::kCall) return ComputeAggregate(expr, group);
  if (!expr.ContainsAggregate()) {
    static const Row kEmpty;
    return EvalExpr(expr, group.empty() ? kEmpty : *group.front());
  }
  // Mixed node (e.g. SUM(x) / COUNT(*)): evaluate children, then reuse the
  // scalar evaluator on a literal-folded copy of this node.
  Expr folded = expr;
  folded.children.clear();
  for (const ExprPtr& child : expr.children) {
    DMX_ASSIGN_OR_RETURN(Value v, EvalOverGroup(*child, group));
    folded.children.push_back(Expr::MakeLiteral(std::move(v)));
  }
  static const Row kEmpty;
  return EvalExpr(folded, kEmpty);
}

// GROUP BY / aggregate execution over the filtered pre-projection rows.
// Borrows `rows` (which may be the table's own storage on an unfiltered
// scan): groups hold pointers into it, never copies.
Result<Rowset> ExecuteAggregation(const SelectStatement& stmt,
                                  const Scope& scope,
                                  const std::vector<const Schema*>& schemas,
                                  const std::vector<size_t>& offsets,
                                  const std::vector<Row>& rows) {
  // Bind everything.
  std::vector<ExprPtr> keys = stmt.group_by;
  for (const ExprPtr& key : keys) {
    DMX_RETURN_IF_ERROR(BindExpr(key.get(), scope));
  }
  std::vector<ColumnDef> out_columns;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      return InvalidArgument() << "SELECT * cannot be combined with "
                                  "aggregates / GROUP BY";
    }
    DMX_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope));
    // Non-aggregate projections must be grouping expressions (or constants).
    if (!item.expr->ContainsAggregate() && HasColumnRef(*item.expr)) {
      bool is_key = false;
      for (const ExprPtr& key : keys) {
        if (key->ToString() == item.expr->ToString()) is_key = true;
      }
      if (!is_key) {
        return InvalidArgument()
               << "projection " << item.expr->ToString()
               << " must appear in GROUP BY or inside an aggregate";
      }
    }
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                     : item.expr->ToString();
    }
    DMX_ASSIGN_OR_RETURN(DataType type,
                         InferExprType(*item.expr, schemas, offsets));
    out_columns.emplace_back(std::move(name), type);
  }

  // Partition rows into groups (one global group when GROUP BY is absent).
  std::vector<std::vector<const Row*>> groups;
  if (keys.empty()) {
    groups.emplace_back();
    for (const Row& row : rows) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      groups.back().push_back(&row);
    }
  } else {
    std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> index;
    for (const Row& row : rows) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      Row key_values;
      key_values.reserve(keys.size());
      for (const ExprPtr& key : keys) {
        DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*key, row));
        key_values.push_back(std::move(v));
      }
      auto [it, inserted] = index.emplace(std::move(key_values), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(&row);
    }
  }

  Rowset out(Schema::Make(std::move(out_columns)));
  for (const auto& group : groups) {
    DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
    Row out_row;
    out_row.reserve(stmt.items.size());
    for (const SelectItem& item : stmt.items) {
      DMX_ASSIGN_OR_RETURN(Value v, EvalOverGroup(*item.expr, group));
      out_row.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(out.Append(std::move(out_row)));
  }

  // ORDER BY over the aggregated output (names resolve against the output
  // schema: aliases or printed expressions).
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> sort_keys;
    for (const OrderItem& item : stmt.order_by) {
      if (item.expr->kind != ExprKind::kColumnRef) {
        return InvalidArgument()
               << "ORDER BY over aggregates must reference output columns";
      }
      DMX_ASSIGN_OR_RETURN(size_t idx,
                           out.schema()->ResolveColumn(item.expr->column));
      sort_keys.emplace_back(idx, item.ascending);
    }
    std::stable_sort(out.mutable_rows().begin(), out.mutable_rows().end(),
                     [&](const Row& a, const Row& b) {
                       for (auto [idx, ascending] : sort_keys) {
                         int cmp = a[idx].Compare(b[idx]);
                         if (cmp != 0) return ascending ? cmp < 0 : cmp > 0;
                       }
                       return false;
                     });
  }
  if (stmt.top.has_value() &&
      out.num_rows() > static_cast<size_t>(*stmt.top)) {
    out.mutable_rows().resize(static_cast<size_t>(*stmt.top));
  }
  return out;
}

}  // namespace

Result<Rowset> ExecuteSelect(const Database& db, const SelectStatement& stmt) {
  // Resolve FROM and JOIN tables; accumulate a combined scope of all ranges.
  std::vector<const Schema*> schemas;
  std::vector<size_t> offsets;
  std::vector<std::string> aliases;
  Scope scope;
  // Working set of combined rows. The base scan is *borrowed* from the
  // table — `working` points at the table's own rows and `rows` stays empty
  // until a join or filter produces owned rows. A plain scan therefore never
  // copies the table (the old `rows = base->rows()` cost one allocation per
  // row plus one per non-inline text cell before a single predicate ran).
  std::vector<Row> rows;
  const std::vector<Row>* working = &rows;
  bool owns_working = true;
  // Selection vector over *working (set by a WHERE on a borrowed scan, and
  // by ORDER BY): passing rows are recorded by index, in output order, never
  // copied — the projection reads straight from the table through it. Only
  // aggregation, which groups contiguous rows, gathers it into owned rows.
  std::vector<size_t> selection;
  bool use_selection = false;
  // Tables the database's resolver builds for this statement (schema
  // rowsets, model content); base tables are borrowed from the catalog.
  std::vector<std::unique_ptr<Table>> built;
  auto read_table = [&](const std::string& name) -> Result<const Table*> {
    std::unique_ptr<Table> owned;
    DMX_ASSIGN_OR_RETURN(const Table* table, db.ReadTable(name, &owned));
    if (owned != nullptr) built.push_back(std::move(owned));
    return table;
  };
  const Table* base = nullptr;
  if (stmt.has_from()) {
    DMX_ASSIGN_OR_RETURN(base, read_table(stmt.from.table));
    schemas.push_back(base->schema().get());
    offsets.push_back(0);
    aliases.push_back(stmt.from.effective_alias());
    scope.AddRange(aliases[0], *base->schema(), 0);
    working = &base->rows();
    owns_working = false;
  } else {
    // Singleton SELECT: constant projections over one empty row.
    if (!stmt.joins.empty()) {
      return InvalidArgument() << "a FROM-less SELECT cannot have JOINs";
    }
    rows.push_back(Row());
  }

  for (const JoinClause& join : stmt.joins) {
    DMX_ASSIGN_OR_RETURN(const Table* right, read_table(join.table.table));
    size_t left_width = scope.width();

    Scope right_scope;
    right_scope.AddRange(join.table.effective_alias(), *right->schema(), 0);

    JoinAnalysis analysis = AnalyzeJoin(join.on, scope, right_scope);

    Scope combined = scope;
    combined.AddRange(join.table.effective_alias(), *right->schema(),
                      left_width);
    std::vector<ExprPtr> residual = analysis.residual;
    for (const ExprPtr& r : residual) {
      DMX_RETURN_IF_ERROR(BindExpr(r.get(), combined));
    }

    std::vector<Row> joined;
    auto emit_if_match = [&](const Row& left_row,
                             const Row& right_row) -> Status {
      Row out;
      out.reserve(left_width + right_row.size());
      out = left_row;
      out.insert(out.end(), right_row.begin(), right_row.end());
      for (const ExprPtr& r : residual) {
        DMX_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*r, out));
        if (!pass) return Status::OK();
      }
      // Joined rows are the statement's working set — a runaway cross join
      // trips the budget here instead of exhausting memory.
      DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
      joined.push_back(std::move(out));
      return Status::OK();
    };

    if (!analysis.equi.empty()) {
      // Hash join on the equi columns.
      std::unordered_multimap<Row, const Row*, RowKeyHash, RowKeyEq> hash;
      hash.reserve(right->num_rows());
      for (const Row& right_row : right->rows()) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        Row key;
        key.reserve(analysis.equi.size());
        bool has_null = false;
        for (auto [l, r] : analysis.equi) {
          (void)l;
          if (right_row[r].is_null()) has_null = true;
          key.push_back(right_row[r]);
        }
        if (has_null) continue;  // NULL never equi-joins.
        hash.emplace(std::move(key), &right_row);
      }
      // The probe key is hoisted out of the loop: clear() keeps its
      // capacity, so steady state probes allocate nothing.
      Row key;
      key.reserve(analysis.equi.size());
      // dmx-hot-begin(sql-join-probe)
      for (const Row& left_row : *working) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        key.clear();
        bool has_null = false;
        for (auto [l, r] : analysis.equi) {
          (void)r;
          if (left_row[l].is_null()) has_null = true;
          key.push_back(left_row[l]);
        }
        if (has_null) continue;
        auto [begin, end] = hash.equal_range(key);
        for (auto it = begin; it != end; ++it) {
          DMX_RETURN_IF_ERROR(emit_if_match(left_row, *it->second));
        }
      }
      // dmx-hot-end(sql-join-probe)
    } else {
      // Nested-loop fallback for non-equi conditions.
      for (const Row& left_row : *working) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        for (const Row& right_row : right->rows()) {
          DMX_RETURN_IF_ERROR(emit_if_match(left_row, right_row));
        }
      }
    }

    rows = std::move(joined);
    working = &rows;
    owns_working = true;
    scope = std::move(combined);
    schemas.push_back(right->schema().get());
    offsets.push_back(left_width);
    aliases.push_back(join.table.effective_alias());
  }

  // WHERE. Owned rows are moved into the filtered set; a borrowed base scan
  // only records the indices of passing rows — nothing is copied unless a
  // later stage needs ownership.
  // dmx-hot-begin(sql-where-scan)
  if (stmt.where != nullptr) {
    DMX_RETURN_IF_ERROR(BindExpr(stmt.where.get(), scope));
    if (owns_working) {
      std::vector<Row> filtered;
      filtered.reserve(rows.size());
      for (Row& row : rows) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        DMX_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*stmt.where, row));
        if (pass) filtered.push_back(std::move(row));
      }
      rows = std::move(filtered);
      working = &rows;
    } else {
      // A borrowed scan is the base table's own rows: only the range its
      // in-order columns leave needs the predicate.
      const RowRange range = NarrowScan(*base, stmt.where);
      selection.reserve(range.hi - range.lo);
      for (size_t i = range.lo; i < range.hi; ++i) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        DMX_ASSIGN_OR_RETURN(bool pass,
                             EvalPredicate(*stmt.where, (*working)[i]));
        if (pass) selection.push_back(i);
      }
      use_selection = true;
    }
  }
  // dmx-hot-end(sql-where-scan)

  // Aggregation path: GROUP BY present or any aggregate in the projection.
  bool aggregating = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (!item.star && item.expr->ContainsAggregate()) aggregating = true;
  }
  if (aggregating) {
    if (use_selection) {
      std::vector<Row> owned;
      owned.reserve(selection.size());
      for (size_t i : selection) {
        DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(1));
        owned.push_back((*working)[i]);
      }
      rows = std::move(owned);
      working = &rows;
    }
    return ExecuteAggregation(stmt, scope, schemas, offsets, *working);
  }

  // ORDER BY (applied on the pre-projection rows so any column can sort).
  // A bare name that matches a projection alias sorts by that projection.
  std::vector<OrderItem> order_by = stmt.order_by;
  for (OrderItem& item : order_by) {
    if (item.expr->kind != ExprKind::kColumnRef ||
        !item.expr->qualifier.empty()) {
      continue;
    }
    for (const SelectItem& sel : stmt.items) {
      if (!sel.star && !sel.alias.empty() &&
          EqualsCi(sel.alias, item.expr->column)) {
        item.expr = sel.expr;
        break;
      }
    }
  }
  if (!order_by.empty()) {
    for (const OrderItem& item : order_by) {
      DMX_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope));
    }
    // Each key is evaluated once per row into `keys` (row-major, `width`
    // per row). The rows stay where they are: a stable order of their
    // positions, skipped when they already are in order, becomes the
    // selection the projection reads through.
    const size_t n = use_selection ? selection.size() : working->size();
    const size_t width = order_by.size();
    DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(n));
    std::vector<Value> keys;
    keys.reserve(n * width);
    // dmx-hot-begin(sql-order-keys)
    for (size_t i = 0; i < n; ++i) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      const Row& row = (*working)[use_selection ? selection[i] : i];
      for (const OrderItem& item : order_by) {
        DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, row));
        keys.push_back(std::move(v));
      }
    }
    // dmx-hot-end(sql-order-keys)
    std::vector<size_t> order = StableOrder(n, [&](size_t a, size_t b) {
      for (size_t k = 0; k < width; ++k) {
        int cmp = keys[a * width + k].Compare(keys[b * width + k]);
        if (cmp != 0) return order_by[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    if (!order.empty()) {
      if (use_selection) {
        for (size_t& i : order) i = selection[i];
      }
      selection = std::move(order);
      use_selection = true;
    }
  }

  size_t out_limit = use_selection ? selection.size() : working->size();
  if (stmt.top.has_value() && out_limit > static_cast<size_t>(*stmt.top)) {
    out_limit = static_cast<size_t>(*stmt.top);
  }

  // Projection. Expand stars, bind expressions, name and type columns.
  std::vector<ExprPtr> projections;
  std::vector<ColumnDef> out_columns;
  std::vector<std::string> out_quals;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t s = 0; s < schemas.size(); ++s) {
        for (size_t c = 0; c < schemas[s]->num_columns(); ++c) {
          auto ref = Expr::MakeColumnRef(aliases[s], schemas[s]->column(c).name);
          projections.push_back(std::move(ref));
          out_columns.push_back(schemas[s]->column(c));
          out_quals.push_back(aliases[s]);
        }
      }
      continue;
    }
    projections.push_back(item.expr);
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == ExprKind::kColumnRef
                 ? item.expr->column
                 : "Expr" + std::to_string(projections.size());
    }
    out_columns.emplace_back(name, DataType::kText);  // Type fixed below.
    out_quals.push_back(item.expr->kind == ExprKind::kColumnRef
                            ? item.expr->qualifier
                            : "");
  }
  for (size_t i = 0; i < projections.size(); ++i) {
    DMX_RETURN_IF_ERROR(BindExpr(projections[i].get(), scope));
    DMX_ASSIGN_OR_RETURN(out_columns[i].type,
                         InferExprType(*projections[i], schemas, offsets));
  }
  out_columns = UniquifyColumns(std::move(out_columns), out_quals);

  Rowset result(Schema::Make(std::move(out_columns)));
  result.mutable_rows().reserve(out_limit);
  // dmx-hot-begin(sql-projection)
  for (size_t row_idx = 0; row_idx < out_limit; ++row_idx) {
    const Row& row = (*working)[use_selection ? selection[row_idx] : row_idx];
    DMX_RETURN_IF_ERROR(GuardChargeOutputRows(1));
    // Each output row is moved into the result, so its buffer cannot be
    // reused across iterations.
    Row out;  // dmx-lint: allow(hot-loop-alloc)
    out.reserve(projections.size());
    for (const ExprPtr& p : projections) {
      // A bound column reference is its cell; only computed items evaluate.
      if (p->kind == ExprKind::kColumnRef) {
        out.push_back(row[static_cast<size_t>(p->bound_index)]);
        continue;
      }
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, row));
      out.push_back(std::move(v));
    }
    DMX_RETURN_IF_ERROR(result.Append(std::move(out)));
  }
  // dmx-hot-end(sql-projection)
  return result;
}

Result<Rowset> Execute(Database* db, const SqlStatement& statement) {
  if (const auto* stmt = std::get_if<SelectStatement>(&statement)) {
    return ExecuteSelect(*db, *stmt);
  }
  if (const auto* stmt = std::get_if<CreateTableStatement>(&statement)) {
    DMX_RETURN_IF_ERROR(
        db->CreateTable(stmt->name, Schema::Make(stmt->columns)).status());
    return Rowset();
  }
  if (const auto* stmt = std::get_if<InsertStatement>(&statement)) {
    DMX_ASSIGN_OR_RETURN(Table * table, db->GetTable(stmt->table));
    const Schema& schema = *table->schema();
    // Map the statement's column list (or schema order) to positions.
    std::vector<size_t> positions;
    if (stmt->columns.empty()) {
      for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
    } else {
      DMX_ASSIGN_OR_RETURN(positions, schema.ResolveColumns(stmt->columns));
    }
    // Evaluate every row before inserting any, so a guard trip (or a bad
    // expression) midway leaves the table untouched. VALUES rows have no row
    // scope, so binding against an empty Scope turns any column reference
    // into a clean BindError before evaluation.
    Scope no_scope;
    Row empty;
    std::vector<Row> staged;
    staged.reserve(stmt->rows.size());
    for (const auto& exprs : stmt->rows) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      if (exprs.size() != positions.size()) {
        return InvalidArgument()
               << "INSERT row has " << exprs.size() << " values, expected "
               << positions.size();
      }
      Row row(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        DMX_RETURN_IF_ERROR(BindExpr(exprs[i].get(), no_scope));
        DMX_ASSIGN_OR_RETURN(row[positions[i]], EvalExpr(*exprs[i], empty));
      }
      staged.push_back(std::move(row));
    }
    // InsertAll is atomic: coercion failures surface before any row lands,
    // so a failed INSERT has no side effects (the durability contract).
    DMX_RETURN_IF_ERROR(table->InsertAll(std::move(staged)));
    return Rowset();
  }
  if (const auto* stmt = std::get_if<DropTableStatement>(&statement)) {
    DMX_RETURN_IF_ERROR(db->DropTable(stmt->name));
    return Rowset();
  }
  if (const auto* stmt = std::get_if<DeleteStatement>(&statement)) {
    DMX_ASSIGN_OR_RETURN(Table * table, db->GetTable(stmt->table));
    if (stmt->where == nullptr) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      table->Clear();
      return Rowset();
    }
    Scope scope;
    scope.AddRange(stmt->table, *table->schema(), 0);
    DMX_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope));
    // Mark every row before moving any, so a guard trip or a predicate
    // error mid-scan leaves the table untouched.
    std::vector<bool> keep;
    keep.reserve(table->num_rows());
    for (const Row& row : table->rows()) {
      DMX_RETURN_IF_ERROR(GuardCheck());
      DMX_ASSIGN_OR_RETURN(bool matches, EvalPredicate(*stmt->where, row));
      keep.push_back(!matches);
    }
    table->RetainRows(keep);
    return Rowset();
  }
  return Internal() << "unhandled SQL statement kind";
}

Result<Rowset> ExecuteSql(Database* db, const std::string& sql) {
  DMX_ASSIGN_OR_RETURN(SqlStatement statement, ParseSql(sql));
  return Execute(db, statement);
}

}  // namespace dmx::rel
