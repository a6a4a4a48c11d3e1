#include "relational/expression.h"

#include "common/string_util.h"

namespace dmx::rel {

void Scope::AddRange(const std::string& alias, const Schema& schema,
                     size_t offset) {
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    entries_.push_back(Entry{alias, schema.column(i).name, offset + i});
  }
  width_ = std::max(width_, offset + schema.num_columns());
}

Result<size_t> Scope::Resolve(const std::string& qualifier,
                              const std::string& name) const {
  int found = -1;
  for (const Entry& e : entries_) {
    if (!qualifier.empty() && !EqualsCi(e.alias, qualifier)) continue;
    if (!EqualsCi(e.column, name)) continue;
    if (found >= 0) {
      return BindError() << "ambiguous column reference '" << name << "'";
    }
    found = static_cast<int>(e.position);
  }
  if (found < 0) {
    std::string full = qualifier.empty() ? name : qualifier + "." + name;
    return BindError() << "unknown column '" << full << "'";
  }
  return static_cast<size_t>(found);
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::MakeUnary(UnaryOp op, ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr child, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNull;
  e->is_null_negated = negated;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeCall(std::string function, std::vector<ExprPtr> args,
                       bool star) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCall;
  e->function = ToUpper(function);
  e->children = std::move(args);
  e->call_star = star;
  return e;
}

namespace {
bool IsAggregateName(const std::string& upper) {
  return upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
         upper == "MIN" || upper == "MAX";
}
}  // namespace

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kCall && IsAggregateName(function)) return true;
  for (const ExprPtr& child : children) {
    if (child->ContainsAggregate()) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_text()) {
        std::string escaped;
        for (char c : literal.text_value()) {
          escaped += c;
          if (c == '\'') escaped += '\'';
        }
        return "'" + escaped + "'";
      }
      return literal.ToString();
    case ExprKind::kColumnRef: {
      std::string out;
      if (!qualifier.empty()) out = QuoteIdentifier(qualifier) + ".";
      return out + QuoteIdentifier(column);
    }
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNot ? "NOT (" : "-(") +
             children[0]->ToString() + ")";
    case ExprKind::kBinary:
      return StrCat("(", children[0]->ToString(), " ",
                    BinaryOpToString(binary_op), " ", children[1]->ToString(),
                    ")");
    case ExprKind::kIsNull:
      return children[0]->ToString() + (is_null_negated ? " IS NOT NULL"
                                                        : " IS NULL");
    case ExprKind::kCall: {
      std::string out = function + "(";
      if (call_star) out += "*";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

Status BindExpr(Expr* expr, const Scope& scope) {
  if (expr->kind == ExprKind::kColumnRef) {
    DMX_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(expr->qualifier, expr->column));
    expr->bound_index = static_cast<int>(idx);
    return Status::OK();
  }
  for (const ExprPtr& child : expr->children) {
    DMX_RETURN_IF_ERROR(BindExpr(child.get(), scope));
  }
  return Status::OK();
}

namespace {

Result<Value> EvalBinary(const Expr& expr, const Row& row) {
  // AND/OR get short-circuit evaluation with NULL-as-false semantics.
  if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
    DMX_ASSIGN_OR_RETURN(bool lhs, EvalPredicate(*expr.children[0], row));
    if (expr.binary_op == BinaryOp::kAnd && !lhs) return Value::Bool(false);
    if (expr.binary_op == BinaryOp::kOr && lhs) return Value::Bool(true);
    DMX_ASSIGN_OR_RETURN(bool rhs, EvalPredicate(*expr.children[1], row));
    return Value::Bool(rhs);
  }
  DMX_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], row));
  DMX_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], row));
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  switch (expr.binary_op) {
    case BinaryOp::kEq:
      return Value::Bool(lhs.Equals(rhs));
    case BinaryOp::kNe:
      return Value::Bool(!lhs.Equals(rhs));
    case BinaryOp::kLt:
      return Value::Bool(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return Value::Bool(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return Value::Bool(lhs.Compare(rhs) >= 0);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (expr.binary_op == BinaryOp::kAdd && lhs.is_text() && rhs.is_text()) {
        return Value::Text(lhs.text_value() + rhs.text_value());
      }
      DMX_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      DMX_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      double result = 0;
      switch (expr.binary_op) {
        case BinaryOp::kAdd: result = a + b; break;
        case BinaryOp::kSub: result = a - b; break;
        case BinaryOp::kMul: result = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) return Value::Null();  // SQL-style: x/0 -> NULL
          result = a / b;
          break;
        default: break;
      }
      // Preserve integer typing for exact integer arithmetic except division.
      if (expr.binary_op != BinaryOp::kDiv && lhs.is_long() && rhs.is_long()) {
        return Value::Long(static_cast<int64_t>(result));
      }
      return Value::Double(result);
    }
    default:
      break;
  }
  return Internal() << "unreachable binary op";
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const Row& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      if (expr.bound_index < 0) {
        return Internal() << "unbound column reference '" << expr.column << "'";
      }
      if (static_cast<size_t>(expr.bound_index) >= row.size()) {
        return Internal() << "column index " << expr.bound_index
                          << " out of row range " << row.size();
      }
      return row[expr.bound_index];
    case ExprKind::kUnary: {
      if (expr.unary_op == UnaryOp::kNot) {
        DMX_ASSIGN_OR_RETURN(bool b, EvalPredicate(*expr.children[0], row));
        return Value::Bool(!b);
      }
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row));
      if (v.is_null()) return Value::Null();
      if (v.is_long()) return Value::Long(-v.long_value());
      DMX_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::Double(-d);
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row);
    case ExprKind::kIsNull: {
      DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row));
      return Value::Bool(v.is_null() != expr.is_null_negated);
    }
    case ExprKind::kCall:
      return InvalidArgument()
             << "aggregate " << expr.function
             << "() is only valid in a SELECT projection (with optional "
                "GROUP BY)";
  }
  return Internal() << "unreachable expression kind";
}

Result<bool> EvalPredicate(const Expr& expr, const Row& row) {
  DMX_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row));
  if (v.is_null()) return false;
  if (v.is_bool()) return v.bool_value();
  DMX_ASSIGN_OR_RETURN(double d, v.AsDouble());
  return d != 0;
}

}  // namespace dmx::rel
