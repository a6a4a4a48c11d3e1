#include "relational/sql_parser.h"

namespace dmx::rel {

namespace {

// Keywords that terminate an expression or clause inside embedding grammars.
bool IsClauseBoundary(const Token& t) {
  static const char* kBoundaries[] = {
      "FROM",  "WHERE", "ORDER",  "GROUP",  "AS",     "ASC",    "DESC",
      "INNER", "JOIN",  "ON",     "APPEND", "RELATE", "VALUES", "AND",
      "OR",    "NOT",   "IS",     "NULL",   "TOP",    "SELECT", "BY"};
  if (t.kind != TokenKind::kIdentifier || t.quoted) return false;
  for (const char* kw : kBoundaries) {
    if (EqualsCi(t.text, kw)) return true;
  }
  return false;
}

Result<ExprPtr> ParseOr(TokenStream* tokens);

// primary := literal | columnref | '(' expr ')' | NOT primary | '-' primary
//          | NULL
Result<ExprPtr> ParsePrimary(TokenStream* tokens) {
  // The expression grammar recurses back into itself through parentheses,
  // unary operators and call arguments; bound the depth so "((((..." is a
  // clean error, not a stack overflow.
  TokenStream::RecursionScope depth(tokens);
  DMX_RETURN_IF_ERROR(depth.Check());
  const Token& t = tokens->Peek();
  if (tokens->MatchPunct("(")) {
    DMX_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr(tokens));
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
    return inner;
  }
  if (tokens->MatchKeyword("NOT")) {
    DMX_ASSIGN_OR_RETURN(ExprPtr inner, ParsePrimary(tokens));
    return Expr::MakeUnary(UnaryOp::kNot, std::move(inner));
  }
  if (tokens->MatchPunct("-")) {
    DMX_ASSIGN_OR_RETURN(ExprPtr inner, ParsePrimary(tokens));
    return Expr::MakeUnary(UnaryOp::kNeg, std::move(inner));
  }
  if (tokens->MatchKeyword("NULL")) return Expr::MakeLiteral(Value::Null());
  if (tokens->MatchKeyword("TRUE")) return Expr::MakeLiteral(Value::Bool(true));
  if (tokens->MatchKeyword("FALSE")) {
    return Expr::MakeLiteral(Value::Bool(false));
  }
  switch (t.kind) {
    case TokenKind::kString:
      tokens->Next();
      return Expr::MakeLiteral(Value::Text(t.text));
    case TokenKind::kLong:
      tokens->Next();
      return Expr::MakeLiteral(Value::Long(t.long_value));
    case TokenKind::kDouble:
      tokens->Next();
      return Expr::MakeLiteral(Value::Double(t.double_value));
    case TokenKind::kIdentifier: {
      tokens->Next();
      std::string first = t.text;
      // Function call: bare identifier followed by '('.
      if (!t.quoted && tokens->Peek().IsPunct("(")) {
        tokens->Next();
        std::vector<ExprPtr> args;
        bool star = false;
        if (tokens->MatchPunct("*")) {
          star = true;
          DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
        } else if (!tokens->MatchPunct(")")) {
          while (true) {
            DMX_ASSIGN_OR_RETURN(ExprPtr arg, ParseOr(tokens));
            args.push_back(std::move(arg));
            if (tokens->MatchPunct(",")) continue;
            DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
            break;
          }
        }
        return Expr::MakeCall(std::move(first), std::move(args), star);
      }
      if (tokens->MatchPunct(".")) {
        DMX_ASSIGN_OR_RETURN(std::string second,
                             tokens->ExpectIdentifier("column name"));
        return Expr::MakeColumnRef(std::move(first), std::move(second));
      }
      return Expr::MakeColumnRef("", std::move(first));
    }
    default:
      return tokens->ErrorHere("expected expression");
  }
}

Result<ExprPtr> ParseMul(TokenStream* tokens) {
  DMX_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary(tokens));
  while (true) {
    BinaryOp op;
    if (tokens->Peek().IsPunct("*")) {
      op = BinaryOp::kMul;
    } else if (tokens->Peek().IsPunct("/")) {
      op = BinaryOp::kDiv;
    } else {
      return lhs;
    }
    tokens->Next();
    DMX_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePrimary(tokens));
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> ParseAdd(TokenStream* tokens) {
  DMX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMul(tokens));
  while (true) {
    BinaryOp op;
    if (tokens->Peek().IsPunct("+")) {
      op = BinaryOp::kAdd;
    } else if (tokens->Peek().IsPunct("-")) {
      op = BinaryOp::kSub;
    } else {
      return lhs;
    }
    tokens->Next();
    DMX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMul(tokens));
    lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> ParseComparison(TokenStream* tokens) {
  DMX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdd(tokens));
  // IS [NOT] NULL
  if (tokens->MatchKeyword("IS")) {
    bool negated = tokens->MatchKeyword("NOT");
    DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("NULL"));
    return Expr::MakeIsNull(std::move(lhs), negated);
  }
  struct OpMap {
    const char* text;
    BinaryOp op;
  };
  static const OpMap kOps[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                               {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
                               {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
                               {">", BinaryOp::kGt}};
  for (const OpMap& m : kOps) {
    if (tokens->Peek().IsPunct(m.text)) {
      tokens->Next();
      DMX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdd(tokens));
      return Expr::MakeBinary(m.op, std::move(lhs), std::move(rhs));
    }
  }
  return lhs;
}

Result<ExprPtr> ParseAnd(TokenStream* tokens) {
  DMX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison(tokens));
  while (tokens->MatchKeyword("AND")) {
    DMX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison(tokens));
    lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> ParseOr(TokenStream* tokens) {
  DMX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd(tokens));
  while (tokens->MatchKeyword("OR")) {
    DMX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd(tokens));
    lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

// A table name: a plain name, `$system.<rowset>` or `<model>.CONTENT`. For
// the two dotted forms, which name the provider's read-only tables,
// `*last_part` receives the part after the dot.
Result<std::string> ParseTableName(TokenStream* tokens,
                                   std::string* last_part) {
  if (tokens->MatchPunct("$")) {
    DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("SYSTEM"));
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct("."));
    DMX_ASSIGN_OR_RETURN(*last_part,
                         tokens->ExpectIdentifier("system table name"));
    return "$system." + *last_part;
  }
  DMX_ASSIGN_OR_RETURN(std::string name,
                       tokens->ExpectIdentifier("table name"));
  if (tokens->Peek().IsPunct(".") && tokens->Peek(1).IsKeyword("CONTENT")) {
    tokens->Next();
    *last_part = tokens->Next().text;
    name += "." + *last_part;
  }
  return name;
}

// table [[AS] alias], where table is a name, `$system.<rowset>` or
// `<model>.CONTENT` (see TableRef).
Result<TableRef> ParseTableRef(TokenStream* tokens) {
  TableRef ref;
  ref.span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(ref.table, ParseTableName(tokens, &ref.alias));
  if (tokens->MatchKeyword("AS")) {
    DMX_ASSIGN_OR_RETURN(ref.alias, tokens->ExpectIdentifier("table alias"));
  } else if (tokens->Peek().kind == TokenKind::kIdentifier &&
             !IsClauseBoundary(tokens->Peek())) {
    ref.alias = tokens->Next().text;
  }
  return ref;
}

Result<CreateTableStatement> ParseCreateTable(TokenStream* tokens) {
  CreateTableStatement stmt;
  DMX_ASSIGN_OR_RETURN(stmt.name, tokens->ExpectIdentifier("table name"));
  DMX_RETURN_IF_ERROR(tokens->ExpectPunct("("));
  while (true) {
    ColumnDef col;
    DMX_ASSIGN_OR_RETURN(col.name, tokens->ExpectIdentifier("column name"));
    DMX_ASSIGN_OR_RETURN(std::string type_name,
                         tokens->ExpectIdentifier("column type"));
    DMX_ASSIGN_OR_RETURN(col.type, DataTypeFromString(type_name));
    stmt.columns.push_back(std::move(col));
    if (tokens->MatchPunct(",")) continue;
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
    break;
  }
  return stmt;
}

Result<InsertStatement> ParseInsert(TokenStream* tokens,
                                    SourceSpan* read_only_table) {
  InsertStatement stmt;
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("INTO"));
  DMX_ASSIGN_OR_RETURN(stmt.table, ParseWriteTarget(tokens, read_only_table));
  if (tokens->MatchPunct("(")) {
    while (true) {
      DMX_ASSIGN_OR_RETURN(std::string col,
                           tokens->ExpectIdentifier("column name"));
      stmt.columns.push_back(std::move(col));
      if (tokens->MatchPunct(",")) continue;
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
      break;
    }
  }
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("VALUES"));
  while (true) {
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct("("));
    std::vector<ExprPtr> row;
    while (true) {
      DMX_ASSIGN_OR_RETURN(ExprPtr value, ParseOr(tokens));
      row.push_back(std::move(value));
      if (tokens->MatchPunct(",")) continue;
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
      break;
    }
    stmt.rows.push_back(std::move(row));
    if (!tokens->MatchPunct(",")) break;
  }
  return stmt;
}

}  // namespace

Result<ExprPtr> ParseExpression(TokenStream* tokens) { return ParseOr(tokens); }

Result<std::string> ParseWriteTarget(TokenStream* tokens,
                                     SourceSpan* read_only_table) {
  const size_t begin = tokens->Peek().offset;
  std::string last_part;
  DMX_ASSIGN_OR_RETURN(std::string name, ParseTableName(tokens, &last_part));
  if (!last_part.empty()) {
    if (read_only_table != nullptr) {
      const SourceSpan last = tokens->Previous().span();
      *read_only_table = {begin, last.offset + last.length - begin};
    }
    return InvalidArgument() << "table '" << name << "' is read-only";
  }
  return name;
}

Result<SelectStatement> ParseSelectFrom(TokenStream* tokens) {
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("SELECT"));
  SelectStatement stmt;
  if (tokens->MatchKeyword("TOP")) {
    const Token& t = tokens->Peek();
    if (t.kind != TokenKind::kLong) {
      return tokens->ErrorHere("expected row count after TOP");
    }
    stmt.top = t.long_value;
    tokens->Next();
  }
  // Projection list.
  while (true) {
    SelectItem item;
    if (tokens->MatchPunct("*")) {
      item.star = true;
    } else {
      DMX_ASSIGN_OR_RETURN(item.expr, ParseOr(tokens));
      if (tokens->MatchKeyword("AS")) {
        DMX_ASSIGN_OR_RETURN(item.alias,
                             tokens->ExpectIdentifier("column alias"));
      }
    }
    stmt.items.push_back(std::move(item));
    // Tolerate the trailing comma of the paper's own example
    // ("SELECT [Customer ID], [Gender], FROM Customers").
    if (tokens->MatchPunct(",")) {
      if (tokens->Peek().IsKeyword("FROM")) break;
      continue;
    }
    break;
  }
  // FROM is optional: SELECT 1 AS x, 'Male' AS Gender is a singleton query.
  if (!tokens->MatchKeyword("FROM")) {
    return stmt;
  }
  DMX_ASSIGN_OR_RETURN(stmt.from, ParseTableRef(tokens));
  // INNER JOINs.
  while (true) {
    size_t save = tokens->position();
    bool inner = tokens->MatchKeyword("INNER");
    if (!tokens->MatchKeyword("JOIN")) {
      tokens->Rewind(save);
      break;
    }
    (void)inner;
    JoinClause join;
    DMX_ASSIGN_OR_RETURN(join.table, ParseTableRef(tokens));
    DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("ON"));
    DMX_ASSIGN_OR_RETURN(join.on, ParseOr(tokens));
    stmt.joins.push_back(std::move(join));
  }
  if (tokens->MatchKeyword("WHERE")) {
    DMX_ASSIGN_OR_RETURN(stmt.where, ParseOr(tokens));
  }
  if (tokens->MatchKeywords({"GROUP", "BY"})) {
    while (true) {
      DMX_ASSIGN_OR_RETURN(ExprPtr key, ParseOr(tokens));
      stmt.group_by.push_back(std::move(key));
      if (!tokens->MatchPunct(",")) break;
    }
  }
  if (tokens->MatchKeywords({"ORDER", "BY"})) {
    while (true) {
      OrderItem item;
      DMX_ASSIGN_OR_RETURN(item.expr, ParseOr(tokens));
      if (tokens->MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        tokens->MatchKeyword("ASC");
      }
      stmt.order_by.push_back(std::move(item));
      if (!tokens->MatchPunct(",")) break;
    }
  }
  return stmt;
}

Result<SqlStatement> ParseSqlFrom(TokenStream* tokens,
                                  SourceSpan* read_only_table) {
  SqlStatement out;
  if (tokens->Peek().IsKeyword("SELECT")) {
    DMX_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelectFrom(tokens));
    out = std::move(stmt);
  } else if (tokens->MatchKeywords({"CREATE", "TABLE"})) {
    DMX_ASSIGN_OR_RETURN(CreateTableStatement stmt, ParseCreateTable(tokens));
    out = std::move(stmt);
  } else if (tokens->MatchKeyword("INSERT")) {
    DMX_ASSIGN_OR_RETURN(InsertStatement stmt,
                         ParseInsert(tokens, read_only_table));
    out = std::move(stmt);
  } else if (tokens->MatchKeywords({"DROP", "TABLE"})) {
    DropTableStatement stmt;
    DMX_ASSIGN_OR_RETURN(stmt.name, ParseWriteTarget(tokens, read_only_table));
    out = std::move(stmt);
  } else if (tokens->MatchKeywords({"DELETE", "FROM"})) {
    DeleteStatement stmt;
    DMX_ASSIGN_OR_RETURN(stmt.table, ParseWriteTarget(tokens, read_only_table));
    if (tokens->MatchKeyword("WHERE")) {
      DMX_ASSIGN_OR_RETURN(stmt.where, ParseOr(tokens));
    }
    out = std::move(stmt);
  } else {
    return tokens->ErrorHere("expected a SQL statement");
  }
  tokens->MatchPunct(";");
  if (!tokens->AtEnd()) {
    return tokens->ErrorHere("unexpected trailing input");
  }
  return out;
}

Result<SqlStatement> ParseSql(const std::string& text) {
  DMX_ASSIGN_OR_RETURN(std::vector<Token> token_list, Tokenize(text));
  TokenStream tokens(std::move(token_list));
  return ParseSqlFrom(&tokens);
}

}  // namespace dmx::rel
