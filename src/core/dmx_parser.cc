#include "core/dmx_parser.h"

#include "common/tokenizer.h"
#include "relational/sql_parser.h"
#include "shape/shape_parser.h"

namespace dmx {

namespace {

// ---------------------------------------------------------------------------
// CREATE MINING MODEL
// ---------------------------------------------------------------------------

Result<ModelColumn> ParseScalarOrTableColumn(TokenStream* tokens,
                                             bool top_level);

Result<std::vector<ModelColumn>> ParseColumnList(TokenStream* tokens,
                                                 bool top_level) {
  std::vector<ModelColumn> columns;
  DMX_RETURN_IF_ERROR(tokens->ExpectPunct("("));
  while (true) {
    DMX_ASSIGN_OR_RETURN(ModelColumn col,
                         ParseScalarOrTableColumn(tokens, top_level));
    columns.push_back(std::move(col));
    if (tokens->MatchPunct(",")) continue;
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
    break;
  }
  return columns;
}

// Parses the modifier tail of a scalar column (everything after the data
// type): content types, qualifiers, hints, flags, prediction markers.
Status ParseColumnModifiers(TokenStream* tokens, ModelColumn* col) {
  while (true) {
    const Token& t = tokens->Peek();
    if (t.kind != TokenKind::kIdentifier || t.quoted) break;
    if (tokens->MatchKeyword("KEY")) {
      col->role = ContentRole::kKey;
      continue;
    }
    if (tokens->MatchKeyword("DISCRETE")) {
      col->attr_type = AttributeType::kDiscrete;
      continue;
    }
    if (tokens->MatchKeyword("ORDERED")) {
      col->attr_type = AttributeType::kOrdered;
      continue;
    }
    if (tokens->MatchKeyword("CYCLICAL")) {
      col->attr_type = AttributeType::kCyclical;
      continue;
    }
    if (tokens->MatchKeyword("CONTINUOUS") || tokens->MatchKeyword("CONTINOUS")) {
      // The paper itself spells it "CONTINOUS" in §3.2.2; accept both.
      col->attr_type = AttributeType::kContinuous;
      continue;
    }
    if (tokens->MatchKeyword("SEQUENCE_TIME")) {
      col->attr_type = AttributeType::kSequenceTime;
      continue;
    }
    if (tokens->MatchKeyword("DISCRETIZED")) {
      col->attr_type = AttributeType::kDiscretized;
      if (tokens->MatchPunct("(")) {
        DMX_ASSIGN_OR_RETURN(std::string method,
                             tokens->ExpectIdentifier("discretization method"));
        DMX_ASSIGN_OR_RETURN(col->discretization,
                             DiscretizationMethodFromString(method));
        if (tokens->MatchPunct(",")) {
          const Token& n = tokens->Peek();
          if (n.kind != TokenKind::kLong) {
            return tokens->ErrorHere("expected bucket count");
          }
          col->discretization_buckets = static_cast<int>(n.long_value);
          tokens->Next();
        }
        DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
      }
      continue;
    }
    // Distribution hints.
    struct HintMap {
      const char* kw;
      DistributionHint hint;
    };
    static const HintMap kHints[] = {
        {"NORMAL", DistributionHint::kNormal},
        {"LOG_NORMAL", DistributionHint::kLogNormal},
        {"UNIFORM", DistributionHint::kUniform},
        {"BINOMIAL", DistributionHint::kBinomial},
        {"MULTINOMIAL", DistributionHint::kMultinomial},
        {"POISSON", DistributionHint::kPoisson},
        {"MIXTURE", DistributionHint::kMixture},
    };
    bool matched_hint = false;
    for (const HintMap& h : kHints) {
      if (tokens->MatchKeyword(h.kw)) {
        col->distribution = h.hint;
        matched_hint = true;
        break;
      }
    }
    if (matched_hint) continue;
    // Qualifiers: <KIND> OF <column>.
    struct QualMap {
      const char* kw;
      QualifierKind kind;
    };
    static const QualMap kQuals[] = {
        {"PROBABILITY", QualifierKind::kProbability},
        {"VARIANCE", QualifierKind::kVariance},
        {"SUPPORT", QualifierKind::kSupport},
        {"PROBABILITY_VARIANCE", QualifierKind::kProbabilityVariance},
        {"ORDER", QualifierKind::kOrder},
    };
    bool matched_qual = false;
    for (const QualMap& q : kQuals) {
      if (tokens->Peek().IsKeyword(q.kw) && tokens->Peek(1).IsKeyword("OF")) {
        tokens->Next();
        tokens->Next();
        col->role = ContentRole::kQualifier;
        col->qualifier = q.kind;
        DMX_ASSIGN_OR_RETURN(col->related_to,
                             tokens->ExpectIdentifier("qualified column"));
        matched_qual = true;
        break;
      }
    }
    if (matched_qual) continue;
    if (tokens->MatchKeywords({"RELATED", "TO"})) {
      col->role = ContentRole::kRelation;
      DMX_ASSIGN_OR_RETURN(col->related_to,
                           tokens->ExpectIdentifier("related column"));
      continue;
    }
    if (tokens->MatchKeywords({"NOT", "NULL"})) {
      col->not_null = true;
      continue;
    }
    if (tokens->MatchKeyword("MODEL_EXISTENCE_ONLY")) {
      col->model_existence_only = true;
      continue;
    }
    if (tokens->MatchKeyword("PREDICT_ONLY")) {
      col->usage = PredictUsage::kPredictOnly;
      continue;
    }
    if (tokens->MatchKeyword("PREDICT")) {
      col->usage = PredictUsage::kPredict;
      continue;
    }
    break;  // Unrecognized keyword: stop (',' / ')' / USING follows).
  }
  return Status::OK();
}

Result<ModelColumn> ParseScalarOrTableColumn(TokenStream* tokens,
                                             bool top_level) {
  ModelColumn col;
  col.span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(col.name, tokens->ExpectIdentifier("column name"));
  if (tokens->Peek().IsKeyword("TABLE")) {
    if (!top_level) {
      return tokens->ErrorHere("nested tables cannot contain TABLE columns");
    }
    tokens->Next();
    col.role = ContentRole::kTable;
    col.data_type = DataType::kTable;
    DMX_ASSIGN_OR_RETURN(col.nested,
                         ParseColumnList(tokens, /*top_level=*/false));
    // PREDICT / PREDICT_ONLY may follow a TABLE column.
    if (tokens->MatchKeyword("PREDICT_ONLY")) {
      col.usage = PredictUsage::kPredictOnly;
    } else if (tokens->MatchKeyword("PREDICT")) {
      col.usage = PredictUsage::kPredict;
    }
    return col;
  }
  DMX_ASSIGN_OR_RETURN(std::string type_name,
                       tokens->ExpectIdentifier("data type"));
  DMX_ASSIGN_OR_RETURN(col.data_type, DataTypeFromString(type_name));
  DMX_RETURN_IF_ERROR(ParseColumnModifiers(tokens, &col));
  return col;
}

Result<ModelDefinition> ParseCreateFrom(TokenStream* tokens) {
  // "CREATE MINING MODEL" already consumed.
  ModelDefinition def;
  def.name_span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(def.model_name, tokens->ExpectIdentifier("model name"));
  DMX_ASSIGN_OR_RETURN(def.columns, ParseColumnList(tokens, /*top_level=*/true));
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("USING"));
  def.service_span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(def.service_name,
                       tokens->ExpectIdentifier("mining service name"));
  if (tokens->MatchPunct("(")) {
    while (true) {
      AlgorithmParam param;
      DMX_ASSIGN_OR_RETURN(param.name,
                           tokens->ExpectIdentifier("parameter name"));
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct("="));
      const Token& t = tokens->Peek();
      switch (t.kind) {
        case TokenKind::kLong:
          param.value = Value::Long(t.long_value);
          tokens->Next();
          break;
        case TokenKind::kDouble:
          param.value = Value::Double(t.double_value);
          tokens->Next();
          break;
        case TokenKind::kString:
          param.value = Value::Text(t.text);
          tokens->Next();
          break;
        default:
          return tokens->ErrorHere("expected parameter value");
      }
      def.parameters.push_back(std::move(param));
      if (tokens->MatchPunct(",")) continue;
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
      break;
    }
  }
  return def;
}

// ---------------------------------------------------------------------------
// Caseset sources
// ---------------------------------------------------------------------------

Result<CasesetSource> ParseSource(TokenStream* tokens) {
  if (tokens->Peek().IsKeyword("SHAPE")) {
    DMX_ASSIGN_OR_RETURN(shape::ShapeStatement stmt,
                         shape::ParseShapeFrom(tokens));
    return CasesetSource(std::move(stmt));
  }
  if (tokens->Peek().IsKeyword("SELECT")) {
    DMX_ASSIGN_OR_RETURN(rel::SelectStatement stmt,
                         rel::ParseSelectFrom(tokens));
    return CasesetSource(std::move(stmt));
  }
  if (tokens->MatchKeyword("OPENROWSET")) {
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct("("));
    OpenRowsetSource source;
    const Token& format = tokens->Peek();
    if (format.kind != TokenKind::kString) {
      return tokens->ErrorHere("expected OPENROWSET format string");
    }
    source.format = format.text;
    tokens->Next();
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct(","));
    const Token& path = tokens->Peek();
    if (path.kind != TokenKind::kString) {
      return tokens->ErrorHere("expected OPENROWSET path string");
    }
    source.path = path.text;
    tokens->Next();
    DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
    return CasesetSource(std::move(source));
  }
  return tokens->ErrorHere("expected SHAPE, SELECT or OPENROWSET source");
}

// ---------------------------------------------------------------------------
// INSERT INTO
// ---------------------------------------------------------------------------

Result<InsertIntoStatement> ParseInsertInto(TokenStream* tokens) {
  // "INSERT INTO" consumed.
  InsertIntoStatement stmt;
  stmt.model_span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(stmt.model_name, tokens->ExpectIdentifier("model name"));
  if (tokens->MatchPunct("(")) {
    while (true) {
      InsertColumn col;
      col.span = tokens->Peek().span();
      DMX_ASSIGN_OR_RETURN(col.name, tokens->ExpectIdentifier("column name"));
      if (tokens->MatchPunct("(")) {
        col.is_table = true;
        while (true) {
          DMX_ASSIGN_OR_RETURN(std::string nested,
                               tokens->ExpectIdentifier("nested column name"));
          col.nested.push_back(std::move(nested));
          if (tokens->MatchPunct(",")) continue;
          DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
          break;
        }
      }
      stmt.columns.push_back(std::move(col));
      if (tokens->MatchPunct(",")) continue;
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
      break;
    }
  }
  DMX_ASSIGN_OR_RETURN(stmt.source, ParseSource(tokens));
  return stmt;
}

// ---------------------------------------------------------------------------
// DMX expressions (prediction-join projections)
// ---------------------------------------------------------------------------

Result<DmxExpr> ParseDmxExpr(TokenStream* tokens) {
  // Recurses through function-call arguments (Predict(Predict(...)); bound
  // the depth so fuzzed nesting fails cleanly instead of overflowing the
  // stack.
  TokenStream::RecursionScope depth(tokens);
  DMX_RETURN_IF_ERROR(depth.Check());
  DmxExpr expr;
  expr.span = tokens->Peek().span();
  // Negative numeric literals.
  if (tokens->Peek().IsPunct("-") &&
      (tokens->Peek(1).kind == TokenKind::kLong ||
       tokens->Peek(1).kind == TokenKind::kDouble)) {
    tokens->Next();
    const Token& number = tokens->Next();
    expr.kind = DmxExpr::Kind::kLiteral;
    expr.literal = number.kind == TokenKind::kLong
                       ? Value::Long(-number.long_value)
                       : Value::Double(-number.double_value);
    return expr;
  }
  const Token& t = tokens->Peek();
  if (t.IsPunct("$")) {
    tokens->Next();
    expr.kind = DmxExpr::Kind::kDollar;
    DMX_ASSIGN_OR_RETURN(expr.dollar,
                         tokens->ExpectIdentifier("statistic name"));
    return expr;
  }
  switch (t.kind) {
    case TokenKind::kString:
      tokens->Next();
      expr.kind = DmxExpr::Kind::kLiteral;
      expr.literal = Value::Text(t.text);
      return expr;
    case TokenKind::kLong:
      tokens->Next();
      expr.kind = DmxExpr::Kind::kLiteral;
      expr.literal = Value::Long(t.long_value);
      return expr;
    case TokenKind::kDouble:
      tokens->Next();
      expr.kind = DmxExpr::Kind::kLiteral;
      expr.literal = Value::Double(t.double_value);
      return expr;
    case TokenKind::kIdentifier:
      break;
    default:
      return tokens->ErrorHere("expected projection expression");
  }
  // Function call: bare identifier followed by '('.
  if (!t.quoted && tokens->Peek(1).IsPunct("(")) {
    expr.kind = DmxExpr::Kind::kFunction;
    expr.function = tokens->Next().text;
    tokens->Next();  // '('
    if (!tokens->MatchPunct(")")) {
      while (true) {
        DMX_ASSIGN_OR_RETURN(DmxExpr arg, ParseDmxExpr(tokens));
        expr.args.push_back(std::move(arg));
        if (tokens->MatchPunct(",")) continue;
        DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
        break;
      }
    }
    return expr;
  }
  // Column path.
  expr.kind = DmxExpr::Kind::kColumnPath;
  DMX_ASSIGN_OR_RETURN(std::string first, tokens->ExpectIdentifier("column"));
  expr.path.push_back(std::move(first));
  while (tokens->MatchPunct(".")) {
    DMX_ASSIGN_OR_RETURN(std::string segment,
                         tokens->ExpectIdentifier("path segment"));
    expr.path.push_back(std::move(segment));
  }
  return expr;
}

Result<std::vector<std::string>> ParsePath(TokenStream* tokens) {
  std::vector<std::string> path;
  DMX_ASSIGN_OR_RETURN(std::string first, tokens->ExpectIdentifier("column"));
  path.push_back(std::move(first));
  while (tokens->MatchPunct(".")) {
    DMX_ASSIGN_OR_RETURN(std::string segment,
                         tokens->ExpectIdentifier("path segment"));
    path.push_back(std::move(segment));
  }
  return path;
}

// ---------------------------------------------------------------------------
// SELECT ... PREDICTION JOIN
// ---------------------------------------------------------------------------

Result<DmxStatement> ParseDmxSelect(TokenStream* tokens) {
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("SELECT"));
  PredictionJoinStatement stmt;
  stmt.flattened = tokens->MatchKeyword("FLATTENED");
  if (tokens->MatchKeyword("TOP")) {
    const Token& n = tokens->Peek();
    if (n.kind != TokenKind::kLong) {
      return tokens->ErrorHere("expected row count after TOP");
    }
    stmt.top = n.long_value;
    tokens->Next();
  }
  if (tokens->Peek().IsPunct("*")) {
    return tokens->ErrorHere("prediction queries need an explicit SELECT list");
  }
  while (true) {
    DmxSelectItem item;
    DMX_ASSIGN_OR_RETURN(item.expr, ParseDmxExpr(tokens));
    if (tokens->MatchKeyword("AS")) {
      DMX_ASSIGN_OR_RETURN(item.alias,
                           tokens->ExpectIdentifier("column alias"));
    }
    stmt.items.push_back(std::move(item));
    if (tokens->MatchPunct(",")) {
      if (tokens->Peek().IsKeyword("FROM")) break;  // tolerate trailing ','
      continue;
    }
    break;
  }
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("FROM"));
  stmt.model_span = tokens->Peek().span();
  DMX_ASSIGN_OR_RETURN(stmt.model_name, tokens->ExpectIdentifier("model name"));

  stmt.natural = tokens->MatchKeyword("NATURAL");
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("PREDICTION"));
  DMX_RETURN_IF_ERROR(tokens->ExpectKeyword("JOIN"));
  DMX_RETURN_IF_ERROR(tokens->ExpectPunct("("));
  DMX_ASSIGN_OR_RETURN(stmt.source, ParseSource(tokens));
  DMX_RETURN_IF_ERROR(tokens->ExpectPunct(")"));
  if (tokens->MatchKeyword("AS")) {
    stmt.alias_span = tokens->Peek().span();
    DMX_ASSIGN_OR_RETURN(stmt.source_alias,
                         tokens->ExpectIdentifier("source alias"));
  } else if (tokens->Peek().kind == TokenKind::kIdentifier &&
             !tokens->Peek().IsKeyword("ON")) {
    stmt.alias_span = tokens->Peek().span();
    stmt.source_alias = tokens->Next().text;
  }
  if (tokens->MatchKeyword("ON")) {
    if (stmt.natural) {
      return tokens->ErrorHere("NATURAL PREDICTION JOIN takes no ON clause");
    }
    while (true) {
      OnPair pair;
      DMX_ASSIGN_OR_RETURN(pair.left, ParsePath(tokens));
      DMX_RETURN_IF_ERROR(tokens->ExpectPunct("="));
      DMX_ASSIGN_OR_RETURN(pair.right, ParsePath(tokens));
      stmt.on.push_back(std::move(pair));
      if (!tokens->MatchKeyword("AND")) break;
    }
  } else if (!stmt.natural) {
    return tokens->ErrorHere("PREDICTION JOIN needs an ON clause (or NATURAL)");
  }
  if (tokens->MatchKeyword("WHERE")) {
    while (true) {
      DmxFilter filter;
      DMX_ASSIGN_OR_RETURN(filter.lhs, ParseDmxExpr(tokens));
      static const char* kOps[] = {"=", "<>", "<=", ">=", "<", ">"};
      bool matched = false;
      for (const char* op : kOps) {
        if (tokens->MatchPunct(op)) {
          filter.op = op;
          matched = true;
          break;
        }
      }
      if (!matched) {
        return tokens->ErrorHere("expected a comparison operator in WHERE");
      }
      DMX_ASSIGN_OR_RETURN(filter.rhs, ParseDmxExpr(tokens));
      stmt.where.push_back(std::move(filter));
      if (!tokens->MatchKeyword("AND")) break;
    }
  }
  return DmxStatement(std::move(stmt));
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

// Scans the token vector to decide whether a SELECT is a DMX prediction
// join rather than plain SQL (model content is read with SQL).
bool SelectLooksLikeDmx(const std::vector<Token>& tokens) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].IsKeyword("PREDICTION") && tokens[i + 1].IsKeyword("JOIN")) {
      return true;
    }
  }
  return false;
}

// INSERT INTO <name> [(...)] <what>: DMX when <what> is SHAPE / SELECT /
// OPENROWSET, SQL when VALUES.
bool InsertLooksLikeDmx(const std::vector<Token>& tokens) {
  size_t i = 2;  // skip INSERT INTO
  if (i < tokens.size() && tokens[i].kind == TokenKind::kIdentifier) ++i;
  if (i < tokens.size() && tokens[i].IsPunct("(")) {
    int depth = 1;
    ++i;
    while (i < tokens.size() && depth > 0) {
      if (tokens[i].IsPunct("(")) ++depth;
      if (tokens[i].IsPunct(")")) --depth;
      ++i;
    }
  }
  if (i >= tokens.size()) return false;
  return tokens[i].IsKeyword("SHAPE") || tokens[i].IsKeyword("SELECT") ||
         tokens[i].IsKeyword("OPENROWSET");
}

}  // namespace

Result<ModelDefinition> ParseCreateMiningModel(const std::string& text) {
  DMX_ASSIGN_OR_RETURN(std::vector<Token> token_list, Tokenize(text));
  TokenStream tokens(std::move(token_list));
  DMX_RETURN_IF_ERROR(tokens.ExpectKeyword("CREATE"));
  DMX_RETURN_IF_ERROR(tokens.ExpectKeyword("MINING"));
  DMX_RETURN_IF_ERROR(tokens.ExpectKeyword("MODEL"));
  DMX_ASSIGN_OR_RETURN(ModelDefinition def, ParseCreateFrom(&tokens));
  tokens.MatchPunct(";");
  if (!tokens.AtEnd()) {
    return tokens.ErrorHere("unexpected trailing input");
  }
  return def;
}

bool IsSqlCommand(const std::vector<Token>& tokens) {
  if (tokens.empty()) return false;
  const Token& first = tokens[0];
  if (first.IsKeyword("CREATE") || first.IsKeyword("DROP") ||
      first.IsKeyword("EXPORT") || first.IsKeyword("IMPORT")) {
    return !(tokens.size() > 2 && tokens[1].IsKeyword("MINING") &&
             tokens[2].IsKeyword("MODEL"));
  }
  if (first.IsKeyword("INSERT")) return !InsertLooksLikeDmx(tokens);
  if (first.IsKeyword("SELECT")) return !SelectLooksLikeDmx(tokens);
  if (first.IsKeyword("DELETE")) {
    // DELETE FROM <name> with no WHERE may target a model; anything more is
    // SQL. The provider re-routes when <name> is a base table.
    return !(tokens.size() > 2 && tokens[1].IsKeyword("FROM") &&
             tokens[2].kind == TokenKind::kIdentifier &&
             (tokens.size() == 3 || tokens[3].IsPunct(";")));
  }
  return true;
}

Result<DmxParseResult> ParseDmx(const std::string& text,
                                SourceSpan* read_only_table) {
  DMX_ASSIGN_OR_RETURN(std::vector<Token> token_list, Tokenize(text));
  if (token_list.empty()) {
    return ParseError() << "empty command";
  }
  const bool is_sql = IsSqlCommand(token_list);
  TokenStream tokens(std::move(token_list));
  DmxParseResult result;
  if (is_sql) {
    DMX_ASSIGN_OR_RETURN(result.sql,
                         rel::ParseSqlFrom(&tokens, read_only_table));
    result.is_sql = true;
    return result;
  }

  if (tokens.MatchKeywords({"CREATE", "MINING", "MODEL"})) {
    DMX_ASSIGN_OR_RETURN(ModelDefinition def, ParseCreateFrom(&tokens));
    result.statement = CreateModelStatement{std::move(def)};
  } else if (tokens.Peek().IsKeyword("INSERT")) {
    tokens.MatchKeywords({"INSERT", "INTO"});
    DMX_ASSIGN_OR_RETURN(InsertIntoStatement stmt, ParseInsertInto(&tokens));
    result.statement = std::move(stmt);
  } else if (tokens.Peek().IsKeyword("SELECT")) {
    DMX_ASSIGN_OR_RETURN(DmxStatement stmt, ParseDmxSelect(&tokens));
    result.statement = std::move(stmt);
  } else if (tokens.MatchKeywords({"DROP", "MINING", "MODEL"})) {
    DropModelStatement stmt;
    stmt.model_span = tokens.Peek().span();
    DMX_ASSIGN_OR_RETURN(stmt.model_name,
                         tokens.ExpectIdentifier("model name"));
    result.statement = std::move(stmt);
  } else if (tokens.MatchKeywords({"EXPORT", "MINING", "MODEL"})) {
    ExportModelStatement stmt;
    stmt.model_span = tokens.Peek().span();
    DMX_ASSIGN_OR_RETURN(stmt.model_name,
                         tokens.ExpectIdentifier("model name"));
    DMX_RETURN_IF_ERROR(tokens.ExpectKeyword("TO"));
    if (tokens.Peek().kind != TokenKind::kString) {
      return tokens.ErrorHere("expected a quoted file path");
    }
    stmt.path = tokens.Next().text;
    result.statement = std::move(stmt);
  } else if (tokens.MatchKeywords({"IMPORT", "MINING", "MODEL"})) {
    ImportModelStatement stmt;
    DMX_RETURN_IF_ERROR(tokens.ExpectKeyword("FROM"));
    if (tokens.Peek().kind != TokenKind::kString) {
      return tokens.ErrorHere("expected a quoted file path");
    }
    stmt.path = tokens.Next().text;
    result.statement = std::move(stmt);
  } else {
    // DELETE FROM <name>: the only other shape IsSqlCommand leaves to DMX.
    tokens.MatchKeywords({"DELETE", "FROM"});
    DeleteFromModelStatement stmt;
    stmt.model_span = tokens.Peek().span();
    DMX_ASSIGN_OR_RETURN(stmt.model_name,
                         rel::ParseWriteTarget(&tokens, read_only_table));
    result.statement = std::move(stmt);
  }
  tokens.MatchPunct(";");
  if (!tokens.AtEnd()) {
    return tokens.ErrorHere("unexpected trailing input");
  }
  return result;
}

}  // namespace dmx
