#include "fuzz/dmx_grammar.h"

#include <algorithm>
#include <cstring>

#include "common/tokenizer.h"

namespace dmx::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Dictionaries. The identifier pool mirrors the catalog fuzz_targets.cc
// builds: tables People / Pets, trained model [M], untrained model [U].
// A few names resolve to nothing on purpose (unknown-model / unknown-column
// rules need inputs too).
// ---------------------------------------------------------------------------

const std::vector<std::string>& Tables() {
  static const std::vector<std::string> kTables = {"People", "Pets"};
  return kTables;
}

const std::vector<std::string>& Models() {
  static const std::vector<std::string> kModels = {"M", "U"};
  return kModels;
}

const std::vector<std::string>& Columns() {
  static const std::vector<std::string> kColumns = {
      "Id", "Age", "Income", "City", "Loyalty", "Owner", "Pet"};
  return kColumns;
}

// The provider's read-only tables (schema rowsets; `<model>.CONTENT` is
// drawn from Models()), one misspelt on purpose, and columns they carry.
const std::vector<std::string>& SystemTables() {
  static const std::vector<std::string> kSystemTables = {
      "$system.DMSCHEMA_MINING_SERVICES",
      "$system.DMSCHEMA_MINING_SERVICE_PARAMETERS",
      "$system.DMSCHEMA_MINING_MODELS",
      "$system.DMSCHEMA_MINING_COLUMNS",
      "$system.DMSCHEMA_MINING_MODEL_CONTENT",
      "$system.DMSCHEMA_MINING_FUNCTIONS",
      "$system.DMSCHEMA_MINING_NOTHING"};
  return kSystemTables;
}

const std::vector<std::string>& SystemColumns() {
  static const std::vector<std::string> kSystemColumns = {
      "MODEL_NAME",    "SERVICE_NAME", "IS_POPULATED",  "CASE_COUNT",
      "COLUMN_NAME",   "USAGE",        "PARAMETER_NAME", "FUNCTION_NAME",
      "NODE_TYPE",     "NODE_SUPPORT", "NODE_UNIQUE_NAME",
      "NODE_DISTRIBUTION"};
  return kSystemColumns;
}

const std::vector<std::string>& Services() {
  static const std::vector<std::string> kServices = {
      "Clustering",        "Naive_Bayes",       "Decision_Trees",
      "Linear_Regression", "Sequence_Analysis", "Association_Rules"};
  return kServices;
}

const std::vector<std::string>& Ghosts() {
  static const std::vector<std::string> kGhosts = {"Nothing", "ghost",
                                                   "ZZZ", "People2"};
  return kGhosts;
}

const std::vector<std::string>& ColumnTypes() {
  static const std::vector<std::string> kTypes = {"LONG", "DOUBLE", "TEXT",
                                                  "DATE"};
  return kTypes;
}

std::string AnyIdentifier(Rng& rng) {
  return rng.Pick(IdentifierDictionary());
}

std::string ColumnName(Rng& rng) {
  return rng.Chance(85) ? rng.Pick(Columns()) : AnyIdentifier(rng);
}

std::string TableName(Rng& rng) {
  return rng.Chance(85) ? rng.Pick(Tables()) : AnyIdentifier(rng);
}

std::string ModelName(Rng& rng) {
  return rng.Chance(85) ? rng.Pick(Models()) : AnyIdentifier(rng);
}

// ---------------------------------------------------------------------------
// Expressions (shared by SQL WHERE clauses and prediction-join items).
// ---------------------------------------------------------------------------

std::string Expr(Rng& rng, int depth);

std::string Comparison(Rng& rng, int depth) {
  static const std::vector<std::string> kOps = {"=",  "<>", "<",
                                                "<=", ">",  ">="};
  return Expr(rng, depth) + " " + rng.Pick(kOps) + " " + Expr(rng, depth);
}

std::string Expr(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(40)) {
    switch (rng.Below(3)) {
      case 0:
        return ColumnName(rng);
      case 1:
        return RandomLiteral(rng);
      default:
        return "[" + ColumnName(rng) + "]";
    }
  }
  switch (rng.Below(5)) {
    case 0:
      return "(" + Expr(rng, depth - 1) + ")";
    case 1:
      return Expr(rng, depth - 1) + " + " + Expr(rng, depth - 1);
    case 2:
      return Expr(rng, depth - 1) + " * " + Expr(rng, depth - 1);
    case 3:
      return "-" + Expr(rng, depth - 1);
    default:
      return "NOT (" + Comparison(rng, depth - 1) + ")";
  }
}

std::string PredictionExpr(Rng& rng, int depth) {
  static const std::vector<std::string> kFns = {
      "Predict",          "PredictAssociation", "PredictProbability",
      "PredictSupport",   "PredictVariance",    "PredictStdev",
      "PredictHistogram", "TopCount",           "RangeMin",
      "RangeMid",         "RangeMax",           "Cluster",
      "ClusterProbability"};
  if (depth <= 0 || rng.Chance(35)) {
    switch (rng.Below(4)) {
      case 0:
        return "[" + ColumnName(rng) + "]";
      case 1:
        return "t.[" + ColumnName(rng) + "]";
      case 2:
        return "$Probability";
      default:
        return RandomLiteral(rng);
    }
  }
  std::string call = rng.Pick(kFns) + "(" + PredictionExpr(rng, depth - 1);
  // Up to two more arguments (a value or rank, then a count), so the binder
  // sees TopCount's full arity next to every wrong one.
  if (rng.Chance(30)) {
    call += ", " + (rng.Chance(50) ? std::string("$Probability")
                                   : RandomLiteral(rng));
    if (rng.Chance(40)) call += ", " + RandomLiteral(rng);
  }
  return call + ")";
}

// ---------------------------------------------------------------------------
// Statement templates.
// ---------------------------------------------------------------------------

std::string ColumnSpec(Rng& rng, bool nested, int depth) {
  std::string spec = "[" + ColumnName(rng) + "_" +
                     std::to_string(rng.Below(4)) + "] " +
                     rng.Pick(ColumnTypes());
  // Content flags in grammar order; each optional so specs range from bare
  // to deliberately over-qualified (analyzer fodder).
  if (rng.Chance(15)) spec += rng.Chance(50) ? " NORMAL" : " UNIFORM";
  if (rng.Chance(70)) {
    switch (rng.Below(3)) {
      case 0:
        spec += " DISCRETE";
        break;
      case 1:
        spec += " CONTINUOUS";
        break;
      default:
        spec += " DISCRETIZED";
        break;
    }
  }
  if (rng.Chance(30)) spec += " KEY";
  if (rng.Chance(35)) spec += rng.Chance(75) ? " PREDICT" : " PREDICT_ONLY";
  if (rng.Chance(12)) spec += " SEQUENCE_TIME";
  if (rng.Chance(15)) spec += " RELATED TO [" + ColumnName(rng) + "_0]";
  if (rng.Chance(10)) spec += " PROBABILITY OF [" + ColumnName(rng) + "_0]";
  if (!nested && depth > 0 && rng.Chance(18)) {
    // Nested table column instead of the scalar spec built above.
    std::string inner = ColumnSpec(rng, true, 0);
    if (rng.Chance(80)) inner += " KEY";
    std::string table = "[" + ColumnName(rng) + "_t] TABLE(" + inner;
    uint32_t extra = rng.Below(3);
    for (uint32_t i = 0; i < extra; ++i) {
      table += ", " + ColumnSpec(rng, true, depth - 1);
    }
    return table + ")";
  }
  return spec;
}

std::string CreateMiningModel(Rng& rng) {
  std::string name = rng.Chance(70)
                         ? "F" + std::to_string(rng.Below(4))
                         : ModelName(rng);
  std::string stmt = "CREATE MINING MODEL [" + name + "] (";
  // First column: usually a well-formed key so some models actually build.
  if (rng.Chance(80)) {
    stmt += "[K] LONG KEY";
  } else {
    stmt += ColumnSpec(rng, false, 1);
  }
  uint32_t cols = 1 + rng.Below(4);
  for (uint32_t i = 0; i < cols; ++i) {
    stmt += ", " + ColumnSpec(rng, false, 1);
  }
  stmt += ") USING " + (rng.Chance(85) ? rng.Pick(Services())
                                       : AnyIdentifier(rng));
  if (rng.Chance(40)) {
    stmt += "(CLUSTER_COUNT = " + std::to_string(1 + rng.Below(5)) +
            ", SEED = " + std::to_string(rng.Below(100)) + ")";
  }
  return stmt;
}

std::string SelectList(Rng& rng) {
  if (rng.Chance(20)) return "*";
  std::string list = ColumnName(rng);
  uint32_t n = rng.Below(3);
  for (uint32_t i = 0; i < n; ++i) list += ", " + ColumnName(rng);
  return list;
}

// A WHERE on People's in-order key [Id] (ids 1 to 6), which a scan of
// People answers by binary search: one or two bounds or an equality, a
// literal on either side, sometimes another conjunct before or after them
// (one before that can fail ends the narrowing).
std::string KeyRange(Rng& rng) {
  static const std::vector<std::string> kOps = {"=", "<", "<=", ">", ">="};
  auto bound = [&rng] {
    return rng.Chance(80) ? std::to_string(rng.Below(8)) : RandomLiteral(rng);
  };
  std::string where = rng.Chance(25)
                          ? bound() + " " + rng.Pick(kOps) + " [Id]"
                          : "[Id] " + rng.Pick(kOps) + " " + bound();
  if (rng.Chance(50)) where += " AND [Id] " + rng.Pick(kOps) + " " + bound();
  if (rng.Chance(30)) {
    const std::string other = Comparison(rng, 1);
    where = rng.Chance(50) ? where + " AND " + other : other + " AND " + where;
  }
  return where;
}

std::string SqlSelect(Rng& rng) {
  std::string stmt = "SELECT ";
  if (rng.Chance(15)) stmt += "TOP " + std::to_string(rng.Below(5)) + " ";
  stmt += SelectList(rng) + " FROM " + TableName(rng);
  if (rng.Chance(20)) {
    stmt += " JOIN " + TableName(rng) + " ON " + ColumnName(rng) + " = " +
            ColumnName(rng);
  }
  if (rng.Chance(45)) {
    stmt += " WHERE " + (rng.Chance(35) ? KeyRange(rng) : Comparison(rng, 2));
  }
  if (rng.Chance(25)) {
    stmt += " ORDER BY " + ColumnName(rng);
    if (rng.Chance(40)) stmt += " DESC";
  }
  return stmt;
}

// A read of a schema rowset or a model's content (aliased `s`): projection,
// TOP, WHERE, ORDER BY and a JOIN against a user table (aliased `u`).
std::string SystemSelect(Rng& rng) {
  auto column = [&] {
    return "s." + (rng.Chance(85) ? rng.Pick(SystemColumns()) : ColumnName(rng));
  };
  std::string stmt = "SELECT ";
  if (rng.Chance(15)) stmt += "TOP " + std::to_string(rng.Below(5)) + " ";
  if (rng.Chance(40)) {
    stmt += "*";
  } else {
    stmt += column();
    if (rng.Chance(50)) stmt += ", " + column();
  }
  stmt += " FROM " +
          (rng.Chance(35) ? "[" + ModelName(rng) + "].CONTENT"
                          : rng.Pick(SystemTables())) +
          " AS s";
  if (rng.Chance(25)) {
    stmt += " INNER JOIN " + TableName(rng) + " AS u ON " + column() +
            " = u." + ColumnName(rng);
  }
  if (rng.Chance(50)) {
    static const std::vector<std::string> kOps = {"=",  "<>", "<",
                                                  "<=", ">",  ">="};
    stmt += " WHERE " + column() + " " + rng.Pick(kOps) + " " +
            RandomLiteral(rng);
  }
  if (rng.Chance(30)) {
    stmt += " ORDER BY " + column();
    if (rng.Chance(40)) stmt += " DESC";
  }
  return stmt;
}

// One SHAPE side: SELECT <list> FROM <table>, with an optional WHERE (often
// a key range on People) and an optional ORDER BY on the relate column `key`
// or on any column, either way.
std::string ShapeSelect(Rng& rng, const std::string& list,
                        const std::string& table, const std::string& key) {
  std::string select = "{SELECT " + list + " FROM " + table;
  if (rng.Chance(30)) {
    select += " WHERE " + (table == "People" && rng.Chance(50)
                               ? KeyRange(rng)
                               : Comparison(rng, 1));
  }
  if (rng.Chance(70)) {
    select += " ORDER BY [" + (rng.Chance(70) ? key : ColumnName(rng)) + "]";
    if (rng.Chance(30)) select += " DESC";
  }
  return select + "}";
}

// Half of the SHAPEs relate the catalog's real keys, so most of them
// execute: People.Id to Pets.Owner (parents without pets, a NULL owner),
// People to itself on City and Loyalty (duplicate parent keys, two RELATE
// pairs) or Pets to itself on Owner (a NULL parent key). The rest draw
// names at random.
std::string ShapeSource(Rng& rng) {
  if (rng.Chance(12)) {
    return "SHAPE " + ShapeSelect(rng, "*", "Pets", "Owner") + " APPEND (" +
           ShapeSelect(rng, "Owner, Pet", "Pets", "Owner") +
           " RELATE [Owner] TO [Owner]) AS [N0]";
  }
  if (rng.Chance(45)) {
    std::string shape =
        "SHAPE " + ShapeSelect(rng, "*", "People",
                               rng.Chance(50) ? "Id" : "City");
    uint32_t appends = 1 + rng.Below(2);
    for (uint32_t i = 0; i < appends; ++i) {
      shape += " APPEND (";
      if (rng.Chance(60)) {
        shape += ShapeSelect(rng, "Owner, Pet", "Pets", "Owner") +
                 " RELATE [Id] TO [Owner]";
      } else {
        shape += ShapeSelect(rng, "City, Loyalty, Age", "People", "City") +
                 " RELATE [City] TO [City], [Loyalty] TO [Loyalty]";
      }
      shape += ") AS [N" + std::to_string(i) + "]";
    }
    return shape;
  }
  std::string shape =
      "SHAPE " + ShapeSelect(rng, SelectList(rng), TableName(rng),
                             ColumnName(rng));
  uint32_t appends = 1 + rng.Below(2);
  for (uint32_t i = 0; i < appends; ++i) {
    std::string parent_key = ColumnName(rng);
    std::string child_key = ColumnName(rng);
    shape += " APPEND (" +
             ShapeSelect(rng, SelectList(rng), TableName(rng), child_key) +
             " RELATE [" + parent_key + "] TO [" + child_key + "]) AS [N" +
             std::to_string(i) + "]";
  }
  return shape;
}

std::string InsertIntoModel(Rng& rng) {
  std::string stmt = "INSERT INTO [" + ModelName(rng) + "]";
  if (rng.Chance(40)) {
    stmt += " ([" + ColumnName(rng) + "]";
    uint32_t n = rng.Below(3);
    for (uint32_t i = 0; i < n; ++i) stmt += ", [" + ColumnName(rng) + "]";
    stmt += ")";
  }
  stmt += " ";
  stmt += rng.Chance(70) ? ("SELECT " + SelectList(rng) + " FROM " +
                            TableName(rng))
                         : ShapeSource(rng);
  return stmt;
}

std::string PredictionJoin(Rng& rng) {
  std::string stmt = "SELECT " + PredictionExpr(rng, 2);
  uint32_t n = rng.Below(3);
  for (uint32_t i = 0; i < n; ++i) stmt += ", " + PredictionExpr(rng, 2);
  stmt += " FROM [" + ModelName(rng) + "]";
  bool natural = rng.Chance(65);
  if (natural) stmt += " NATURAL";
  stmt += " PREDICTION JOIN (" +
          (rng.Chance(80) ? "SELECT " + SelectList(rng) + " FROM " +
                                TableName(rng)
                          : ShapeSource(rng)) +
          ") AS t";
  if (!natural) {
    stmt += " ON [" + ModelName(rng) + "].[" + ColumnName(rng) + "] = t.[" +
            ColumnName(rng) + "]";
  }
  if (rng.Chance(15)) {
    stmt += " WHERE " + Comparison(rng, 1);
  } else if (rng.Chance(15)) {
    stmt += " WHERE " + PredictionExpr(rng, 1) + " > " + RandomLiteral(rng);
  }
  return stmt;
}

std::string SqlDdlDml(Rng& rng) {
  switch (rng.Below(4)) {
    case 0: {
      std::string stmt = "CREATE TABLE T" + std::to_string(rng.Below(4)) +
                         " ([A] LONG";
      uint32_t n = rng.Below(3);
      for (uint32_t i = 0; i < n; ++i) {
        stmt += ", [C" + std::to_string(i) + "] " + rng.Pick(ColumnTypes());
      }
      return stmt + ")";
    }
    case 1: {
      std::string stmt = "INSERT INTO " + TableName(rng) + " VALUES (" +
                         RandomLiteral(rng);
      uint32_t n = rng.Below(4);
      for (uint32_t i = 0; i < n; ++i) stmt += ", " + RandomLiteral(rng);
      return stmt + ")";
    }
    case 2:
      return "DROP TABLE " + TableName(rng);
    default:
      return "DELETE FROM " + (rng.Chance(50) ? TableName(rng)
                                              : ModelName(rng)) +
             (rng.Chance(40) ? " WHERE " + Comparison(rng, 1) : "");
  }
}

}  // namespace

const std::vector<std::string>& KeywordDictionary() {
  static const std::vector<std::string> kKeywords = {
      "SELECT",     "FROM",       "WHERE",      "ORDER",      "BY",
      "TOP",        "JOIN",       "ON",         "AS",         "NOT",
      "AND",        "OR",         "CREATE",     "MINING",     "MODEL",
      "TABLE",      "USING",      "INSERT",     "INTO",       "VALUES",
      "DROP",       "DELETE",     "SHAPE",      "APPEND",     "RELATE",
      "TO",         "NATURAL",    "PREDICTION", "KEY",        "PREDICT",
      "PREDICT_ONLY", "DISCRETE", "CONTINUOUS", "DISCRETIZED", "NORMAL",
      "UNIFORM",    "RELATED",    "SEQUENCE_TIME", "PROBABILITY", "SUPPORT",
      "OF",         "CONTENT",    "DESC",       "ASC",        "LONG",
      "DOUBLE",     "TEXT",       "DATE"};
  return kKeywords;
}

const std::vector<std::string>& IdentifierDictionary() {
  static const std::vector<std::string> kIdentifiers = [] {
    std::vector<std::string> all;
    for (const auto& v : {Tables(), Models(), Columns(), Services(), Ghosts()})
      all.insert(all.end(), v.begin(), v.end());
    return all;
  }();
  return kIdentifiers;
}

std::string RandomLiteral(Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
      return "0";
    case 1:
      return "-1";
    case 2:
      return "9223372036854775807";
    case 3:
      return "1.7976931348623157e308";
    case 4:
      return "0.5";
    case 5:
      return "''";
    case 6:
      return "'it''s'";
    case 7:
      return "'" + rng.Pick(Columns()) + "'";
    case 8:
      return std::to_string(rng.Below(1000));
    default:
      return std::to_string(rng.Below(100)) + "." +
             std::to_string(rng.Below(100));
  }
}

std::string GenerateStatement(Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
    case 1:
      return CreateMiningModel(rng);
    case 2:
    case 3:
      return InsertIntoModel(rng);
    case 4:
    case 5:
      return PredictionJoin(rng);
    case 6:
      return rng.Chance(30) ? "SELECT * FROM [" + ModelName(rng) + "].CONTENT"
                            : SystemSelect(rng);
    case 7:
      return "DROP MINING MODEL [" + ModelName(rng) + "]";
    case 8:
      return SqlSelect(rng);
    default:
      return SqlDdlDml(rng);
  }
}

std::string GenerateDurableStatement(Rng& rng) {
  // "CHECKPOINT" is a harness pseudo-statement: fuzz_store_recovery turns it
  // into Provider::Checkpoint(), so snapshot rotation gets fault coverage.
  if (rng.Chance(10)) return "CHECKPOINT";
  switch (rng.Below(8)) {
    case 0:
    case 1:
      return CreateMiningModel(rng);
    case 2:
    case 3:
      return InsertIntoModel(rng);
    case 4:
      return "DROP MINING MODEL [" + ModelName(rng) + "]";
    case 5:
      return "DELETE FROM [" + ModelName(rng) + "]";
    default:
      return SqlDdlDml(rng);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Mutation. Token-level edits re-render the token vector, so the mutant
// still lexes; occasional raw byte noise keeps the lexer's own error paths
// in play.
// ---------------------------------------------------------------------------

std::string EscapeBrackets(const std::string& text) {
  std::string out;
  for (char c : text) {
    out += c;
    if (c == ']') out += ']';
  }
  return out;
}

std::string EscapeQuotes(const std::string& text) {
  std::string out;
  for (char c : text) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out;
}

std::string RenderToken(const Token& t) {
  switch (t.kind) {
    case TokenKind::kIdentifier:
      return t.quoted ? "[" + EscapeBrackets(t.text) + "]" : t.text;
    case TokenKind::kString:
      return "'" + EscapeQuotes(t.text) + "'";
    default:
      return t.text;
  }
}

std::string Render(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) {
    if (t.IsEnd()) break;
    if (!out.empty()) out += ' ';
    out += RenderToken(t);
  }
  return out;
}

Token MakeIdentifier(std::string text) {
  Token t;
  t.kind = TokenKind::kIdentifier;
  t.text = std::move(text);
  return t;
}

/// One grammar-aware edit on a token vector. Returns false when the vector
/// offers nothing to edit (empty input).
bool EditTokens(std::vector<Token>& tokens, Rng& rng) {
  if (tokens.empty()) return false;
  uint32_t i = rng.Below(static_cast<uint32_t>(tokens.size()));
  switch (rng.Below(7)) {
    case 0:  // Swap an identifier for a catalog / ghost name.
      tokens[i] = MakeIdentifier(AnyIdentifier(rng));
      tokens[i].quoted = rng.Chance(30);
      break;
    case 1:  // Swap in a keyword (often turns one clause into another).
      tokens[i] = MakeIdentifier(rng.Pick(KeywordDictionary()));
      break;
    case 2: {  // Replace any token with a boundary literal.
      auto lexed = Tokenize(RandomLiteral(rng));
      if (lexed.ok() && !lexed->empty()) tokens[i] = (*lexed)[0];
      break;
    }
    case 3:  // Delete a token.
      tokens.erase(tokens.begin() + i);
      break;
    case 4: {  // Duplicate a short span (comma elements, clause fragments).
      uint32_t len = 1 + rng.Below(4);
      len = std::min<uint32_t>(len, static_cast<uint32_t>(tokens.size()) - i);
      std::vector<Token> span(tokens.begin() + i, tokens.begin() + i + len);
      tokens.insert(tokens.begin() + i, span.begin(), span.end());
      break;
    }
    case 5: {  // Swap two tokens.
      uint32_t j = rng.Below(static_cast<uint32_t>(tokens.size()));
      std::swap(tokens[i], tokens[j]);
      break;
    }
    default: {  // Wrap the tail in one more function call.
      Token open;
      open.kind = TokenKind::kPunct;
      open.text = "(";
      Token close = open;
      close.text = ")";
      tokens.insert(tokens.begin() + i, {MakeIdentifier("Predict"), open});
      tokens.push_back(close);
      break;
    }
  }
  return true;
}

size_t WriteBack(const std::string& text, uint8_t* data, size_t max_size) {
  size_t n = std::min(text.size(), max_size);
  std::memcpy(data, text.data(), n);
  return n;
}

size_t ByteNoise(uint8_t* data, size_t size, size_t max_size, Rng& rng) {
  if (size == 0 || rng.Chance(30)) {  // Insert.
    if (size < max_size) {
      size_t at = size == 0 ? 0 : rng.Below(static_cast<uint32_t>(size));
      std::memmove(data + at + 1, data + at, size - at);
      data[at] = static_cast<uint8_t>(rng.Below(256));
      return size + 1;
    }
  }
  if (size > 1 && rng.Chance(30)) {  // Erase.
    size_t at = rng.Below(static_cast<uint32_t>(size));
    std::memmove(data + at, data + at + 1, size - at - 1);
    return size - 1;
  }
  if (size > 0) {  // Flip.
    data[rng.Below(static_cast<uint32_t>(size))] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
  }
  return size;
}

}  // namespace

size_t MutateStatement(uint8_t* data, size_t size, size_t max_size,
                       uint64_t seed) {
  Rng rng(seed);
  if (max_size == 0) return 0;
  uint32_t strategy = rng.Below(100);
  if (strategy < 25 || size == 0) {
    return WriteBack(GenerateStatement(rng), data, max_size);
  }
  if (strategy < 85) {
    std::string text(reinterpret_cast<const char*>(data), size);
    auto lexed = Tokenize(text);
    if (lexed.ok()) {
      std::vector<Token> tokens = std::move(*lexed);
      uint32_t edits = 1 + rng.Below(3);
      bool edited = false;
      for (uint32_t i = 0; i < edits; ++i) edited |= EditTokens(tokens, rng);
      if (edited) return WriteBack(Render(tokens), data, max_size);
    }
    // Unlexable input (byte-noise descendant): fall through to more noise.
  }
  return ByteNoise(data, size, max_size, rng);
}

size_t MutateRecoveryInput(uint8_t* data, size_t size, size_t max_size,
                           uint64_t seed) {
  Rng rng(seed);
  if (max_size == 0) return 0;
  std::string text(reinterpret_cast<const char*>(data), size);

  // Split into lines; line 0 is the FAULT header (rebuilt if absent).
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty() || lines[0].rfind("FAULT ", 0) != 0 || rng.Chance(30)) {
    static const char* kKinds[] = {"io", "torn", "nospace"};
    std::string header = "FAULT " + std::to_string(rng.Below(64)) + " " +
                         kKinds[rng.Below(3)];
    // Sometimes scope the fault to a single shard's file (0 = catalog,
    // i >= 1 = model shard m<i-1>) — the per-shard "one sick disk region"
    // plan the recovery oracle verifies shard isolation against.
    if (rng.Chance(40)) header += " shard=" + std::to_string(rng.Below(4));
    if (lines.empty() || lines[0].rfind("FAULT ", 0) != 0) {
      lines.insert(lines.begin(), header);
    } else {
      lines[0] = header;
    }
  }

  // Mutate the statement lines.
  switch (rng.Below(4)) {
    case 0:  // Append a fresh durable statement.
      if (lines.size() < 12) lines.push_back(GenerateDurableStatement(rng));
      break;
    case 1:  // Drop a statement line.
      if (lines.size() > 2) {
        lines.erase(lines.begin() + 1 +
                    rng.Below(static_cast<uint32_t>(lines.size() - 1)));
      }
      break;
    case 2:  // Replace one line wholesale.
      if (lines.size() > 1) {
        lines[1 + rng.Below(static_cast<uint32_t>(lines.size() - 1))] =
            GenerateDurableStatement(rng);
      } else {
        lines.push_back(GenerateDurableStatement(rng));
      }
      break;
    default:  // Grammar-mutate one line in place.
      if (lines.size() > 1) {
        uint32_t i = 1 + rng.Below(static_cast<uint32_t>(lines.size() - 1));
        std::vector<uint8_t> buf(lines[i].begin(), lines[i].end());
        buf.resize(std::max<size_t>(buf.size() + 64, 256));
        size_t n = MutateStatement(buf.data(), lines[i].size(), buf.size(),
                                   rng.Next());
        lines[i].assign(reinterpret_cast<const char*>(buf.data()), n);
        // Statements are line-delimited; embedded newlines would split them.
        std::replace(lines[i].begin(), lines[i].end(), '\n', ' ');
      } else {
        lines.push_back(GenerateDurableStatement(rng));
      }
      break;
  }

  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return WriteBack(out, data, max_size);
}

}  // namespace dmx::fuzz
