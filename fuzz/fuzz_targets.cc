#include "fuzz/fuzz_targets.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/string_util.h"
#include "common/tokenizer.h"
#include "core/dmx_analyzer.h"
#include "core/dmx_parser.h"
#include "core/mining_model.h"
#include "core/prediction_join.h"
#include "core/provider.h"
#include "pmml/pmml.h"
#include "relational/database.h"
#include "relational/sql_executor.h"
#include "relational/sql_parser.h"
#include "server/server.h"
#include "server/transport.h"
#include "server/wire.h"
#include "shape/shape_executor.h"

namespace dmx::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Shared harness plumbing.
// ---------------------------------------------------------------------------

/// Upper-cased copy for case-insensitive substring scans.
std::string ToUpper(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

/// Statements that touch the file system are out of scope for fuzzing: they
/// are slow, they litter the disk, and their failure modes are the I/O
/// fuzzer's job (fuzz_store_recovery owns fault injection).
bool TouchesFileSystem(std::string_view text) {
  std::string upper = ToUpper(text);
  return upper.find("EXPORT") != std::string::npos ||
         upper.find("IMPORT") != std::string::npos ||
         upper.find("OPENROWSET") != std::string::npos;
}

}  // namespace

/// The fixed fuzzing catalog (mirrored by the dictionaries in
/// dmx_grammar.cc): two tables, a trained model [M], an untrained model [U],
/// and a trained Naive_Bayes model [W] whose SUPPORT OF column lets a seed
/// fail an INSERT INTO mid-stream. Built fresh per input so executor side
/// effects never leak between runs.
void PopulateFuzzCatalog(Provider* provider) {
  static const char* kSetup[] = {
      "CREATE TABLE People (Id LONG, Age DOUBLE, Income DOUBLE, City TEXT, "
      "Loyalty LONG)",
      "INSERT INTO People VALUES (1, 25, 100, 'Oslo', 0), "
      "(2, 30, 210, 'Rome', 1), (3, 45, 300, 'Oslo', 1), "
      "(4, 22, 90, 'Bern', 0), (5, 60, 400, 'Rome', 1), "
      "(6, 35, 150, 'Bern', 0)",
      "CREATE TABLE Pets (Owner LONG, Pet TEXT)",
      "INSERT INTO Pets VALUES (3, 'fish'), (1, 'cat'), (2, 'dog'), "
      "(NULL, 'owl'), (1, 'hamster')",
      "CREATE MINING MODEL [M] ([Id] LONG KEY, [Age] DOUBLE CONTINUOUS, "
      "[Income] DOUBLE CONTINUOUS, [Loyalty] LONG DISCRETE PREDICT) "
      "USING Clustering(CLUSTER_COUNT = 2, SEED = 7)",
      "INSERT INTO [M] SELECT [Id], [Age], [Income], [Loyalty] FROM People",
      "CREATE MINING MODEL [U] ([Id] LONG KEY, [Age] DOUBLE CONTINUOUS, "
      "[Loyalty] LONG DISCRETE PREDICT) USING Naive_Bayes",
      "CREATE MINING MODEL [W] ([Id] LONG KEY, [City] TEXT DISCRETE, "
      "[Loyalty] LONG DISCRETE PREDICT, [Weight] DOUBLE SUPPORT OF [Id]) "
      "USING Naive_Bayes",
      "INSERT INTO [W] SELECT [Id], [City], [Loyalty] FROM People",
  };
  auto conn = provider->Connect();
  for (const char* stmt : kSetup) {
    auto result = conn->Execute(stmt);
    if (!result.ok()) {
      std::fprintf(stderr, "fuzz catalog setup failed: %s\n  %s\n",
                   result.status().ToString().c_str(), stmt);
      std::abort();  // Harness bug, not a finding: fail loudly.
    }
  }
}

namespace {

/// True for codes a statement may legitimately fail with. kInternal is the
/// library's "invariant broken" signal and is always a finding; everything
/// else in the closed set is a clean, caller-attributable outcome.
bool IsCleanFailure(StatusCode code) {
  return static_cast<int>(code) >= 0 &&
         static_cast<int>(code) < kStatusCodeCount &&
         code != StatusCode::kInternal;
}

/// Every diagnostic must carry a registered rule id — the analyzer cannot
/// invent rule names the coverage meta-test does not know about.
bool IsKnownRule(const std::string& rule) {
  for (const char* known : rules::kAll) {
    if (rule == known) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Divergence allowlist (DESIGN.md §12 carries the same table). An entry
// means: the analyzer intentionally rejects statements of this class even
// though the executor accepts them — the analyzer is a *lint* layer and is
// allowed to be stricter than the engine, but each such gap must be named.
// ---------------------------------------------------------------------------

const DivergenceRule kDivergenceAllowlist[] = {
    {rules::kUnknownColumn,
     "INSERT column lists are lint-checked against the model, but the "
     "executor binds by position and legally ignores a redundant list"},
    {rules::kPredictInput,
     "feeding a PREDICT column from the source is suspicious (lint) yet "
     "well-defined at execution: the engine treats it as evidence"},
    {nullptr, nullptr},
};

bool IsAllowlistedDivergence(std::string_view rule) {
  for (const DivergenceRule* entry = kDivergenceAllowlist; entry->rule;
       ++entry) {
    if (rule == entry->rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// SHAPE oracle: the reader against a nested-loop relate.
// ---------------------------------------------------------------------------

namespace {

Result<Rowset> ReferenceShape(const rel::Database& db,
                              const shape::ShapeStatement& stmt) {
  DMX_ASSIGN_OR_RETURN(Rowset master, rel::ExecuteSelect(db, stmt.master));
  std::vector<ColumnDef> columns = master.schema()->columns();
  std::vector<Rowset> children;
  // Per APPEND: (parent column, child column) of each RELATE pair.
  std::vector<std::vector<std::pair<size_t, size_t>>> relates;
  for (const shape::AppendClause& append : stmt.appends) {
    DMX_ASSIGN_OR_RETURN(Rowset child, rel::ExecuteSelect(db, append.child));
    std::vector<std::pair<size_t, size_t>> pairs;
    for (const shape::RelatePair& pair : append.relations) {
      DMX_ASSIGN_OR_RETURN(size_t p,
                           master.schema()->ResolveColumn(pair.parent_column));
      DMX_ASSIGN_OR_RETURN(size_t c,
                           child.schema()->ResolveColumn(pair.child_column));
      pairs.emplace_back(p, c);
    }
    columns.emplace_back(append.name, child.schema());
    children.push_back(std::move(child));
    relates.push_back(std::move(pairs));
  }
  Rowset out(Schema::Make(std::move(columns)));
  for (const Row& parent : master.rows()) {
    Row row = parent;
    for (size_t a = 0; a < children.size(); ++a) {
      std::vector<Row> nested;
      for (const Row& child : children[a].rows()) {
        bool related = true;
        for (auto [p, c] : relates[a]) {
          if (!parent[p].Equals(child[c])) related = false;
        }
        if (related) nested.push_back(child);
      }
      row.push_back(Value::Table(
          NestedTable::Make(children[a].schema(), std::move(nested))));
    }
    DMX_RETURN_IF_ERROR(out.Append(std::move(row)));
  }
  return out;
}

// Identity of two cells: same kind, Equals, NaN matching NaN, and nested
// tables equal row for row under the same rule.
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double() && std::isnan(a.double_value())) {
    return std::isnan(b.double_value());
  }
  if (!a.is_table() || a.table_value() == nullptr ||
      b.table_value() == nullptr) {
    return a.Equals(b);
  }
  const NestedTable& x = *a.table_value();
  const NestedTable& y = *b.table_value();
  if (!x.schema()->Equals(*y.schema()) || x.num_rows() != y.num_rows()) {
    return false;
  }
  for (size_t r = 0; r < x.num_rows(); ++r) {
    if (x.rows()[r].size() != y.rows()[r].size()) return false;
    for (size_t c = 0; c < x.rows()[r].size(); ++c) {
      if (!SameCell(x.rows()[r][c], y.rows()[r][c])) return false;
    }
  }
  return true;
}

}  // namespace

namespace {

// The caseset source of an INSERT INTO or PREDICTION JOIN, or nullptr.
const CasesetSource* SourceOf(const DmxStatement& statement) {
  if (const auto* insert = std::get_if<InsertIntoStatement>(&statement)) {
    return &insert->source;
  }
  if (const auto* join = std::get_if<PredictionJoinStatement>(&statement)) {
    return &join->source;
  }
  return nullptr;
}

}  // namespace

const shape::ShapeStatement* ShapeSourceOf(const DmxStatement& statement) {
  const CasesetSource* source = SourceOf(statement);
  return source == nullptr ? nullptr
                           : std::get_if<shape::ShapeStatement>(source);
}

CheckResult CheckShape(const rel::Database& db,
                       const shape::ShapeStatement& stmt) {
  auto shaped = shape::ExecuteShape(db, stmt);
  if (!shaped.ok()) return CheckResult::Pass();
  auto reference = ReferenceShape(db, stmt);
  if (!reference.ok()) {
    return CheckResult::Fail("the SHAPE reader accepted what the reference "
                             "rejects: " + reference.status().ToString());
  }
  if (!shaped->schema()->Equals(*reference->schema()) ||
      shaped->num_rows() != reference->num_rows()) {
    return CheckResult::Fail("SHAPE schema or case count differs from the "
                             "nested-loop reference");
  }
  for (size_t r = 0; r < shaped->num_rows(); ++r) {
    for (size_t c = 0; c < shaped->num_columns(); ++c) {
      if (!SameCell(shaped->at(r, c), reference->at(r, c))) {
        return CheckResult::Fail(
            "SHAPE case " + std::to_string(r) + " column " +
            std::to_string(c) + " differs from the nested-loop reference");
      }
    }
  }
  return CheckResult::Pass();
}

// ---------------------------------------------------------------------------
// Ordered-scan oracle: narrowed scans against full scans.
// ---------------------------------------------------------------------------

namespace {

// A copy of `db` in which each table holds its rows reversed, behind a NULL
// row that is deleted again: the NULL clears every in-order bit and
// RetainRows keeps the bits clear, so a SELECT over the copy scans every
// row.
Result<std::unique_ptr<rel::Database>> UnflaggedCopy(const rel::Database& db) {
  auto copy = std::make_unique<rel::Database>();
  for (const std::string& name : db.ListTables()) {
    DMX_ASSIGN_OR_RETURN(const rel::Table* table, db.GetTable(name));
    DMX_ASSIGN_OR_RETURN(rel::Table * twin,
                         copy->CreateTable(name, table->schema()));
    std::vector<Row> rows(
        1, Row(table->schema()->num_columns(), Value::Null()));
    rows.insert(rows.end(), table->rows().rbegin(), table->rows().rend());
    DMX_RETURN_IF_ERROR(twin->InsertAll(std::move(rows)));
    std::vector<bool> keep(twin->num_rows(), true);
    keep[0] = false;
    twin->RetainRows(keep);
  }
  return copy;
}

// `rows` in a canonical order (cells by Value::Compare, then by kind), so
// two results compare as multisets.
std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
      if (int cmp = a[c].Compare(b[c]); cmp != 0) return cmp < 0;
      if (a[c].kind() != b[c].kind()) return a[c].kind() < b[c].kind();
    }
    return a.size() < b.size();
  });
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameCell(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

// The SELECTs `text` runs: a SQL SELECT, the SELECT source of an INSERT
// INTO or PREDICTION JOIN, or each side of a SHAPE.
std::vector<rel::SelectStatement> SelectsOf(const std::string& text) {
  std::vector<rel::SelectStatement> selects;
  auto parsed = ParseDmx(text);
  if (!parsed.ok()) return selects;
  if (parsed->is_sql) {
    if (const auto* select = std::get_if<rel::SelectStatement>(&*parsed->sql)) {
      selects.push_back(*select);
    }
    return selects;
  }
  if (!parsed->statement.has_value()) return selects;
  const CasesetSource* source = SourceOf(*parsed->statement);
  if (source == nullptr) return selects;
  if (const auto* select = std::get_if<rel::SelectStatement>(source)) {
    selects.push_back(*select);
  } else if (const auto* shape = std::get_if<shape::ShapeStatement>(source)) {
    selects.push_back(shape->master);
    for (const shape::AppendClause& append : shape->appends) {
      selects.push_back(append.child);
    }
  }
  return selects;
}

// Runs `select` over `db` and over `full` (scanned in full). Both must fail
// with the same code, or both succeed with the same rows: row for row when
// `in_order`, else as multisets.
CheckResult CompareScans(const rel::Database& db, const rel::Database& full,
                         const rel::SelectStatement& select, bool in_order) {
  auto narrowed = rel::ExecuteSelect(db, select);
  auto scanned = rel::ExecuteSelect(full, select);
  if (narrowed.ok() != scanned.ok() ||
      (!narrowed.ok() && narrowed.status().code() != scanned.status().code())) {
    return CheckResult::Fail("over in-order tables: " +
                             narrowed.status().ToString() +
                             ", over full scans: " +
                             scanned.status().ToString());
  }
  if (!narrowed.ok()) return CheckResult::Pass();
  std::vector<Row> a = narrowed->rows();
  std::vector<Row> b = scanned->rows();
  if (!in_order) {
    a = Canonical(std::move(a));
    b = Canonical(std::move(b));
  }
  if (!narrowed->schema()->Equals(*scanned->schema()) || !SameRows(a, b)) {
    return CheckResult::Fail(
        std::string("rows over in-order tables differ from a full scan's") +
        (in_order ? " under a total ORDER BY" : " as multisets"));
  }
  return CheckResult::Pass();
}

}  // namespace

CheckResult CheckOrderedScans(const rel::Database& db, std::string_view text) {
  const std::string statement(text);
  std::vector<rel::SelectStatement> selects = SelectsOf(statement);
  if (selects.empty()) return CheckResult::Pass();
  auto full = UnflaggedCopy(db);
  if (!full.ok()) {
    return CheckResult::Fail("copying the catalog failed: " +
                             full.status().ToString());
  }
  for (const rel::SelectStatement& select : selects) {
    std::vector<rel::TableRef> ranges = {select.from};
    for (const rel::JoinClause& join : select.joins) {
      ranges.push_back(join.table);
    }
    // Skip reads of tables the catalog does not hold. An unknown name fails
    // alike on both sides. The provider's read-only tables ($system.DMSCHEMA_*,
    // <model>.CONTENT) are built for each statement by the database's
    // resolver from the model catalog, under the provider's catalog lock,
    // which this check neither takes nor carries into its unflagged copy.
    // Their in-order bits are kept by the same Table::InsertAll as a base
    // table's, and the narrowed scan over them is the one checked here.
    if (std::any_of(ranges.begin(), ranges.end(),
                    [&](const rel::TableRef& range) {
                      return select.has_from() && !db.HasTable(range.table);
                    })) {
      continue;
    }
    bool aggregating = !select.group_by.empty();
    for (const rel::SelectItem& item : select.items) {
      if (!item.star && item.expr->ContainsAggregate()) aggregating = true;
    }
    if (aggregating) continue;
    if (!select.top.has_value()) {
      CheckResult same = CompareScans(db, **full, select, false);
      if (!same.ok) return CheckResult::Fail(same.error + ": " + statement);
    }
    // Every column of every range, after the statement's own keys, makes
    // the order total, so TOP picks the same rows on both sides.
    rel::SelectStatement total = select;
    for (const rel::TableRef& range : ranges) {
      auto table = db.GetTable(range.table);
      if (!table.ok()) continue;
      for (const ColumnDef& column : (*table)->schema()->columns()) {
        total.order_by.push_back(
            {rel::Expr::MakeColumnRef(range.effective_alias(), column.name),
             true});
      }
    }
    CheckResult same = CompareScans(db, **full, total, true);
    if (!same.ok) return CheckResult::Fail(same.error + ": " + statement);
  }
  return CheckResult::Pass();
}

// ---------------------------------------------------------------------------
// Target 1: differential analyzer / executor oracle.
// ---------------------------------------------------------------------------

namespace {

/// Every table's rows, in name order.
std::string TableContents(Provider* provider) {
  std::string out;
  for (const std::string& name : provider->database()->ListTables()) {
    auto table = provider->database()->GetTable(name);
    if (!table.ok()) return "table error: " + table.status().ToString();
    out += "table " + name + "\n" +
           rel::ToCsvString(*(*table)->schema(), (*table)->rows());
  }
  return out;
}

/// What a failed statement must leave as it was: every table's rows and
/// every model's PMML and training cache.
// Appends to `paths` every column path in `expr` that binds to a column of
// the model `join` reads (a bare name binds to the model first).
void CollectModelColumns(const DmxExpr& expr,
                         const PredictionJoinStatement& join,
                         const ModelDefinition& def,
                         std::vector<std::vector<std::string>>* paths) {
  if (expr.kind == DmxExpr::Kind::kColumnPath &&
      def.FindColumn(expr.path.back()) != nullptr &&
      (expr.path.size() == 1 ||
       (expr.path.size() == 2 && EqualsCi(expr.path[0], def.model_name) &&
        !(!join.source_alias.empty() &&
          EqualsCi(expr.path[0], join.source_alias))))) {
    paths->push_back(expr.path);
  }
  for (const DmxExpr& arg : expr.args) {
    CollectModelColumns(arg, join, def, paths);
  }
}

// Demand-vs-full oracle: a PREDICTION JOIN that succeeded, executed again
// with a PredictHistogram of every model column its items and WHERE
// operands read appended, must return its own columns unchanged. The added
// items make the scorer rank every candidate of each target, so what a
// statement reads never changes what it gets. FLATTENED statements are
// left out: an added table column would unnest into more rows.
CheckResult CheckFullDemand(Provider* provider,
                            const PredictionJoinStatement& join) {
  if (join.flattened) return CheckResult::Pass();
  auto model = provider->models()->GetModel(join.model_name);
  if (!model.ok()) return CheckResult::Pass();
  std::vector<std::vector<std::string>> paths;
  for (const DmxSelectItem& item : join.items) {
    CollectModelColumns(item.expr, join, (*model)->definition(), &paths);
  }
  for (const DmxFilter& filter : join.where) {
    CollectModelColumns(filter.lhs, join, (*model)->definition(), &paths);
    CollectModelColumns(filter.rhs, join, (*model)->definition(), &paths);
  }
  if (paths.empty()) return CheckResult::Pass();
  PredictionJoinStatement widened = join;
  for (std::vector<std::string>& path : paths) {
    DmxExpr histogram;
    histogram.kind = DmxExpr::Kind::kFunction;
    histogram.function = "PredictHistogram";
    histogram.args.emplace_back();
    histogram.args.back().path = std::move(path);
    widened.items.push_back(
        {std::move(histogram),
         "$full demand " + std::to_string(widened.items.size())});
  }
  auto narrow = ExecutePredictionJoin(*provider->database(), provider->models(),
                                      join);
  auto full = ExecutePredictionJoin(*provider->database(), provider->models(),
                                    widened);
  if (!narrow.ok() || !full.ok()) {
    return CheckResult::Fail(
        "prediction join failed when re-executed (" +
        (narrow.ok() ? full.status() : narrow.status()).ToString() +
        (narrow.ok() ? ") with its histograms" : ")"));
  }
  if (full->rows().size() != narrow->rows().size()) {
    return CheckResult::Fail("full demand returned " +
                             std::to_string(full->rows().size()) +
                             " rows, not " +
                             std::to_string(narrow->rows().size()));
  }
  for (size_t r = 0; r < narrow->rows().size(); ++r) {
    for (size_t c = 0; c < narrow->rows()[r].size(); ++c) {
      if (!SameCell(narrow->rows()[r][c], full->rows()[r][c])) {
        return CheckResult::Fail(
            "full demand changed row " + std::to_string(r) + " column " +
            std::to_string(c) + " from " + narrow->rows()[r][c].ToString() +
            " to " + full->rows()[r][c].ToString());
      }
    }
  }
  return CheckResult::Pass();
}

std::string CatalogContents(Provider* provider) {
  std::string out = TableContents(provider);
  std::vector<std::string> models = provider->models()->ListModels();
  std::sort(models.begin(), models.end());
  for (const std::string& name : models) {
    auto model = provider->models()->GetModel(name);
    if (!model.ok()) return "model error: " + model.status().ToString();
    auto pmml = SerializeModel(**model);
    out += "model " + name +
           " cached=" + std::to_string((*model)->cached_cases()) + "\n" +
           (pmml.ok() ? *pmml : pmml.status().ToString()) + "\n";
  }
  return out;
}

}  // namespace

CheckResult CheckDmxStatement(std::string_view text) {
  if (text.size() > 4096) return CheckResult::Pass();
  if (TouchesFileSystem(text)) return CheckResult::Pass();
  std::string statement(text);

  Provider provider;
  PopulateFuzzCatalog(&provider);

  auto parsed = ParseDmx(statement);
  if (parsed.ok() && parsed->statement.has_value()) {
    if (const shape::ShapeStatement* shape =
            ShapeSourceOf(*parsed->statement)) {
      CheckResult shaped = CheckShape(*provider.database(), *shape);
      if (!shaped.ok) return CheckResult::Fail(shaped.error + ": " + statement);
    }
  }
  CheckResult scans = CheckOrderedScans(*provider.database(), statement);
  if (!scans.ok) return scans;

  DmxAnalyzer analyzer(AnalyzerContext{provider.models(), provider.services(),
                                       provider.database()});
  AnalysisReport report = analyzer.AnalyzeText(statement);
  for (const Diagnostic& diag : report.diagnostics) {
    if (!IsKnownRule(diag.rule)) {
      return CheckResult::Fail("analyzer emitted unregistered rule id '" +
                               diag.rule + "' for: " + statement);
    }
  }

  auto conn = provider.Connect();
  ExecLimits limits;
  limits.max_output_rows = 1 << 14;
  limits.max_working_set_rows = 1 << 16;  // Deterministic runaway bound.
  conn->set_limits(limits);
  const std::string before = CatalogContents(&provider);
  auto result = conn->Execute(statement);
  StatusCode exec_code =
      result.ok() ? StatusCode::kOk : result.status().code();
  if (!result.ok() && CatalogContents(&provider) != before) {
    return CheckResult::Fail("failed statement (" +
                             result.status().ToString() +
                             ") changed the catalog: " + statement);
  }

  if (!result.ok() && !IsCleanFailure(exec_code)) {
    return CheckResult::Fail("executor returned " +
                             std::string(StatusCodeToString(exec_code)) +
                             " (" + result.status().ToString() +
                             ") for: " + statement);
  }
  const auto* join =
      result.ok() && parsed.ok() && parsed->statement.has_value()
          ? std::get_if<PredictionJoinStatement>(&*parsed->statement)
          : nullptr;
  if (join != nullptr) {
    CheckResult full = CheckFullDemand(&provider, *join);
    if (!full.ok) return CheckResult::Fail(full.error + ": " + statement);
  }

  if (report.error_count() == 0) {
    // Analyzer-clean statements may still fail semantically (kNotFound,
    // kBindError, ...) but must get PAST parsing: a parse error here means
    // the analyzer and executor disagree about the language itself.
    if (!result.ok() && exec_code == StatusCode::kParseError) {
      return CheckResult::Fail(
          "analyzer found no issues but the executor failed to parse (" +
          result.status().ToString() + "): " + statement);
    }
    return CheckResult::Pass();
  }

  // Analyzer-rejected statement: the executor accepting it is a divergence
  // unless every tripped error rule is allowlisted.
  if (result.ok()) {
    for (const Diagnostic& diag : report.diagnostics) {
      if (diag.severity != DiagSeverity::kError) continue;
      if (!IsAllowlistedDivergence(diag.rule)) {
        return CheckResult::Fail(
            "analyzer rejected (rule '" + diag.rule +
            "') but the executor succeeded: " + statement);
      }
    }
  }
  return CheckResult::Pass();
}

// ---------------------------------------------------------------------------
// Target 2: crash-recovery oracle.
// ---------------------------------------------------------------------------

namespace {

/// Everything recovery must reproduce: table contents plus model inventory
/// with training status. (Prediction equality on recovered models is
/// store_test's slower job; journaling correctness shows up here already.)
std::string CatalogStateString(Provider* provider) {
  std::string out = TableContents(provider);
  std::vector<std::string> models = provider->models()->ListModels();
  std::sort(models.begin(), models.end());
  for (const std::string& name : models) {
    auto model = provider->models()->GetModel(name);
    if (!model.ok()) return "model error: " + model.status().ToString();
    out += "model " + name +
           " trained=" + ((*model)->is_trained() ? "1" : "0") +
           " cases=" + std::to_string((*model)->case_count()) + "\n";
  }
  return out;
}

/// Executes one line of the recovery script. "CHECKPOINT" forces a snapshot
/// rotation (a no-op success on the storeless oracle provider).
Status RunScriptLine(Provider* provider, Connection* conn,
                     const std::string& line, bool has_store) {
  if (line == "CHECKPOINT") {
    if (!has_store) return Status::OK();
    return provider->Checkpoint();
  }
  return conn->Execute(line).status();
}

/// Scratch directory for this process's store fuzzing, wiped per run.
std::string ScratchStoreDir() {
  static const std::string kDir = [] {
    const char* base = std::getenv("DMX_FUZZ_TMPDIR");
    std::string dir = std::string(base ? base : "/tmp") +
                      "/dmx_fuzz_store_" + std::to_string(getpid());
    return dir;
  }();
  Env* env = Env::Default();
  (void)env->CreateDir(kDir);
  // Wipe the quarantine subdirectory too — a shard quarantined by one
  // iteration must not resurface as a degraded model in the next.
  const std::string quarantine = kDir + "/quarantine";
  auto qnames = env->ListDir(quarantine);
  if (qnames.ok()) {
    for (const std::string& f : *qnames) {
      (void)env->DeleteFile(quarantine + "/" + f);
    }
  }
  auto names = env->ListDir(kDir);
  if (names.ok()) {
    for (const std::string& f : *names) (void)env->DeleteFile(kDir + "/" + f);
  }
  return kDir;
}

}  // namespace

CheckResult CheckStoreRecovery(std::string_view input) {
  if (input.size() > 8192) return CheckResult::Pass();

  // Parse "FAULT <op_index> <kind>" + statement lines.
  std::string text(input);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string line = nl == std::string::npos
                           ? text.substr(start)
                           : text.substr(start, nl - start);
    if (!line.empty() && line.size() <= 1024) lines.push_back(line);
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  if (lines.empty() || lines[0].rfind("FAULT ", 0) != 0) {
    return CheckResult::Pass();  // Malformed header: not an interesting input.
  }
  int64_t fail_at = 0;
  char kind_buf[16] = {0};
  if (std::sscanf(lines[0].c_str(), "FAULT %ld %15s", &fail_at, kind_buf) !=
          2 ||
      fail_at < 0) {
    return CheckResult::Pass();
  }
  FaultInjectionEnv::FaultKind kind;
  std::string kind_name(kind_buf);
  if (kind_name == "io") {
    kind = FaultInjectionEnv::FaultKind::kIOError;
  } else if (kind_name == "torn") {
    kind = FaultInjectionEnv::FaultKind::kTornWrite;
  } else if (kind_name == "nospace") {
    kind = FaultInjectionEnv::FaultKind::kNoSpace;
  } else {
    return CheckResult::Pass();
  }

  // Optional "shard=<i>": scope the fault to one shard's file (0 = the
  // catalog shard, i >= 1 = model shard m<i-1>). The sick file fails every
  // mutating op from the armed offset on — one bad disk region — while the
  // rest of the store stays healthy.
  bool shard_scoped = false;
  std::string path_filter;
  size_t shard_pos = lines[0].find(" shard=");
  if (shard_pos != std::string::npos) {
    long shard_index = -1;
    if (std::sscanf(lines[0].c_str() + shard_pos, " shard=%ld",
                    &shard_index) != 1 ||
        shard_index < 0 || shard_index > 64) {
      return CheckResult::Pass();
    }
    shard_scoped = true;
    if (shard_index == 0) {
      path_filter = "/shard-catalog-";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "/shard-m%06ld-", shard_index - 1);
      path_filter = buf;
    }
  }

  std::vector<std::string> script(lines.begin() + 1, lines.end());
  if (script.size() > 12) script.resize(12);
  // The durable grammar never emits file-system statements, but mutated
  // corpus bytes might; those belong to other targets.
  for (const std::string& stmt : script) {
    if (TouchesFileSystem(stmt)) return CheckResult::Pass();
  }

  // Pass 1 — fault-free in-memory oracle: which statements succeed, and what
  // the catalog looks like after each successful prefix.
  std::vector<bool> oracle_ok;
  std::vector<std::string> prefix_state;  // [k] = state after k successes.
  {
    Provider oracle;
    auto conn = oracle.Connect();
    prefix_state.push_back(CatalogStateString(&oracle));
    for (const std::string& stmt : script) {
      Status s = RunScriptLine(&oracle, conn.get(), stmt, false);
      oracle_ok.push_back(s.ok());
      if (s.ok()) prefix_state.push_back(CatalogStateString(&oracle));
    }
  }

  // Pass 2 — the same script against a durable store with the fault armed.
  // Unscoped faults model a dying process: execution stops at the first
  // divergence. Shard-scoped faults model one sick file: the run continues,
  // statements on healthy shards keep succeeding, and `executed_ok` records
  // which statements actually made it.
  std::string dir = ScratchStoreDir();
  FaultInjectionEnv faulty(Env::Default());
  size_t successes = 0;
  bool crashed = false;
  bool crashed_stmt_oracle_ok = false;
  std::vector<bool> executed_ok(script.size(), false);
  int64_t limbo = -1;  // first statement that failed only under the fault
  {
    Provider provider;
    store::StoreOptions options;
    options.env = &faulty;
    Status open = provider.OpenStore(dir, options);
    if (!open.ok()) {
      return CheckResult::Fail("clean OpenStore failed: " + open.ToString());
    }
    if (shard_scoped) faulty.SetPathFilter(path_filter);
    faulty.ArmFault(fail_at, kind);
    auto conn = provider.Connect();
    for (size_t i = 0; i < script.size(); ++i) {
      Status s = RunScriptLine(&provider, conn.get(), script[i], true);
      executed_ok[i] = s.ok();
      if (s.ok() != oracle_ok[i]) {
        // Outcome changed under the fault.
        if (s.ok()) {
          return CheckResult::Fail(
              "statement succeeded under fault but fails cleanly: " +
              script[i]);
        }
        if (s.code() == StatusCode::kInternal) {
          return CheckResult::Fail("fault surfaced as kInternal (" +
                                   s.ToString() + ") for: " + script[i]);
        }
        if (limbo < 0) limbo = static_cast<int64_t>(i);
        if (!shard_scoped) {
          // The "process dies" here.
          crashed = true;
          crashed_stmt_oracle_ok = oracle_ok[i];
          break;
        }
      }
      if (s.ok()) ++successes;
    }
  }
  faulty.Disarm();
  faulty.ClearPathFilter();

  // Pass 3 — reopen with a clean Env: recovery must reconstruct exactly the
  // executed prefix (or prefix + 1 when the crashing statement's WAL append
  // survived even though the statement reported failure).
  Provider recovered;
  Status reopen = recovered.OpenStore(dir);
  if (!reopen.ok()) {
    return CheckResult::Fail("recovery failed after fault at op " +
                             std::to_string(fail_at) + " (" + kind_name +
                             "): " + reopen.ToString());
  }
  std::string state = CatalogStateString(&recovered);

  if (shard_scoped) {
    // Per-shard acceptance. A sick file never corrupts the store: the
    // catalog shard must not be quarantined by an injected fault, and any
    // quarantined model shard must name its model (whose statements were
    // orphaned by the sick file — e.g. its CREATE never reached the sick
    // catalog WAL while the model's own shard kept journaling).
    std::vector<std::string> quarantined_models;
    for (const store::ShardStatus& row :
         recovered.store()->GetStatus().shards) {
      if (!row.quarantined) continue;
      if (row.id == store::kCatalogShardId) {
        return CheckResult::Fail(
            "shard-scoped fault quarantined the catalog shard: " +
            row.reason);
      }
      if (row.model.empty()) {
        return CheckResult::Fail(
            "shard-scoped fault quarantined an anonymous shard '" + row.id +
            "': " + row.reason);
      }
      quarantined_models.push_back(row.model);
    }

    // A quarantined model holds some successful prefix of its own records —
    // its exact content is the quarantine's business (Repair re-adopts it),
    // so its catalog line is excluded from the state comparison. Tables are
    // never routed through model shards, so everything else must match
    // exactly.
    auto strip_quarantined = [&](const std::string& in) {
      if (quarantined_models.empty()) return in;
      std::string out;
      size_t at = 0;
      while (at < in.size()) {
        size_t nl = in.find('\n', at);
        std::string line = nl == std::string::npos
                               ? in.substr(at)
                               : in.substr(at, nl - at);
        bool drop = false;
        for (const std::string& m : quarantined_models) {
          if (line.rfind("model " + m + " ", 0) == 0) {
            drop = true;
            break;
          }
        }
        if (!drop) out += line + "\n";
        if (nl == std::string::npos) break;
        at = nl + 1;
      }
      return out;
    };
    // Replays the script onto a fresh in-memory provider. Statements at
    // index <= base are replayed unconditionally — a CHECKPOINT snapshots
    // the *in-memory* state (journal failures still apply in memory), so
    // once a snapshot commits, everything before it is durable regardless of
    // how its journal append fared. Past the base only statements in
    // `include` (the ones that actually succeeded) run.
    auto replay_state = [&](int64_t base, const std::vector<bool>& include) {
      Provider p;
      auto conn = p.Connect();
      for (size_t i = 0; i < script.size(); ++i) {
        if (static_cast<int64_t>(i) > base && !include[i]) continue;
        (void)RunScriptLine(&p, conn.get(), script[i], false);
      }
      return CatalogStateString(&p);
    };

    // Splits a catalog state into its "model <name> ..." lines (returned via
    // *models, keyed by name) and everything else (tables), returned as the
    // remainder string.
    auto split_models = [](const std::string& in,
                           std::map<std::string, std::string>* models) {
      std::string rest;
      size_t at = 0;
      while (at < in.size()) {
        size_t nl = in.find('\n', at);
        std::string line = nl == std::string::npos
                               ? in.substr(at)
                               : in.substr(at, nl - at);
        if (line.rfind("model ", 0) == 0) {
          size_t tr = line.find(" trained=");
          std::string name =
              tr == std::string::npos ? line.substr(6) : line.substr(6, tr - 6);
          (*models)[name] = line;
        } else if (!line.empty()) {
          rest += line + "\n";
        }
        if (nl == std::string::npos) break;
        at = nl + 1;
      }
      return rest;
    };

    // Every model state the clean in-memory trajectory ever passed through.
    // A sick catalog shard loses a model's CREATE while the model's own
    // shard keeps journaling: journal failures still apply in memory, and a
    // healthy shard's blob rotation snapshots that in-memory state — so
    // recovery may resurrect a model the executed set never created
    // ("orphan"). Its recovered line must match a state the model actually
    // held at some point; tables and executed models still match exactly.
    std::map<std::string, std::set<std::string>> trajectory_model_lines;
    for (const std::string& ps : prefix_state) {
      std::map<std::string, std::string> m;
      split_models(ps, &m);
      for (const auto& [name, line] : m) {
        trajectory_model_lines[name].insert(line);
      }
    }
    const bool catalog_sick = path_filter == "/shard-catalog-";

    const std::string got = strip_quarantined(state);
    std::map<std::string, std::string> got_models;
    const std::string got_rest = split_models(got, &got_models);

    auto accepts = [&](const std::string& expected) {
      std::map<std::string, std::string> want_models;
      if (split_models(expected, &want_models) != got_rest) return false;
      for (const auto& [name, line] : want_models) {
        auto it = got_models.find(name);
        if (it == got_models.end() || it->second != line) return false;
      }
      for (const auto& [name, line] : got_models) {
        if (want_models.count(name)) continue;
        if (!catalog_sick) return false;  // orphans need a sick catalog
        auto traj = trajectory_model_lines.find(name);
        if (traj == trajectory_model_lines.end() || !traj->second.count(line)) {
          return false;
        }
      }
      return true;
    };

    // Candidates: exactly the statements that succeeded — or those plus the
    // first fault-only failure (only the first fired op can straddle a
    // durable append whose fsync reported the fault). Each set is also tried
    // with every attempted CHECKPOINT as a snapshot base: a checkpoint's
    // snapshot + manifest can commit (making the whole in-memory trajectory
    // durable) and the statement still report an error when a later step,
    // like rotating the sick shard's file, fails.
    std::vector<int64_t> bases = {-1};
    for (size_t i = 0; i < script.size(); ++i) {
      std::string t = script[i];
      while (!t.empty() && (t.back() == ' ' || t.back() == '\r')) t.pop_back();
      if (t == "CHECKPOINT") bases.push_back(static_cast<int64_t>(i));
    }
    std::vector<bool> with_limbo = executed_ok;
    if (limbo >= 0) with_limbo[static_cast<size_t>(limbo)] = true;
    for (int64_t base : bases) {
      if (accepts(strip_quarantined(replay_state(base, executed_ok)))) {
        return CheckResult::Pass();
      }
      if (limbo >= 0 &&
          accepts(strip_quarantined(replay_state(base, with_limbo)))) {
        return CheckResult::Pass();
      }
    }
    return CheckResult::Fail(
        "recovered state matches no per-shard successful prefix (executed " +
        std::to_string(successes) + " of " + std::to_string(script.size()) +
        ", fault at op " + std::to_string(fail_at) + " " + kind_name +
        " filter " + path_filter + ", " +
        std::to_string(quarantined_models.size()) +
        " quarantined)\n--- recovered ---\n" + got +
        "--- expected (executed set) ---\n" +
        strip_quarantined(replay_state(-1, executed_ok)));
  }

  if (state == prefix_state[successes]) return CheckResult::Pass();
  if (crashed && crashed_stmt_oracle_ok &&
      successes + 1 < prefix_state.size() &&
      state == prefix_state[successes + 1]) {
    return CheckResult::Pass();
  }
  std::string detail =
      "recovered state matches no valid statement prefix (executed " +
      std::to_string(successes) + " of " + std::to_string(script.size()) +
      ", fault at op " + std::to_string(fail_at) + " " + kind_name +
      ", crashed=" + (crashed ? "yes" : "no") +
      " crashed_stmt_oracle_ok=" + (crashed_stmt_oracle_ok ? "yes" : "no") +
      ")\n--- recovered ---\n" + state + "--- expected (prefix " +
      std::to_string(successes) + ") ---\n" + prefix_state[successes];
  if (successes + 1 < prefix_state.size()) {
    detail += "--- expected (prefix " + std::to_string(successes + 1) +
              ") ---\n" + prefix_state[successes + 1];
  }
  return CheckResult::Fail(detail);
}

// ---------------------------------------------------------------------------
// Target 3: tokenizer / parser / analyzer robustness.
// ---------------------------------------------------------------------------

namespace {

// ParseDmx's result on SQL text against a standalone ParseSql's: the same
// status code and message on failure; on success the same statement kind,
// and for a SELECT the same WHERE clause.
CheckResult SameSqlParse(const Result<DmxParseResult>& dmx,
                         const Result<rel::SqlStatement>& sql) {
  if (!dmx.ok() || !sql.ok()) {
    if (dmx.ok() || sql.ok() || dmx.status().code() != sql.status().code() ||
        dmx.status().message() != sql.status().message()) {
      return CheckResult::Fail(
          "ParseDmx and ParseSql disagree on SQL text: " +
          (dmx.ok() ? std::string("ok") : dmx.status().ToString()) + " vs " +
          (sql.ok() ? std::string("ok") : sql.status().ToString()));
    }
    return CheckResult::Pass();
  }
  if (!dmx->is_sql || !dmx->sql.has_value() || dmx->statement.has_value()) {
    return CheckResult::Fail("ParseDmx did not return SQL text as SQL");
  }
  if (dmx->sql->index() != sql->index()) {
    return CheckResult::Fail("ParseDmx and ParseSql parsed different kinds");
  }
  const auto* a = std::get_if<rel::SelectStatement>(&*dmx->sql);
  const auto* b = std::get_if<rel::SelectStatement>(&*sql);
  if (a != nullptr) {
    const std::string wa = a->where ? a->where->ToString() : "";
    const std::string wb = b->where ? b->where->ToString() : "";
    if (wa != wb) {
      return CheckResult::Fail("ParseDmx and ParseSql disagree on WHERE: " +
                               wa + " vs " + wb);
    }
  }
  return CheckResult::Pass();
}

}  // namespace

CheckResult CheckTokenizerParser(std::string_view text) {
  if (text.size() > (1u << 16)) return CheckResult::Pass();
  std::string statement(text);

  auto tokens = Tokenize(statement);
  if (!tokens.ok() && !IsCleanFailure(tokens.status().code())) {
    return CheckResult::Fail("tokenizer returned " +
                             tokens.status().ToString());
  }

  auto dmx = ParseDmx(statement);
  if (!dmx.ok() && !IsCleanFailure(dmx.status().code())) {
    return CheckResult::Fail("ParseDmx returned " + dmx.status().ToString());
  }

  auto sql = rel::ParseSql(statement);
  if (!sql.ok() && !IsCleanFailure(sql.status().code())) {
    return CheckResult::Fail("ParseSql returned " + sql.status().ToString());
  }

  // ParseDmx parses SQL text from the tokens it classified on; that single
  // parse must answer exactly as a standalone ParseSql of the same text.
  if (tokens.ok() && IsSqlCommand(*tokens)) {
    CheckResult same = SameSqlParse(dmx, sql);
    if (!same.ok) return same;
  } else if (dmx.ok() && dmx->is_sql) {
    return CheckResult::Fail("ParseDmx set is_sql on text classified as DMX");
  }

  // Context-free analysis must hold the same contract and only speak in
  // registered rule ids.
  AnalysisReport report = DmxAnalyzer().AnalyzeText(statement);
  for (const Diagnostic& diag : report.diagnostics) {
    if (!IsKnownRule(diag.rule)) {
      return CheckResult::Fail("analyzer emitted unregistered rule id '" +
                               diag.rule + "'");
    }
  }
  // Rendering diagnostics resolves spans against the source; it must be
  // robust for arbitrary byte inputs too.
  (void)report.ToString(statement);
  return CheckResult::Pass();
}

// ---------------------------------------------------------------------------
// Target 4: serving front end over raw wire bytes.
// ---------------------------------------------------------------------------

CheckResult CheckWireProtocol(std::string_view input) {
  if (input.size() > (8u << 10)) return CheckResult::Pass();
  // File-system statements are out of scope here exactly as for the
  // statement fuzzer; a framed EXPORT would litter the disk.
  if (TouchesFileSystem(input)) return CheckResult::Pass();

  // A minimal catalog, rebuilt per input so a valid framed DDL inside the
  // fuzz input cannot leak into the next run. No model training: the wire
  // fuzzer stresses framing and session handling, not the algorithms.
  Provider provider;
  {
    static const char* kSetup[] = {
        "CREATE TABLE W (Id LONG, City TEXT)",
        "INSERT INTO W VALUES (1, 'Oslo'), (2, 'Rome'), (3, 'Bern')",
    };
    auto conn = provider.Connect();
    for (const char* stmt : kSetup) {
      auto result = conn->Execute(stmt);
      if (!result.ok()) {
        std::fprintf(stderr, "wire fuzz catalog setup failed: %s\n",
                     result.status().ToString().c_str());
        std::abort();  // Harness bug, not a finding.
      }
    }
  }

  server::ServerOptions options;
  options.idle_timeout_ms = 100;   // Dead-air inputs end quickly.
  options.write_timeout_ms = 1'000;
  // The send budget is held under the pipe capacity below so a server write
  // can never block on backpressure: every response frame lands whole, and
  // a torn frame seen by the oracle is a real server-side framing bug.
  options.max_session_send_bytes = 128u << 10;
  server::DmxServer server(&provider, options);

  auto [server_end, client_end] = server::MakeLocalPipe(/*capacity=*/256u
                                                        << 10);
  std::thread session([&server, end = std::move(server_end)]() mutable {
    server.ServeConnection(std::move(end));
  });

  // Feed the hostile bytes verbatim, then half-close. A timed-out write
  // means the server already killed the session and stopped reading — fine.
  (void)client_end->Write(input, 2'000);
  client_end->ShutdownWrite();

  // Drain the response stream, validating every frame.
  std::string error;
  server::FrameReader reader(client_end.get());
  const auto read_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (error.empty()) {
    auto next = reader.Next(200);
    if (!next.ok()) {
      if (next.status().IsDeadlineExceeded()) {
        if (std::chrono::steady_clock::now() < read_deadline) continue;
        error = "server failed to finish the session within 20 s";
        break;
      }
      if (next.status().IsCorruption()) {
        error = "server emitted a torn or corrupt frame: " +
                next.status().ToString();
      }
      break;  // Transport teardown races are a clean end, not a finding.
    }
    if (!next->has_value()) break;  // Clean EOF: session over.
    const server::Frame& frame = **next;
    switch (frame.type) {
      case server::FrameType::kHelloAck: {
        auto ack = server::DecodeHelloAck(frame.body);
        if (!ack.ok()) error = "undecodable HelloAck: " +
                               ack.status().ToString();
        break;
      }
      case server::FrameType::kSchema: {
        auto schema = server::DecodeSchemaBody(frame.body);
        if (!schema.ok()) error = "undecodable Schema frame: " +
                                  schema.status().ToString();
        break;
      }
      case server::FrameType::kChunk: {
        auto chunk = server::DecodeChunk(frame.body);
        if (!chunk.ok()) error = "undecodable Chunk frame: " +
                                 chunk.status().ToString();
        break;
      }
      case server::FrameType::kDone: {
        auto done = server::DecodeDone(frame.body);
        if (!done.ok()) {
          error = "undecodable Done frame: " + done.status().ToString();
        } else if (done->ToStatus().code() == StatusCode::kInternal) {
          error = "server reported kInternal over the wire: " +
                  done->ToStatus().ToString();
        }
        break;
      }
      default:
        error = std::string("server sent a client-only frame type '") +
                static_cast<char>(frame.type) + "'";
        break;
    }
  }
  client_end->Close();
  session.join();

  server::DmxServer::Stats stats = server.stats();
  if (stats.sessions_opened != stats.sessions_closed) {
    return CheckResult::Fail("session leak: opened " +
                             std::to_string(stats.sessions_opened) +
                             ", closed " +
                             std::to_string(stats.sessions_closed));
  }
  if (!error.empty()) return CheckResult::Fail(error);
  return CheckResult::Pass();
}

// ---------------------------------------------------------------------------
// Crash escalation shared by the fuzz entry points.
// ---------------------------------------------------------------------------

void ReportFailure(const char* target, const uint8_t* data, size_t size,
                   const std::string& error) {
  // FNV-1a so the reproducer file name is stable for identical inputs.
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ULL;
  }
  char name[64];
  std::snprintf(name, sizeof(name), "crash-%s-%016lx", target,
                static_cast<unsigned long>(hash));
  std::ofstream out(name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  out.close();
  std::fprintf(stderr,
               "\n=== %s oracle failure ===\n%s\nreproducer saved to %s "
               "(%zu bytes)\n",
               target, error.c_str(), name, size);
  std::abort();
}

}  // namespace dmx::fuzz
