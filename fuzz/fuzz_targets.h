// Fuzz harness: the checks behind the three fuzz targets, shared between the
// libFuzzer / standalone entry points (fuzz_*.cc) and the committed
// crash-regression replay (tests/fuzz_regression_test.cc, a plain ctest in
// the default build).
//
// Each Check* function runs one fuzz input through its oracle and returns a
// CheckResult instead of aborting, so the regression test can report a
// failure through gtest while the fuzz entry points escalate it to a crash
// the fuzzing engine records.
//
// The oracles (DESIGN.md §12):
//
//  * CheckDmxStatement — differential analyzer/executor consistency on one
//    catalog: statements the DmxAnalyzer passes must never make
//    Connection::Execute crash or return kInternal (clean semantic failures
//    like kNotFound are fine); statements the analyzer rejects must also be
//    rejected by the executor, divergences allowlisted per rule id.
//    Every SHAPE source the reader accepts must also equal the nested-loop
//    reference relate (CheckShape), and every SELECT the statement runs
//    must return over in-order tables what a full scan returns
//    (CheckOrderedScans). A statement that fails must leave every table's
//    rows and every model's PMML and case cache as they were.
//  * CheckStoreRecovery — a statement sequence under an injected I/O fault,
//    then reopen: the recovered catalog must equal the in-memory oracle
//    state after exactly the successfully-executed statement prefix.
//  * CheckTokenizerParser — raw bytes through tokenizer, both parsers and
//    the analyzer: every outcome is a well-formed non-kInternal Status (deep
//    nesting included: kInvalidArgument, never a stack overflow), and every
//    diagnostic carries a registered rule id. On text ParseDmx classifies as
//    SQL, its single parse must agree with a standalone ParseSql: the same
//    status on failure, the same statement kind and SELECT WHERE on success.

#ifndef DMX_FUZZ_FUZZ_TARGETS_H_
#define DMX_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/dmx_ast.h"
#include "shape/shape_ast.h"

namespace dmx {
class Provider;
}  // namespace dmx

namespace dmx::rel {
class Database;
}  // namespace dmx::rel

namespace dmx::fuzz {

/// Outcome of one oracle run. `ok` is also true for inputs the harness
/// chooses to skip (oversized, file-system statements); skipping is never a
/// finding.
struct CheckResult {
  bool ok = true;
  std::string error;

  static CheckResult Pass() { return {}; }
  static CheckResult Fail(std::string why) { return {false, std::move(why)}; }
};

/// \brief One allowlisted analyzer/executor divergence. An analyzer-rejected
/// statement that the executor accepts is a finding unless EVERY error rule
/// it trips appears here; each entry documents why the divergence is
/// intended (mirrored in DESIGN.md §12).
struct DivergenceRule {
  const char* rule;  ///< rules:: identifier from dmx_analyzer.h.
  const char* why;   ///< One-line justification.
};

/// Allowlist, terminated by a {nullptr, nullptr} entry.
extern const DivergenceRule kDivergenceAllowlist[];

/// True when `rule` appears in kDivergenceAllowlist.
bool IsAllowlistedDivergence(std::string_view rule);

/// Differential analyzer/executor oracle over one statement text. A
/// statement that fails must also leave every table's rows and every
/// model's PMML and cached_cases() as they were.
CheckResult CheckDmxStatement(std::string_view text);

/// The SHAPE source of an INSERT INTO or PREDICTION JOIN, or nullptr.
const shape::ShapeStatement* ShapeSourceOf(const DmxStatement& statement);

/// SHAPE oracle: when shape::ExecuteShape accepts `stmt`, its caseset must
/// equal a nested-loop relate's cell for cell, with the same value kinds and
/// NaN equal to NaN. The reference emits every master row, in the master
/// SELECT's order, followed per APPEND by a nested table of the child
/// SELECT's rows, in their order, whose relate columns all Value::Equals
/// the parent's.
CheckResult CheckShape(const rel::Database& db,
                       const shape::ShapeStatement& stmt);

/// Ordered-scan oracle: every SELECT that `text` runs (a SQL SELECT, the
/// SELECT source of an INSERT INTO or PREDICTION JOIN, each side of a SHAPE)
/// must return over `db` what it returns over a copy of `db` whose tables
/// hold their rows reversed with every column's in-order bit clear, so that
/// no scan of the copy is narrowed (rel::Table::in_order). Without TOP the
/// results must be equal as multisets. With an ORDER BY extended by every
/// column of every table they must be equal row for row. Either way an
/// error on one side must be an error of the same code on the other.
/// Aggregating SELECTs are skipped: a SUM over another row order may round
/// differently.
CheckResult CheckOrderedScans(const rel::Database& db, std::string_view text);

/// Builds the fixed fuzzing catalog on a fresh provider: tables People /
/// Pets, trained model [M], untrained model [U], trained model [W] with a
/// SUPPORT OF column — the world the grammar
/// dictionaries (dmx_grammar.cc) and the rule-coverage meta-test
/// (tests/rule_coverage_test.cc) are written against. Aborts on failure
/// (harness bug, not a finding).
void PopulateFuzzCatalog(Provider* provider);

/// Crash-recovery oracle. Input format (line-oriented text):
///   FAULT <op_index> <io|torn|nospace> [shard=<i>]
///   <statement>
///   ...
/// The fault arms after the store is opened. Without a shard token,
/// execution stops at the first statement whose outcome differs from the
/// fault-free oracle run (the "crash"), the store is reopened with a clean
/// Env, and the recovered catalog must match the oracle state after the
/// executed prefix (or prefix + 1 when the WAL append outlived the failing
/// statement).
///
/// With "shard=<i>" the fault is scoped to one shard's file (0 = the
/// catalog shard, i >= 1 = model shard m<i-1>), which stays persistently
/// sick while every other file behaves — one bad disk region under the
/// sharded WAL. Execution runs the whole script (statements on healthy
/// shards keep succeeding); recovery must reproduce exactly the statements
/// that succeeded (each shard's successful prefix, merged in execution
/// order), with models whose shard was quarantined excluded from the
/// comparison — their degraded state is the quarantine's contract.
CheckResult CheckStoreRecovery(std::string_view input);

/// Tokenizer / parser / analyzer robustness over raw bytes.
CheckResult CheckTokenizerParser(std::string_view text);

/// \brief Serving front-end robustness over raw wire bytes (DESIGN.md §13).
/// The input is fed to a DmxServer session verbatim as the client byte
/// stream (in-memory pipe, no socket). The oracle requires that the server
///   * never crashes and never hangs past its idle timeout,
///   * answers only well-formed, CRC-valid frames of the server->client
///     types (a torn or corrupt response frame is a finding),
///   * never reports kInternal in a Done frame, and
///   * never leaks the session (opened == closed after the stream ends).
/// The catalog is rebuilt per input, so a valid framed DDL statement inside
/// the fuzz input cannot leak state between runs.
CheckResult CheckWireProtocol(std::string_view input);

/// Crash escalation for the fuzz entry points: prints `error`, saves the
/// offending input as crash-<hash> in the working directory (so a standalone
/// run preserves the reproducer exactly like libFuzzer does), and aborts.
[[noreturn]] void ReportFailure(const char* target, const uint8_t* data,
                                size_t size, const std::string& error);

}  // namespace dmx::fuzz

#endif  // DMX_FUZZ_FUZZ_TARGETS_H_
