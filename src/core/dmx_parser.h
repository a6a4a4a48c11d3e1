// DMX parser. Because the provider exposes ONE command pipe for both DMX and
// SQL (the OLE DB command metaphor), ParseDmx tokenizes the command once,
// classifies it on its leading tokens (IsSqlCommand), and parses it once
// from that token stream: plain SQL (CREATE TABLE, INSERT ... VALUES,
// ordinary SELECT, DROP TABLE, DELETE ... WHERE) with the relational
// parser, everything else with the DMX grammar. DELETE FROM <name> is
// genuinely ambiguous at parse time and is returned as a DMX
// DeleteFromModelStatement; the provider re-routes it to the relational
// engine when <name> turns out to be a base table.

#ifndef DMX_CORE_DMX_PARSER_H_
#define DMX_CORE_DMX_PARSER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tokenizer.h"
#include "core/dmx_ast.h"
#include "relational/sql_ast.h"

namespace dmx {

/// Outcome of classification + parse: exactly one of `statement` and `sql`
/// is set.
struct DmxParseResult {
  /// Set when the text is a DMX statement.
  std::optional<DmxStatement> statement;
  /// Set when the text is plain SQL for the relational engine.
  std::optional<rel::SqlStatement> sql;
  /// True exactly when `sql` is set.
  bool is_sql = false;
};

/// Classifies and parses one command string. A malformed SQL command fails
/// here, with the relational parser's own status. A write to a read-only
/// table fails here too; `read_only_table` then receives the table's span
/// (see rel::ParseWriteTarget).
Result<DmxParseResult> ParseDmx(const std::string& text,
                                SourceSpan* read_only_table = nullptr);

/// ParseDmx's classification of a tokenized command: true when it is plain
/// SQL (exposed for the front-end fuzz oracle).
bool IsSqlCommand(const std::vector<Token>& tokens);

/// Parses a CREATE MINING MODEL statement (exposed for tests).
Result<ModelDefinition> ParseCreateMiningModel(const std::string& text);

}  // namespace dmx

#endif  // DMX_CORE_DMX_PARSER_H_
