// Recursive-descent parser for the SQL subset (see sql_ast.h for the
// grammar). The parser is also used as a sub-parser: the SHAPE service and
// DMX INSERT/PREDICTION JOIN statements embed `{SELECT ...}` blocks, parsed
// via ParseSelectFrom(TokenStream&).

#ifndef DMX_RELATIONAL_SQL_PARSER_H_
#define DMX_RELATIONAL_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "common/tokenizer.h"
#include "relational/sql_ast.h"

namespace dmx::rel {

/// Parses a complete SQL statement from `text`: Tokenize + ParseSqlFrom.
Result<SqlStatement> ParseSql(const std::string& text);

/// Parses a complete SQL statement from the current stream position to the
/// end: one statement, an optional `;`, then nothing. The DMX front end
/// hands it the tokens it classified the command on. `read_only_table`: see
/// ParseWriteTarget.
Result<SqlStatement> ParseSqlFrom(TokenStream* tokens,
                                  SourceSpan* read_only_table = nullptr);

/// Parses a SELECT statement starting at the current stream position (the
/// leading SELECT keyword must still be in the stream). Used by embedding
/// grammars (SHAPE, DMX).
Result<SelectStatement> ParseSelectFrom(TokenStream* tokens);

/// Parses a scalar expression (exposed for tests and embedding grammars).
Result<ExprPtr> ParseExpression(TokenStream* tokens);

/// Parses the table a write names (INSERT INTO, DELETE FROM, DROP TABLE,
/// DMX DELETE FROM). It reads the dotted forms a SELECT's FROM reads and
/// refuses them with InvalidArgument: `$system.<rowset>` and
/// `<model>.CONTENT` are read-only. On that refusal, and only then,
/// `*read_only_table` (when given) receives the span of the table's name,
/// so a caller can tell it from a syntax error.
Result<std::string> ParseWriteTarget(TokenStream* tokens,
                                     SourceSpan* read_only_table = nullptr);

}  // namespace dmx::rel

#endif  // DMX_RELATIONAL_SQL_PARSER_H_
