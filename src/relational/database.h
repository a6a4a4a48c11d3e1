// Database: the catalog of base tables the provider's relational engine
// serves, plus CSV import/export (the "dump to files and mine outside"
// pipeline the paper argues against is built from these primitives so the
// benches can measure it).

#ifndef DMX_RELATIONAL_DATABASE_H_
#define DMX_RELATIONAL_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/string_util.h"
#include "relational/table.h"

namespace dmx::rel {

/// \brief Named-table catalog with case-insensitive names.
class Database {
 public:
  /// Builds, for one statement, the read-only table that a name outside the
  /// base-table map stands for; NotFound when it knows no such name.
  using Resolver =
      std::function<Result<std::unique_ptr<Table>>(const std::string& name)>;

  Database() = default;
  /// A database whose reads fall back to `resolver` for names that no base
  /// table has. The provider passes one that builds its schema rowsets and
  /// model content (core/schema_rowsets.h).
  explicit Database(Resolver resolver) : resolver_(std::move(resolver)) {}

  /// Creates an empty table. AlreadyExists when the name is taken.
  Result<Table*> CreateTable(const std::string& name,
                             std::shared_ptr<const Schema> schema);

  /// NotFound when the table does not exist.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// The table a SELECT reads as `name`: the base table, or else the one the
  /// resolver builds, which `*built` then owns. Only reads come here, so the
  /// resolver's tables are read-only: writes name tables through GetTable.
  Result<const Table*> ReadTable(const std::string& name,
                                 std::unique_ptr<Table>* built) const;

  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  /// Table names in case-insensitive sorted order.
  std::vector<std::string> ListTables() const;

 private:
  std::map<std::string, std::unique_ptr<Table>, LessCi> tables_;
  Resolver resolver_;
};

/// Renders rows as CSV text (header row, RFC-4180-style quoting) — the form
/// SaveCsv writes to disk and the durable store embeds in snapshots.
std::string ToCsvString(const Schema& schema, const std::vector<Row>& rows);

/// Writes a table to CSV through `env` (Env::Default() when null); every
/// write and the close are checked, failures return kIOError naming `path`.
Status SaveCsv(const Table& table, const std::string& path,
               Env* env = nullptr);

/// Writes an arbitrary flat rowset to CSV.
Status SaveCsv(const Rowset& rowset, const std::string& path,
               Env* env = nullptr);

/// Parses CSV text into a rowset. Quoted fields may span newlines. When
/// `schema` is null, column types are inferred per column: LONG if every
/// non-NULL cell parses as an integer, else DOUBLE if numeric, else TEXT.
/// Unquoted empty cells load as NULL; quoted empty cells ("") are empty
/// strings.
Result<Rowset> ParseCsvString(const std::string& data,
                              std::shared_ptr<const Schema> schema = nullptr);

/// Reads a CSV file into a rowset (see ParseCsvString for typing rules).
Result<Rowset> LoadCsv(const std::string& path,
                       std::shared_ptr<const Schema> schema = nullptr,
                       Env* env = nullptr);

}  // namespace dmx::rel

#endif  // DMX_RELATIONAL_DATABASE_H_
