// Table: a mutable, named relation in the database catalog. Values inserted
// into a table are coerced to the declared column types, mirroring how a SQL
// engine enforces its schema at the storage boundary.

#ifndef DMX_RELATIONAL_TABLE_H_
#define DMX_RELATIONAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rowset.h"
#include "common/schema.h"
#include "common/status.h"

namespace dmx::rel {

/// \brief Row-store table. Scalar columns only; hierarchical data lives in
/// views produced by the shaping service, never in base tables (paper §3.1:
/// "it is not necessary for the storage subsystem to support nested records").
class Table {
 public:
  Table(std::string name, std::shared_ptr<const Schema> schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// Validates that no column is TABLE-typed (base tables are flat).
  static Status ValidateSchema(const Schema& schema);

  /// Appends one row, coercing each cell to the declared column type.
  Status Insert(Row row);

  /// Appends many rows atomically: every row is size-checked and coerced
  /// before any is appended, so a bad row midway leaves the table untouched.
  /// Statement-level atomicity is load-bearing for durability — the WAL
  /// journals only successful statements, so a failed statement with partial
  /// effects would make crash recovery diverge from the in-memory state.
  Status InsertAll(std::vector<Row> rows);

  void Clear() { rows_.clear(); }

  /// Keeps the rows whose `keep` flag is set, in order, moving them down in
  /// place. `keep` holds one flag per row.
  void RetainRows(const std::vector<bool>& keep);

  /// Copies contents into an immutable rowset (cheap schema share).
  Rowset ToRowset() const { return Rowset(schema_, rows_); }

 private:
  /// Size-checks `row` and coerces each cell in place; mutates nothing else.
  Status CoerceForInsert(Row* row) const;

  std::string name_;
  std::shared_ptr<const Schema> schema_;
  std::vector<Row> rows_;
};

}  // namespace dmx::rel

#endif  // DMX_RELATIONAL_TABLE_H_
