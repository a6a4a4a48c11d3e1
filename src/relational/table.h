// Table: a mutable, named relation in the database catalog. Values inserted
// into a table are coerced to the declared column types, mirroring how a SQL
// engine enforces its schema at the storage boundary. Each column also knows
// whether its rows arrived in order, which lets a SELECT narrow a WHERE on
// that column to a row range (sql_executor.cc).

#ifndef DMX_RELATIONAL_TABLE_H_
#define DMX_RELATIONAL_TABLE_H_

#include <cstddef>
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
      : name_(std::move(name)),
        schema_(std::move(schema)),
        in_order_(schema_->num_columns(), true) {}

  const std::string& name() const { return name_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// Validates that no column is TABLE-typed (base tables are flat).
  static Status ValidateSchema(const Schema& schema);

  /// True only when column `column` holds no NULL and its values are
  /// nondecreasing under Value::Compare, row by row; an empty table's
  /// columns are all in order. Mutations keep it in O(columns) per row: an
  /// insert clears it on a NULL or on a value below the previous row's,
  /// RetainRows keeps it (a subsequence of an ordered column is ordered)
  /// and Clear sets it again. A cleared bit stays clear when the rows that
  /// broke the order are deleted, until Clear. It is derived state only: no
  /// DDL, journal record or option names it, and recovery rebuilds it by
  /// replaying rows through the same insert paths.
  bool in_order(size_t column) const { return in_order_[column]; }

  /// Appends one row, coercing each cell to the declared column type.
  Status Insert(Row row);

  /// Appends many rows atomically: every row is size-checked and coerced
  /// before any is appended (or any in-order bit changes), so a bad row
  /// midway leaves the table untouched. Statement-level atomicity is
  /// load-bearing for durability — the WAL journals only successful
  /// statements, so a failed statement with partial effects would make crash
  /// recovery diverge from the in-memory state.
  Status InsertAll(std::vector<Row> rows);

  void Clear();

  /// Keeps the rows whose `keep` flag is set, in order, moving them down in
  /// place. `keep` holds one flag per row.
  void RetainRows(const std::vector<bool>& keep);

  /// Copies contents into an immutable rowset (cheap schema share).
  Rowset ToRowset() const { return Rowset(schema_, rows_); }

 private:
  /// Size-checks `row` and coerces each cell in place; mutates nothing else.
  Status CoerceForInsert(Row* row) const;

  /// Clears the in-order bit of each column that `row`, about to follow
  /// `prev` (null for a first row), breaks.
  void TrackOrder(const Row* prev, const Row& row);

  std::string name_;
  std::shared_ptr<const Schema> schema_;
  std::vector<Row> rows_;
  std::vector<bool> in_order_;  ///< One bit per column, see in_order().
};

}  // namespace dmx::rel

#endif  // DMX_RELATIONAL_TABLE_H_
