// Execution of SHAPE statements: builds hierarchical rowsets (casesets) from
// flat query results, either fully materialized or streamed case-at-a-time.
//
// The streaming reader is the paper's §3.1 consumption model: "data mining
// algorithms are designed so that they consume an entity instance at a time".
// Only one case is resident in the mining layer at any moment. Each child
// rowset is ordered on its relate key once; a case's nested table is a view
// of its parent's run of child rows, found by binary search, never a copy.

#ifndef DMX_SHAPE_SHAPE_EXECUTOR_H_
#define DMX_SHAPE_SHAPE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/rowset.h"
#include "common/status.h"
#include "relational/database.h"
#include "shape/shape_ast.h"

namespace dmx::shape {

/// Executes the SHAPE statement, returning the fully materialized
/// hierarchical rowset (master columns + one TABLE column per APPEND).
Result<Rowset> ExecuteShape(const rel::Database& db, const ShapeStatement& stmt);

/// \brief Case-at-a-time reader over a SHAPE statement.
///
/// Child rowsets are executed once and ordered by relate key; each Next()
/// emits exactly one hierarchical case whose nested tables borrow the
/// parent's run of child rows.
class ShapedCaseReader : public RowsetReader {
 public:
  /// Runs the embedded queries and orders each child rowset by relate key
  /// (skipped when it already is, as under the paper's ORDER BY).
  static Result<std::unique_ptr<ShapedCaseReader>> Create(
      const rel::Database& db, const ShapeStatement& stmt);

  const std::shared_ptr<const Schema>& schema() const override {
    return schema_;
  }

  Result<bool> Next(Row* row) override;

 private:
  struct ChildRows {
    // Ordered by child_key_columns (stable, so the child SELECT's order
    // holds within a key). Shared with every nested table emitted.
    std::shared_ptr<const std::vector<Row>> rows;
    std::shared_ptr<const Schema> nested_schema;
    std::vector<size_t> child_key_columns;
    std::vector<size_t> parent_key_columns;
  };

  ShapedCaseReader() = default;

  std::shared_ptr<const Schema> schema_;
  Rowset master_;
  std::vector<ChildRows> children_;
  size_t pos_ = 0;
};

}  // namespace dmx::shape

#endif  // DMX_SHAPE_SHAPE_EXECUTOR_H_
