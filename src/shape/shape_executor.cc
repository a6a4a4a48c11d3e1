#include "shape/shape_executor.h"

#include <algorithm>

#include "common/exec_guard.h"
#include "relational/sql_executor.h"

namespace dmx::shape {

namespace {

// Lexicographic Value::Compare of two rows' relate keys.
int CompareKeys(const Row& a, const std::vector<size_t>& a_cols, const Row& b,
                const std::vector<size_t>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    int cmp = a[a_cols[i]].Compare(b[b_cols[i]]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

// Orders child rows against a parent (passed by pointer) in equal_range.
struct RelateLess {
  const std::vector<size_t>& child_cols;
  const std::vector<size_t>& parent_cols;

  bool operator()(const Row& child, const Row* parent) const {
    return CompareKeys(child, child_cols, *parent, parent_cols) < 0;
  }
  bool operator()(const Row* parent, const Row& child) const {
    return CompareKeys(*parent, parent_cols, child, child_cols) < 0;
  }
};

}  // namespace

Result<std::unique_ptr<ShapedCaseReader>> ShapedCaseReader::Create(
    const rel::Database& db, const ShapeStatement& stmt) {
  auto reader = std::unique_ptr<ShapedCaseReader>(new ShapedCaseReader());
  DMX_ASSIGN_OR_RETURN(reader->master_, rel::ExecuteSelect(db, stmt.master));
  // The master rowset and every child rowset are resident until the caseset
  // is consumed — that is the SHAPE statement's working set.
  DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(reader->master_.num_rows()));

  std::vector<ColumnDef> out_columns = reader->master_.schema()->columns();
  for (const AppendClause& append : stmt.appends) {
    DMX_ASSIGN_OR_RETURN(Rowset rowset, rel::ExecuteSelect(db, append.child));
    ChildRows child;
    child.nested_schema = rowset.schema();
    std::vector<std::string> parent_names;
    std::vector<std::string> child_names;
    parent_names.reserve(append.relations.size());
    child_names.reserve(append.relations.size());
    for (const RelatePair& pair : append.relations) {
      parent_names.push_back(pair.parent_column);
      child_names.push_back(pair.child_column);
    }
    DMX_ASSIGN_OR_RETURN(
        child.parent_key_columns,
        reader->master_.schema()->ResolveColumns(parent_names));
    DMX_ASSIGN_OR_RETURN(child.child_key_columns,
                         rowset.schema()->ResolveColumns(child_names));
    DMX_RETURN_IF_ERROR(GuardChargeWorkingSet(rowset.num_rows()));
    // Order the child rows by relate key, keeping the child SELECT's order
    // within a key. An ORDER BY on the key (the paper's form) leaves them in
    // order already, and the check costs one pass.
    std::vector<Row> rows = std::move(rowset.mutable_rows());
    const std::vector<size_t>& key = child.child_key_columns;
    std::vector<size_t> order =
        StableOrder(rows.size(), [&](size_t a, size_t b) {
          return CompareKeys(rows[a], key, rows[b], key) < 0;
        });
    if (!order.empty()) {
      std::vector<Row> sorted;
      sorted.reserve(rows.size());
      for (size_t i : order) {
        DMX_RETURN_IF_ERROR(GuardCheck());
        sorted.push_back(std::move(rows[i]));
      }
      rows = std::move(sorted);
    }
    child.rows = std::make_shared<const std::vector<Row>>(std::move(rows));
    out_columns.emplace_back(append.name, child.nested_schema);
    reader->children_.push_back(std::move(child));
  }
  reader->schema_ = Schema::Make(std::move(out_columns));
  return reader;
}

Result<bool> ShapedCaseReader::Next(Row* row) {
  // dmx-hot-begin(shape-case-assembly)
  DMX_RETURN_IF_ERROR(GuardCheck());
  if (pos_ >= master_.num_rows()) return false;
  const Row& parent = master_.rows()[pos_++];
  // Reuse the caller's row storage: one reserve covers the parent values
  // plus one nested-table cell per APPEND.
  row->clear();
  row->reserve(parent.size() + children_.size());
  row->insert(row->end(), parent.begin(), parent.end());
  for (const ChildRows& child : children_) {
    const std::vector<Row>& rows = *child.rows;
    auto [begin, end] = std::equal_range(
        rows.begin(), rows.end(), &parent,
        RelateLess{child.child_key_columns, child.parent_key_columns});
    // The run holds the children whose key compares equal to the parent's.
    // Relating is Value::Equals, which agrees with that except that NaN
    // equals nothing: a NaN parent key relates to no child.
    for (size_t c : child.parent_key_columns) {
      if (!parent[c].Equals(parent[c])) end = begin;
    }
    row->push_back(Value::Table(std::make_shared<const NestedTable>(
        child.nested_schema, child.rows,
        static_cast<size_t>(begin - rows.begin()),
        static_cast<size_t>(end - rows.begin()))));
  }
  // dmx-hot-end(shape-case-assembly)
  return true;
}

Result<Rowset> ExecuteShape(const rel::Database& db,
                            const ShapeStatement& stmt) {
  DMX_ASSIGN_OR_RETURN(std::unique_ptr<ShapedCaseReader> reader,
                       ShapedCaseReader::Create(db, stmt));
  return reader->ReadAll();
}

}  // namespace dmx::shape
