#include "relational/table.h"

#include <iterator>

namespace dmx::rel {

Status Table::ValidateSchema(const Schema& schema) {
  if (schema.num_columns() == 0) {
    return InvalidArgument() << "a table needs at least one column";
  }
  for (const ColumnDef& col : schema.columns()) {
    if (col.type == DataType::kTable) {
      return InvalidArgument()
             << "base table column '" << col.name
             << "' cannot be TABLE-typed; use SHAPE to build nested rowsets";
    }
  }
  return Status::OK();
}

Status Table::CoerceForInsert(Row* row) const {
  if (row->size() != schema_->num_columns()) {
    return InvalidArgument() << "INSERT into '" << name_ << "': got "
                             << row->size() << " values, expected "
                             << schema_->num_columns();
  }
  for (size_t i = 0; i < row->size(); ++i) {
    DMX_ASSIGN_OR_RETURN((*row)[i],
                         (*row)[i].CoerceTo(schema_->column(i).type));
  }
  return Status::OK();
}

void Table::TrackOrder(const Row* prev, const Row& row) {
  for (size_t c = 0; c < row.size(); ++c) {
    if (!in_order_[c]) continue;
    if (row[c].is_null() ||
        (prev != nullptr && (*prev)[c].Compare(row[c]) > 0)) {
      in_order_[c] = false;
    }
  }
}

Status Table::Insert(Row row) {
  DMX_RETURN_IF_ERROR(CoerceForInsert(&row));
  TrackOrder(rows_.empty() ? nullptr : &rows_.back(), row);
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::InsertAll(std::vector<Row> rows) {
  // Coerce every row before appending any (see the header contract: failed
  // statements must leave the table untouched).
  for (Row& row : rows) {
    DMX_RETURN_IF_ERROR(CoerceForInsert(&row));
  }
  const Row* prev = rows_.empty() ? nullptr : &rows_.back();
  for (const Row& row : rows) {
    TrackOrder(prev, row);
    prev = &row;
  }
  // A range insert grows geometrically; an exact reserve here would
  // reallocate the whole table on every single-row INSERT.
  rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  return Status::OK();
}

void Table::Clear() {
  rows_.clear();
  in_order_.assign(in_order_.size(), true);
}

void Table::RetainRows(const std::vector<bool>& keep) {
  size_t kept = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) rows_[kept] = std::move(rows_[i]);
    ++kept;
  }
  rows_.resize(kept);
}

}  // namespace dmx::rel
