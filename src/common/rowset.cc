#include "common/rowset.h"

#include <algorithm>
#include <sstream>

namespace dmx {

Status Rowset::Append(Row row) {
  if (row.size() != schema_->num_columns()) {
    return InvalidArgument() << "row has " << row.size() << " cells, schema has "
                             << schema_->num_columns() << " columns";
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<Value> Rowset::Get(size_t row, std::string_view column) const {
  if (row >= rows_.size()) {
    return InvalidArgument() << "row index " << row << " out of range ("
                             << rows_.size() << " rows)";
  }
  DMX_ASSIGN_OR_RETURN(size_t col, schema_->ResolveColumn(column));
  return rows_[row][col];
}

namespace {

void PrintTable(const Schema& schema, std::span<const Row> rows,
                bool expand_nested, int indent, std::ostringstream* out) {
  std::string pad(indent, ' ');
  std::vector<size_t> widths;
  std::vector<std::vector<std::string>> cells;
  widths.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    widths.push_back(schema.column(c).name.size());
  }
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  *out << pad;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) *out << " | ";
    const std::string& name = schema.column(c).name;
    *out << name << std::string(widths[c] - name.size(), ' ');
  }
  *out << '\n';
  for (size_t r = 0; r < cells.size(); ++r) {
    *out << pad;
    for (size_t c = 0; c < cells[r].size(); ++c) {
      if (c > 0) *out << " | ";
      *out << cells[r][c];
      if (c < widths.size()) *out << std::string(widths[c] - cells[r][c].size(), ' ');
    }
    *out << '\n';
    if (expand_nested) {
      for (size_t c = 0; c < rows[r].size(); ++c) {
        if (rows[r][c].is_table() && rows[r][c].table_value() != nullptr) {
          const NestedTable& nested = *rows[r][c].table_value();
          *out << pad << "  [" << schema.column(c).name << "]\n";
          PrintTable(*nested.schema(), nested.rows(), expand_nested, indent + 4, out);
        }
      }
    }
  }
}

size_t ValueBytes(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kText:
      return sizeof(Value) + v.text_value().capacity();
    case Value::Kind::kTable: {
      size_t total = sizeof(Value) + sizeof(NestedTable);
      if (v.table_value() != nullptr) {
        for (const Row& row : v.table_value()->rows()) {
          for (const Value& cell : row) total += ValueBytes(cell);
        }
      }
      return total;
    }
    default:
      return sizeof(Value);
  }
}

}  // namespace

std::string Rowset::ToString(bool expand_nested) const {
  std::ostringstream out;
  PrintTable(*schema_, rows_, expand_nested, 0, &out);
  return out.str();
}

size_t Rowset::ApproxBytes() const {
  size_t total = sizeof(Rowset);
  for (const Row& row : rows_) {
    total += sizeof(Row);
    for (const Value& cell : row) total += ValueBytes(cell);
  }
  return total;
}

Result<Rowset> RowsetReader::ReadAll() {
  Rowset out(schema());
  Row row;
  while (true) {
    DMX_ASSIGN_OR_RETURN(bool has, Next(&row));
    if (!has) break;
    DMX_RETURN_IF_ERROR(out.Append(std::move(row)));
    row = Row();
  }
  return out;
}

}  // namespace dmx
