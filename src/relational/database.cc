#include "relational/database.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string_view>

namespace dmx::rel {

Result<Table*> Database::CreateTable(const std::string& name,
                                     std::shared_ptr<const Schema> schema) {
  if (tables_.count(name) > 0) {
    return AlreadyExists() << "table '" << name << "' already exists";
  }
  DMX_RETURN_IF_ERROR(Table::ValidateSchema(*schema));
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound() << "table '" << name << "' does not exist";
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound() << "table '" << name << "' does not exist";
  }
  return static_cast<const Table*>(it->second.get());
}

Result<const Table*> Database::ReadTable(
    const std::string& name, std::unique_ptr<Table>* built) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return static_cast<const Table*>(it->second.get());
  if (resolver_ == nullptr) {
    return NotFound() << "table '" << name << "' does not exist";
  }
  DMX_ASSIGN_OR_RETURN(*built, resolver_(name));
  return static_cast<const Table*>(built->get());
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return NotFound() << "table '" << name << "' does not exist";
  }
  return Status::OK();
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

namespace {

void WriteCsvField(const std::string& field, std::string* out) {
  // Empty strings are written quoted ("") so the reader can tell them apart
  // from NULL, which is an unquoted empty cell.
  bool needs_quotes =
      field.empty() || field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

/// One parsed cell. `quoted` distinguishes "" (empty string) from an
/// unquoted empty cell (NULL).
struct CsvField {
  std::string text;
  bool quoted = false;
};

// Streaming CSV record reader: quote state is tracked across the whole
// input, so quoted fields may contain embedded newlines (and commas and
// escaped quotes). Records end at an unquoted '\n' or EOF; unquoted '\r' is
// dropped (CRLF endings); blank lines are skipped.
std::vector<std::vector<CsvField>> ParseCsvRecords(std::string_view data) {
  std::vector<std::vector<CsvField>> records;
  std::vector<CsvField> record;
  CsvField field;
  bool in_quotes = false;
  auto end_field = [&] {
    record.push_back(std::move(field));
    field = CsvField{};
  };
  auto end_record = [&] {
    end_field();
    // A blank line parses as a single unquoted empty field: not a record.
    if (record.size() == 1 && !record[0].quoted && record[0].text.empty()) {
      record.clear();
      return;
    }
    records.push_back(std::move(record));
    record.clear();
  };
  for (size_t i = 0; i < data.size(); ++i) {
    char c = data[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < data.size() && data[i + 1] == '"') {
          field.text += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.text += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      field.quoted = true;
    } else if (c == ',') {
      end_field();
    } else if (c == '\n') {
      end_record();
    } else if (c == '\r') {
      // CR of a CRLF ending; a literal CR inside a field arrives quoted.
    } else {
      field.text += c;
    }
  }
  // Input not ending in '\n': flush the final record.
  if (!field.text.empty() || field.quoted || !record.empty()) end_record();
  return records;
}

bool ParseLong(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

std::string ToCsvString(const Schema& schema, const std::vector<Row>& rows) {
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ',';
    WriteCsvField(schema.column(c).name, &out);
  }
  out += '\n';
  for (const Row& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      if (!row[c].is_null()) WriteCsvField(row[c].ToString(), &out);
    }
    out += '\n';
  }
  return out;
}

Status SaveCsv(const Table& table, const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  return env->WriteStringToFile(path, ToCsvString(*table.schema(),
                                                  table.rows()))
      .WithContext("saving table '" + table.name() + "' to CSV");
}

Status SaveCsv(const Rowset& rowset, const std::string& path, Env* env) {
  for (const ColumnDef& col : rowset.schema()->columns()) {
    if (col.type == DataType::kTable) {
      return NotSupported() << "cannot export nested-table column '" << col.name
                            << "' to CSV";
    }
  }
  if (env == nullptr) env = Env::Default();
  return env->WriteStringToFile(path, ToCsvString(*rowset.schema(),
                                                  rowset.rows()))
      .WithContext("saving rowset to CSV");
}

Result<Rowset> ParseCsvString(const std::string& data,
                              std::shared_ptr<const Schema> schema) {
  std::vector<std::vector<CsvField>> records = ParseCsvRecords(data);
  if (records.empty()) {
    return IOError() << "CSV data is empty (no header row)";
  }
  const std::vector<CsvField>& header = records[0];
  for (size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != header.size()) {
      return IOError() << "CSV record " << r + 1 << " has "
                       << records[r].size() << " fields, header has "
                       << header.size();
    }
  }
  // An unquoted empty cell is NULL; a quoted one ("") is an empty string.
  auto is_null = [](const CsvField& cell) {
    return !cell.quoted && cell.text.empty();
  };

  if (schema == nullptr) {
    // Infer per-column types from the data.
    std::vector<ColumnDef> columns;
    columns.reserve(header.size());
    for (size_t c = 0; c < header.size(); ++c) {
      bool all_long = true;
      bool all_double = true;
      bool any_value = false;
      for (size_t r = 1; r < records.size(); ++r) {
        const CsvField& cell = records[r][c];
        if (is_null(cell)) continue;
        any_value = true;
        int64_t l;
        double d;
        if (!ParseLong(cell.text, &l)) all_long = false;
        if (!ParseDouble(cell.text, &d)) all_double = false;
        if (!all_long && !all_double) break;
      }
      DataType type = DataType::kText;
      if (any_value && all_long) {
        type = DataType::kLong;
      } else if (any_value && all_double) {
        type = DataType::kDouble;
      }
      columns.emplace_back(header[c].text, type);
    }
    schema = Schema::Make(std::move(columns));
  } else {
    if (schema->num_columns() != header.size()) {
      return IOError() << "CSV has " << header.size()
                       << " columns, expected schema has "
                       << schema->num_columns();
    }
  }

  Rowset out(schema);
  for (size_t r = 1; r < records.size(); ++r) {
    const std::vector<CsvField>& raw = records[r];
    Row row;
    row.reserve(raw.size());
    for (size_t c = 0; c < raw.size(); ++c) {
      const std::string& cell = raw[c].text;
      if (is_null(raw[c])) {
        row.push_back(Value::Null());
        continue;
      }
      switch (schema->column(c).type) {
        case DataType::kLong: {
          int64_t l;
          if (!ParseLong(cell, &l)) {
            return IOError() << "cell '" << cell << "' is not a LONG in column '"
                             << schema->column(c).name << "'";
          }
          row.push_back(Value::Long(l));
          break;
        }
        case DataType::kDouble: {
          double d;
          if (!ParseDouble(cell, &d)) {
            return IOError() << "cell '" << cell
                             << "' is not a DOUBLE in column '"
                             << schema->column(c).name << "'";
          }
          row.push_back(Value::Double(d));
          break;
        }
        case DataType::kBool:
          row.push_back(Value::Bool(EqualsCi(cell, "TRUE") || cell == "1"));
          break;
        case DataType::kText:
          row.push_back(Value::Text(cell));
          break;
        case DataType::kTable:
          return NotSupported() << "CSV cannot carry nested tables";
      }
    }
    DMX_RETURN_IF_ERROR(out.Append(std::move(row)));
  }
  return out;
}

Result<Rowset> LoadCsv(const std::string& path,
                       std::shared_ptr<const Schema> schema, Env* env) {
  if (env == nullptr) env = Env::Default();
  Result<std::string> data = env->ReadFileToString(path);
  if (!data.ok()) {
    return data.status().WithContext("loading CSV '" + path + "'");
  }
  Result<Rowset> rowset = ParseCsvString(*data, std::move(schema));
  if (!rowset.ok()) {
    return rowset.status().WithContext("loading CSV '" + path + "'");
  }
  return rowset;
}

}  // namespace dmx::rel
