// Rowset: the universal result shape of the provider, mirroring OLE DB's
// record-oriented rowsets. Query results, schema rowsets, model content and
// prediction output are all Rowsets; a Rowset whose schema contains TABLE
// columns is a hierarchical rowset (a caseset).

#ifndef DMX_COMMON_ROWSET_H_
#define DMX_COMMON_ROWSET_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/nested_table.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace dmx {

/// \brief A materialized rowset: shared schema + owned rows.
class Rowset {
 public:
  Rowset() : schema_(Schema::Make({})) {}
  explicit Rowset(std::shared_ptr<const Schema> schema)
      : schema_(std::move(schema)) {}
  Rowset(std::shared_ptr<const Schema> schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_->num_columns(); }

  /// Appends a row after checking its arity against the schema.
  Status Append(Row row);

  /// Cell accessor with bounds assertions (debug-time).
  const Value& at(size_t row, size_t col) const { return rows_[row][col]; }

  /// Cell lookup by column name; BindError when the column is unknown.
  Result<Value> Get(size_t row, std::string_view column) const;

  /// Renders an ASCII table (column headers + rows); nested-table cells show
  /// as "#rows=<n>" unless `expand_nested`, which prints them indented.
  std::string ToString(bool expand_nested = false) const;

  /// Approximate in-memory footprint in bytes (used by the Table-1 bench).
  size_t ApproxBytes() const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Row> rows_;
};

/// The stable order of `n` items under `less`, a strict weak order over
/// item indices: empty when items 0..n-1 already are in order, otherwise the
/// permutation std::stable_sort gives. The O(n) check lets input that arrives
/// ordered, the usual case for ORDER BY and SHAPE's RELATE, skip the sort.
template <typename Less>
std::vector<size_t> StableOrder(size_t n, const Less& less) {
  size_t i = 1;
  while (i < n && !less(i, i - 1)) ++i;
  if (i >= n) return {};
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), less);
  return order;
}

/// \brief Pull-based row stream: the case-at-a-time interface of paper §3.1.
///
/// Mining services that support incremental training consume cases through a
/// reader without ever materializing the caseset.
class RowsetReader {
 public:
  virtual ~RowsetReader() = default;

  virtual const std::shared_ptr<const Schema>& schema() const = 0;

  /// Fetches the next row into `*row`. Returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;

  /// Drains the remainder of the stream into a materialized rowset.
  Result<Rowset> ReadAll();
};

/// Adapts a materialized Rowset to the reader interface.
class VectorRowsetReader : public RowsetReader {
 public:
  explicit VectorRowsetReader(Rowset rowset)
      : rowset_(std::move(rowset)) {}

  const std::shared_ptr<const Schema>& schema() const override {
    return rowset_.schema();
  }

  Result<bool> Next(Row* row) override {
    if (pos_ >= rowset_.num_rows()) return false;
    // The adapter owns the rowset and the stream is forward-only, so rows
    // move out instead of deep-copying every Value.
    *row = std::move(rowset_.mutable_rows()[pos_++]);
    return true;
  }

 private:
  Rowset rowset_;
  size_t pos_ = 0;
};

}  // namespace dmx

#endif  // DMX_COMMON_ROWSET_H_
