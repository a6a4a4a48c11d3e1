// NestedTable: the immutable value of a TABLE-typed column. "For any given
// case row, the value of a TABLE type column contains the entire contents of
// the associated nested table" (paper §3.2.1 f).

#ifndef DMX_COMMON_NESTED_TABLE_H_
#define DMX_COMMON_NESTED_TABLE_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace dmx {

/// \brief An immutable (schema, rows) pair stored inside a Value.
///
/// The rows are a range of a shared, immutable row vector. A table that
/// owns its rows (wire decode, content distributions, UDF results) holds
/// the whole vector; a SHAPE case borrows its run of the child rowset, so
/// every case of a caseset views one copy of the child rows (the paper's
/// caseset is a view over the related rowsets, §3.1). A nested table keeps
/// the vector it views alive. Copying a case copies a shared_ptr, never the
/// child rows.
class NestedTable {
 public:
  /// Views rows [begin, end) of `storage`.
  NestedTable(std::shared_ptr<const Schema> schema,
              std::shared_ptr<const std::vector<Row>> storage, size_t begin,
              size_t end)
      : schema_(std::move(schema)),
        storage_(std::move(storage)),
        rows_(storage_->data() + begin, end - begin) {}

  /// A table that owns `rows`.
  static std::shared_ptr<const NestedTable> Make(
      std::shared_ptr<const Schema> schema, std::vector<Row> rows) {
    auto storage = std::make_shared<const std::vector<Row>>(std::move(rows));
    size_t n = storage->size();
    return std::make_shared<const NestedTable>(std::move(schema),
                                               std::move(storage), 0, n);
  }

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  std::span<const Row> rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  bool Equals(const NestedTable& other) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<const std::vector<Row>> storage_;
  std::span<const Row> rows_;
};

}  // namespace dmx

#endif  // DMX_COMMON_NESTED_TABLE_H_
