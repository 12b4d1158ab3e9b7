// Row-aligned, column-major tables of node identifiers.
//
// A ResultTable is a fully materialized relation: each column
// corresponds to a Join Graph vertex, each row to one combination of
// nodes satisfying all executed edges between those vertices. The
// executor keeps intermediates as ResultViews (result_view.h) and
// gathers a table once, at the plan tail, whose operators (§2.1:
// projection, distinct, document-order sort) run on ResultTables.

#ifndef ROX_EXEC_RESULT_TABLE_H_
#define ROX_EXEC_RESULT_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/flat_hash.h"
#include "exec/join_result.h"
#include "xml/node.h"

namespace rox {

// CSR grouping of a node column: node -> (offset, length) run into
// `row_ids`, the row indices grouped per node in ascending row order.
// Every pair-expansion site (table and view joins, the final assembly)
// shares this construction, so the row order they emit is identical
// (DESIGN.md §8). Backed by a flat open-addressing map
// (exec/flat_hash.h): the former std::unordered_map was the top
// profile entry of the assembly path (one node allocation per distinct
// value plus a destructor walk per rebuild).
struct ValueRuns {
  FlatRunMap<Pre, kInvalidPre> runs;  // a = offset, b = length
  std::vector<uint32_t> row_ids;

  // The (offset, length) run of `node`, or nullptr if absent.
  const FlatRunMap<Pre, kInvalidPre>::Slot* Find(Pre node) const {
    return runs.Find(node);
  }
};

// `value_at(r)` returns the node value of row r, for r in [0, n).
template <typename ValueAt>
ValueRuns BuildValueRuns(uint64_t n, ValueAt&& value_at) {
  ValueRuns out;
  out.runs.Reset(n);
  for (uint32_t r = 0; r < n; ++r) ++out.runs.FindOrInsert(value_at(r)).b;
  out.row_ids.resize(n);
  uint32_t off = 0;
  for (auto& slot : out.runs.slots()) {
    if (slot.key == kInvalidPre) continue;
    slot.a = off;
    off += slot.b;
    slot.b = 0;  // reused as the fill cursor; ends back at length
  }
  for (uint32_t r = 0; r < n; ++r) {
    auto& slot = out.runs.FindOrInsert(value_at(r));
    out.row_ids[slot.a + slot.b++] = r;
  }
  return out;
}

class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(size_t num_cols) : cols_(num_cols) {}

  // A one-column table over `nodes`.
  static ResultTable FromColumn(std::vector<Pre> nodes);

  size_t NumCols() const { return cols_.size(); }
  uint64_t NumRows() const { return cols_.empty() ? 0 : cols_[0].size(); }

  const std::vector<Pre>& Col(size_t i) const { return cols_[i]; }
  std::vector<Pre>& MutableCol(size_t i) { return cols_[i]; }

  // Appends one row; `row.size()` must equal NumCols().
  void AppendRow(std::span<const Pre> row);

  // Adds an empty column (used when a vertex joins into the component).
  size_t AddColumn() {
    cols_.emplace_back();
    return cols_.size() - 1;
  }

  // Keeps only the given columns, in the given order.
  ResultTable Project(std::span<const size_t> keep) const;

  // Keeps only the given rows, in the given order (duplicates allowed).
  ResultTable SelectRows(std::span<const uint32_t> rows) const;

  // Removes duplicate rows (hash-based); keeps first occurrence order.
  ResultTable DistinctRows() const;

  // Stable-sorts rows lexicographically by the given key columns in
  // document (pre) order — the τ numbering operator of the plan tail.
  ResultTable SortRows(std::span<const size_t> key_cols) const;

 private:
  std::vector<std::vector<Pre>> cols_;
};

// Combines `outer` and `inner` through join `pairs`, where
// pairs.left_rows index rows of `outer` and pairs.right_nodes must match
// the values of column `inner_col` of `inner`. The output has the
// columns of `outer` followed by the columns of `inner` and one row per
// (pair, matching inner row). This is the expansion step that turns a
// node-level join result into a component-level join result.
ResultTable JoinTablesWithPairs(const ResultTable& outer,
                                const JoinPairs& pairs,
                                const ResultTable& inner, size_t inner_col);

// Extends `outer` with a single new column: one output row per pair,
// copying the outer row and appending the matched node. Used when the
// edge's far vertex is not yet part of any component.
ResultTable ExtendTableWithPairs(const ResultTable& outer,
                                 const JoinPairs& pairs);

// Re-expresses `pairs` — whose left_rows index `distinct_nodes` and
// must be grouped by left row (as all pair-producing joins emit) —
// against `column`, a node column containing those nodes with
// duplicates: emits (r, s) for every column row r and pair (i, s) with
// distinct_nodes[i] == column[r]. Rows whose node produced no pairs
// are dropped (semi-join semantics). Lets an operator run once per
// distinct node and still join against a materialized component.
JoinPairs ExpandPairsOverColumn(const JoinPairs& pairs,
                                const std::vector<Pre>& distinct_nodes,
                                const std::vector<Pre>& column);

// Full cross product: |a|·|b| rows with a's columns followed by b's.
// Used to combine the results of disconnected Join Graph components
// (independent for-variables without a join predicate).
ResultTable CartesianProduct(const ResultTable& a, const ResultTable& b);

}  // namespace rox

#endif  // ROX_EXEC_RESULT_TABLE_H_
