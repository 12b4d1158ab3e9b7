// Late-materialization views over node columns (DESIGN.md §8).
//
// ROX materializes every intermediate fully (§1.1); copying every live
// column at every edge execution and assembly join would dominate the
// run. A ResultView is the deferred form:
// each logical column is a (base column, selection vector) pair — the
// value of row r in column c is base_c[sel_c[r]] — so combining
// results appends/composes selection vectors instead of copying node
// data, and full row gather happens once, at the plan tail.
//
// Representation invariants:
//  * At most ONE level of indirection: composing a view with a new row
//    list materializes the composed selection vector immediately, so
//    At() never chases chains.
//  * Columns that shared a selection vector keep sharing after
//    composition — the per-join cost is one pass per *distinct*
//    selection vector (usually one), not one per column.
//  * A direct column (sel == nullptr) composed with a row list aliases
//    the row list itself as its selection vector, costing nothing.
//    Row lists passed to the composing operations must therefore be
//    arena-stable (allocated from or adopted into the ColumnArena).
//  * A column may be dead: the assembly marks columns no later
//    operator will read, and composition skips them — they never cost
//    another write. Reading or gathering a dead column is a
//    programming error.
//
// All base/selection storage is borrowed: from the per-query
// ColumnArena, from an EdgeState's materialized pair result, or from a
// vertex table. The owner must outlive the view; within one ROX run
// the RoxState (which owns the arena) guarantees that.

#ifndef ROX_EXEC_RESULT_VIEW_H_
#define ROX_EXEC_RESULT_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/column_arena.h"
#include "exec/join_result.h"
#include "exec/result_table.h"
#include "xml/node.h"

namespace rox {

// Materialization counters (RoxStats::gather; the \stats surface).
struct GatherStats {
  uint64_t gather_count = 0;    // column materializations performed
  uint64_t bytes_gathered = 0;  // bytes written by those gathers

  void Merge(const GatherStats& other) {
    gather_count += other.gather_count;
    bytes_gathered += other.bytes_gathered;
  }
};

class ResultView {
 public:
  struct Column {
    const Pre* base = nullptr;
    const uint32_t* sel = nullptr;  // nullptr = direct (row r -> base[r])
    bool dead = false;              // elided: no later operator reads it
  };

  ResultView() = default;
  ResultView(size_t num_cols, uint64_t num_rows)
      : cols_(num_cols), rows_(num_rows) {}

  // A view aliasing a materialized table's columns (all direct).
  // `t` must outlive the view.
  static ResultView FromTable(const ResultTable& t);

  size_t NumCols() const { return cols_.size(); }
  uint64_t NumRows() const { return rows_; }
  void set_num_rows(uint64_t n) { rows_ = n; }

  const Column& col(size_t c) const { return cols_[c]; }
  Column& col(size_t c) { return cols_[c]; }
  void AddColumn(Column c) { cols_.push_back(c); }
  bool Dead(size_t c) const { return cols_[c].dead; }

  Pre At(size_t c, uint64_t r) const {
    const Column& col = cols_[c];
    return col.sel != nullptr ? col.base[col.sel[r]] : col.base[r];
  }

  // Materializes column `c` contiguously. A direct column returns its
  // base without copying (and without counting a gather).
  std::span<const Pre> GatherColumn(size_t c, ColumnArena& arena,
                                    GatherStats* stats) const;

  // Ditto into a caller-owned vector (always writes; reuses capacity).
  void GatherColumnInto(size_t c, std::vector<Pre>& out,
                        GatherStats* stats) const;

  // Full materialization of all (live) columns.
  ResultTable Gather(GatherStats* stats) const;

  // Sorted, duplicate-free nodes of column `c` — the semi-join-reduced
  // vertex table T(v) after an edge execution.
  std::vector<Pre> DistinctColumn(size_t c) const;

 private:
  std::vector<Column> cols_;
  uint64_t rows_ = 0;
};

// Re-rows `v` through `rows` (indices into v's rows; duplicates
// allowed): output row i holds v's row rows[i]. Direct columns alias
// `rows` as their selection vector — `rows` MUST be arena-stable.
// Indexed columns compose once per distinct selection vector; columns
// sharing a selection vector keep sharing. `live`, when non-null,
// marks the columns worth keeping; the rest come out dead.
ResultView ComposeRows(const ResultView& v, std::span<const uint32_t> rows,
                       ColumnArena& arena,
                       const std::vector<bool>* live = nullptr);

// View analogue of ResultTable::SelectRows: copies `rows` into the
// arena first, so any caller-owned row list works.
ResultView SelectRowsView(const ResultView& v,
                          std::span<const uint32_t> rows, ColumnArena& arena,
                          const std::vector<bool>* live = nullptr);

// View analogue of ExtendTableWithPairs: outer's columns re-rowed
// through pairs.left_rows plus one new direct column holding
// pairs.right_nodes. Consumes the pair arrays (zero-copy adoption).
ResultView ExtendViewWithPairs(const ResultView& outer, JoinPairs&& pairs,
                               ColumnArena& arena);

// View analogue of JoinTablesWithPairs: combines `outer` and `inner`
// through join `pairs` (left_rows index outer rows, right_nodes match
// values of inner column `inner_col`), outer's columns first. The
// emitted (outer row, inner row) expansion matches JoinTablesWithPairs
// exactly, so gathered output is byte-identical. `live_outer` /
// `live_inner`, when non-null, mark the columns worth keeping (the
// assembly's dead-column elision); `inner_col` itself is always read.
ResultView JoinViewsWithPairs(const ResultView& outer, const JoinPairs& pairs,
                              const ResultView& inner, size_t inner_col,
                              ColumnArena& arena,
                              const std::vector<bool>* live_outer = nullptr,
                              const std::vector<bool>* live_inner = nullptr);

}  // namespace rox

#endif  // ROX_EXEC_RESULT_VIEW_H_
