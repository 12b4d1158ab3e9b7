#include "exec/result_table.h"

#include <algorithm>

#include "common/check.h"
#include "exec/flat_hash.h"

namespace rox {

ResultTable ResultTable::FromColumn(std::vector<Pre> nodes) {
  ResultTable t(1);
  t.cols_[0] = std::move(nodes);
  return t;
}

void ResultTable::AppendRow(std::span<const Pre> row) {
  ROX_DCHECK(row.size() == cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) cols_[i].push_back(row[i]);
}

ResultTable ResultTable::Project(std::span<const size_t> keep) const {
  ResultTable out(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    ROX_DCHECK(keep[i] < cols_.size());
    out.cols_[i] = cols_[keep[i]];
  }
  return out;
}

ResultTable ResultTable::SelectRows(std::span<const uint32_t> rows) const {
  ResultTable out(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    out.cols_[c].reserve(rows.size());
    for (uint32_t r : rows) out.cols_[c].push_back(cols_[c][r]);
  }
  return out;
}

namespace {

// 64-bit mix (splitmix64 finalizer) for row hashing.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace

ResultTable ResultTable::DistinctRows() const {
  // Flat open-addressing row set (first-occurrence order preserved via
  // `keep`). The former per-hash bucket map (unordered_map<uint64_t,
  // vector<uint32_t>>) dominated whole-query profiles: an allocation
  // per distinct row plus a rehash cascade per assembly. Row hashes are
  // precomputed with one column-major sweep per column — the row-major
  // re-hash per probe was the second-largest cost.
  uint64_t n = NumRows();
  std::vector<uint32_t> keep;
  keep.reserve(n);
  if (n == 0) return SelectRows(keep);
  std::vector<uint64_t> hashes(n, 0x12345678ULL);
  for (const auto& col : cols_) {
    for (uint64_t r = 0; r < n; ++r) hashes[r] = Mix(hashes[r], col[r]);
  }
  constexpr uint32_t kEmptySlot = UINT32_MAX;
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<uint32_t> slots(cap, kEmptySlot);
  for (uint64_t r = 0; r < n; ++r) {
    size_t i = hashes[r] & mask;
    while (true) {
      uint32_t prev = slots[i];
      if (prev == kEmptySlot) {
        slots[i] = static_cast<uint32_t>(r);
        keep.push_back(static_cast<uint32_t>(r));
        break;
      }
      if (hashes[prev] == hashes[r]) {
        bool equal = true;
        for (const auto& col : cols_) {
          if (col[prev] != col[r]) {
            equal = false;
            break;
          }
        }
        if (equal) break;  // duplicate of an earlier row
      }
      i = (i + 1) & mask;
    }
  }
  return SelectRows(keep);
}

ResultTable ResultTable::SortRows(std::span<const size_t> key_cols) const {
  std::vector<uint32_t> order(NumRows());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k : key_cols) {
                       if (cols_[k][a] != cols_[k][b]) {
                         return cols_[k][a] < cols_[k][b];
                       }
                     }
                     return false;
                   });
  return SelectRows(order);
}

ResultTable JoinTablesWithPairs(const ResultTable& outer,
                                const JoinPairs& pairs,
                                const ResultTable& inner, size_t inner_col) {
  // CSR index of the inner join column: node -> contiguous row-id run.
  const std::vector<Pre>& icol = inner.Col(inner_col);
  ValueRuns vr = BuildValueRuns(icol.size(), [&](uint32_t r) { return icol[r]; });

  // Expand pairs into aligned (outer row, inner row) index lists.
  std::vector<uint32_t> orows, irows;
  orows.reserve(pairs.size());
  irows.reserve(pairs.size());
  for (uint64_t k = 0; k < pairs.size(); ++k) {
    const auto* run = vr.Find(pairs.right_nodes[k]);
    if (run == nullptr) continue;
    for (uint32_t j = 0; j < run->b; ++j) {
      orows.push_back(pairs.left_rows[k]);
      irows.push_back(vr.row_ids[run->a + j]);
    }
  }

  // Column-wise gather.
  ResultTable out(outer.NumCols() + inner.NumCols());
  for (size_t c = 0; c < outer.NumCols(); ++c) {
    const std::vector<Pre>& src = outer.Col(c);
    std::vector<Pre>& dst = out.MutableCol(c);
    dst.resize(orows.size());
    for (size_t k = 0; k < orows.size(); ++k) dst[k] = src[orows[k]];
  }
  for (size_t c = 0; c < inner.NumCols(); ++c) {
    const std::vector<Pre>& src = inner.Col(c);
    std::vector<Pre>& dst = out.MutableCol(outer.NumCols() + c);
    dst.resize(irows.size());
    for (size_t k = 0; k < irows.size(); ++k) dst[k] = src[irows[k]];
  }
  return out;
}

JoinPairs ExpandPairsOverColumn(const JoinPairs& pairs,
                                const std::vector<Pre>& distinct_nodes,
                                const std::vector<Pre>& column) {
  // Runs of consecutive equal left rows -> (first pair index, length),
  // keyed by the context node (distinct, so each key inserts once).
  FlatRunMap<Pre, kInvalidPre> runs;
  runs.Reset(distinct_nodes.size());
  for (uint32_t k = 0; k < pairs.size();) {
    uint32_t start = k;
    uint32_t left = pairs.left_rows[k];
    while (k < pairs.size() && pairs.left_rows[k] == left) ++k;
    auto& slot = runs.FindOrInsert(distinct_nodes[left]);
    slot.a = start;
    slot.b = k - start;
  }
  JoinPairs out;
  for (uint32_t r = 0; r < column.size(); ++r) {
    const auto* run = runs.Find(column[r]);
    if (run == nullptr) continue;
    for (uint32_t j = 0; j < run->b; ++j) {
      out.left_rows.push_back(r);
      out.right_nodes.push_back(pairs.right_nodes[run->a + j]);
    }
  }
  out.truncated = pairs.truncated;
  out.outer_consumed = column.size();
  return out;
}

ResultTable CartesianProduct(const ResultTable& a, const ResultTable& b) {
  ResultTable out(a.NumCols() + b.NumCols());
  uint64_t na = a.NumRows(), nb = b.NumRows();
  for (size_t c = 0; c < a.NumCols(); ++c) {
    std::vector<Pre>& dst = out.MutableCol(c);
    dst.reserve(na * nb);
    for (uint64_t i = 0; i < na; ++i) {
      dst.insert(dst.end(), nb, a.Col(c)[i]);
    }
  }
  for (size_t c = 0; c < b.NumCols(); ++c) {
    std::vector<Pre>& dst = out.MutableCol(a.NumCols() + c);
    dst.reserve(na * nb);
    for (uint64_t i = 0; i < na; ++i) {
      dst.insert(dst.end(), b.Col(c).begin(), b.Col(c).end());
    }
  }
  return out;
}

ResultTable ExtendTableWithPairs(const ResultTable& outer,
                                 const JoinPairs& pairs) {
  ResultTable out(outer.NumCols() + 1);
  for (size_t c = 0; c < outer.NumCols(); ++c) {
    const std::vector<Pre>& src = outer.Col(c);
    std::vector<Pre>& dst = out.MutableCol(c);
    dst.resize(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      dst[k] = src[pairs.left_rows[k]];
    }
  }
  out.MutableCol(outer.NumCols()) = pairs.right_nodes;
  return out;
}

}  // namespace rox
