// Shared machinery of the batched join kernels (DESIGN.md §14).
//
// The kernels emit whole match spans per outer row — index runs,
// hash-table payload groups, range-join prefixes/suffixes — instead of
// sinking one pair at a time. BatchEmitter centralizes the two
// protocols every emission must honor regardless of granularity: the
// limit+1 sentinel cut-off (§2.3) and the amortized output-growth
// cancellation poll (DESIGN.md §13). For any limit, a kernel's output
// is therefore the first `limit` pairs of its unlimited output.

#ifndef ROX_EXEC_KERNEL_BATCH_H_
#define ROX_EXEC_KERNEL_BATCH_H_

#include <cstddef>
#include <iterator>
#include <span>

#include "engine/governor.h"
#include "exec/join_result.h"
#include "index/value_index.h"
#include "xml/node.h"

namespace rox {

// Batch width of the join kernels: small enough that the
// per-batch value arrays (ids + doubles + row bookkeeping) stay in L1,
// large enough to amortize the per-batch governance poll.
inline constexpr size_t kKernelBatchRows = 1024;

// Below this many entries Append's bulk vector::insert (libstdc++
// routes it through the general mid-insert path, not push_back's
// append fast path) costs more than a plain push loop, so short match
// spans — probe workloads with near-unique keys emit 1-2 pairs per
// row — use the push loop. Above it, the contiguous-span insert is a
// memcpy and wins.
inline constexpr size_t kBulkAppendMinRows = 16;

// Selection-vector-aware outer input: row i is base[sel[i]], or
// base[i] when `sel` is null (a plain contiguous span). Lets a
// ResultView column feed a probe kernel directly, without gathering
// into a temporary first (DESIGN.md §14); both referenced arrays are
// borrowed and must outlive the call.
struct PreColumn {
  const Pre* base = nullptr;
  const uint32_t* sel = nullptr;
  size_t n = 0;

  size_t size() const { return n; }
  bool empty() const { return n == 0; }
  Pre operator[](size_t i) const {
    return sel != nullptr ? base[sel[i]] : base[i];
  }

  // The rows [off, off+len) as a PreColumn (positional, like
  // span::subspan — the chunked fan-outs cut lanes with this).
  PreColumn Sub(size_t off, size_t len) const {
    return sel != nullptr ? PreColumn{base, sel + off, len}
                          : PreColumn{base + off, nullptr, len};
  }

  static PreColumn FromSpan(std::span<const Pre> s) {
    return {s.data(), nullptr, s.size()};
  }
};

// Emission state of one kernel run over a reused JoinPairs.
class BatchEmitter {
 public:
  enum class Stop {
    kNone,
    kLimit,   // sentinel produced: finish via StampTruncationStop
    kCancel,  // governance trip: ditto (partial row discarded there)
  };

  BatchEmitter(JoinPairs& out, uint64_t limit,
               const CancellationToken* cancel)
      : out_(out), limit_(limit), cancel_(cancel) {}

  // Bulk-appends `nodes` as the matches of outer row `row`, stopping
  // at the sentinel: on a kLimit stop exactly limit+1 pairs are
  // present and the caller finishes through StampTruncationStop.
  Stop Append(uint32_t row, std::span<const Pre> nodes) {
    size_t take = Take(nodes.size());
    if (take < kBulkAppendMinRows) {
      for (size_t k = 0; k < take; ++k) {
        out_.left_rows.push_back(row);
        out_.right_nodes.push_back(nodes[k]);
      }
    } else {
      out_.left_rows.insert(out_.left_rows.end(), take, row);
      out_.right_nodes.insert(out_.right_nodes.end(), nodes.begin(),
                              nodes.begin() + take);
    }
    if (limit_ != kNoLimit && out_.right_nodes.size() > limit_) {
      return Stop::kLimit;
    }
    return PollIfDue();
  }

  // Ditto over the node components of a sorted numeric run slice
  // [begin, end). The strided 16-byte source can't memcpy, so this is
  // always the push loop — still batch-fast, because the limit and
  // governance checks run once per call, not once per pair.
  Stop AppendRun(uint32_t row, std::span<const ValueIndex::NumEntry> run,
                 size_t begin, size_t end) {
    size_t take = Take(end - begin);
    const ValueIndex::NumEntry* src = run.data() + begin;
    for (size_t k = 0; k < take; ++k) {
      out_.left_rows.push_back(row);
      out_.right_nodes.push_back(src[k].pre);
    }
    if (limit_ != kNoLimit && out_.right_nodes.size() > limit_) {
      return Stop::kLimit;
    }
    return PollIfDue();
  }

  // Appends a single pair (the filtered per-entry emission loops).
  Stop Push(uint32_t row, Pre s) {
    out_.left_rows.push_back(row);
    out_.right_nodes.push_back(s);
    if (limit_ != kNoLimit && out_.right_nodes.size() > limit_) {
      return Stop::kLimit;
    }
    if (out_.right_nodes.size() < next_poll_) return Stop::kNone;
    return PollIfDue();
  }

 private:
  // Entries that still fit under the sentinel capacity limit+1.
  size_t Take(size_t want) const {
    if (limit_ == kNoLimit) return want;
    size_t room = static_cast<size_t>(limit_) + 1 - out_.right_nodes.size();
    return want < room ? want : room;
  }

  // Amortized governance poll on output growth: once per
  // kCancelCheckRows produced pairs, crossing-based so bulk appends of
  // any size poll at the same cadence as single-pair pushes. The first
  // poll waits a full interval (DESIGN.md §13).
  Stop PollIfDue() {
    if (out_.right_nodes.size() < next_poll_) return Stop::kNone;
    next_poll_ =
        (out_.right_nodes.size() / kCancelCheckRows + 1) * kCancelCheckRows;
    return StopRequested(cancel_) ? Stop::kCancel : Stop::kNone;
  }

  JoinPairs& out_;
  uint64_t limit_;
  const CancellationToken* cancel_;
  uint64_t next_poll_ = kCancelCheckRows;
};

}  // namespace rox

#endif  // ROX_EXEC_KERNEL_BATCH_H_
