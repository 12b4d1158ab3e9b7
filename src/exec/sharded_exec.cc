#include "exec/sharded_exec.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace rox {

namespace {

// Accounts one real fan-out (the sequential single-lane fallbacks
// leave the stats untouched, so `fanouts` counts parallel executions
// only). Lane row counts are recorded pre-filtering, at production.
void RecordFanout(const std::vector<JoinPairs>& parts,
                  ShardFanoutStats* stats) {
  if (stats == nullptr) return;
  ++stats->fanouts;
  if (stats->shard_rows.size() < parts.size()) {
    stats->shard_rows.resize(parts.size(), 0);
  }
  stats->last_lanes = parts.size();
  stats->last_lane_rows.resize(parts.size());
  for (size_t s = 0; s < parts.size(); ++s) {
    stats->shard_rows[s] += parts[s].right_nodes.size();
    stats->last_lane_rows[s] = parts[s].right_nodes.size();
  }
}

// A single sequential lane covering the whole input.
ShardedJoinParts SingleLane(JoinPairs pairs, uint64_t outer_total) {
  ShardedJoinParts out;
  out.parts.push_back(std::move(pairs));
  out.offsets.push_back(0);
  out.outer_total = outer_total;
  return out;
}

// Shared scaffolding of the equi-join fan-outs: splits [0, n) into K
// contiguous, order-preserving chunks, runs `probe(lo, hi)` per
// non-empty chunk on the pool. The probe side of an equi-join may be
// an unsorted intermediate column, so chunking is positional rather
// than by shard node-id range.
template <typename Probe>
ShardedJoinParts ChunkedProbe(const ShardedExec& ex, size_t n,
                              const Probe& probe, ShardFanoutStats* stats) {
  size_t k = ex.shards->num_shards();
  ShardedJoinParts out;
  out.parts.resize(k);
  out.offsets.resize(k);
  out.outer_total = n;
  ParallelFor(ex.pool, k, [&](size_t s) {
    uint32_t lo = static_cast<uint32_t>(n * s / k);
    uint32_t hi = static_cast<uint32_t>(n * (s + 1) / k);
    out.offsets[s] = lo;
    if (lo < hi) out.parts[s] = probe(lo, hi);
  });
  RecordFanout(out.parts, stats);
  return out;
}

}  // namespace

JoinPairs ShardedJoinParts::Merged() && {
  if (parts.size() == 1 && offsets[0] == 0) {
    JoinPairs out = std::move(parts[0]);
    out.truncated = false;
    out.outer_consumed = outer_total;
    return out;
  }
  uint64_t total = size();
  JoinPairs out;
  out.Reserve(total);
  for (size_t s = 0; s < parts.size(); ++s) {
    JoinPairs& p = parts[s];
    uint32_t off = offsets[s];
    for (uint32_t row : p.left_rows) out.left_rows.push_back(row + off);
    out.right_nodes.insert(out.right_nodes.end(), p.right_nodes.begin(),
                           p.right_nodes.end());
  }
  out.truncated = false;
  out.outer_consumed = outer_total;
  return out;
}

ShardedJoinParts ShardedStructuralJoinParts(
    const ShardedExec* ex, DocId ctx_doc, const Document& target_doc,
    std::span<const Pre> context, const StepSpec& step,
    const ElementIndex* index, ShardFanoutStats* stats,
    const CancellationToken* cancel) {
  if (ex == nullptr || !ex->Enabled() || context.size() < 2) {
    return SingleLane(StructuralJoinPairs(target_doc, context, step, kNoLimit,
                                          index, cancel),
                      context.size());
  }
  std::vector<std::span<const Pre>> parts;
  std::vector<uint32_t> offsets;
  ex->shards->Partition(ctx_doc, context, &parts, &offsets);
  ShardedJoinParts out;
  out.parts.resize(parts.size());
  out.offsets.assign(offsets.begin(), offsets.end());
  out.outer_total = context.size();
  ParallelFor(ex->pool, parts.size(), [&](size_t s) {
    if (parts[s].empty()) return;
    out.parts[s] = StructuralJoinPairs(target_doc, parts[s], step, kNoLimit,
                                       index, cancel);
  });
  RecordFanout(out.parts, stats);
  return out;
}

ShardedJoinParts ShardedHashValueJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    std::span<const Pre> inner, ShardFanoutStats* stats,
    const CancellationToken* cancel) {
  ValueHashTable table(inner_doc, inner);
  if (ex == nullptr || !ex->Enabled() || outer.size() < 2) {
    JoinPairs pairs;
    table.ProbeInto(outer_doc, outer, pairs, cancel);
    return SingleLane(std::move(pairs), outer.size());
  }
  return ChunkedProbe(
      *ex, outer.size(),
      [&](uint32_t lo, uint32_t hi) {
        JoinPairs pairs;
        table.ProbeInto(outer_doc, outer.Sub(lo, hi - lo), pairs, cancel);
        return pairs;
      },
      stats);
}

ShardedJoinParts ShardedValueIndexJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec,
    ShardFanoutStats* stats, const CancellationToken* cancel) {
  if (ex == nullptr || !ex->Enabled() || outer.size() < 2) {
    JoinPairs pairs;
    ValueIndexJoinPairsInto(outer_doc, outer, inner_doc, inner_index, spec,
                            kNoLimit, pairs, cancel);
    return SingleLane(std::move(pairs), outer.size());
  }
  return ChunkedProbe(
      *ex, outer.size(),
      [&](uint32_t lo, uint32_t hi) {
        JoinPairs pairs;
        ValueIndexJoinPairsInto(outer_doc, outer.Sub(lo, hi - lo), inner_doc,
                                inner_index, spec, kNoLimit, pairs, cancel);
        return pairs;
      },
      stats);
}

ShardedJoinParts ShardedValueIndexThetaJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    std::span<const Pre> outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec, CmpOp op,
    ShardFanoutStats* stats, const CancellationToken* cancel) {
  if (ex == nullptr || !ex->Enabled() || outer.size() < 2) {
    return SingleLane(ValueIndexThetaJoinPairs(outer_doc, outer, inner_doc,
                                               inner_index, spec, op,
                                               kNoLimit, cancel),
                      outer.size());
  }
  return ChunkedProbe(
      *ex, outer.size(),
      [&](uint32_t lo, uint32_t hi) {
        return ValueIndexThetaJoinPairs(outer_doc,
                                        outer.subspan(lo, hi - lo),
                                        inner_doc, inner_index, spec, op,
                                        kNoLimit, cancel);
      },
      stats);
}

ShardedJoinParts ShardedSortThetaJoinParts(
    const ShardedExec* ex, const Document& outer_doc,
    std::span<const Pre> outer, const Document& inner_doc,
    std::span<const Pre> inner, CmpOp op, ShardFanoutStats* stats,
    const CancellationToken* cancel) {
  if (ex == nullptr || !ex->Enabled() || outer.size() < 2) {
    return SingleLane(SortThetaJoinPairs(outer_doc, outer, inner_doc, inner,
                                         op, kNoLimit, cancel),
                      outer.size());
  }
  ThetaRun run = ThetaRun::Build(inner_doc, inner);
  return ChunkedProbe(
      *ex, outer.size(),
      [&](uint32_t lo, uint32_t hi) {
        JoinPairs pairs;
        ThetaRunJoinPairsInto(outer_doc, outer.subspan(lo, hi - lo),
                              inner_doc, run, op, kNoLimit, pairs, cancel);
        return pairs;
      },
      stats);
}

JoinPairs ShardedStructuralJoinPairs(
    const ShardedExec* ex, DocId ctx_doc, const Document& target_doc,
    std::span<const Pre> context, const StepSpec& step,
    const ElementIndex* index, ShardFanoutStats* stats,
    const CancellationToken* cancel) {
  return ShardedStructuralJoinParts(ex, ctx_doc, target_doc, context, step,
                                    index, stats, cancel)
      .Merged();
}

JoinPairs ShardedHashValueJoinPairs(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    std::span<const Pre> inner, ShardFanoutStats* stats,
    const CancellationToken* cancel) {
  return ShardedHashValueJoinParts(ex, outer_doc, outer, inner_doc, inner,
                                   stats, cancel)
      .Merged();
}

JoinPairs ShardedValueIndexJoinPairs(
    const ShardedExec* ex, const Document& outer_doc,
    const PreColumn& outer, const Document& inner_doc,
    const ValueIndex& inner_index, const ValueProbeSpec& spec,
    ShardFanoutStats* stats, const CancellationToken* cancel) {
  return ShardedValueIndexJoinParts(ex, outer_doc, outer, inner_doc,
                                    inner_index, spec, stats, cancel)
      .Merged();
}

}  // namespace rox
