#include "exec/structural_join.h"

#include <algorithm>

#include "common/check.h"
#include "exec/kernel_batch.h"

namespace rox {

namespace {

// True if the index can accelerate this step: element-kind name test on
// an axis whose result is a contiguous pre range (possibly minus a few
// exclusions).
bool IndexUsable(const StepSpec& step, const ElementIndex* index) {
  if (index == nullptr) return false;
  if (step.name == kInvalidStringId) return false;
  if (step.kind != KindTest::kElem && step.kind != KindTest::kAnyKind) {
    return false;
  }
  switch (step.axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kFollowing:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool NodeMatchesTest(const Document& doc, Pre s, const StepSpec& step) {
  if (!MatchesKind(doc.Kind(s), step.kind)) return false;
  if (step.name != kInvalidStringId && doc.Name(s) != step.name) return false;
  return true;
}

bool NodeMatchesStep(const Document& doc, Pre c, Pre s, const StepSpec& step) {
  if (!NodeMatchesTest(doc, s, step)) return false;
  NodeKind sk = doc.Kind(s);
  bool s_is_attr = sk == NodeKind::kAttr;
  switch (step.axis) {
    case Axis::kSelf:
      return s == c;
    case Axis::kChild:
      return !s_is_attr && doc.Parent(s) == c;
    case Axis::kAttribute:
      return s_is_attr && doc.Parent(s) == c;
    case Axis::kParent:
      return doc.Parent(c) == s;
    case Axis::kDescendant:
      return !s_is_attr && doc.IsAncestor(c, s);
    case Axis::kDescendantOrSelf:
      return !s_is_attr && (s == c || doc.IsAncestor(c, s));
    case Axis::kAncestor:
      return doc.IsAncestor(s, c);
    case Axis::kAncestorOrSelf:
      return s == c || doc.IsAncestor(s, c);
    case Axis::kFollowing:
      return !s_is_attr && s > c + doc.Size(c);
    case Axis::kPreceding:
      return !s_is_attr && s < c && !doc.IsAncestor(s, c);
    case Axis::kFollowingSibling:
      return !s_is_attr && doc.Parent(s) == doc.Parent(c) &&
             s > c + doc.Size(c);
    case Axis::kPrecedingSibling:
      return !s_is_attr && doc.Parent(s) == doc.Parent(c) && s < c;
  }
  return false;
}

namespace {

// Calls `sink(s)` for every node reachable from `c` via `step`, in
// document order. `sink` returns false to stop early (cut-off).
// Returns false iff the sink stopped the enumeration.
template <typename Sink>
bool EmitMatches(const Document& doc, Pre c, const StepSpec& step,
                 const ElementIndex* index, Sink&& sink) {
  auto test = [&](Pre s) { return NodeMatchesTest(doc, s, step); };
  auto is_attr = [&](Pre s) { return doc.Kind(s) == NodeKind::kAttr; };

  switch (step.axis) {
    case Axis::kSelf:
      if (test(c) && !sink(c)) return false;
      return true;

    case Axis::kAttribute: {
      Pre end = c + doc.Size(c);
      for (Pre q = c + 1; q <= end && is_attr(q); ++q) {
        if (test(q) && !sink(q)) return false;
      }
      return true;
    }

    case Axis::kChild: {
      Pre end = c + doc.Size(c);
      Pre q = c + 1;
      while (q <= end) {
        if (!is_attr(q) && test(q) && !sink(q)) return false;
        q += doc.Size(q) + 1;
      }
      return true;
    }

    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (step.axis == Axis::kDescendantOrSelf && !is_attr(c) && test(c) &&
          !sink(c)) {
        return false;
      }
      Pre end = c + doc.Size(c);
      if (IndexUsable(step, index)) {
        for (Pre s : index->RangeLookup(step.name, c, end)) {
          if (!sink(s)) return false;
        }
        return true;
      }
      for (Pre q = c + 1; q <= end; ++q) {
        if (!is_attr(q) && test(q) && !sink(q)) return false;
      }
      return true;
    }

    case Axis::kParent: {
      Pre p = doc.Parent(c);
      if (p != kInvalidPre && test(p) && !sink(p)) return false;
      return true;
    }

    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Collect bottom-up, emit in document order (top-down). The
      // stack buffer covers ordinary documents allocation-free; the
      // parser admits depths up to 65533, so chains beyond the buffer
      // spill into a growable overflow instead of being dropped.
      constexpr size_t kBufSize = 512;
      Pre buf[kBufSize];
      size_t n = 0;
      std::vector<Pre> overflow;
      Pre q = step.axis == Axis::kAncestorOrSelf ? c : doc.Parent(c);
      while (q != kInvalidPre) {
        if (test(q)) {
          if (n < kBufSize) {
            buf[n++] = q;
          } else {
            overflow.push_back(q);
          }
        }
        q = doc.Parent(q);
      }
      // Overflow holds the ancestors *above* the buffered ones, also
      // bottom-up: they come first in document order.
      for (size_t i = overflow.size(); i > 0; --i) {
        if (!sink(overflow[i - 1])) return false;
      }
      for (size_t i = n; i > 0; --i) {
        if (!sink(buf[i - 1])) return false;
      }
      return true;
    }

    case Axis::kFollowing: {
      Pre start = c + doc.Size(c);  // exclusive
      Pre last = doc.NodeCount() - 1;
      if (IndexUsable(step, index)) {
        for (Pre s : index->RangeLookup(step.name, start, last)) {
          if (!sink(s)) return false;
        }
        return true;
      }
      for (Pre q = start + 1; q <= last; ++q) {
        if (!is_attr(q) && test(q) && !sink(q)) return false;
      }
      return true;
    }

    case Axis::kPreceding: {
      if (IndexUsable(step, index)) {
        if (c == 0) return true;
        for (Pre s : index->RangeLookup(step.name, 0, c - 1)) {
          if (!doc.IsAncestor(s, c) && !sink(s)) return false;
        }
        return true;
      }
      for (Pre q = 1; q < c; ++q) {
        if (!is_attr(q) && !doc.IsAncestor(q, c) && test(q) && !sink(q)) {
          return false;
        }
      }
      return true;
    }

    case Axis::kFollowingSibling: {
      Pre p = doc.Parent(c);
      if (p == kInvalidPre) return true;
      Pre end = p + doc.Size(p);
      Pre q = c + doc.Size(c) + 1;
      while (q <= end) {
        if (!is_attr(q) && test(q) && !sink(q)) return false;
        q += doc.Size(q) + 1;
      }
      return true;
    }

    case Axis::kPrecedingSibling: {
      Pre p = doc.Parent(c);
      if (p == kInvalidPre) return true;
      Pre end = p + doc.Size(p);
      Pre q = p + 1;
      while (q <= end && q < c) {
        if (!is_attr(q) && test(q) && !sink(q)) return false;
        q += doc.Size(q) + 1;
      }
      return true;
    }
  }
  return true;
}

}  // namespace

void StructuralJoinPairsInto(const Document& doc, const PreColumn& context,
                             const StepSpec& step, uint64_t limit,
                             const ElementIndex* index, JoinPairs& out,
                             const CancellationToken* cancel) {
  // Cut-off protocol: allow up to limit+1 pairs; producing the sentinel
  // (limit+1)-th pair proves the result was truncated, otherwise the
  // result is complete and exact. The reduction factor follows the
  // paper's f = max(r.rowid) / max(c.rowid). A cancellation trip stops
  // through the same unwinding; callers re-check the token.
  out.Clear();
  out.Reserve(limit != kNoLimit ? limit + 1 : context.size());
  // Per kKernelBatchRows of context rows, one governance poll at the
  // batch boundary, then per row a bulk append of the contiguous
  // index-range match span where the axis allows it (descendant,
  // descendant-or-self, following with a usable index); every other
  // axis emits through a BatchEmitter-backed sink, which still
  // centralizes the sentinel and output-growth-poll protocols.
  BatchEmitter em(out, limit, cancel);
  const bool indexed = IndexUsable(step, index);
  const bool bulk_range =
      indexed && (step.axis == Axis::kDescendant ||
                  step.axis == Axis::kDescendantOrSelf ||
                  step.axis == Axis::kFollowing);
  for (size_t i0 = 0; i0 < context.size(); i0 += kKernelBatchRows) {
    if (i0 > 0 && StopRequested(cancel)) {
      out.truncated = true;
      out.outer_consumed = i0;
      return;
    }
    size_t bn = std::min(kKernelBatchRows, context.size() - i0);
    for (size_t b = 0; b < bn; ++b) {
      uint32_t row = static_cast<uint32_t>(i0 + b);
      Pre c = context[i0 + b];
      BatchEmitter::Stop stop = BatchEmitter::Stop::kNone;
      if (bulk_range) {
        if (step.axis == Axis::kDescendantOrSelf &&
            doc.Kind(c) != NodeKind::kAttr && NodeMatchesTest(doc, c, step)) {
          stop = em.Push(row, c);
        }
        if (stop == BatchEmitter::Stop::kNone) {
          std::span<const Pre> range =
              step.axis == Axis::kFollowing
                  ? index->RangeLookup(step.name, c + doc.Size(c),
                                       doc.NodeCount() - 1)
                  : index->RangeLookup(step.name, c, c + doc.Size(c));
          stop = em.Append(row, range);
        }
      } else {
        bool completed = EmitMatches(doc, c, step, index, [&](Pre s) {
          stop = em.Push(row, s);
          return stop == BatchEmitter::Stop::kNone;
        });
        (void)completed;  // `stop` carries the cause
      }
      if (stop != BatchEmitter::Stop::kNone) {
        StampTruncationStop(out, limit, i0 + b);
        return;
      }
    }
  }
  out.truncated = false;
  out.outer_consumed = context.size();
}

void StructuralJoinPairsInto(const Document& doc,
                             std::span<const Pre> context,
                             const StepSpec& step, uint64_t limit,
                             const ElementIndex* index, JoinPairs& out,
                             const CancellationToken* cancel) {
  StructuralJoinPairsInto(doc, PreColumn::FromSpan(context), step, limit,
                          index, out, cancel);
}

JoinPairs StructuralJoinPairs(const Document& doc,
                              std::span<const Pre> context,
                              const StepSpec& step, uint64_t limit,
                              const ElementIndex* index,
                              const CancellationToken* cancel) {
  JoinPairs out;
  StructuralJoinPairsInto(doc, context, step, limit, index, out, cancel);
  return out;
}

std::vector<Pre> StructuralJoinDistinct(const Document& doc,
                                        std::span<const Pre> context,
                                        const StepSpec& step,
                                        const ElementIndex* index) {
  std::vector<Pre> out;

  // Staircase pruning for the descendant axes: a context node whose
  // subtree lies inside an earlier context node's subtree contributes no
  // new result nodes and is skipped outright; partially re-scanned
  // regions are deduplicated by the monotonicity of document order.
  if (step.axis == Axis::kDescendant || step.axis == Axis::kDescendantOrSelf) {
    bool any = false;
    Pre covered_end = 0;  // highest subtree end seen so far (inclusive)
    for (Pre c : context) {
      Pre hi = c + doc.Size(c);
      if (any && hi <= covered_end && c > 0 &&
          step.axis == Axis::kDescendant) {
        continue;  // fully covered by a previous context subtree
      }
      EmitMatches(doc, c, step, index, [&](Pre s) -> bool {
        if (out.empty() || s > out.back()) out.push_back(s);
        return true;
      });
      if (!any || hi > covered_end) covered_end = hi;
      any = true;
    }
    return out;
  }

  // Generic fallback: emit all pairs, dedupe.
  JoinPairs pairs = StructuralJoinPairs(doc, context, step, kNoLimit, index);
  out = std::move(pairs.right_nodes);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace rox
