// Kernel-level truncation-invariant suite (DESIGN.md §14): every
// pair-producing join kernel is driven through {clean finish, limit
// trip, cancellation trip}, asserting:
//
//  * the clean run equals a nested-loop oracle of the kernel's
//    semantics — the same pair multiset for every outer row — and
//    keeps left_rows grouped (non-decreasing);
//  * truncated and outer_consumed are mutually consistent
//    (!truncated => outer_consumed == outer.size());
//  * outer_consumed <= outer.size();
//  * every emitted pair references a row < outer_consumed;
//  * a limit trip (the sentinel) leaves exactly the first `limit` pairs
//    of the clean run and counts the tripping row as consumed;
//  * a cancellation trip keeps only whole rows.
//
// Plus regression cases for the pre-§14 accounting bugs: limit trips
// under-reported outer_consumed when match-less rows preceded the
// tripping row, and MergeValueJoinPairs left outer_consumed stale on
// two of its exit paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/governor.h"
#include "exec/join_result.h"
#include "exec/kernel_batch.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"
#include "tests/reference_eval.h"

namespace rox {
namespace {

// Outer inputs larger than kCancelCheckRows (and fan-outs producing
// > kCancelCheckRows pairs), so a pre-tripped token is guaranteed to
// stop every kernel mid-run through at least one poll.
constexpr size_t kRows = 5000;
constexpr size_t kMod = 8;   // distinct join values
constexpr size_t kDup = 3;   // inner text nodes per value

std::vector<Pre> TextNodes(const Document& doc) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == NodeKind::kText) out.push_back(p);
  }
  return out;
}

// Left document: kRows <k>i%kMod</k>. Right document: per value, kDup
// <e>v</e> text nodes and one <a v="v"/> attribute — so every outer
// row equi-matches exactly kDup text nodes and exactly 1 attribute.
struct ValueFixture {
  Corpus corpus;
  DocId left = 0, right = 0;
  std::vector<Pre> outer;        // left text nodes, one per row
  std::vector<Pre> inner_texts;  // right text nodes
};

const ValueFixture& VF() {
  static const ValueFixture* f = [] {
    auto* v = new ValueFixture;
    std::string lxml = "<l>";
    for (size_t i = 0; i < kRows; ++i) {
      lxml += "<k>" + std::to_string(i % kMod) + "</k>";
    }
    lxml += "</l>";
    std::string rxml = "<r>";
    for (size_t j = 0; j < kMod; ++j) {
      for (size_t d = 0; d < kDup; ++d) {
        rxml += "<e>" + std::to_string(j) + "</e>";
      }
      rxml += "<a v=\"" + std::to_string(j) + "\"/>";
    }
    rxml += "</r>";
    auto l = v->corpus.AddXml(lxml, "left");
    auto r = v->corpus.AddXml(rxml, "right");
    ROX_CHECK(l.ok() && r.ok());
    v->left = *l;
    v->right = *r;
    v->outer = TextNodes(v->corpus.doc(v->left));
    v->inner_texts = TextNodes(v->corpus.doc(v->right));
    ROX_CHECK(v->outer.size() == kRows);
    return v;
  }();
  return *f;
}

// kRows <p><x/><x/></p> rows: descendant::x / child::x emit exactly 2
// pairs per context row.
struct StructFixture {
  Corpus corpus;
  DocId id = 0;
  std::vector<Pre> context;  // the <p> elements
};

const StructFixture& SF() {
  static const StructFixture* f = [] {
    auto* v = new StructFixture;
    std::string xml = "<s>";
    for (size_t i = 0; i < kRows; ++i) xml += "<p><x/><x/></p>";
    xml += "</s>";
    auto id = v->corpus.AddXml(xml, "struct");
    ROX_CHECK(id.ok());
    v->id = *id;
    auto span = v->corpus.element_index(v->id).Lookup(v->corpus.Find("p"));
    v->context.assign(span.begin(), span.end());
    ROX_CHECK(v->context.size() == kRows);
    return v;
  }();
  return *f;
}

void CheckInvariants(const JoinPairs& p, size_t outer_n) {
  ASSERT_EQ(p.left_rows.size(), p.right_nodes.size());
  EXPECT_LE(p.outer_consumed, outer_n);
  if (!p.truncated) {
    EXPECT_EQ(p.outer_consumed, outer_n);
  }
  for (size_t k = 0; k < p.left_rows.size(); ++k) {
    ASSERT_LT(p.left_rows[k], p.outer_consumed) << "pair " << k;
    if (k > 0) {
      ASSERT_LE(p.left_rows[k - 1], p.left_rows[k]) << "pair " << k;
    }
  }
}

void ExpectIdentical(const JoinPairs& a, const JoinPairs& b,
                     const char* what) {
  EXPECT_EQ(a.left_rows, b.left_rows) << what;
  EXPECT_EQ(a.right_nodes, b.right_nodes) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.outer_consumed, b.outer_consumed) << what;
}

// Expected matches of every outer row, in any order within a row.
using RowMatches = std::vector<std::vector<Pre>>;

// The kernel output regrouped per outer row, each row's nodes sorted.
RowMatches ByRow(const JoinPairs& p, size_t outer_n) {
  RowMatches out(outer_n);
  for (size_t k = 0; k < p.size(); ++k) {
    out[p.left_rows[k]].push_back(p.right_nodes[k]);
  }
  for (std::vector<Pre>& row : out) std::sort(row.begin(), row.end());
  return out;
}

// --- nested-loop oracles ----------------------------------------------------

// Structural: every node of `window(c)` that NodeMatchesStep accepts.
template <typename Window>
RowMatches StructuralOracle(const Document& doc, std::span<const Pre> context,
                            const StepSpec& step, const Window& window) {
  RowMatches out(context.size());
  for (size_t i = 0; i < context.size(); ++i) {
    auto [lo, hi] = window(context[i]);
    for (Pre s = lo; s <= hi; ++s) {
      if (NodeMatchesStep(doc, context[i], s, step)) out[i].push_back(s);
    }
  }
  return out;
}

// Downward axes reach only the context's own pre/size window.
auto SubtreeWindow(const Document& doc) {
  return [&doc](Pre c) { return std::make_pair(c, c + doc.Size(c)); };
}

// Value joins: every inner candidate whose value compares true against
// the outer row's text value, by the reference evaluator's rule.
RowMatches ValueOracle(const Document& outer_doc, std::span<const Pre> outer,
                       const Document& inner_doc,
                       std::span<const Pre> candidates, CmpOp op) {
  RowMatches out(outer.size());
  for (size_t i = 0; i < outer.size(); ++i) {
    std::string_view v = outer_doc.ValueStr(outer[i]);
    for (Pre s : candidates) {
      if (reference::CompareValues(v, op, inner_doc.ValueStr(s))) {
        out[i].push_back(s);
      }
    }
    std::sort(out[i].begin(), out[i].end());
  }
  return out;
}

// The nodes of `doc` of `kind`, optionally restricted to name `name`.
std::vector<Pre> NodesOf(const Document& doc, NodeKind kind,
                         std::string_view name = {}) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == kind && (name.empty() || doc.NameStr(p) == name)) {
      out.push_back(p);
    }
  }
  return out;
}

using Kernel =
    std::function<JoinPairs(uint64_t limit, const CancellationToken*)>;

// The full case matrix for one kernel. `expected` is the oracle's
// per-row matches. `pairs_per_row` > 0 asserts the sharp cancellation
// identity size == outer_consumed * pairs_per_row for uniform-fanout
// inputs — which fails if a tripped run keeps a partially-emitted row
// or counts it as consumed. `has_limit` is false for the
// full-execution kernels that take no cut-off (hash, merge).
void RunKernelMatrix(const Kernel& run, const RowMatches& expected,
                     size_t pairs_per_row, bool has_limit, const char* what) {
  SCOPED_TRACE(what);
  const size_t outer_n = expected.size();
  JoinPairs clean = run(kNoLimit, nullptr);
  CheckInvariants(clean, outer_n);
  EXPECT_FALSE(clean.truncated);
  EXPECT_EQ(ByRow(clean, outer_n), expected);
  const uint64_t total = clean.size();
  EXPECT_GT(total, 0u);
  if (pairs_per_row > 0) {
    EXPECT_EQ(total, outer_n * pairs_per_row);
  }

  if (has_limit) {
    // Limit trips (and limits the result fits under): the first
    // `limit` pairs of the clean run.
    for (uint64_t limit : {uint64_t{1}, uint64_t{7}, uint64_t{64},
                           uint64_t{1000}, total, total + 10}) {
      SCOPED_TRACE("limit=" + std::to_string(limit));
      JoinPairs v = run(limit, nullptr);
      CheckInvariants(v, outer_n);
      EXPECT_EQ(v.truncated, limit < total);
      if (!v.truncated) {
        ExpectIdentical(v, clean, "limit above the result");
        continue;
      }
      ASSERT_EQ(v.size(), limit);
      EXPECT_TRUE(std::equal(v.left_rows.begin(), v.left_rows.end(),
                             clean.left_rows.begin()));
      EXPECT_TRUE(std::equal(v.right_nodes.begin(), v.right_nodes.end(),
                             clean.right_nodes.begin()));
      // The sentinel was the clean run's pair #limit: its row counts.
      EXPECT_EQ(v.outer_consumed, clean.left_rows[limit] + 1u);
    }
  }

  // Cancellation trips: a pre-tripped token stops through the same
  // truncation protocol, keeping only whole rows.
  CancellationToken tok;
  tok.Cancel();
  JoinPairs c = run(kNoLimit, &tok);
  CheckInvariants(c, outer_n);
  if (total > kCancelCheckRows) {
    EXPECT_TRUE(c.truncated);
  }
  if (c.truncated && pairs_per_row > 0) {
    EXPECT_EQ(c.size(), c.outer_consumed * pairs_per_row);
  }
}

// --- the kernel matrix ------------------------------------------------------

TEST(KernelInvariantTest, StructuralDescendantIndexed) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Descendant(sf.corpus.Find("x"));
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      StructuralOracle(doc, sf.context, step, SubtreeWindow(doc)), 2, true,
      "descendant::x (bulk index range)");
}

TEST(KernelInvariantTest, StructuralChildSink) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Child(sf.corpus.Find("x"));
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      StructuralOracle(doc, sf.context, step, SubtreeWindow(doc)), 2, true,
      "child::x (per-match sink)");
}

TEST(KernelInvariantTest, StructuralDescendantOrSelfEmitsSelf) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  // Context nodes match the name test themselves and contain no other
  // <p>: exactly the self pair per row, through the bulk path's
  // self-emission.
  StepSpec step{Axis::kDescendantOrSelf, KindTest::kElem,
                sf.corpus.Find("p")};
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      StructuralOracle(doc, sf.context, step, SubtreeWindow(doc)), 1, true,
      "descendant-or-self::p (self pairs)");
}

TEST(KernelInvariantTest, StructuralFollowingLimitAndCancel) {
  // following::x explodes quadratically (~2 * kRows pairs from row 0
  // alone), so the bulk suffix-range path is exercised under limits and
  // cancellation only — never to completion. Row 0 alone yields more
  // than the largest limit, so its whole-document scan is the oracle.
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step{Axis::kFollowing, KindTest::kElem, sf.corpus.Find("x")};
  std::span<const Pre> row0(sf.context.data(), 1);
  std::vector<Pre> row0_matches = StructuralOracle(
      doc, row0, step, [&](Pre) {
        return std::make_pair(Pre{0}, doc.NodeCount() - 1);
      })[0];
  for (uint64_t limit : {uint64_t{1}, uint64_t{1000}}) {
    ASSERT_GT(row0_matches.size(), limit);
    JoinPairs v = StructuralJoinPairs(doc, sf.context, step, limit, idx);
    CheckInvariants(v, sf.context.size());
    EXPECT_TRUE(v.truncated);
    EXPECT_EQ(v.size(), limit);
    EXPECT_EQ(v.outer_consumed, 1u);
    EXPECT_EQ(v.right_nodes, std::vector<Pre>(row0_matches.begin(),
                                              row0_matches.begin() + limit));
  }
  CancellationToken tok;
  tok.Cancel();
  JoinPairs c = StructuralJoinPairs(doc, sf.context, step, kNoLimit, idx,
                                    &tok);
  CheckInvariants(c, sf.context.size());
  EXPECT_TRUE(c.truncated);
}

TEST(KernelInvariantTest, ValueIndexEquiText) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        JoinPairs out;
        ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc,
                                vidx, ValueProbeSpec::Text(), limit, out, c);
        return out;
      },
      ValueOracle(ldoc, vf.outer, rdoc, NodesOf(rdoc, NodeKind::kText),
                  CmpOp::kEq),
      kDup, true, "index-nl equi, text spec");
}

TEST(KernelInvariantTest, ValueIndexEquiAttr) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  ValueProbeSpec spec = ValueProbeSpec::Attr(vf.corpus.Find("v"));
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        JoinPairs out;
        ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc,
                                vidx, spec, limit, out, c);
        return out;
      },
      ValueOracle(ldoc, vf.outer, rdoc, NodesOf(rdoc, NodeKind::kAttr, "v"),
                  CmpOp::kEq),
      1, true, "index-nl equi, attr spec");
}

constexpr CmpOp kThetaOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kNe};

TEST(KernelInvariantTest, ValueIndexTheta) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  for (CmpOp op : kThetaOps) {
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return ValueIndexThetaJoinPairs(ldoc, vf.outer, rdoc, vidx,
                                          ValueProbeSpec::Text(), op, limit,
                                          c);
        },
        ValueOracle(ldoc, vf.outer, rdoc, NodesOf(rdoc, NodeKind::kText), op),
        0, true, (std::string("index theta op ") + CmpOpName(op)).c_str());
  }
}

TEST(KernelInvariantTest, SortTheta) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  for (CmpOp op : kThetaOps) {
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return SortThetaJoinPairs(ldoc, vf.outer, rdoc, vf.inner_texts, op,
                                    limit, c);
        },
        ValueOracle(ldoc, vf.outer, rdoc, vf.inner_texts, op), 0, true,
        (std::string("sort theta op ") + CmpOpName(op)).c_str());
  }
}

TEST(KernelInvariantTest, HashProbe) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return HashValueJoinPairs(ldoc, vf.outer, rdoc, vf.inner_texts, c);
      },
      ValueOracle(ldoc, vf.outer, rdoc, vf.inner_texts, CmpOp::kEq), kDup,
      /*has_limit=*/false, "hash equi probe");
}

TEST(KernelInvariantTest, Merge) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  std::vector<Pre> os = SortByValueId(ldoc, vf.outer);
  std::vector<Pre> is = SortByValueId(rdoc, vf.inner_texts);
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return MergeValueJoinPairs(ldoc, os, rdoc, is, c);
      },
      ValueOracle(ldoc, os, rdoc, is, CmpOp::kEq), kDup, /*has_limit=*/false,
      "merge equi join");
}

// --- regression cases for the pre-fix accounting ----------------------------

// A limit trip must count every row up to and including the tripping
// one, even when rows before it matched nothing and none of the
// tripping row's pairs survive the sentinel pop. The former accounting
// derived outer_consumed from left_rows.back() and reported 1 here,
// skewing the reduction factor (and the |r|/f extrapolation) by 6x.
TEST(KernelInvariantTest, EquiLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml(
      "<l><k>a</k><k>z0</k><k>z1</k><k>z2</k><k>z3</k><k>a</k></l>", "l");
  auto r = c.AddXml("<r><e>a</e><e>a</e><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  std::vector<Pre> outer = TextNodes(ldoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs out;
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(outer), c.doc(*r),
                          c.value_index(*r), ValueProbeSpec::Text(),
                          /*limit=*/3, out);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.size(), 3u);  // all from row 0; row 5's pair was the sentinel
  EXPECT_EQ(out.outer_consumed, 6u);
  CheckInvariants(out, outer.size());
}

// Same shape through the theta probe loop: non-numeric rows between the
// emitting row and the tripping row must still count as consumed.
TEST(KernelInvariantTest, ThetaLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml("<l><k>5</k><k>x</k><k>x</k><k>x</k><k>x</k><k>5</k></l>",
                    "l");
  auto r = c.AddXml("<r><e>10</e><e>20</e><e>30</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  std::vector<Pre> outer = TextNodes(ldoc);
  std::vector<Pre> inner = TextNodes(rdoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs idx = ValueIndexThetaJoinPairs(
      ldoc, outer, rdoc, c.value_index(*r), ValueProbeSpec::Text(),
      CmpOp::kLt, /*limit=*/3);
  EXPECT_TRUE(idx.truncated);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.outer_consumed, 6u);
  CheckInvariants(idx, outer.size());

  JoinPairs sorted = SortThetaJoinPairs(ldoc, outer, rdoc, inner, CmpOp::kLt,
                                        /*limit=*/3);
  ExpectIdentical(idx, sorted, "index vs sort theta");
}

// MergeValueJoinPairs formerly returned from its group cross-product
// loop without setting outer_consumed (leaving 0 with thousands of
// pairs emitted), and stamped truncated without adjusting
// outer_consumed on the loop-head trip.
TEST(KernelInvariantTest, MergeCancellationKeepsPairsWithinConsumedPrefix) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  std::vector<Pre> os = SortByValueId(ldoc, vf.outer);
  std::vector<Pre> is = SortByValueId(rdoc, vf.inner_texts);
  CancellationToken tok;
  tok.Cancel();
  JoinPairs p = MergeValueJoinPairs(ldoc, os, rdoc, is, &tok);
  EXPECT_TRUE(p.truncated);
  EXPECT_GT(p.outer_consumed, 0u);
  EXPECT_LT(p.outer_consumed, os.size());
  // Every sorted row matches exactly kDup inner nodes, so a correct
  // stop leaves exactly the consumed prefix's pairs.
  EXPECT_EQ(p.size(), p.outer_consumed * kDup);
  CheckInvariants(p, os.size());
}

// The merge's value-less-tail early exit is a clean finish: value-less
// rows never join, so every outer row counts as consumed.
TEST(KernelInvariantTest, MergeValuelessTailCountsAsConsumed) {
  Corpus c;
  auto l = c.AddXml("<l><k>a</k><k>a</k><k/><k/></l>", "l");
  auto r = c.AddXml("<r><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  auto kspan = c.element_index(*l).Lookup(c.Find("k"));
  std::vector<Pre> outer(kspan.begin(), kspan.end());
  ASSERT_EQ(outer.size(), 4u);
  std::vector<Pre> os = SortByValueId(ldoc, outer);
  std::vector<Pre> is = SortByValueId(rdoc, TextNodes(rdoc));
  JoinPairs merged = MergeValueJoinPairs(ldoc, os, rdoc, is);
  EXPECT_EQ(merged.left_rows, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(merged.right_nodes, (std::vector<Pre>{is[0], is[0]}));
  EXPECT_FALSE(merged.truncated);
  EXPECT_EQ(merged.outer_consumed, 4u);
}

// --- selection-vector entry points ------------------------------------------

// A PreColumn with a selection vector must produce exactly what the
// gathered copy of the same rows produces.
TEST(KernelInvariantTest, PreColumnSelectionMatchesGather) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 3) sel.push_back(i);
  PreColumn col{vf.outer.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  gathered.reserve(sel.size());
  for (uint32_t s : sel) gathered.push_back(vf.outer[s]);

  ValueHashTable table(rdoc, vf.inner_texts);
  for (uint64_t limit : {kNoLimit, uint64_t{100}}) {
    JoinPairs a, b;
    ValueIndexJoinPairsInto(ldoc, col, rdoc, vidx, ValueProbeSpec::Text(),
                            limit, a);
    ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(gathered), rdoc, vidx,
                            ValueProbeSpec::Text(), limit, b);
    ExpectIdentical(a, b, "equi precolumn");
    CheckInvariants(a, sel.size());
  }
  JoinPairs a, b;
  table.ProbeInto(ldoc, col, a);
  table.ProbeInto(ldoc, std::span<const Pre>(gathered), b);
  ExpectIdentical(a, b, "hash precolumn");
}

TEST(KernelInvariantTest, StructuralPreColumnMatchesGather) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Descendant(sf.corpus.Find("x"));
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 7) sel.push_back(i);
  PreColumn col{sf.context.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  for (uint32_t s : sel) gathered.push_back(sf.context[s]);
  for (uint64_t limit : {kNoLimit, uint64_t{33}}) {
    JoinPairs a, b;
    StructuralJoinPairsInto(doc, col, step, limit, idx, a);
    StructuralJoinPairsInto(doc, std::span<const Pre>(gathered), step, limit,
                            idx, b);
    ExpectIdentical(a, b, "structural precolumn");
    CheckInvariants(a, sel.size());
  }
}

// The *Into variants clear a reused (dirty, previously truncated)
// buffer completely — stale pairs or flags must not leak into the next
// probe.
TEST(KernelInvariantTest, IntoVariantsClearReusedBuffers) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  JoinPairs reused, fresh;
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), /*limit=*/5, reused);
  EXPECT_TRUE(reused.truncated);
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), kNoLimit, reused);
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), kNoLimit, fresh);
  ExpectIdentical(reused, fresh, "buffer reuse");
}

}  // namespace
}  // namespace rox
