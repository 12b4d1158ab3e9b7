// Theta-join correctness (DESIGN.md §11).
//
// Two layers of assurance:
//  * brute-force oracles — fixed queries checked against direct tree
//    walks, so the whole stack (parser, compiler, kernels, sampling,
//    assembly, plan tail) cannot agree on a shared wrong answer;
//  * a randomized differential suite — generated range-/inequality-
//    join queries over the XMark + DBLP workloads, run unsharded, on
//    4 shards and through the classical static-plan executor (which
//    shares the kernels but none of the run-time sampling machinery),
//    each byte-compared against the reference evaluator
//    (tests/reference_eval.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

#include "classical/static_optimizer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/sharded_corpus.h"
#include "tests/reference_eval.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox {
namespace {

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

bool CmpNumeric(double a, CmpOp op, double b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

Corpus TestCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 50;
  gen.persons = 60;
  gen.open_auctions = 40;
  gen.seed = 0x7e7a;
  ROX_CHECK_OK(GenerateXmarkDocument(corpus, gen, "xmark.xml").status());
  DblpGenOptions dblp;
  dblp.tag_scale = 0.08;
  ROX_CHECK_OK(AddDblpDocuments(corpus, dblp, {7, 8}).status());  // MLDM, ICDM
  return corpus;
}

std::vector<Pre> RunMode(const Corpus& corpus,
                         const xq::CompiledQuery& compiled,
                         const ShardedExec* ex, uint64_t tau = 20) {
  RoxOptions rox;
  rox.seed = 77;
  rox.tau = tau;
  rox.sharded = ex;
  auto items = xq::RunXQuery(corpus, compiled, rox);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

// RunXQuery's component split + plan tail, but with every component
// executed by the classical static-plan executor (no run-time
// sampling). Join orders differ from ROX's; results must not.
Result<std::vector<Pre>> RunStaticXQuery(const Corpus& corpus,
                                         const xq::CompiledQuery& compiled) {
  std::vector<GraphComponent> comps =
      SplitConnectedComponents(compiled.graph);
  ResultTable combined;
  std::vector<VertexId> combined_cols;
  bool first = true;
  for (const GraphComponent& comp : comps) {
    bool needed = false;
    for (VertexId orig : comp.orig_vertex) {
      for (VertexId fv : compiled.for_vertices) needed |= fv == orig;
    }
    if (!needed) continue;
    StaticPlan plan = PlanStatically(corpus, comp.graph);
    ROX_ASSIGN_OR_RETURN(RoxResult result,
                         ExecuteStaticPlan(corpus, comp.graph, plan));
    std::vector<VertexId> cols;
    for (VertexId v : result.columns) cols.push_back(comp.orig_vertex[v]);
    if (first) {
      combined = std::move(result.table);
      combined_cols = std::move(cols);
      first = false;
    } else {
      combined = CartesianProduct(combined, result.table);
      combined_cols.insert(combined_cols.end(), cols.begin(), cols.end());
    }
  }
  if (first) return Status::FailedPrecondition("no joined component");
  auto column_of = [&](VertexId v) -> size_t {
    for (size_t i = 0; i < combined_cols.size(); ++i) {
      if (combined_cols[i] == v) return i;
    }
    return static_cast<size_t>(-1);
  };
  std::vector<size_t> for_cols;
  size_t return_col = 0;
  for (size_t i = 0; i < compiled.for_vertices.size(); ++i) {
    VertexId v = compiled.for_vertices[i];
    size_t col = column_of(v);
    if (col == static_cast<size_t>(-1)) {
      return Status::Internal("for-variable vertex missing from result");
    }
    if (v == compiled.return_vertex) return_col = i;
    for_cols.push_back(col);
  }
  ResultTable tail = combined.Project(for_cols).DistinctRows();
  std::vector<size_t> sort_keys(for_cols.size());
  for (size_t i = 0; i < sort_keys.size(); ++i) sort_keys[i] = i;
  tail = tail.SortRows(sort_keys);
  return tail.Col(return_col);
}

// --- brute-force oracles -----------------------------------------------------

class ThetaJoinOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = TestCorpus();
    doc_id_ = *corpus_.Resolve("xmark.xml");
  }
  Corpus corpus_;
  DocId doc_id_ = 0;
};

TEST_F(ThetaJoinOracleTest, QuantityIncreaseMatchesBruteForce) {
  const Document& doc = corpus_.doc(doc_id_);
  StringId s_quantity = corpus_.Find("quantity");
  StringId s_increase = corpus_.Find("increase");
  // (item, quantity text value) in document order; items have exactly
  // one quantity child.
  std::vector<std::pair<Pre, StringId>> items;
  for (Pre q : corpus_.element_index(doc_id_).Lookup(s_quantity)) {
    items.emplace_back(doc.Parent(q), doc.SingleTextChildValue(q));
  }
  std::vector<std::pair<Pre, StringId>> bidders;
  for (Pre inc : corpus_.element_index(doc_id_).Lookup(s_increase)) {
    bidders.emplace_back(doc.Parent(inc), doc.SingleTextChildValue(inc));
  }
  const StringPool& pool = corpus_.string_pool();
  for (CmpOp op : kAllOps) {
    std::vector<Pre> expected;
    for (const auto& [item, qv] : items) {
      for (const auto& [bidder, iv] : bidders) {
        bool match;
        if (op == CmpOp::kEq || op == CmpOp::kNe) {
          match = (qv == iv) == (op == CmpOp::kEq);
        } else {
          auto a = pool.NumericValue(qv);
          auto b = pool.NumericValue(iv);
          match = a.has_value() && b.has_value() && CmpNumeric(*a, op, *b);
        }
        if (match) expected.push_back(item);
      }
    }
    auto compiled =
        xq::CompileXQuery(corpus_, XmarkQuantityIncreaseQuery(op));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<Pre> got = RunMode(corpus_, *compiled, nullptr);
    EXPECT_EQ(got, expected) << "op " << CmpOpName(op);
    EXPECT_FALSE(got.empty()) << "op " << CmpOpName(op);
  }
}

TEST_F(ThetaJoinOracleTest, DisjunctiveQuantityMatchesBruteForce) {
  const Document& doc = corpus_.doc(doc_id_);
  StringId s_quantity = corpus_.Find("quantity");
  StringId s_itemref = corpus_.Find("itemref");
  StringId s_item_attr = corpus_.Find("item");
  StringId s_id = corpus_.Find("id");
  StringId s_open_auction = corpus_.Find("open_auction");
  StringId q1 = corpus_.Find("1"), q4 = corpus_.Find("4");
  // @id value -> item pre, restricted to quantity in {1, 4}.
  std::map<StringId, Pre> items_by_id;
  for (Pre q : corpus_.element_index(doc_id_).Lookup(s_quantity)) {
    StringId qv = doc.SingleTextChildValue(q);
    if (qv != q1 && qv != q4) continue;
    Pre item = doc.Parent(q);
    items_by_id[doc.AttributeValue(item, s_id)] = item;
  }
  // (item, auction) pairs via itemref/@item.
  std::vector<std::pair<Pre, Pre>> pairs;
  for (Pre ref : corpus_.element_index(doc_id_).Lookup(s_itemref)) {
    auto it = items_by_id.find(doc.AttributeValue(ref, s_item_attr));
    if (it == items_by_id.end()) continue;
    // Enclosing open_auction.
    Pre oa = doc.Parent(ref);
    while (oa != kInvalidPre && doc.Name(oa) != s_open_auction) {
      oa = doc.Parent(oa);
    }
    ASSERT_NE(oa, kInvalidPre);
    pairs.emplace_back(it->second, oa);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<Pre> expected;
  for (const auto& [item, oa] : pairs) expected.push_back(item);

  auto compiled =
      xq::CompileXQuery(corpus_, XmarkDisjunctiveQuantityQuery(1, 4));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<Pre> got = RunMode(corpus_, *compiled, nullptr);
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.empty());

  // The disjunction is exactly the union of the two single-value
  // guards (their item sets are disjoint, so pair counts add up).
  auto single = [&](int q) {
    auto c = xq::CompileXQuery(corpus_, XmarkDisjunctiveQuantityQuery(q, q));
    ROX_CHECK_OK(c.status());
    return RunMode(corpus_, *c, nullptr);
  };
  EXPECT_EQ(single(1).size() + single(4).size(), got.size());
}

// --- randomized differential suite ------------------------------------------

std::vector<std::string> GeneratedThetaQueries(Rng& rng, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    CmpOp op = kAllOps[rng.Below(6)];
    switch (rng.Below(4)) {
      case 0:
        out.push_back(XmarkQuantityIncreaseQuery(
            op, /*quantity_guard=*/static_cast<int>(rng.Below(3))));
        break;
      case 1: {
        int lo = 40 + static_cast<int>(rng.Below(60));
        int hi = 150 + static_cast<int>(rng.Below(80));
        out.push_back(XmarkPriceThetaQuery(op, lo, hi));
        break;
      }
      case 2:
        out.push_back(XmarkDisjunctiveQuantityQuery(
            1 + static_cast<int>(rng.Below(3)),
            2 + static_cast<int>(rng.Below(4))));
        break;
      default:
        out.push_back(DblpAuthorYearQuery("MLDM", "ICDM", op));
        break;
    }
  }
  return out;
}

TEST(ThetaJoinDifferentialTest, ModesAndShardsAndStaticPlansAgree) {
  Corpus corpus = TestCorpus();
  Rng rng(0x7be7a);
  std::vector<std::string> queries = GeneratedThetaQueries(rng, 24);

  ThreadPool pool(4);
  ShardedCorpus sc(corpus, 4, &pool);
  ShardedExec ex;
  ex.shards = &sc;
  ex.pool = &pool;

  size_t nonempty = 0;
  for (const std::string& q : queries) {
    auto compiled = xq::CompileXQuery(corpus, q);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString() << "\n" << q;
    auto expected = reference::Evaluate(q, reference::DocsOf(corpus));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n" << q;
    nonempty += !expected->empty();
    EXPECT_EQ(*expected, RunMode(corpus, *compiled, nullptr)) << q;
    EXPECT_EQ(*expected, RunMode(corpus, *compiled, &ex)) << q;
    auto statically = RunStaticXQuery(corpus, *compiled);
    ASSERT_TRUE(statically.ok()) << statically.status().ToString() << "\n"
                                 << q;
    EXPECT_EQ(*expected, *statically) << q;
  }
  // The suite must not silently degenerate to all-empty results.
  EXPECT_GT(nonempty, queries.size() / 2);
}

TEST(ThetaJoinDifferentialTest, CutOffSamplingKeepsModesIdentical) {
  // A tiny tau forces truncated theta samples everywhere; results must
  // not depend on it.
  Corpus corpus = TestCorpus();
  Rng rng(0xface);
  for (const std::string& q : GeneratedThetaQueries(rng, 8)) {
    auto compiled = xq::CompileXQuery(corpus, q);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto expected = reference::Evaluate(q, reference::DocsOf(corpus));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n" << q;
    EXPECT_EQ(*expected, RunMode(corpus, *compiled, nullptr, /*tau=*/5)) << q;
    EXPECT_EQ(*expected, RunMode(corpus, *compiled, nullptr, /*tau=*/100))
        << q;
  }
}

}  // namespace
}  // namespace rox
