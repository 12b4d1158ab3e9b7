// Late materialization correctness (DESIGN.md §8): the view layer must
// reproduce the row-copying ResultTable operators byte for byte, and
// whole query runs — including cut-off/approximate execution, sharded
// fan-out and the engine — must return the reference evaluator's
// result sequences (tests/reference_eval.h). In test names, "Eager" is
// the side that materializes everything up front: a full-copy operator
// or the reference evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classical/executor.h"
#include "classical/plans.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "exec/column_arena.h"
#include "exec/result_table.h"
#include "exec/result_view.h"
#include "index/sharded_corpus.h"
#include "tests/reference_eval.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox {
namespace {

// --- view-layer property tests ---------------------------------------------

ResultTable RandomTable(Rng& rng, size_t cols, uint64_t rows,
                        uint32_t domain) {
  ResultTable t(cols);
  for (size_t c = 0; c < cols; ++c) {
    t.MutableCol(c).reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      t.MutableCol(c).push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  return t;
}

bool TablesEqual(const ResultTable& a, const ResultTable& b) {
  if (a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows()) return false;
  for (size_t c = 0; c < a.NumCols(); ++c) {
    if (a.Col(c) != b.Col(c)) return false;
  }
  return true;
}

TEST(ResultViewTest, SelectRowsMatchesEager) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(200), 50);
    std::vector<uint32_t> rows;
    for (uint64_t i = 0; i < t.NumRows(); ++i) {
      if (rng.Below(3) == 0) rows.push_back(static_cast<uint32_t>(i));
      if (rng.Below(7) == 0) rows.push_back(static_cast<uint32_t>(i));
    }
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    // Stack two selections so composed (indexed) columns get exercised.
    ResultView first = SelectRowsView(v, rows, arena);
    std::vector<uint32_t> rows2;
    for (uint64_t i = 0; i < first.NumRows(); i += 2) {
      rows2.push_back(static_cast<uint32_t>(i));
    }
    ResultView second = SelectRowsView(first, rows2, arena);
    ResultTable eager = t.SelectRows(rows).SelectRows(rows2);
    EXPECT_TRUE(TablesEqual(second.Gather(nullptr), eager));
  }
}

// Pairs grouped by left row, as all pair-producing joins emit them.
JoinPairs RandomPairs(Rng& rng, uint64_t outer_rows, uint32_t domain) {
  JoinPairs p;
  for (uint64_t r = 0; r < outer_rows; ++r) {
    uint64_t n = rng.Below(4);
    for (uint64_t k = 0; k < n; ++k) {
      p.left_rows.push_back(static_cast<uint32_t>(r));
      p.right_nodes.push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  p.outer_consumed = outer_rows;
  return p;
}

TEST(ResultViewTest, ExtendMatchesEager) {
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(100), 40);
    JoinPairs pairs = RandomPairs(rng, t.NumRows(), 40);
    ResultTable eager = ExtendTableWithPairs(t, pairs);
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    ResultView out = ExtendViewWithPairs(v, std::move(pairs), arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), eager));
  }
}

TEST(ResultViewTest, JoinMatchesEager) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    ResultTable outer = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    ResultTable inner = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    size_t inner_col = rng.Below(inner.NumCols());
    JoinPairs pairs = RandomPairs(rng, outer.NumRows(), 30);
    ResultTable eager = JoinTablesWithPairs(outer, pairs, inner, inner_col);
    ColumnArena arena;
    ResultView out =
        JoinViewsWithPairs(ResultView::FromTable(outer), pairs,
                           ResultView::FromTable(inner), inner_col, arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), eager));
  }
}

// DistinctColumn against eager std::sort + std::unique of the gathered
// column: direct columns and selection-vector columns, heavy
// duplicates (domains far below the row count), and empty views.
TEST(ResultViewTest, DistinctColumnMatchesEager) {
  Rng rng(4);
  auto sort_unique = [](const ResultView& v, size_t c) {
    std::vector<Pre> col;
    v.GatherColumnInto(c, col, nullptr);
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
    return col;
  };
  for (int round = 0; round < 40; ++round) {
    // Half the rounds draw from at most 8 distinct nodes.
    uint64_t domain = 1 + rng.Below(round < 20 ? 8 : 500);
    ResultTable t =
        RandomTable(rng, 2, rng.Below(3000), static_cast<uint32_t>(domain));
    std::vector<uint32_t> rows;
    for (uint64_t i = 0; i < t.NumRows(); ++i) {
      if (rng.Below(2) == 0) {
        rows.push_back(static_cast<uint32_t>(rng.Below(t.NumRows())));
      }
    }
    ColumnArena arena;
    ResultView direct = ResultView::FromTable(t);
    ResultView selected = SelectRowsView(direct, rows, arena);
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(direct.DistinctColumn(c), sort_unique(direct, c));
      EXPECT_EQ(selected.DistinctColumn(c), sort_unique(selected, c));
    }
  }
  ResultTable empty(1);
  ColumnArena arena;
  EXPECT_TRUE(ResultView::FromTable(empty).DistinctColumn(0).empty());
  EXPECT_TRUE(SelectRowsView(ResultView::FromTable(empty), {}, arena)
                  .DistinctColumn(0)
                  .empty());
}

TEST(ResultViewTest, DeadColumnsAreElidedButLiveOnesSurvive) {
  Rng rng(5);
  ResultTable t = RandomTable(rng, 3, 100, 20);
  std::vector<uint32_t> rows = {5, 1, 7, 7, 30};
  std::vector<bool> live = {true, false, true};
  ColumnArena arena;
  ResultView v =
      SelectRowsView(ResultView::FromTable(t), rows, arena, &live);
  EXPECT_FALSE(v.Dead(0));
  EXPECT_TRUE(v.Dead(1));
  EXPECT_FALSE(v.Dead(2));
  ResultTable eager = t.SelectRows(rows);
  std::vector<Pre> col;
  v.GatherColumnInto(0, col, nullptr);
  EXPECT_EQ(col, eager.Col(0));
  v.GatherColumnInto(2, col, nullptr);
  EXPECT_EQ(col, eager.Col(2));
}

TEST(ColumnArenaTest, AdoptKeepsDataStableWithoutCopy) {
  ColumnArena arena;
  std::vector<uint32_t> v = {1, 2, 3};
  const uint32_t* data = v.data();
  std::span<const uint32_t> s = arena.Adopt(std::move(v));
  EXPECT_EQ(s.data(), data);  // zero-copy: same heap buffer
  // Later allocations must not disturb adopted storage.
  for (int i = 0; i < 100; ++i) arena.Alloc(1000);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[2], 3u);
}

// --- end-to-end differential tests -----------------------------------------

Corpus TestCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 400;
  gen.persons = 450;
  gen.open_auctions = 250;
  EXPECT_TRUE(GenerateXmarkDocument(corpus, gen).ok());
  DblpGenOptions dblp;
  dblp.tag_scale = 0.05;
  EXPECT_TRUE(AddDblpDocuments(corpus, dblp, {18, 19, 20}).ok());
  // A deep chain document for multi-step chain queries.
  std::string xml = "<root>";
  for (int c = 0; c < 30; ++c) {
    xml += "<a><b><a><b><a><b><t/></b></a></b></a></b></a>";
  }
  xml += "</root>";
  EXPECT_TRUE(corpus.AddXml(xml, "chain.xml").ok());
  return corpus;
}

// Q1-shaped query with a randomized price threshold and direction.
std::string XmarkQuery(uint32_t threshold, bool less_than) {
  std::string q = R"(let $d := doc("xmark.xml")
      for $o in $d//open_auction[.//current/text() )";
  q += less_than ? "<" : ">";
  q += " " + std::to_string(threshold) + R"(],
          $p in $d//person[.//province],
          $i in $d//item[./quantity = 1]
      where $o//bidder//personref/@person = $p/@id and
            $o//itemref/@item = $i/@id
      return $o)";
  return q;
}

std::vector<std::string> DifferentialQueries() {
  std::vector<std::string> queries;
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        XmarkQuery(40 + static_cast<uint32_t>(rng.Below(180)), i % 2 == 0));
  }
  // Deep chain: only the last step's column survives to the tail.
  queries.push_back(
      R"(let $d := doc("chain.xml")
         for $x in $d//a//b//a//b//t return $x)");
  // DBLP equi-joins (2-way and 3-way author joins).
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author
         where $a/text() = $b/text() return $a)");
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author,
             $c in doc("ADBIS")//author
         where $a/text() = $b/text() and $a/text() = $c/text()
         return $b)");
  // Disconnected join graph: components combine via cross product.
  queries.push_back(
      R"(for $p in doc("xmark.xml")//person[.//province],
             $i in doc("xmark.xml")//item[./quantity = 1]
         return $p)");
  return queries;
}

std::vector<Pre> RunQuery(const Corpus& corpus, const std::string& q,
                          const RoxOptions& rox) {
  auto compiled = xq::CompileXQuery(corpus, q);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return {};
  auto items = xq::RunXQuery(corpus, *compiled, rox);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

std::vector<Pre> Oracle(const Corpus& corpus, const std::string& q) {
  auto want = reference::Evaluate(q, reference::DocsOf(corpus));
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  return want.ok() ? *want : std::vector<Pre>{};
}

// The oracle's sequence for every DifferentialQueries() entry.
std::vector<std::vector<Pre>> ExpectedAll(const Corpus& corpus) {
  std::vector<std::vector<Pre>> out;
  for (const std::string& q : DifferentialQueries()) {
    out.push_back(Oracle(corpus, q));
  }
  return out;
}

TEST(MaterializationDifferentialTest, LazyMatchesEagerOnAllQueries) {
  Corpus corpus = TestCorpus();
  RoxOptions rox;
  rox.seed = 99;
  const std::vector<std::string> queries = DifferentialQueries();
  const std::vector<std::vector<Pre>> expected = ExpectedAll(corpus);
  size_t nonempty = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(RunQuery(corpus, queries[i], rox), expected[i])
        << "query #" << i;
    nonempty += !expected[i].empty();
  }
  // The suite must not degenerate into all-empty comparisons.
  EXPECT_GT(nonempty, queries.size() / 2);
}

// True iff `sub` is a subsequence of `seq`.
bool IsSubsequence(const std::vector<Pre>& sub, const std::vector<Pre>& seq) {
  size_t k = 0;
  for (size_t i = 0; i < seq.size() && k < sub.size(); ++i) {
    if (seq[i] == sub[k]) ++k;
  }
  return k == sub.size();
}

TEST(MaterializationDifferentialTest, CutOffAndApproximateRunsMatch) {
  Corpus corpus = TestCorpus();
  const std::vector<std::string> queries = DifferentialQueries();
  const std::vector<std::vector<Pre>> expected = ExpectedAll(corpus);
  // Tiny tau forces truncated (cut-off) sampled executions everywhere;
  // the result must still be exact.
  RoxOptions cut_off;
  cut_off.seed = 1234;
  cut_off.tau = 15;
  // approximate_fraction materializes sampled subsets of every vertex
  // table: every tuple it returns is a true one, so its sequence is a
  // subsequence of the exact one.
  RoxOptions approximate = cut_off;
  approximate.approximate_fraction = 0.5;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(RunQuery(corpus, queries[i], cut_off), expected[i])
        << "query #" << i;
    EXPECT_TRUE(IsSubsequence(RunQuery(corpus, queries[i], approximate),
                              expected[i]))
        << "query #" << i;
  }
}

TEST(MaterializationDifferentialTest, ShardedLazyMatchesUnshardedEager) {
  Corpus corpus = TestCorpus();
  const std::vector<std::string> queries = DifferentialQueries();
  const std::vector<std::vector<Pre>> expected = ExpectedAll(corpus);
  for (size_t shards : {1u, 4u}) {
    ThreadPool pool(shards);
    ShardedCorpus sc(corpus, shards, &pool);
    ShardedExec ex;
    ex.shards = &sc;
    ex.pool = &pool;
    RoxOptions rox;
    rox.seed = 4321;
    rox.sharded = &ex;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(RunQuery(corpus, queries[i], rox), expected[i])
          << shards << " shards, query #" << i;
    }
  }
}

TEST(MaterializationDifferentialTest, EngineMatchesOracle) {
  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.cache_results = false;
  engine::Engine engine(TestCorpus(), opts);
  const std::string query = XmarkQuery(145, true);
  auto r = engine.Run(query);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(*r.items, Oracle(*engine.CurrentSnapshot(), query));
  // The plan tail gathers the for-variable columns exactly once.
  EXPECT_GT(r.rox_stats.gather.gather_count, 0u);
  EXPECT_GT(engine.Stats().gather_count, 0u);
}

// The classical executor's join sizes against the histogram join-size
// calculator, which counts Σ_v Π f_i(v) from the author-value
// histograms without executing a plan.
TEST(MaterializationDifferentialTest, ClassicalExecutorMatchesHistogramSizes) {
  std::vector<bench::Combo> combos = bench::SampleCombos(1, 5);
  ASSERT_FALSE(combos.empty());
  DblpGenOptions gen;
  gen.tag_scale = 0.05;
  auto corpus = bench::ComboCorpus(combos[0], gen);
  ASSERT_TRUE(corpus.ok());
  std::vector<DocId> docs = {0, 1, 2, 3};
  CanonicalPlanExecutor executor(*corpus, docs);
  int checked = 0;
  for (const OrderCardinality& oc : ComputeOrderCardinalities(*corpus, docs)) {
    if (++checked > 4) break;  // a few orders x all placements suffice
    for (StepPlacement p : kAllPlacements) {
      auto run = executor.Run(oc.order, p);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->join_result_sizes, oc.join_sizes)
          << oc.order.Label() << " / " << StepPlacementName(p);
      EXPECT_EQ(run->cumulative_join_rows, oc.cumulative);
      EXPECT_EQ(run->result_rows, oc.join_sizes.back());
    }
  }
}

}  // namespace
}  // namespace rox
