// Shard-boundary correctness of the sharded corpus and the parallel
// intra-query fan-out: per-shard index lookups must concatenate to the
// full lookup, fanned-out operators must reproduce the sequential
// operators byte for byte, and a query must return identical results
// for every shard count — including empty shards (more shards than a
// document has nodes) and single-document/mixed corpora.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "classical/executor.h"
#include "classical/plans.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "exec/sharded_exec.h"
#include "index/sharded_corpus.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox {
namespace {

Corpus XmarkCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 300;
  gen.persons = 350;
  gen.open_auctions = 200;
  auto id = GenerateXmarkDocument(corpus, gen);
  EXPECT_TRUE(id.ok());
  return corpus;
}

// XMark plus two DBLP documents sharing the pool (mixed corpus).
Corpus MixedCorpus() {
  Corpus corpus = XmarkCorpus();
  DblpGenOptions dblp;
  dblp.tag_scale = 0.05;
  auto ids = AddDblpDocuments(corpus, dblp, {19, 20});
  EXPECT_TRUE(ids.ok());
  return corpus;
}

// A corpus whose second document is a single tiny element — with K > 3
// shards most of its shards are empty and one holds a single node.
Corpus TinyDocCorpus() {
  Corpus corpus = XmarkCorpus();
  auto id = corpus.AddXml("<solo><a>x</a></solo>", "tiny.xml");
  EXPECT_TRUE(id.ok());
  return corpus;
}

// --- ShardedCorpus ----------------------------------------------------------

TEST(ShardedCorpusTest, RangesPartitionEveryDocument) {
  Corpus corpus = MixedCorpus();
  for (size_t k : {1u, 2u, 3u, 8u}) {
    ShardedCorpus shards(corpus, k, nullptr);
    ASSERT_EQ(shards.num_shards(), k);
    for (DocId d = 0; d < corpus.DocCount(); ++d) {
      Pre expected_begin = 0;
      for (size_t s = 0; s < k; ++s) {
        const ShardRange& r = shards.range(d, s);
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_LE(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, corpus.doc(d).NodeCount());
    }
  }
}

TEST(ShardedCorpusTest, ShardLookupsConcatenateToFullLookup) {
  Corpus corpus = MixedCorpus();
  ThreadPool pool(2);
  ShardedCorpus shards(corpus, 4, &pool);
  for (DocId d = 0; d < corpus.DocCount(); ++d) {
    const ElementIndex& full = corpus.element_index(d);
    for (StringId q : full.Names()) {
      auto full_span = full.Lookup(q);
      std::vector<Pre> merged;
      for (size_t s = 0; s < shards.num_shards(); ++s) {
        auto part = shards.element_index(d, s).Lookup(q);
        merged.insert(merged.end(), part.begin(), part.end());
      }
      EXPECT_EQ(merged,
                std::vector<Pre>(full_span.begin(), full_span.end()))
          << "doc " << d << " name " << q;
    }
  }
}

TEST(ShardedCorpusTest, EmptyAndSingleNodeShards) {
  Corpus corpus = TinyDocCorpus();
  DocId tiny = 1;
  Pre n = corpus.doc(tiny).NodeCount();  // doc root + solo + a + text
  ASSERT_LE(n, 8u);
  ShardedCorpus shards(corpus, 8, nullptr);
  uint64_t covered = 0;
  size_t empty_shards = 0;
  for (size_t s = 0; s < 8; ++s) {
    const ShardRange& r = shards.range(tiny, s);
    covered += r.size();
    if (r.empty()) {
      ++empty_shards;
      // An empty shard still carries (empty) indexes.
      EXPECT_TRUE(shards.element_index(tiny, s).Names().empty());
    }
  }
  EXPECT_EQ(covered, n);
  EXPECT_GE(empty_shards, static_cast<size_t>(8 - n));
}

TEST(ShardedCorpusTest, PartitionSplitsAtBoundaries) {
  Corpus corpus = XmarkCorpus();
  ShardedCorpus shards(corpus, 4, nullptr);
  // All element nodes named "person", document-ordered.
  StringId person = corpus.Find("person");
  auto span = corpus.element_index(0).Lookup(person);
  std::vector<Pre> nodes(span.begin(), span.end());
  std::vector<std::span<const Pre>> parts;
  std::vector<uint32_t> offsets;
  shards.Partition(0, nodes, &parts, &offsets);
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (size_t s = 0; s < parts.size(); ++s) {
    EXPECT_EQ(offsets[s], total);
    for (Pre p : parts[s]) {
      EXPECT_TRUE(shards.range(0, s).Contains(p));
    }
    total += parts[s].size();
  }
  EXPECT_EQ(total, nodes.size());
}

// --- fanned-out operators vs sequential -------------------------------------

TEST(ShardedExecTest, StructuralFanoutMatchesSequential) {
  Corpus corpus = XmarkCorpus();
  ThreadPool pool(3);
  ShardedCorpus shards(corpus, 3, &pool);
  ShardedExec ex{&shards, &pool};
  const Document& doc = corpus.doc(0);
  StringId open_auction = corpus.Find("open_auction");
  auto span = corpus.element_index(0).Lookup(open_auction);
  std::vector<Pre> ctx(span.begin(), span.end());
  for (StepSpec spec : {StepSpec::Descendant(corpus.Find("bidder")),
                        StepSpec::Child(corpus.Find("current")),
                        StepSpec::ChildText()}) {
    JoinPairs seq = StructuralJoinPairs(doc, ctx, spec, kNoLimit,
                                        &corpus.element_index(0));
    ShardFanoutStats stats;
    JoinPairs fan = ShardedStructuralJoinPairs(
        &ex, 0, doc, ctx, spec, &corpus.element_index(0), &stats);
    EXPECT_EQ(fan.left_rows, seq.left_rows);
    EXPECT_EQ(fan.right_nodes, seq.right_nodes);
    EXPECT_EQ(fan.outer_consumed, seq.outer_consumed);
    EXPECT_EQ(stats.fanouts, 1u);
    EXPECT_EQ(std::accumulate(stats.shard_rows.begin(),
                              stats.shard_rows.end(), uint64_t{0}),
              seq.right_nodes.size());
  }
}

TEST(ShardedExecTest, ValueJoinFanoutsMatchSequential) {
  Corpus corpus = XmarkCorpus();
  ThreadPool pool(4);
  ShardedCorpus shards(corpus, 4, &pool);
  ShardedExec ex{&shards, &pool};
  const Document& doc = corpus.doc(0);
  // personref/@person attributes joined against person/@id.
  auto at_person = corpus.element_index(0).LookupAttr(corpus.Find("person"));
  auto at_id = corpus.element_index(0).LookupAttr(corpus.Find("id"));
  std::vector<Pre> outer(at_person.begin(), at_person.end());
  std::vector<Pre> inner(at_id.begin(), at_id.end());

  JoinPairs seq_hash = HashValueJoinPairs(doc, outer, doc, inner);
  JoinPairs fan_hash =
      ShardedHashValueJoinPairs(&ex, doc, PreColumn::FromSpan(outer), doc,
                                inner, nullptr);
  EXPECT_EQ(fan_hash.left_rows, seq_hash.left_rows);
  EXPECT_EQ(fan_hash.right_nodes, seq_hash.right_nodes);

  ValueProbeSpec spec = ValueProbeSpec::Attr(corpus.Find("id"));
  JoinPairs seq_nl = ValueIndexJoinPairs(doc, outer, doc,
                                         corpus.value_index(0), spec);
  JoinPairs fan_nl = ShardedValueIndexJoinPairs(
      &ex, doc, PreColumn::FromSpan(outer), doc, corpus.value_index(0), spec,
      nullptr);
  EXPECT_EQ(fan_nl.left_rows, seq_nl.left_rows);
  EXPECT_EQ(fan_nl.right_nodes, seq_nl.right_nodes);
}

// --- whole-query equivalence -------------------------------------------------

constexpr char kXmarkQ1[] = R"(
  let $d := doc("xmark.xml")
  for $o in $d//open_auction[.//current/text() < 145],
      $p in $d//person[.//province],
      $i in $d//item[./quantity = 1]
  where $o//bidder//personref/@person = $p/@id and
        $o//itemref/@item = $i/@id
  return $o
)";

constexpr char kXmarkLookupJoin[] = R"(
  for $b in doc("xmark.xml")//bidder//personref,
      $p in doc("xmark.xml")//person
  where $b/@person = $p/@id
  return $p
)";

constexpr char kDblpJoin[] = R"(
  for $a in doc("EDBT")//author, $b in doc("SIGMOD")//author
  where $a/text() = $b/text()
  return $a
)";

std::vector<Pre> RunSharded(const Corpus& corpus, const std::string& query,
                            size_t num_shards, int sample_shard) {
  auto compiled = xq::CompileXQuery(corpus, query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  RoxOptions rox;
  rox.tau = 50;
  ThreadPool pool(2);
  ShardedCorpus shards(corpus, num_shards, &pool);
  ShardedExec ex{&shards, &pool};
  ex.sample_shard = sample_shard;
  if (num_shards > 1) rox.sharded = &ex;
  auto items = xq::RunXQuery(corpus, *compiled, rox);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

TEST(ShardedQueryTest, XmarkIdenticalAcrossShardCounts) {
  Corpus corpus = XmarkCorpus();
  for (const char* query : {kXmarkQ1, kXmarkLookupJoin}) {
    std::vector<Pre> base =
        RunSharded(corpus, query, 1, ShardedExec::kSampleUnion);
    EXPECT_FALSE(base.empty());
    for (size_t k : {2u, 3u, 4u, 8u}) {
      EXPECT_EQ(RunSharded(corpus, query, k, ShardedExec::kSampleUnion),
                base)
          << "shards=" << k;
    }
  }
}

TEST(ShardedQueryTest, MixedCorpusIdenticalAcrossShardCounts) {
  Corpus corpus = MixedCorpus();
  for (const char* query : {kXmarkQ1, kDblpJoin}) {
    std::vector<Pre> base =
        RunSharded(corpus, query, 1, ShardedExec::kSampleUnion);
    EXPECT_FALSE(base.empty());
    for (size_t k : {2u, 4u}) {
      EXPECT_EQ(RunSharded(corpus, query, k, ShardedExec::kSampleUnion),
                base)
          << "shards=" << k;
    }
  }
}

TEST(ShardedQueryTest, SampleShardModeChangesOnlyTiming) {
  // Restricting Phase-1 draws to one designated shard may change the
  // explored join order but never the result.
  Corpus corpus = XmarkCorpus();
  std::vector<Pre> base =
      RunSharded(corpus, kXmarkQ1, 1, ShardedExec::kSampleUnion);
  for (int sample_shard : {0, 1, 3}) {
    EXPECT_EQ(RunSharded(corpus, kXmarkQ1, 4, sample_shard), base)
        << "sample_shard=" << sample_shard;
  }
}

TEST(ShardedQueryTest, TinyDocumentWithEmptyShards) {
  Corpus corpus = TinyDocCorpus();
  const std::string query = R"(for $a in doc("tiny.xml")//a return $a)";
  std::vector<Pre> base =
      RunSharded(corpus, query, 1, ShardedExec::kSampleUnion);
  EXPECT_EQ(base.size(), 1u);
  for (size_t k : {2u, 8u}) {
    EXPECT_EQ(RunSharded(corpus, query, k, ShardedExec::kSampleUnion), base);
  }
}

// --- classical executor -------------------------------------------------------

TEST(ShardedClassicalTest, CanonicalPlansMatchUnsharded) {
  DblpGenOptions gen;
  gen.tag_scale = 0.05;
  auto corpus = GenerateDblpCorpus(gen, {7, 12, 19, 20});
  ASSERT_TRUE(corpus.ok());
  std::vector<DocId> docs = {0, 1, 2, 3};
  ThreadPool pool(2);
  ShardedCorpus shards(*corpus, 3, &pool);
  ShardedExec ex{&shards, &pool};
  CanonicalPlanExecutor plain(*corpus, docs);
  CanonicalPlanExecutor sharded(*corpus, docs, &ex);
  JoinOrder order = ClassicalJoinOrder(*corpus, docs);
  for (StepPlacement placement : kAllPlacements) {
    auto a = plain.Run(order, placement);
    auto b = sharded.Run(order, placement);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->result_rows, b->result_rows);
    EXPECT_EQ(a->join_result_sizes, b->join_result_sizes);
    EXPECT_EQ(a->cumulative_join_rows, b->cumulative_join_rows);
  }
}

// --- engine integration -------------------------------------------------------

TEST(ShardedEngineTest, EngineResultsIdenticalAndStatsSurface) {
  std::vector<Pre> base_items;
  for (size_t k : {1u, 4u}) {
    Corpus corpus = XmarkCorpus();
    engine::EngineOptions opts;
    opts.num_threads = 2;
    opts.num_shards = k;
    opts.cache_results = false;
    engine::Engine eng(std::move(corpus), opts);
    engine::QueryResult r1 = eng.Run(kXmarkQ1);
    engine::QueryResult r2 = eng.Run(kXmarkQ1);  // warm-started rerun
    ASSERT_TRUE(r1.ok()) << r1.status.ToString();
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(*r1.items, *r2.items);
    if (k == 1) {
      base_items = *r1.items;
      EXPECT_EQ(eng.sharded_corpus(), nullptr);
      EXPECT_EQ(eng.Stats().sharded.fanouts, 0u);
    } else {
      EXPECT_EQ(*r1.items, base_items);
      ASSERT_NE(eng.sharded_corpus(), nullptr);
      EXPECT_EQ(eng.sharded_corpus()->num_shards(), 4u);
      engine::EngineStats stats = eng.Stats();
      EXPECT_EQ(stats.num_shards, 4u);
      EXPECT_GT(stats.sharded.fanouts, 0u);
      EXPECT_EQ(stats.sharded.shard_rows.size(), 4u);
      // The stats string surfaces the shard line for \stats.
      EXPECT_NE(stats.ToString().find("shards: 4"), std::string::npos);
    }
  }
}

TEST(ShardedEngineTest, ConcurrentShardedBatchIsDeterministic) {
  Corpus corpus = XmarkCorpus();
  engine::EngineOptions opts;
  opts.num_threads = 4;
  opts.num_shards = 3;
  opts.shard_threads = 2;
  engine::Engine eng(std::move(corpus), opts);
  std::vector<std::string> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(i % 2 == 0 ? kXmarkQ1 : kXmarkLookupJoin);
  }
  std::vector<engine::QueryResult> results = eng.RunBatch(batch, 4);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i].items, *results[i % 2].items);
  }
}

// --- ParallelFor -------------------------------------------------------------

TEST(ParallelForTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(100);
  ParallelFor(&pool, counts.size(),
              [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, InlineWithoutPool) {
  std::vector<int> counts(10, 0);
  ParallelFor(nullptr, counts.size(), [&](size_t i) { counts[i]++; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ParallelForTest, NestedOnSamePoolDoesNotDeadlock) {
  ThreadPool pool(1);  // the worst case: a single worker
  std::atomic<int> total{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelForTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(&pool, 8,
                  [&](size_t i) {
                    if (i == 5) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

}  // namespace
}  // namespace rox
