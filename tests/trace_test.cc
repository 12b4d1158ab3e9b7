#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/value_index.h"
#include "tests/reference_eval.h"
#include "workload/xmark.h"

namespace rox::obs {
namespace {

// --- TraceLevel --------------------------------------------------------------

TEST(TraceLevelTest, NamesRoundTrip) {
  for (TraceLevel level :
       {TraceLevel::kOff, TraceLevel::kSpans, TraceLevel::kFull}) {
    TraceLevel parsed;
    ASSERT_TRUE(ParseTraceLevel(TraceLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  TraceLevel ignored;
  EXPECT_FALSE(ParseTraceLevel("verbose", &ignored));
  EXPECT_FALSE(ParseTraceLevel("", &ignored));
}

// --- QueryTrace spans --------------------------------------------------------

TEST(QueryTraceTest, SpanNestingRecordsParents) {
  QueryTrace t(TraceLevel::kSpans);
  uint32_t root = t.BeginSpan("query");
  uint32_t child = t.BeginSpan("execute");
  uint32_t grandchild = t.BeginSpan("rox", "component 0");
  EXPECT_EQ(t.spans()[grandchild].duration_ns, -1);  // still open
  t.EndSpan(grandchild);
  t.EndSpan(child);
  t.EndSpan(root);

  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[root].parent, -1);
  EXPECT_EQ(t.spans()[child].parent, static_cast<int32_t>(root));
  EXPECT_EQ(t.spans()[grandchild].parent, static_cast<int32_t>(child));
  EXPECT_EQ(t.spans()[grandchild].detail, "component 0");
  for (const TraceSpan& s : t.spans()) EXPECT_GE(s.duration_ns, 0);
  // Children start no earlier than their parents.
  EXPECT_GE(t.spans()[child].start_ns, t.spans()[root].start_ns);
}

TEST(QueryTraceTest, AttrsAndEvents) {
  QueryTrace t(TraceLevel::kFull);
  uint32_t root = t.BeginSpan("query");
  t.AttrNum(root, "seq", 7);
  t.AttrStr(root, "status", "ok");
  t.Event("resample", "w 3.0 -> 5.0");
  t.EndSpan(root);

  ASSERT_EQ(t.spans().size(), 2u);
  const TraceSpan& ev = t.spans()[1];
  EXPECT_STREQ(ev.name, "resample");
  EXPECT_EQ(ev.parent, static_cast<int32_t>(root));
  EXPECT_EQ(ev.duration_ns, 0);  // events are zero-duration spans

  ASSERT_EQ(t.spans()[root].attrs.size(), 2u);
  EXPECT_STREQ(t.spans()[root].attrs[0].key, "seq");
  EXPECT_TRUE(t.spans()[root].attrs[0].is_num);
  EXPECT_EQ(t.spans()[root].attrs[0].num, 7.0);
  EXPECT_FALSE(t.spans()[root].attrs[1].is_num);
  EXPECT_EQ(t.spans()[root].attrs[1].str, "ok");
}

TEST(QueryTraceTest, EdgePayloadsAndSampleCounting) {
  QueryTrace t(TraceLevel::kFull);
  uint32_t root = t.BeginSpan("query");

  t.CountSampleCall(3);  // pre-execution sampling: no open edge
  EXPECT_EQ(t.open_edge(), nullptr);

  EdgeTrace* et = t.BeginEdge(3, "v0 -- v1");
  ASSERT_NE(et, nullptr);
  EXPECT_EQ(t.open_edge(), et);
  et->kernel = "hash";
  et->estimated = 12.5;
  et->observed = 40;
  t.CountSampleCall(3);  // counts toward the open edge
  t.CountSampleCall(9);  // a different edge: per-query total only
  t.EndEdge();
  EXPECT_EQ(t.open_edge(), nullptr);
  t.EndSpan(root);

  ASSERT_EQ(t.edges().size(), 1u);
  const EdgeTrace& e = t.edges()[0];
  EXPECT_EQ(e.edge_id, 3);
  EXPECT_EQ(e.label, "v0 -- v1");
  EXPECT_STREQ(e.kernel, "hash");
  EXPECT_EQ(e.sample_calls, 1u);
  EXPECT_EQ(t.total_sample_calls(), 3u);
  // The edge's span is a closed child of root, named by the taxonomy.
  EXPECT_STREQ(t.spans()[e.span].name, "edge");
  EXPECT_EQ(t.spans()[e.span].detail, "v0 -- v1");
  EXPECT_GE(t.spans()[e.span].duration_ns, 0);
}

TEST(QueryTraceTest, SerializationsCarryTheTree) {
  QueryTrace t(TraceLevel::kSpans);
  uint32_t root = t.BeginSpan("query");
  t.AttrStr(root, "text", "doc(\"a\")//b");  // needs JSON escaping
  EdgeTrace* et = t.BeginEdge(0, "person -- personref");
  et->kernel = "structural";
  et->estimated = 5;
  et->observed = 6;
  t.EndEdge();
  t.EndSpan(root);

  std::string json = t.ToJson();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("person -- personref"), std::string::npos);
  EXPECT_NE(json.find("doc(\\\"a\\\")"), std::string::npos)
      << "attr strings must be JSON-escaped: " << json;

  std::string tree = t.ToTree();
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("person -- personref"), std::string::npos);
  EXPECT_NE(tree.find("structural"), std::string::npos);
}

TEST(ScopedSpanTest, NullAndOffTracesAreInert) {
  {
    ScopedSpan s(nullptr, "query");
    EXPECT_FALSE(s.armed());
    s.AttrNum("k", 1);  // must not crash
  }
  QueryTrace off(TraceLevel::kOff);
  {
    ScopedSpan s(&off, "query");
    EXPECT_FALSE(s.armed());
  }
  EXPECT_TRUE(off.spans().empty());

  QueryTrace on(TraceLevel::kSpans);
  {
    ScopedSpan s(&on, "query");
    EXPECT_TRUE(s.armed());
    s.AttrNum("k", 1);
  }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_GE(on.spans()[0].duration_ns, 0);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  std::string out;
  AppendJsonEscaped(&out, "a\"b\\c\nd");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace rox::obs

// --- engine integration ------------------------------------------------------

namespace rox::engine {
namespace {

constexpr const char* kJoinQuery =
    "for $b in doc(\"xmark.xml\")//bidder//personref, "
    "$p in doc(\"xmark.xml\")//person "
    "where $b/@person = $p/@id return $p";

Corpus MakeCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 200;
  gen.persons = 300;
  gen.open_auctions = 150;
  auto id = GenerateXmarkDocument(corpus, gen);
  EXPECT_TRUE(id.ok());
  return corpus;
}

TEST(TraceEngineTest, OffByDefaultRecordsNothing) {
  Engine eng(MakeCorpus());
  QueryResult r = eng.Run(kJoinQuery);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.trace, nullptr);
  EXPECT_EQ(r.trace_json(), "{}");
}

TEST(TraceEngineTest, SpansLevelAttachesTraceToEveryQuery) {
  EngineOptions opts;
  opts.trace_level = obs::TraceLevel::kSpans;
  Engine eng(MakeCorpus(), opts);
  QueryResult r = eng.Run(kJoinQuery);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->level(), obs::TraceLevel::kSpans);
  ASSERT_FALSE(r.trace->spans().empty());
  EXPECT_STREQ(r.trace->spans()[0].name, "query");
  // A cached re-run still gets a trace (provenance says it was replayed).
  QueryResult again = eng.Run(kJoinQuery);
  ASSERT_TRUE(again.status.ok());
  ASSERT_NE(again.trace, nullptr);
}

TEST(TraceEngineTest, ProfileRecordsFullSpanTreeAndEdges) {
  Engine eng(MakeCorpus());  // trace off by default: \profile overrides
  QueryResult r = eng.Profile(kJoinQuery);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->level(), obs::TraceLevel::kFull);

  std::vector<std::string> names;
  for (const obs::TraceSpan& s : r.trace->spans()) names.push_back(s.name);
  for (const char* expected : {"query", "parse", "compile", "execute", "rox",
                               "phase1", "edge", "assembly"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected << " in\n"
        << r.trace->ToTree();
  }

  ASSERT_FALSE(r.trace->edges().empty());
  for (const obs::EdgeTrace& e : r.trace->edges()) {
    EXPECT_FALSE(e.label.empty());
    EXPECT_GT(std::strlen(e.kernel), 0u) << e.label;
    EXPECT_GE(e.observed, 0) << e.label;
  }
  // Phase 1 sampled something, and full level counted it.
  EXPECT_GT(r.trace->total_sample_calls(), 0u);

  // Profile bypasses result replay: a second profile re-executes and
  // records fresh edges rather than a replay note.
  QueryResult r2 = eng.Profile(kJoinQuery);
  ASSERT_TRUE(r2.status.ok());
  ASSERT_NE(r2.trace, nullptr);
  EXPECT_FALSE(r2.trace->edges().empty());
  ASSERT_NE(r2.items, nullptr);
  ASSERT_NE(r.items, nullptr);
  EXPECT_EQ(*r2.items, *r.items);
}

TEST(TraceEngineTest, ProfileThetaJoinShowsEstimatesAndThetaKernel) {
  Engine eng(MakeCorpus());
  QueryResult r =
      eng.Profile(XmarkQuantityIncreaseQuery(CmpOp::kGt, /*quantity_guard=*/5));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.trace, nullptr);
  ASSERT_FALSE(r.trace->edges().empty());
  bool saw_theta = false;
  bool saw_estimate = false;
  for (const obs::EdgeTrace& e : r.trace->edges()) {
    if (std::strncmp(e.kernel, "theta", 5) == 0) saw_theta = true;
    if (e.estimated >= 0) saw_estimate = true;
  }
  EXPECT_TRUE(saw_theta) << r.trace->ToTree();
  EXPECT_TRUE(saw_estimate) << r.trace->ToTree();
  // The rendered tree carries the est/obs annotations \profile prints.
  EXPECT_NE(r.trace->ToTree().find("obs"), std::string::npos);
}

TEST(TraceEngineTest, ExplainRendersPhase1Estimates) {
  Engine eng(MakeCorpus());
  auto text = eng.Explain(kJoinQuery);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("predicted first"), std::string::npos) << *text;
  EXPECT_NE(text->find("v0"), std::string::npos) << *text;
  EXPECT_NE(text->find("e0"), std::string::npos) << *text;
  // EXPLAIN never executes: stats record no completed query execution.
  EXPECT_EQ(eng.Stats().completed, 0u);
}

// --- satellite 4: differential trace agreement -------------------------------
//
// The same query on 1 and 4 shards must produce traces that agree on
// edge order, kernels, and observed cardinalities, and the reference
// evaluator's result; running with tracing off must change nothing.
// Operator selection is pinned to the cost model
// (timed_operator_selection = false): the wall-clock race is the one
// intentionally nondeterministic choice in the executor.

struct EdgeSummary {
  std::string label;
  std::string kernel;
  double observed;
  bool operator==(const EdgeSummary& o) const {
    return label == o.label && kernel == o.kernel && observed == o.observed;
  }
};

std::vector<EdgeSummary> Summarize(const obs::QueryTrace& trace) {
  std::vector<EdgeSummary> out;
  for (const obs::EdgeTrace& e : trace.edges())
    out.push_back({e.label, e.kernel, e.observed});
  return out;
}

TEST(TraceDifferentialTest, ModesAgreeOnEdgesKernelsAndCardinalities) {
  const std::vector<std::string> queries = {
      kJoinQuery,
      XmarkQuantityIncreaseQuery(CmpOp::kGt, /*quantity_guard=*/5),
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    std::vector<EdgeSummary> reference_edges;
    std::vector<Pre> reference_items;
    bool have_reference = false;
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << shards << " shard(s)");
      EngineOptions opts;
      opts.num_threads = 2;
      opts.num_shards = shards;
      opts.rox.timed_operator_selection = false;
      opts.rox.seed = 0xd1ffe7e57;  // same stream at sequence 0 everywhere
      Engine eng(MakeCorpus(), opts);
      QueryResult r = eng.Profile(query);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_NE(r.trace, nullptr);
      ASSERT_NE(r.items, nullptr);
      if (!have_reference) {
        reference_edges = Summarize(*r.trace);
        reference_items = *r.items;
        have_reference = true;
        ASSERT_FALSE(reference_edges.empty());
        auto want = reference::Evaluate(
            query, reference::DocsOf(*eng.CurrentSnapshot()));
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(*r.items, *want);
        continue;
      }
      EXPECT_EQ(Summarize(*r.trace), reference_edges)
          << "trace drift:\n"
          << r.trace->ToTree();
      EXPECT_EQ(*r.items, reference_items);
    }
    // Tracing is observation only: the same engine config with the
    // recorder off returns the identical item sequence.
    EngineOptions off;
    off.num_threads = 2;
    off.rox.timed_operator_selection = false;
    off.rox.seed = 0xd1ffe7e57;
    Engine eng(MakeCorpus(), off);
    QueryResult r = eng.Run(query);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.trace, nullptr);
    ASSERT_NE(r.items, nullptr);
    EXPECT_EQ(*r.items, reference_items);
  }
}

}  // namespace
}  // namespace rox::engine
