// paper_joins and theta_wide: one client runs a fixed round of queries
// through Engine::Execute with the query cache off, so every query pays
// parse, compile, Phase 1 and chain sampling. Every window of the timed
// loop ends with two probes on the same corpus: a batch of replays of
// the round's queries from a result cache, and a publish cycle of one
// venue. The property checks follow the loop.

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/rng.h"
#include "engine/engine.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rox::Pre;
using rox::engine::Engine;
using rox::engine::QueryRequest;
using rox::engine::QueryResponse;

// Replays are timed in batches (a single replay takes about a
// microsecond); one sample is a batch's mean.
constexpr int kReplayBatch = 200;

QueryRequest Request(const std::string& text, bool traced) {
  QueryRequest req;
  req.text = text;
  req.trace_level =
      traced ? rox::obs::TraceLevel::kSpans : rox::obs::TraceLevel::kOff;
  req.client_tag = "perfbench";
  return req;
}

// Executes `text` untimed and returns its items (empty on failure).
std::vector<Pre> RunChecked(Engine& engine, const std::string& text,
                            Report* report) {
  report->Attempt();
  QueryResponse resp = engine.Execute(Request(text, false));
  if (!resp.ok()) {
    report->Failed(resp.status.ToString());
    return {};
  }
  return *resp.result.items;
}

void CheckResult(const std::string& name, const std::vector<Pre>& got,
                 const std::vector<Pre>& want, Report* report) {
  report->Check(got == want, name + ": " + std::to_string(got.size()) +
                                 " items, expected " +
                                 std::to_string(want.size()));
  report->Check(InDocumentOrder(got), name + ": not in document order");
}

// Q1(<P) and Qm1(>P) are disjoint, and with the auctions priced exactly
// P they make up the unfiltered query.
void CheckPriceSplit(Engine& engine, const Q1Oracle& oracle, Report* report) {
  const std::string p = std::to_string(kPriceThreshold);
  std::vector<Pre> lt = RunChecked(engine, Q1Text("<", p), report);
  std::vector<Pre> gt = RunChecked(engine, Q1Text(">", p), report);
  std::vector<Pre> eq = RunChecked(engine, Q1Text("=", p), report);
  std::vector<Pre> all = RunChecked(engine, Q1Text("", p), report);
  CheckResult("Q1 <", lt, oracle.Expected("<", p), report);
  CheckResult("Q1 >", gt, oracle.Expected(">", p), report);
  CheckResult("Q1 =", eq, oracle.Expected("=", p), report);
  CheckResult("Q1 unfiltered", all, oracle.Expected("", p), report);
  std::set<Pre> cheap(lt.begin(), lt.end());
  bool disjoint = true;
  for (Pre o : gt) disjoint &= cheap.count(o) == 0;
  report->Check(disjoint, "Q1(<P) and Qm1(>P) share an auction");
  std::vector<Pre> together = lt;
  together.insert(together.end(), gt.begin(), gt.end());
  together.insert(together.end(), eq.begin(), eq.end());
  std::sort(together.begin(), together.end());
  report->Check(together == all,
                "Q1(<P) + Qm1(>P) + (=P) differ from the unfiltered query");
}

// |lt| + |eq| + |gt| = |items| x |bidders| and |ne| = |lt| + |gt| for
// the quantity join.
void CheckQuantitySplit(Engine& engine, const rox::Document& xmark,
                        Report* report) {
  uint64_t n[4] = {0, 0, 0, 0};
  const rox::CmpOp ops[4] = {rox::CmpOp::kLt, rox::CmpOp::kEq,
                             rox::CmpOp::kGt, rox::CmpOp::kNe};
  for (int i = 0; i < 4; ++i) {
    std::vector<Pre> got = RunChecked(engine, QuantityJoinText(ops[i]), report);
    CheckResult(std::string("quantity ") + rox::CmpOpName(ops[i]), got,
                ExpectedQuantityJoin(xmark, ops[i]), report);
    n[i] = got.size();
  }
  const QuantityDomain d = CountQuantityDomain(xmark);
  report->Check(n[0] + n[1] + n[2] == d.items * d.bidders,
                "|lt| + |eq| + |gt| != |items| x |bidders|");
  report->Check(n[3] == n[0] + n[2], "|ne| != |lt| + |gt|");
}

}  // namespace

rox::Status Prepare(Prepared* out) {
  ROX_RETURN_IF_ERROR(GenerateTexts(&out->docs, &out->publish));
  ROX_ASSIGN_OR_RETURN(out->corpus, ParseCorpus(out->docs));
  std::printf("corpus:");
  for (rox::DocId id = 0; id < out->corpus.DocCount(); ++id) {
    const rox::Document& doc = out->corpus.doc(id);
    std::printf(" %s=%u", doc.name().c_str(), doc.NodeCount());
  }
  std::printf(" (nodes); publish %s: %zu bytes of XML\n", out->publish.name.c_str(),
              out->publish.xml.size());
  return rox::Status::Ok();
}

std::vector<Pre> ExpectedByName(const std::string& name,
                                const rox::Corpus& corpus,
                                const Q1Oracle& q1) {
  const std::string p = std::to_string(kPriceThreshold);
  const rox::Document& xmark = corpus.doc(*corpus.Resolve("xmark.xml"));
  if (name == "q1") return q1.Expected("<", p);
  if (name == "qm1") return q1.Expected(">", p);
  if (name == "fig5_authors") {
    return ExpectedAuthorJoin(corpus, {"VLDB", "ICDE", "ICIP", "ADBIS"});
  }
  if (name == "db_ir_authors") {
    return ExpectedAuthorJoin(corpus, {"CIKM", "SIGIR", "EDBT", "ADBIS"});
  }
  if (name == "qty_lt") return ExpectedQuantityJoin(xmark, rox::CmpOp::kLt);
  if (name == "qty_ne") return ExpectedQuantityJoin(xmark, rox::CmpOp::kNe);
  if (name == "price_theta") return ExpectedPriceTheta(xmark);
  return {};
}

int RunEngineWorkload(const Args& args, Clock::time_point start,
                      Report* report) {
  const bool paper = args.workload == "paper_joins";
  Prepared prep;
  if (rox::Status s = Prepare(&prep); !s.ok()) {
    std::fprintf(stderr, "set-up: %s\n", s.ToString().c_str());
    return 1;
  }
  rox::engine::EngineOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.rox.seed = args.seed;
  Engine engine(std::move(prep.corpus), options);
  const double setup_s = MillisSince(start) / 1000;

  std::shared_ptr<const rox::Corpus> corpus = engine.CurrentSnapshot();
  const rox::Document& xmark = corpus->doc(*corpus->Resolve("xmark.xml"));
  const Q1Oracle q1(xmark);
  const std::vector<NamedQuery> queries =
      paper ? PaperJoinsQueries() : ThetaWideQueries();
  std::vector<std::vector<Pre>> expected;
  for (const NamedQuery& q : queries) {
    expected.push_back(ExpectedByName(q.name, *corpus, q1));
  }
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rox::Rng rng(args.seed);
  rng.Shuffle(order);

  // One untimed round lets lazy set-up finish; its outputs are checked
  // like every other.
  for (size_t i : order) {
    CheckResult(queries[i].name, RunChecked(engine, queries[i].text, report),
                expected[i], report);
  }

  // The probes: replays from a result cache over the same corpus epoch
  // (in process; http_live measures them over HTTP), and an add and a
  // remove of the publish venue on the workload's engine.
  rox::engine::EngineOptions replay_options;
  replay_options.num_threads = 1;
  replay_options.rox.seed = args.seed;
  Engine replay(corpus, replay_options);
  for (const NamedQuery& q : queries) RunChecked(replay, q.text, report);
  std::vector<double> replay_ms, publish_ms;
  auto probe = [&](size_t window) {
    const size_t i = order[window % order.size()];
    double ms = 0;
    for (int k = 0; k < kReplayBatch; ++k) {
      const Clock::time_point t0 = Clock::now();
      QueryResponse resp = replay.Execute(Request(queries[i].text, false));
      ms += MillisSince(t0);
      report->Attempt();
      if (!resp.ok()) {
        report->Failed(queries[i].name + ": " + resp.status.ToString());
        continue;
      }
      report->Check(resp.result.result_cache_hit,
                    queries[i].name + ": replay missed the result cache");
      report->Check(*resp.result.items == expected[i],
                    queries[i].name + ": replayed items differ");
    }
    replay_ms.push_back(ms / kReplayBatch);
    // The publish sample is the mean of the add and the remove.
    const uint64_t epoch = engine.CurrentEpoch();
    const Clock::time_point t0 = Clock::now();
    auto added = engine.AddDocuments({{kPublishVenue, prep.publish.xml}});
    rox::Status removed = engine.RemoveDocument(kPublishVenue);
    publish_ms.push_back(MillisSince(t0) / 2);
    report->Attempt(2);
    if (!added.ok()) report->Failed("AddDocuments: " + added.status().ToString());
    if (!removed.ok()) report->Failed("RemoveDocument: " + removed.ToString());
    report->Check(engine.CurrentEpoch() == epoch + 2,
                  "a publish cycle did not publish two epochs");
  };

  // The timed loop: whole rounds until --seconds have passed, cut into
  // windows (report.h). The traced run alternates untraced and traced
  // rounds, ends on a traced one and runs no probes.
  std::vector<double> round_ms, traced_round_ms, rows_per_round;
  std::vector<size_t> round_window;                // per untraced round
  std::vector<std::pair<size_t, double>> latency;  // (untraced round, ms)
  std::vector<std::vector<double>> query_ms(queries.size());
  std::vector<double> window_mean_ms;
  double window_sum = 0;
  size_t window_rounds = 0;
  uint64_t untraced_faults = 0, untraced_queries = 0;
  LayerTotals layers;
  const Clock::time_point loop_start = Clock::now();
  Clock::time_point window_start = loop_start;
  for (size_t round = 0;; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    const uint64_t faults_before = MinorFaults();
    double ms_sum = 0, rows = 0;
    for (size_t i : order) {
      const Clock::time_point t0 = Clock::now();
      QueryResponse resp = engine.Execute(Request(queries[i].text, traced));
      const double ms = MillisSince(t0);
      report->Attempt();
      if (!resp.ok()) {
        report->Failed(queries[i].name + ": " + resp.status.ToString());
        continue;
      }
      ms_sum += ms;
      rows += static_cast<double>(
          resp.result.rox_stats.cumulative_intermediate_rows);
      if (traced) {
        layers.Add(resp.result);
      } else {
        latency.push_back({round_ms.size(), ms});
        query_ms[i].push_back(ms);
      }
      CheckResult(queries[i].name, *resp.result.items, expected[i], report);
    }
    if (traced) {
      traced_round_ms.push_back(ms_sum);
    } else {
      untraced_faults += MinorFaults() - faults_before;
      untraced_queries += queries.size();
      round_ms.push_back(ms_sum);
      rows_per_round.push_back(rows);
      round_window.push_back(window_mean_ms.size());
      window_sum += ms_sum;
      ++window_rounds;
    }
    const bool last = MillisSince(loop_start) >= args.seconds * 1000 &&
                      (!args.trace || traced);
    if (window_rounds > 0 && (last || MillisSince(window_start) >= kWindowMs)) {
      window_mean_ms.push_back(window_sum / static_cast<double>(window_rounds));
      if (!args.trace) probe(window_mean_ms.size() - 1);
      window_sum = 0;
      window_rounds = 0;
      window_start = Clock::now();
    }
    if (last) break;
  }
  const double peak_rss_mb = PeakRssMb();

  if (paper) {
    CheckPriceSplit(engine, q1, report);
  } else {
    CheckQuantitySplit(engine, xmark, report);
  }

  // The samples of the faster windows.
  const std::vector<bool> fast = FastWindows(window_mean_ms);
  std::vector<double> fast_round_ms, fast_latency_ms, all_latency_ms;
  for (size_t r = 0; r < round_ms.size(); ++r) {
    if (fast[round_window[r]]) fast_round_ms.push_back(round_ms[r]);
  }
  for (const auto& [r, ms] : latency) {
    all_latency_ms.push_back(ms);
    if (fast[round_window[r]]) fast_latency_ms.push_back(ms);
  }

  std::printf("%s: %zu untraced rounds of %zu queries in %zu windows\n",
              args.workload.c_str(), round_ms.size(), queries.size(),
              window_mean_ms.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    PrintLatency(queries[i].name.c_str(), query_ms[i]);
  }
  PrintLatency("query latency (all rounds)", all_latency_ms);
  PrintLatency("round (all rounds)", round_ms);
  PrintLatency("round (faster windows)", fast_round_ms);
  PrintWindows(window_mean_ms);

  if (args.trace) {
    layers.Emit(static_cast<double>(traced_round_ms.size()), report);
    MeasureXmlLayers(prep.docs, report);
    std::vector<std::string> texts;
    for (const NamedQuery& q : queries) texts.push_back(q.text);
    MeasureXqLayers(*corpus, texts, report);
    report->Set("mem.minor_faults_per_query",
                static_cast<double>(untraced_faults) /
                    static_cast<double>(std::max<uint64_t>(untraced_queries, 1)),
                "faults");
    const rox::engine::EngineStats stats = engine.Stats();
    report->Set("engine.execute_ms", Median(all_latency_ms), "ms");
    report->Set("engine.plan_cache_hits",
                static_cast<double>(stats.plan_cache_hits), "count");
    report->Set("engine.result_cache_hits",
                static_cast<double>(stats.result_cache_hits), "count");
    report->Set("engine.cache_invalidations",
                static_cast<double>(stats.cache_invalidations), "count");
    // No server in this workload: its overhead is zero; the render cost
    // is what the server would spend on this workload's responses.
    report->Set("server.overhead_ms", 0, "ms");
    RenderCost render;
    for (const NamedQuery& q : queries) {
      report->Attempt();
      QueryResponse resp = engine.Execute(Request(q.text, false));
      if (!resp.ok()) {
        report->Failed(q.name + ": " + resp.status.ToString());
        continue;
      }
      RenderCost c = MeasureRender(resp);
      render.ms += c.ms / static_cast<double>(queries.size());
      render.bytes += c.bytes / static_cast<double>(queries.size());
    }
    report->Set("server.render_ms", render.ms, "ms");
    report->Set("server.response_bytes", render.bytes, "bytes");
    report->Set("obs.trace_overhead_pct",
                100 * (Median(traced_round_ms) / Median(round_ms) - 1), "%");
    MeasureClassical(*corpus, args.seed, report);
    return 0;
  }

  PrintLatency("replay batch mean", replay_ms);
  PrintLatency("publish add/remove mean", publish_ms);
  const double round = Median(fast_round_ms);
  report->Set("setup_s", setup_s, "s");
  report->Set("throughput_qps",
              static_cast<double>(queries.size()) / (round / 1000), "queries/s");
  report->Set("round_ms", round, "ms");
  report->Set("intermediate_rows", Median(rows_per_round), "rows/round");
  report->Set("executed_p50_ms", Median(fast_latency_ms), "ms");
  report->Set("replayed_p50_ms", ProbeCost(replay_ms), "ms");
  report->Set("publish_ms", ProbeCost(publish_ms), "ms");
  report->Set("peak_rss_mb", peak_rss_mb, "MB");
  return 0;
}

}  // namespace perfbench
