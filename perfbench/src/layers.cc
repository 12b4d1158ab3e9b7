#include "layers.h"

#include <cmath>
#include <cstring>

#include "classical/executor.h"
#include "classical/rox_order.h"
#include "rox/optimizer.h"
#include "workload/dblp.h"
#include "xml/parser.h"
#include "xq/compile.h"
#include "xq/parser.h"

namespace perfbench {
namespace {

double SpanMs(const rox::obs::QueryTrace& trace, uint32_t span) {
  const rox::obs::TraceSpan& s = trace.spans()[span];
  return s.duration_ns > 0 ? static_cast<double>(s.duration_ns) / 1e6 : 0;
}

}  // namespace

void LayerTotals::Add(const rox::engine::QueryResult& result) {
  const rox::RoxStats& st = result.rox_stats;
  sampling_ms_ += st.sampling_time.TotalMillis();
  execution_ms_ += st.execution_time.TotalMillis();
  assembly_ms_ += st.assembly_time.TotalMillis();
  chain_rounds_ += static_cast<double>(st.chain_rounds);
  sampled_tuples_ += static_cast<double>(st.sampled_tuples);
  edges_executed_ += static_cast<double>(st.edges_executed);
  arena_bytes_ += static_cast<double>(st.arena_bytes);
  peak_rows_ = std::max(peak_rows_,
                        static_cast<double>(st.peak_intermediate_rows));
  if (result.trace == nullptr) return;
  const rox::obs::QueryTrace& trace = *result.trace;
  for (uint32_t i = 0; i < trace.spans().size(); ++i) {
    const char* name = trace.spans()[i].name;
    if (std::strcmp(name, "phase1") == 0) phase1_ms_ += SpanMs(trace, i);
    if (std::strcmp(name, "gather") == 0) gather_ms_ += SpanMs(trace, i);
    if (std::strcmp(name, "plan_tail") == 0) plan_tail_ms_ += SpanMs(trace, i);
  }
  for (const rox::obs::EdgeTrace& e : trace.edges()) {
    const std::string kernel = e.kernel;
    edge_ms_[kernel] += SpanMs(trace, e.span);
    if (e.observed >= 0) edge_rows_[kernel] += e.observed;
    if (e.estimated >= 0 && e.observed >= 0) {
      // +1 on both sides keeps empty edges finite.
      estimate_error_[kernel].push_back(
          std::log2((e.observed + 1) / (e.estimated + 1)));
    }
  }
}

void LayerTotals::Emit(double rounds, Report* report) const {
  const double r = rounds > 0 ? rounds : 1;
  report->Set("rox.phase1_ms", phase1_ms_ / r, "ms");
  report->Set("rox.sampling_ms", sampling_ms_ / r, "ms");
  report->Set("rox.execution_ms", execution_ms_ / r, "ms");
  report->Set("rox.assembly_ms", assembly_ms_ / r, "ms");
  report->Set("rox.chain_rounds", chain_rounds_ / r, "count");
  report->Set("rox.sampled_tuples", sampled_tuples_ / r, "rows");
  report->Set("rox.edges_executed", edges_executed_ / r, "count");
  report->Set("rox.peak_intermediate_rows", peak_rows_, "rows");
  auto find = [](const auto& map, const char* key) {
    auto it = map.find(key);
    return it == map.end() ? decltype(it->second){} : it->second;
  };
  for (const char* k : kKernels) {
    report->Set(std::string("rox.estimate_error_log2.") + k,
                Median(find(estimate_error_, k)), "log2");
  }
  for (const char* k : kKernels) {
    report->Set(std::string("exec.edge_ms.") + k, find(edge_ms_, k) / r, "ms");
  }
  for (const char* k : kKernels) {
    double ms = find(edge_ms_, k);
    report->Set(std::string("exec.rows_per_s.") + k,
                ms > 0 ? find(edge_rows_, k) / (ms / 1000) : 0, "rows/s");
  }
  report->Set("exec.gather_ms", gather_ms_ / r, "ms");
  report->Set("exec.plan_tail_ms", plan_tail_ms_ / r, "ms");
  report->Set("exec.arena_bytes", arena_bytes_ / r, "bytes");
}

void MeasureXmlLayers(const std::vector<XmlText>& docs, Report* report) {
  std::vector<double> parse_ms, add_ms;
  for (int rep = 0; rep < 3; ++rep) {
    double parse = 0, add = 0;
    for (const XmlText& d : docs) {
      auto t0 = Clock::now();
      auto parsed = rox::ParseXml(d.xml, d.name);
      parse += MillisSince(t0);
      if (!parsed.ok()) report->Failed("ParseXml " + d.name);
      rox::Corpus corpus;
      t0 = Clock::now();
      auto added = corpus.AddXml(d.xml, d.name);
      add += MillisSince(t0);
      if (!added.ok()) report->Failed("AddXml " + d.name);
      report->Attempt(2);
    }
    parse_ms.push_back(parse);
    add_ms.push_back(add);
  }
  const double parse = Median(parse_ms);
  report->Set("xml.parse_ms", parse, "ms");
  report->Set("index.build_ms", std::max(0.0, Median(add_ms) - parse), "ms");
}

void MeasureXqLayers(const rox::Corpus& corpus,
                     const std::vector<std::string>& texts, Report* report) {
  constexpr int kReps = 30;
  double parse_us = 0, compile_us = 0;
  for (const std::string& text : texts) {
    std::vector<double> parse, compile;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = Clock::now();
      auto ast = rox::xq::ParseXQuery(text);
      parse.push_back(MillisSince(t0) * 1000);
      report->Attempt();
      if (!ast.ok()) {
        report->Failed("ParseXQuery: " + ast.status().ToString());
        continue;
      }
      t0 = Clock::now();
      auto compiled = rox::xq::CompileXQuery(corpus, *ast);
      compile.push_back(MillisSince(t0) * 1000);
      report->Attempt();
      if (!compiled.ok()) {
        report->Failed("CompileXQuery: " + compiled.status().ToString());
      }
    }
    parse_us += Median(parse);
    compile_us += Median(compile);
  }
  const double n = texts.empty() ? 1 : static_cast<double>(texts.size());
  report->Set("xq.parse_us", parse_us / n, "us");
  report->Set("xq.compile_us", compile_us / n, "us");
}

RenderCost MeasureRender(const rox::engine::QueryResponse& response) {
  rox::engine::ResponseJsonOptions opts;
  opts.max_rows = kServerRowCap;
  std::vector<double> ms;
  RenderCost cost;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    std::string json = response.ToJson(opts);
    ms.push_back(MillisSince(t0));
    cost.bytes = static_cast<double>(json.size());
  }
  cost.ms = Median(ms);
  return cost;
}

void MeasureClassical(const rox::Corpus& corpus, uint64_t seed,
                      Report* report) {
  double ratio = 0;
  std::vector<rox::DocId> docs;
  for (const char* venue : {"VLDB", "ICDE", "ICIP", "ADBIS"}) {
    auto id = corpus.Resolve(venue);
    if (id.ok()) docs.push_back(*id);
  }
  report->Attempt();
  if (docs.size() == 4) {
    rox::DblpQueryGraph q = rox::BuildDblpJoinGraph(corpus, docs);
    rox::RoxOptions opts;
    opts.seed = seed;
    rox::RoxOptimizer optimizer(corpus, q.graph, opts);
    auto run = optimizer.Run();
    auto order = run.ok() ? rox::RoxJoinOrderFromRun(q, *run)
                          : rox::Result<rox::JoinOrder>(run.status());
    if (order.ok()) {
      const rox::JoinOrder classical = rox::ClassicalJoinOrder(corpus, docs);
      double rox_rows = 0, classical_rows = 0;
      for (const auto& oc : rox::ComputeOrderCardinalities(corpus, docs)) {
        if (oc.order == *order) rox_rows = static_cast<double>(oc.cumulative);
        if (oc.order == classical) {
          classical_rows = static_cast<double>(oc.cumulative);
        }
      }
      if (rox_rows > 0) ratio = classical_rows / rox_rows;
    } else {
      report->Failed("Figure 5 ROX order: " + order.status().ToString());
    }
  } else {
    report->Failed("Figure 5 venues missing from the corpus");
  }
  report->Set("classical.rows_vs_rox", ratio, "x");
}

}  // namespace perfbench
