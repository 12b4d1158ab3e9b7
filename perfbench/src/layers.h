// Per-layer measurements of the traced run (--trace 1). Each layer is
// measured from outside: by timing calls into its public functions, or
// by folding the span tree Engine::Execute records at
// trace_level=spans (obs/trace.h).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "engine/query_api.h"
#include "index/corpus.h"
#include "report.h"
#include "setup.h"

namespace perfbench {

// The kernels EdgeTrace::kernel names, reported one metric each.
inline constexpr const char* kKernels[] = {
    "structural", "hash", "merge", "index-nl", "theta-run", "theta-index"};

// The row cap of the HTTP server's responses (ServerOptions default).
inline constexpr size_t kServerRowCap = 1000;

// Sums the rox.* and exec.* figures of traced, executed queries.
class LayerTotals {
 public:
  void Add(const rox::engine::QueryResult& result);

  // Emits the rox.* and exec.* metrics; times and counts per round.
  void Emit(double rounds, Report* report) const;

 private:
  double phase1_ms_ = 0, sampling_ms_ = 0, execution_ms_ = 0,
         assembly_ms_ = 0, gather_ms_ = 0, plan_tail_ms_ = 0;
  double chain_rounds_ = 0, sampled_tuples_ = 0, edges_executed_ = 0,
         arena_bytes_ = 0;
  double peak_rows_ = 0;
  std::map<std::string, double> edge_ms_, edge_rows_;
  std::map<std::string, std::vector<double>> estimate_error_;
};

// xml.parse_ms (ParseXml) and index.build_ms (Corpus::AddXml minus
// ParseXml) over the corpus texts; medians of three repetitions.
void MeasureXmlLayers(const std::vector<XmlText>& docs, Report* report);

// xq.parse_us (ParseXQuery) and xq.compile_us (CompileXQuery of the
// parsed query): per query, averaged over `texts`.
void MeasureXqLayers(const rox::Corpus& corpus,
                     const std::vector<std::string>& texts, Report* report);

// QueryResponse::ToJson at the server's row cap: median render time of
// one response (ms) and its size (bytes).
struct RenderCost {
  double ms = 0;
  double bytes = 0;
};
RenderCost MeasureRender(const rox::engine::QueryResponse& response);

// classical.rows_vs_rox: the Figure 5 query's intermediate rows under
// the classical join order relative to the order ROX executes.
void MeasureClassical(const rox::Corpus& corpus, uint64_t seed,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
