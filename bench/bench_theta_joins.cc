// Theta-join benchmark (DESIGN.md §11): runs the parameterized range-/
// inequality-join and disjunctive-predicate queries of the XMark and
// DBLP workloads through the full ROX pipeline, checks that repeats
// return identical results, and reports per-query wall times and join
// rows/sec so the edge class shows up in the perf trajectory (the CI
// perf-trend job compares the JSON against the previous run's).
// Result correctness is tested against the reference evaluator in
// tests/theta_join_test.cc.
//
//   $ ./bench_theta_joins [--xmark_scale=0.15] [--dblp_tag_scale=0.1]
//        [--repeat=5] [--tau=100] [--seed=42] [--smoke]
//        [--json=BENCH_theta_joins.json]
//
// --smoke shrinks the corpus and repeat count for CI.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "index/corpus.h"
#include "rox/options.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox::bench {
namespace {

struct BenchQuery {
  std::string name;
  std::string text;
};

std::vector<BenchQuery> Queries() {
  // MLDM / ICDM are Table 3 documents 7 and 8 (added below).
  return {
      {"qty_lt", XmarkQuantityIncreaseQuery(CmpOp::kLt, 1)},
      {"qty_ge", XmarkQuantityIncreaseQuery(CmpOp::kGe, 2)},
      {"qty_ne", XmarkQuantityIncreaseQuery(CmpOp::kNe, 1)},
      {"price_theta", XmarkPriceThetaQuery(CmpOp::kLe, 80, 170)},
      {"disjunctive_qty", XmarkDisjunctiveQuantityQuery(1, 4)},
      {"dblp_year_le", DblpAuthorYearQuery("MLDM", "ICDM", CmpOp::kLe)},
      {"dblp_year_ne", DblpAuthorYearQuery("MLDM", "ICDM", CmpOp::kNe)},
  };
}

struct QueryRun {
  double best_total_ms = 0;
  // Intermediate rows the best repeat pushed through its join kernels —
  // with best_total_ms this yields the rows/sec rate the perf-trend job
  // tracks.
  uint64_t intermediate_rows = 0;
  std::vector<Pre> items;
};

Result<QueryRun> RunQuery(const Corpus& corpus,
                          const xq::CompiledQuery& compiled,
                          const RoxOptions& rox, int repeat) {
  QueryRun out;
  for (int r = 0; r < repeat; ++r) {
    RoxStats stats;
    StopWatch watch;
    auto items = xq::RunXQuery(corpus, compiled, rox, &stats);
    double ms = watch.ElapsedMillis();
    ROX_RETURN_IF_ERROR(items.status());
    if (r == 0 || ms < out.best_total_ms) {
      out.best_total_ms = ms;
      out.intermediate_rows = stats.cumulative_intermediate_rows;
    }
    if (r == 0) {
      out.items = std::move(*items);
    } else if (*items != out.items) {
      return Status::Internal("result items differ between repeats");
    }
  }
  return out;
}

// Rows/sec of a query run (0 when the wall time rounds to zero).
double RowsPerSec(const QueryRun& run) {
  return run.best_total_ms > 0
             ? static_cast<double>(run.intermediate_rows) /
                   (run.best_total_ms / 1000.0)
             : 0.0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const double xmark_scale =
      flags.GetDouble("xmark_scale", smoke ? 0.05 : 0.15);
  const double dblp_tag_scale =
      flags.GetDouble("dblp_tag_scale", smoke ? 0.05 : 0.1);
  const int repeat = static_cast<int>(flags.GetInt("repeat", smoke ? 2 : 5));
  const uint64_t tau = static_cast<uint64_t>(flags.GetInt("tau", 100));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path =
      flags.GetString("json", "BENCH_theta_joins.json");
  flags.FailOnUnused();

  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = static_cast<uint32_t>(4350 * xmark_scale);
  gen.persons = static_cast<uint32_t>(5100 * xmark_scale);
  gen.open_auctions = static_cast<uint32_t>(2400 * xmark_scale);
  auto xdoc = GenerateXmarkDocument(corpus, gen);
  if (!xdoc.ok()) {
    std::fprintf(stderr, "corpus: %s\n", xdoc.status().ToString().c_str());
    return 1;
  }
  DblpGenOptions dblp;
  dblp.tag_scale = dblp_tag_scale;
  auto ddocs = AddDblpDocuments(corpus, dblp, {7, 8});  // MLDM, ICDM
  if (!ddocs.ok()) {
    std::fprintf(stderr, "dblp: %s\n", ddocs.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "XMark scale %.2f (%u nodes) + DBLP tag scale %.2f; %d repeats\n\n",
      xmark_scale, corpus.doc(*xdoc).NodeCount(), dblp_tag_scale, repeat);

  RoxOptions rox;
  rox.tau = tau;
  rox.seed = seed;

  struct Row {
    std::string name;
    uint64_t items = 0;
    double total_ms = 0, rows_per_sec = 0;
  };
  std::vector<Row> rows;

  std::printf("query           | total ms | rows/sec     | items\n");
  for (const BenchQuery& q : Queries()) {
    auto compiled = xq::CompileXQuery(corpus, q.text);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", q.name.c_str(),
                   compiled.status().ToString().c_str());
      return 1;
    }
    auto run = RunQuery(corpus, *compiled, rox, repeat);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    Row row;
    row.name = q.name;
    row.items = run->items.size();
    row.total_ms = run->best_total_ms;
    row.rows_per_sec = RowsPerSec(*run);
    std::printf("%-15s | %8.1f | %12.1f | %llu\n", row.name.c_str(),
                row.total_ms, row.rows_per_sec,
                static_cast<unsigned long long>(row.items));
    rows.push_back(std::move(row));
  }

  // JSON report; the flat "metrics" object is what the CI perf-trend
  // job (tools/perf_trend.py) compares across runs.
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"theta_joins\",\n"
               "  \"xmark_scale\": %.3f,\n  \"dblp_tag_scale\": %.3f,\n"
               "  \"repeat\": %d,\n  \"tau\": %llu,\n  \"seed\": %llu,\n"
               "  \"queries\": [\n",
               xmark_scale, dblp_tag_scale, repeat,
               static_cast<unsigned long long>(tau),
               static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"result_items\": %llu, "
                 "\"total_ms\": %.3f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.items),
                 r.total_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // *_rows_per_sec metrics are higher-is-better; perf_trend.py
    // detects the suffix and inverts its regression ratio for them.
    std::fprintf(f, "    \"%s_ms\": %.3f, \"%s_rows_per_sec\": %.1f%s\n",
                 r.name.c_str(), r.total_ms, r.name.c_str(), r.rows_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace rox::bench

int main(int argc, char** argv) { return rox::bench::Main(argc, argv); }
