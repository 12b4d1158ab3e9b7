// perfbench: one run of one workload of the repo benchmark.
//
//   perfbench --workload paper_joins|theta_wide|http_live --seed N
//             --seconds S --trace 0|1
//
// Prints a human-readable account and, as its last stdout line, the JSON
// result: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exit status 0 when every output was correct, 1 on a
// wrong output or a failed set-up, 2 on a bad command line. See
// README.md for the workloads and metrics.

#include <cstdio>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  // Set-up time counts from here: the process's first instruction of
  // its own.
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::Report report;
  int rc = 0;
  if (args.workload == "paper_joins" || args.workload == "theta_wide") {
    rc = perfbench::RunEngineWorkload(args, start, &report);
  } else if (args.workload == "http_live") {
    rc = perfbench::RunHttpLive(args, start, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.Print();
  return report.correct() ? 0 : 1;
}
