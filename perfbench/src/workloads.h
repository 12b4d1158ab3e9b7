// The three workloads. Each returns 0 after filling `report`, or a
// nonzero exit code when it could not set up (no result line then).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "index/corpus.h"
#include "oracle.h"
#include "report.h"
#include "setup.h"

namespace perfbench {

// The parsed corpus and the texts it was parsed from.
struct Prepared {
  std::vector<XmlText> docs;
  XmlText publish;
  rox::Corpus corpus;
};
// Generates and parses the corpus and prints its make-up.
rox::Status Prepare(Prepared* out);

// The independent expected result of the named query of setup.h
// (PaperJoinsQueries, ThetaWideQueries, ReplayedQueries).
std::vector<rox::Pre> ExpectedByName(const std::string& name,
                                     const rox::Corpus& corpus,
                                     const Q1Oracle& q1);

// paper_joins and theta_wide: Engine::Execute, query cache off.
int RunEngineWorkload(const Args& args, Clock::time_point start,
                      Report* report);

// http_live: an in-process HttpServer under closed-loop clients and a
// writer.
int RunHttpLive(const Args& args, Clock::time_point start, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
