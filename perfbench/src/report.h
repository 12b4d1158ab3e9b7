// Command line, metric collection and the result line of one benchmark
// run, plus the small statistics and resource helpers every workload
// uses.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Parses --workload NAME --seed N --seconds S --trace 0|1 (also the
// --key=value spelling). Returns false, after printing why, on anything
// else.
bool ParseArgs(int argc, char** argv, Args* out);

double MillisSince(Clock::time_point start);

// Quantile by linear interpolation between closest ranks (q in [0,1]);
// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Prints the median and the highest of p90/p99/p99.9 that has at least
// ten samples beyond it, with the sample count; the median alone below
// forty samples. Human-readable, on stdout.
void PrintLatency(const char* label, const std::vector<double>& ms);

// Host phases. On a shared host, interference from other tenants comes
// in phases of seconds that slow every operation of a run alike (round
// times jump between two levels up to 50% apart within one run), and a
// median over the whole run flips with the share of slow time. So a run
// is cut into windows of whole rounds of about kWindowMs, and the
// end-to-end timings are taken over the faster kFastShare of the
// windows: a run is steady unless the slow phase lasts through three
// quarters of it.
inline constexpr double kWindowMs = 250;
inline constexpr double kFastShare = 0.25;

// For each window, given its mean round time: true when it belongs to
// the faster kFastShare (its mean is at most that quantile of the means).
std::vector<bool> FastWindows(const std::vector<double>& window_mean_ms);

// Publishes and replay batches are hit by interference (page faults,
// memory bandwidth) one sample at a time, apart from the rounds around
// them, and about twice as hard; their metrics take the kProbeQuantile
// of the samples: the cost of an undisturbed one.
inline constexpr double kProbeQuantile = 0.05;
double ProbeCost(const std::vector<double>& samples);

// Prints the spread of the window means: how strongly host phases
// moved this run.
void PrintWindows(const std::vector<double>& window_mean_ms);

// Peak resident set of the process so far, in MB (getrusage).
double PeakRssMb();
// Minor page faults of the process so far (getrusage).
uint64_t MinorFaults();

// The metrics of one run and the outcome of its checks. Metrics keep
// insertion order; the last stdout line is the JSON result object
// (README.md).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(const std::string& what);
  // A wrong output: the run is not correct.
  void Wrong(const std::string& what);
  // Checks `ok`; a false one is a wrong output described by `what`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Wrong(what);
  }

  bool correct() const { return wrong_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints every metric by name and unit, then the JSON result line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
