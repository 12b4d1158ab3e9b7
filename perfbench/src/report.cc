#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (out->seconds <= 0) end = nullptr;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") end = nullptr;
      else end = value.data() + value.size();
      out->trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
    if (key != "--workload" && (end == nullptr || *end != '\0')) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_joins|theta_wide|"
                 "http_live --seed N --seconds S --trace 0|1\n");
    return false;
  }
  return true;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void PrintLatency(const char* label, const std::vector<double>& ms) {
  const size_t n = ms.size();
  std::printf("  %-28s p50 %.4f ms", label, Median(ms));
  if (n >= 40) {
    static constexpr double kTails[] = {0.999, 0.99, 0.9};
    for (double q : kTails) {
      double beyond = std::floor(static_cast<double>(n) * (1 - q));
      if (beyond >= 10) {
        std::printf(", p%g %.4f ms (%.0f samples beyond)", q * 100,
                    Quantile(ms, q), beyond);
        break;
      }
    }
  }
  std::printf(" [n=%zu]\n", n);
}

std::vector<bool> FastWindows(const std::vector<double>& window_mean_ms) {
  const double cut = Quantile(window_mean_ms, kFastShare);
  std::vector<bool> fast;
  for (double ms : window_mean_ms) fast.push_back(ms <= cut);
  return fast;
}

void PrintWindows(const std::vector<double>& window_mean_ms) {
  std::printf("  %zu windows, mean round ms: p10 %.4f, p25 %.4f, p50 %.4f, "
              "p90 %.4f\n",
              window_mean_ms.size(), Quantile(window_mean_ms, 0.1),
              Quantile(window_mean_ms, 0.25), Quantile(window_mean_ms, 0.5),
              Quantile(window_mean_ms, 0.9));
}

double ProbeCost(const std::vector<double>& samples) {
  return Quantile(samples, kProbeQuantile);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

uint64_t MinorFaults() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Failed(const std::string& what) {
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Report::Wrong(const std::string& what) {
  ++wrong_;
  if (wrong_ <= 5) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

void Report::Print() const {
  std::printf("metrics:\n");
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu, wrong outputs %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(wrong_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
