#pragma once

// Measurement helpers for the benchmark binary: percentiles, CPU clocks,
// per-op check accounting, and the metric sink that prints the final JSON
// line. Kept free of the CPLA libraries so the self-test binary can use it
// alone.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace cplabench {

/// Percentile p in [0, 100] with linear interpolation between closest
/// ranks (the "inclusive" definition: p0 = min, p100 = max). 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Process user+sys CPU seconds (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU seconds of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// The output checks of one op. A failed check marks the op failed; it
/// never aborts the run.
class OpChecks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Counts attempted and failed ops across a run.
class OpLedger {
 public:
  /// Books one op; returns whether it passed. The first few failure
  /// messages go to stderr.
  bool book(const OpChecks& checks) {
    ++attempted_;
    if (checks.passed()) return true;
    ++failed_;
    for (const std::string& f : checks.failures()) {
      if (++logged_ <= 20) {
        std::fprintf(stderr, "cplabench: op %ld failed: %s\n", attempted_, f.c_str());
      }
    }
    return false;
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  long logged_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Collects metric values for one run. Only names from the declared
/// catalogue are accepted, and the final line lists exactly that
/// catalogue, so every metric printed is one BENCHMARK.json names.
class MetricSink {
 public:
  explicit MetricSink(std::vector<MetricDef> catalogue) : catalogue_(std::move(catalogue)) {}

  /// Returns false (and records an error) for a name outside the catalogue.
  bool set(const std::string& name, double value) {
    for (const MetricDef& d : catalogue_) {
      if (name == d.name) {
        values_[name] = std::isfinite(value) ? value : 0.0;
        return true;
      }
    }
    errors_.push_back("undeclared metric " + name);
    return false;
  }

  /// Names of catalogue metrics never set.
  std::vector<std::string> missing() const {
    std::vector<std::string> out;
    for (const MetricDef& d : catalogue_) {
      if (values_.count(d.name) == 0) out.push_back(d.name);
    }
    return out;
  }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, double>& values() const { return values_; }

  std::string json(bool correct, long attempted, long failed) const {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : catalogue_) {
      auto it = values_.find(d.name);
      if (it == values_.end()) continue;
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", it->second);
      out += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    }
    return out + "}}";
  }

 private:
  std::vector<MetricDef> catalogue_;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
};

}  // namespace cplabench
