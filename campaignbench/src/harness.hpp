// Shared plumbing of the campaign benchmark: the strict command line,
// wall/CPU clocks, raw-sample percentiles, /proc readers and the one-line
// JSON result every workload prints.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace campaign {

using Clock = std::chrono::steady_clock;

enum class Workload { kFleetChurn, kCitySensing, kDaemonIngest };

struct Options {
  Workload workload = Workload::kFleetChurn;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring time of one run
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::string serve_binary;  // the `sor` CLI, for daemon_ingest
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--serve-binary P]`.
// Every flag takes a value. On an unknown flag, an unknown workload, a
// missing or malformed value, returns nullopt with `error` naming it.
[[nodiscard]] std::optional<Options> ParseArgs(int argc, char** argv,
                                               std::string* error);

[[nodiscard]] inline double SecondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

// Percentile of raw samples, linear interpolation between order statistics
// (q in [0, 1]). Empty input gives 0.
[[nodiscard]] double Percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// utime + stime of this process, in seconds.
[[nodiscard]] double SelfCpuSeconds();
// utime + stime of another process from /proc/<pid>/stat; < 0 on error.
[[nodiscard]] double ProcCpuSeconds(pid_t pid);
// VmHWM of a process from /proc/<pid>/status, in MB (pid 0 = self); < 0 on
// error.
[[nodiscard]] double PeakRssMb(pid_t pid = 0);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run prints: correctness, operation accounting and the metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Records a failed independent check; the run's `correct` turns false
  // and the message goes to stderr.
  void Check(bool ok, const std::string& what);
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failures_ == 0; }

  // The result line: {"correct": ..., "attempted": ..., "failed": ...,
  // "metrics": {"name": {"value": v, "unit": "u"}, ...}}
  [[nodiscard]] std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace campaign
