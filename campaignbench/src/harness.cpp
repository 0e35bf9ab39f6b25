#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace campaign {

namespace {

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

std::optional<Options> ParseArgs(int argc, char** argv, std::string* error) {
  Options opts;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--serve-binary") {
      *error = "unknown flag '" + flag + "'";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      *error = "missing value for '" + flag + "'";
      return std::nullopt;
    }
    if (seen.count(flag) != 0) {
      *error = "flag '" + flag + "' given twice";
      return std::nullopt;
    }
    seen[flag] = argv[++i];
  }
  if (seen.count("--workload") == 0) {
    *error = "missing required flag '--workload'";
    return std::nullopt;
  }
  const std::string& w = seen["--workload"];
  if (w == "fleet_churn") {
    opts.workload = Workload::kFleetChurn;
  } else if (w == "city_sensing") {
    opts.workload = Workload::kCitySensing;
  } else if (w == "daemon_ingest") {
    opts.workload = Workload::kDaemonIngest;
  } else {
    *error = "unknown workload '" + w +
             "' (fleet_churn|city_sensing|daemon_ingest)";
    return std::nullopt;
  }
  if (seen.count("--seed") != 0 && !ParseU64(seen["--seed"], &opts.seed)) {
    *error = "bad value for '--seed': '" + seen["--seed"] + "'";
    return std::nullopt;
  }
  if (seen.count("--seconds") != 0) {
    std::uint64_t s = 0;
    if (!ParseU64(seen["--seconds"], &s) || s == 0) {
      *error = "bad value for '--seconds': '" + seen["--seconds"] + "'";
      return std::nullopt;
    }
    opts.seconds = static_cast<double>(s);
  }
  if (seen.count("--trace") != 0) {
    const std::string& t = seen["--trace"];
    if (t != "0" && t != "1") {
      *error = "bad value for '--trace': '" + t + "' (0|1)";
      return std::nullopt;
    }
    opts.trace = t == "1";
  }
  if (seen.count("--serve-binary") != 0) opts.serve_binary = seen["--serve-binary"];
  if (opts.workload == Workload::kDaemonIngest && opts.serve_binary.empty()) {
    *error = "daemon_ingest needs '--serve-binary' (the sor CLI)";
    return std::nullopt;
  }
  return opts;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after the last ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields 3.. follow; utime and stime are fields 14 and 15.
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::atof(field.c_str());
    if (index == 15) {
      stime = std::atof(field.c_str());
      return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  return -1.0;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB → MB
    }
  }
  return -1.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace campaign
