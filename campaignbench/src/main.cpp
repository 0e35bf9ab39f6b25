// campaign_bench: one run of one workload. Prints the result line (JSON) as
// the last line of standard output; see README.md for the metrics.
//
//   campaign_bench --workload fleet_churn|city_sensing|daemon_ingest
//                  --seed N --seconds S --trace 0|1 [--serve-binary PATH]
//
// Exit codes: 0 run correct, 1 a check failed, 2 bad command line.
#include <cstdio>
#include <string>

#include "campaign.hpp"
#include "common/log.hpp"

int main(int argc, char** argv) {
  std::string error;
  const std::optional<campaign::Options> opts =
      campaign::ParseArgs(argc, argv, &error);
  if (!opts) {
    std::fprintf(stderr, "campaign_bench: %s\n", error.c_str());
    return 2;
  }
  sor::Logger::instance().set_level(sor::LogLevel::kError);
  campaign::Report report;
  if (opts->workload == campaign::Workload::kDaemonIngest) {
    campaign::RunDaemonWorkload(*opts, report);
  } else {
    campaign::RunInProcessWorkload(*opts, report);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
