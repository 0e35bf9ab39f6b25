// The campaign benchmark's workloads and the loop that drives a SOR
// campaign from outside, through the public API only.
//
// An in-process round mirrors core::System::RunFieldTest step for step
// (deploy, register, scan, epoch ticks, leave, process, build H, rank), but
// times each join, leave and ranking query by itself. The equivalence test
// (tests/equivalence_test.cpp) holds its feature matrix and rankings equal
// to RunFieldTest's for the same scenario, config and seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/barcode.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "core/fleet.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "phone/frontend.hpp"
#include "rank/personalizable_ranker.hpp"
#include "server/server.hpp"
#include "world/phone_agent.hpp"
#include "world/scenarios.hpp"

namespace campaign {

// One workload's inputs, all derived from the seed.
struct CampaignSpec {
  sor::world::Scenario scenario;
  // Only the fields a fault-free campaign reads: budget, tick, n_instants,
  // sigma_s, seed, aggregation, scheduler, defer_setup_reschedules.
  sor::core::FieldTestConfig config;
  // Ground-truth feature values, places × features (row-major).
  std::vector<double> truth;
  // The paper's table for this scenario, one ordered place list per
  // profile; empty when the scenario is not one of the paper's.
  std::vector<std::vector<std::string>> paper_rankings;
};

// fleet_churn: the coffee scenario, ~1000 phones per shop, a short period.
[[nodiscard]] CampaignSpec FleetChurnSpec(std::uint64_t seed);
// city_sensing: ~100 synthetic shops with seeded ground truth (city.cpp).
[[nodiscard]] CampaignSpec CitySensingSpec(std::uint64_t seed);
// daemon_ingest: the trails scenario at 150 phones per trail.
[[nodiscard]] CampaignSpec DaemonIngestSpec(std::uint64_t seed);

// Table I / Table II of the paper, in scenario profile order.
[[nodiscard]] std::vector<std::vector<std::string>> PaperTableI();
[[nodiscard]] std::vector<std::vector<std::string>> PaperTableII();

// What the independent checks read after a campaign.
struct CampaignOutput {
  sor::rank::FeatureMatrix matrix;
  std::vector<std::pair<std::string, sor::rank::RankingOutcome>> rankings;
  std::size_t phones = 0;
  std::size_t joined = 0;  // joins that returned a task id
  std::vector<sor::server::ParticipationRecord> tasks;  // every task, final
  std::uint64_t uploads_stored = 0;    // the server's count
  std::uint64_t uploads_acked = 0;     // acks the phones saw
  std::uint64_t blobs_decoded = 0;     // the data processor's count
  std::uint64_t raw_data_rows = 0;     // the raw_data table's size
};

// Server-side per-message-type call times, taken by a timing endpoint
// registered as "server" in front of SensingServer::HandleFrame.
struct CallTimes {
  std::vector<double> join_us;
  std::vector<double> upload_us;
  std::vector<double> leave_us;
  double total_s = 0.0;       // all frames
  std::uint64_t frames = 0;   // all frames
  double last_us = 0.0;       // the most recent call

  void Record(std::uint8_t type, double us);
};

// One round's measurements (seconds unless the name says otherwise).
struct RoundTimings {
  double setup_s = 0.0;
  double campaign_s = 0.0;     // first join .. last profile ranked
  double sensing_s = 0.0;      // the tick loop
  double rank_ready_s = 0.0;   // last leave acked .. every profile ranked
  double process_s = 0.0;
  double build_matrix_s = 0.0;
  std::vector<double> join_ms;
  std::vector<double> leave_ms;
  std::vector<double> join_client_us;  // join minus its server handler
  std::vector<double> rank_query_ms;   // per profile, see RankQueryMs
  CallTimes calls;
  double sensing_calls = 0.0;          // server calls during the tick loop
  double sensing_call_s = 0.0;         // their summed time
  double sensing_cpu_s = 0.0;          // process CPU during the tick loop
  std::uint64_t sensing_frames = 0;    // frames the network delivered then
  std::uint64_t ticks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Traced rounds only.
  double tick_s = 0.0;    // Σ MobileFrontend::Tick
  double merge_s = 0.0;   // Σ LoopbackNetwork::MergeEpoch
  std::vector<double> aggregate_ms;  // FootruleMcmfAggregate per profile
};

// Time one profile's Rank as seen by a user. A query under a millisecond is
// repeated in blocks and the median block's mean is taken, so microsecond
// queries still give a steady figure.
[[nodiscard]] double RankQueryMs(const sor::rank::PersonalizableRanker& ranker,
                                 const sor::rank::UserProfile& profile,
                                 sor::rank::AggregationMethod method,
                                 double first_call_ms);
// The same repetition rule around rank::FootruleMcmfAggregate.
[[nodiscard]] double AggregateMs(const sor::rank::RankingOutcome& outcome);

class TimedServer;

// One in-process campaign. The constructor is the set-up (world, fleet,
// deployment, users, phones); Run() is the campaign.
class InProcessCampaign {
 public:
  explicit InProcessCampaign(const CampaignSpec& spec);
  ~InProcessCampaign();

  InProcessCampaign(const InProcessCampaign&) = delete;
  InProcessCampaign& operator=(const InProcessCampaign&) = delete;

  // Runs joins, the sensing period, leaves, processing and ranking.
  // `traced` adds the per-layer timers (Σ Tick, Σ MergeEpoch, the
  // aggregate re-timing after the campaign).
  sor::Status Run(bool traced);

  [[nodiscard]] const RoundTimings& timings() const { return timings_; }
  [[nodiscard]] CampaignOutput Output() const;
  [[nodiscard]] sor::server::SensingServer& server() { return *server_; }
  [[nodiscard]] sor::obs::MetricsRegistry& registry() { return registry_; }

 private:
  const CampaignSpec& spec_;
  sor::Status setup_status_ = sor::Status::Ok();
  sor::SimClock clock_;
  sor::obs::MetricsRegistry registry_;
  sor::net::LoopbackNetwork network_;
  std::unique_ptr<sor::server::SensingServer> server_;
  std::unique_ptr<TimedServer> timed_server_;
  sor::core::FleetPlan plan_;
  std::vector<sor::AppId> app_ids_;
  std::vector<sor::BitMatrix> barcode_matrices_;  // per place
  std::vector<std::unique_ptr<sor::world::PhoneAgent>> agents_;
  std::vector<std::unique_ptr<sor::phone::MobileFrontend>> frontends_;
  std::size_t joined_ = 0;
  sor::rank::FeatureMatrix matrix_;
  std::vector<std::pair<std::string, sor::rank::RankingOutcome>> rankings_;
  RoundTimings timings_;
};

// Independent output checks (checks.cpp). Each failure is recorded in
// `report` and turns the run incorrect.
void CheckCampaign(const CampaignSpec& spec, const CampaignOutput& out,
                   Report& report);

// Set-up is reported as the median of at least this many set-ups per run;
// set-ups beyond those of the measured rounds are made after them.
inline constexpr std::size_t kSetupSamples = 15;

// The workloads: each runs whole rounds until `opts.seconds` have passed
// and fills `report` with the end-to-end metrics, or with the per-layer
// metrics when opts.trace is set.
void RunInProcessWorkload(const Options& opts, Report& report);
void RunDaemonWorkload(const Options& opts, Report& report);

// One complete daemon round for the equivalence test: spawns `sor serve`
// for `spec`, replays the fleet over two connections and returns the
// daemon's rankings text (core::RenderRankingsText).
[[nodiscard]] sor::Result<std::string> DaemonRankingsText(
    const CampaignSpec& spec, const std::string& serve_binary);

}  // namespace campaign
