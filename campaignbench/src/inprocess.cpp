// In-process workloads (fleet_churn, city_sensing): the campaign loop and
// the metrics it reports.
#include <algorithm>
#include <cstdio>
#include <span>

#include "campaign.hpp"
#include "codec/messages.hpp"
#include "rank/aggregate.hpp"

namespace campaign {

using namespace sor;

namespace {

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

void CallTimes::Record(std::uint8_t type, double us) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kParticipationRequest: join_us.push_back(us); break;
    case MessageType::kSensedDataUpload: upload_us.push_back(us); break;
    case MessageType::kLeaveNotification: leave_us.push_back(us); break;
    default: break;
  }
  total_s += us * 1e-6;
  ++frames;
  last_us = us;
}

// The timing endpoint: registered as "server" in front of the real
// SensingServer, it times every call and files it by message type (the
// frame's type byte follows the 4-byte magic).
class TimedServer final : public net::Endpoint {
 public:
  TimedServer(server::SensingServer& server, CallTimes& calls)
      : server_(server), calls_(calls) {}

  [[nodiscard]] Bytes HandleFrame(
      std::span<const std::uint8_t> frame) override {
    const auto t0 = Clock::now();
    Bytes reply = server_.HandleFrame(frame);
    calls_.Record(frame.size() > 4 ? frame[4] : 0, MicrosSince(t0));
    return reply;
  }

 private:
  server::SensingServer& server_;
  CallTimes& calls_;
};

std::vector<std::vector<std::string>> PaperTableI() {
  return {{"Cliff Trail", "Long Trail", "Green Lake Trail"},
          {"Long Trail", "Cliff Trail", "Green Lake Trail"},
          {"Green Lake Trail", "Long Trail", "Cliff Trail"}};
}

std::vector<std::vector<std::string>> PaperTableII() {
  return {{"Starbucks", "B&N Cafe", "Tim Hortons"},
          {"B&N Cafe", "Tim Hortons", "Starbucks"}};
}

CampaignSpec FleetChurnSpec(std::uint64_t seed) {
  CampaignSpec spec;
  spec.scenario = world::MakeCoffeeShopScenario();
  spec.scenario.phones_per_place = 1000;
  spec.scenario.period_s = 600.0;  // 60 ticks of 10 s
  spec.config.budget_per_user = 4;
  // The paper's grid density (§V-C: 1080 instants over 3 h), one instant
  // per 10 s tick: an upload then carries one acquisition.
  spec.config.n_instants = 60;
  spec.config.seed = seed;
  spec.config.defer_setup_reschedules = false;  // online per-join planning
  spec.truth = world::GroundTruthFeatures(spec.scenario);
  spec.paper_rankings = PaperTableII();
  return spec;
}

CampaignSpec DaemonIngestSpec(std::uint64_t seed) {
  CampaignSpec spec;
  spec.scenario = world::MakeHikingTrailScenario();
  spec.scenario.phones_per_place = 150;  // the paper's 3-hour period stays
  spec.config.budget_per_user = 40;
  spec.config.seed = seed;
  spec.truth = world::GroundTruthFeatures(spec.scenario);
  spec.paper_rankings = PaperTableI();
  return spec;
}

namespace {

// A call of a millisecond or more is timed once. A shorter one is timed in
// 21 blocks of repetitions, each block at least 0.5 ms long, and the median
// block's mean per call is returned: a burst of host noise spoils a block,
// not the figure.
template <typename Call>
double RepeatedMs(double first_call_ms, Call&& call) {
  if (first_call_ms >= 1.0) return first_call_ms;
  std::vector<double> blocks;
  for (int b = 0; b < 21; ++b) {
    const auto t0 = Clock::now();
    int calls = 0;
    do {
      call();
      ++calls;
    } while (SecondsSince(t0) < 0.5e-3);
    blocks.push_back(SecondsSince(t0) * 1e3 / calls);
  }
  return Median(std::move(blocks));
}

}  // namespace

double RankQueryMs(const rank::PersonalizableRanker& ranker,
                   const rank::UserProfile& profile,
                   rank::AggregationMethod method, double first_call_ms) {
  return RepeatedMs(first_call_ms,
                    [&] { (void)ranker.Rank(profile, method); });
}

double AggregateMs(const rank::RankingOutcome& outcome) {
  const auto call = [&] {
    (void)rank::FootruleMcmfAggregate(outcome.individual, outcome.weights);
  };
  const auto t0 = Clock::now();
  call();
  return RepeatedMs(SecondsSince(t0) * 1e3, call);
}

InProcessCampaign::InProcessCampaign(const CampaignSpec& spec) : spec_(spec) {
  const core::FieldTestConfig& cfg = spec.config;
  network_.set_clock(&clock_);
  network_.set_metrics(&registry_);
  server_ = std::make_unique<server::SensingServer>(server::ServerConfig{},
                                                    network_, clock_);
  server_->AttachObservability(&registry_, nullptr);
  server_->scheduler().set_algorithm(cfg.scheduler_algorithm);
  server::SchedulerOptions sched_opts;
  sched_opts.incremental = cfg.incremental_scheduling;
  server_->scheduler().set_options(sched_opts);
  server::DataProcessorOptions proc_opts = server_->data_processor().options();
  proc_opts.incremental = cfg.incremental_processing;
  server_->data_processor().set_options(proc_opts);
  timed_server_ = std::make_unique<TimedServer>(*server_, timings_.calls);
  network_.Register(server_->endpoint_name(), timed_server_.get());

  core::FleetPlanParams params;
  params.seed = cfg.seed;
  params.n_instants = cfg.n_instants;
  params.sigma_s = cfg.sigma_s;
  params.server_endpoint = server_->endpoint_name();
  plan_ = core::PlanFleet(spec.scenario, params);

  for (const server::ApplicationSpec& app : plan_.app_specs) {
    Result<BarcodePayload> barcode = server_->DeployApplication(app);
    if (!barcode.ok()) {
      setup_status_ = barcode.error();
      return;
    }
    app_ids_.push_back(barcode.value().app);
    barcode_matrices_.push_back(RenderBarcodeMatrix(barcode.value()));
  }
  for (const core::PhonePlan& ph : plan_.phones) {
    Result<UserId> user = server_->users().RegisterUser(ph.user_name, ph.token);
    if (!user.ok()) {
      setup_status_ = user.error();
      return;
    }
    world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = PhoneId{ph.seq};
    agent_cfg.mobility =
        spec.scenario.category == world::PlaceCategory::kHikingTrail
            ? world::Mobility::kTrailWalk
            : world::Mobility::kStatic;
    agent_cfg.enter_time = SimTime{0};
    agent_cfg.seed = ph.agent_seed;
    agents_.push_back(std::make_unique<world::PhoneAgent>(
        spec.scenario.places[ph.place_index], agent_cfg));

    phone::FrontendConfig phone_cfg;
    phone_cfg.phone_id = agent_cfg.id;
    phone_cfg.user_id = user.value();
    phone_cfg.user_name = ph.user_name;
    phone_cfg.token = ph.token;
    frontends_.push_back(std::make_unique<phone::MobileFrontend>(
        phone_cfg, network_, *agents_.back(), clock_));
    frontends_.back()->AttachObservability(&registry_, nullptr);
  }
}

InProcessCampaign::~InProcessCampaign() = default;

Status InProcessCampaign::Run(bool traced) {
  if (!setup_status_.ok()) return setup_status_;
  const core::FieldTestConfig& cfg = spec_.config;
  RoundTimings& t = timings_;
  const auto campaign_start = Clock::now();

  // Joins, one at a time in plan order: scan → participation → schedule.
  for (std::size_t k = 0; k < frontends_.size(); ++k) {
    const auto j0 = Clock::now();
    Result<TaskId> task = frontends_[k]->ScanBarcodeMatrix(
        barcode_matrices_[plan_.phones[k].place_index], cfg.budget_per_user);
    const double us = MicrosSince(j0);
    t.join_ms.push_back(us * 1e-3);
    t.join_client_us.push_back(us - t.calls.last_us);
    ++t.attempted;
    if (task.ok()) {
      ++joined_;
    } else {
      ++t.failed;
    }
  }

  // The sensing period: one delivery epoch per tick, as RunFieldTest does.
  std::vector<std::string> names;
  names.reserve(frontends_.size());
  for (const auto& frontend : frontends_) names.push_back(frontend->EndpointName());
  const std::int64_t period_ms = SimTime::FromSeconds(spec_.scenario.period_s).ms;
  const std::int64_t ticks = (period_ms + cfg.tick.ms - 1) / cfg.tick.ms;
  const std::uint64_t frames_before = t.calls.frames;
  const double call_s_before = t.calls.total_s;
  const std::uint64_t delivered_before = network_.stats().delivered;
  const double cpu_before = SelfCpuSeconds();
  const auto sensing_start = Clock::now();
  network_.BeginEpoch(std::move(names));
  for (std::int64_t i = 0; i < ticks; ++i) {
    clock_.advance(cfg.tick);
    server_->health().ObserveTick(clock_.now());
    if (traced) {
      const auto a = Clock::now();
      for (auto& frontend : frontends_) frontend->Tick();
      const auto b = Clock::now();
      network_.MergeEpoch();
      t.tick_s += SecondsBetween(a, b);
      t.merge_s += SecondsSince(b);
    } else {
      for (auto& frontend : frontends_) frontend->Tick();
      network_.MergeEpoch();
    }
  }
  network_.EndEpoch();
  t.sensing_s = SecondsSince(sensing_start);
  t.sensing_cpu_s = SelfCpuSeconds() - cpu_before;
  t.sensing_calls = static_cast<double>(t.calls.frames - frames_before);
  t.sensing_call_s = t.calls.total_s - call_s_before;
  t.sensing_frames = network_.stats().delivered - delivered_before;
  t.ticks = static_cast<std::uint64_t>(ticks);
  for (const auto& frontend : frontends_) {
    t.attempted += frontend->stats().uploads_sent + frontend->stats().upload_failures;
    t.failed += frontend->stats().upload_failures;
  }

  // Leaves, one at a time in plan order.
  for (auto& frontend : frontends_) {
    const auto l0 = Clock::now();
    const Status s = frontend->LeavePlace();
    t.leave_ms.push_back(MicrosSince(l0) * 1e-3);
    ++t.attempted;
    if (!s.ok()) ++t.failed;
  }

  // Process, build H and rank every profile.
  const auto ready_start = Clock::now();
  if (Result<int> n = server_->ProcessAllData(); !n.ok()) return n.error();
  t.process_s = SecondsSince(ready_start);
  std::vector<server::ApplicationRecord> records;
  for (AppId id : app_ids_) {
    Result<server::ApplicationRecord> rec = server_->applications().Get(id);
    if (!rec.ok()) return rec.error();
    records.push_back(std::move(rec).value());
  }
  const auto build_start = Clock::now();
  Result<rank::FeatureMatrix> matrix =
      server_->data_processor().BuildFeatureMatrix(records, spec_.scenario.features);
  if (!matrix.ok()) return matrix.error();
  t.build_matrix_s = SecondsSince(build_start);
  matrix_ = std::move(matrix).value();
  const rank::PersonalizableRanker ranker(matrix_);
  std::vector<double> first_ms;
  for (const rank::UserProfile& profile : spec_.scenario.profiles) {
    const auto q0 = Clock::now();
    Result<rank::RankingOutcome> outcome = ranker.Rank(profile, cfg.aggregation);
    first_ms.push_back(MicrosSince(q0) * 1e-3);
    ++t.attempted;
    if (!outcome.ok()) {
      ++t.failed;
      return outcome.error();
    }
    rankings_.emplace_back(profile.name, std::move(outcome).value());
  }
  t.rank_ready_s = SecondsSince(ready_start);
  t.campaign_s = SecondsSince(campaign_start);

  // After the campaign clock stops: each profile's query as a user sees it,
  // and (traced) the aggregation step on its own.
  for (std::size_t i = 0; i < spec_.scenario.profiles.size(); ++i) {
    t.rank_query_ms.push_back(RankQueryMs(ranker, spec_.scenario.profiles[i],
                                          cfg.aggregation, first_ms[i]));
    if (traced) t.aggregate_ms.push_back(AggregateMs(rankings_[i].second));
  }
  return Status::Ok();
}

CampaignOutput InProcessCampaign::Output() const {
  CampaignOutput out;
  out.matrix = matrix_;
  out.rankings = rankings_;
  out.phones = frontends_.size();
  out.joined = joined_;
  for (AppId id : app_ids_) {
    std::vector<server::ParticipationRecord> tasks =
        server_->participations().AllForApp(id);
    out.tasks.insert(out.tasks.end(), tasks.begin(), tasks.end());
  }
  out.uploads_stored = server_->stats().uploads_stored;
  for (const auto& frontend : frontends_) out.uploads_acked += frontend->stats().uploads_sent;
  out.blobs_decoded = server_->data_processor().stats().blobs_decoded;
  out.raw_data_rows = server_->database().table("raw_data")->size();
  return out;
}

namespace {

std::vector<double> Pool(const std::vector<RoundTimings>& rounds,
                         std::vector<double> RoundTimings::*field) {
  std::vector<double> all;
  for (const RoundTimings& r : rounds)
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  return all;
}

template <typename F>
double MedianOf(const std::vector<RoundTimings>& rounds, F&& f) {
  std::vector<double> v;
  for (const RoundTimings& r : rounds) v.push_back(f(r));
  return Median(std::move(v));
}

// Server-side counts of one round, read before the campaign is torn down.
struct RoundCounts {
  double joins = 0, gain_evaluations = 0, schedules_sent = 0, full_scans = 0;
  double raw_data_rows = 0, schedule_rows = 0, blobs_decoded = 0;
  double uploads_stored = 0;
};

RoundCounts CountsOf(InProcessCampaign& c, const CampaignOutput& out) {
  RoundCounts n;
  const server::SchedulerStats& sched = c.server().scheduler().stats();
  n.joins = static_cast<double>(out.joined);
  n.gain_evaluations = static_cast<double>(sched.gain_evaluations);
  n.schedules_sent = static_cast<double>(sched.schedules_distributed);
  n.full_scans = static_cast<double>(c.registry().counter("db.full_scans").value());
  n.raw_data_rows = static_cast<double>(out.raw_data_rows);
  n.schedule_rows =
      static_cast<double>(c.server().database().table("schedules")->size());
  n.blobs_decoded = static_cast<double>(out.blobs_decoded);
  n.uploads_stored = static_cast<double>(out.uploads_stored);
  return n;
}

}  // namespace

void RunInProcessWorkload(const Options& opts, Report& report) {
  const CampaignSpec spec = opts.workload == Workload::kFleetChurn
                                ? FleetChurnSpec(opts.seed)
                                : CitySensingSpec(opts.seed);
  std::vector<RoundTimings> plain;
  std::vector<RoundTimings> traced;
  std::vector<RoundCounts> plain_counts;
  std::vector<RoundCounts> traced_counts;
  std::vector<double> setups;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured against campaigns of the same run.
    const bool traced_round = opts.trace && round % 2 == 1;
    const auto setup_start = Clock::now();
    auto c = std::make_unique<InProcessCampaign>(spec);
    const double setup_s = SecondsSince(setup_start);
    setups.push_back(setup_s);
    const Status s = c->Run(traced_round);
    report.Check(s.ok(), "campaign round " + std::to_string(round) + ": " + s.str());
    RoundTimings t = c->timings();
    t.setup_s = setup_s;
    const CampaignOutput out = c->Output();
    const RoundCounts counts = CountsOf(*c, out);
    c.reset();
    CheckCampaign(spec, out, report);
    report.Count(t.attempted, t.failed);
    (traced_round ? traced : plain).push_back(std::move(t));
    (traced_round ? traced_counts : plain_counts).push_back(counts);
    const bool whole = !opts.trace || round % 2 == 1;
    if (whole && SecondsSince(start) >= opts.seconds) break;
    if (!s.ok()) break;
  }
  while (setups.size() < kSetupSamples) {
    const auto setup_start = Clock::now();
    auto c = std::make_unique<InProcessCampaign>(spec);
    setups.push_back(SecondsSince(setup_start));
  }

  if (!opts.trace) {
    const std::vector<double> joins = Pool(plain, &RoundTimings::join_ms);
    const std::vector<double> leaves = Pool(plain, &RoundTimings::leave_ms);
    std::vector<double> upload_us;
    for (const RoundTimings& r : plain)
      upload_us.insert(upload_us.end(), r.calls.upload_us.begin(), r.calls.upload_us.end());
    std::vector<double> uploads_per_s;
    for (std::size_t i = 0; i < plain.size(); ++i)
      uploads_per_s.push_back(plain_counts[i].uploads_stored / plain[i].sensing_s);
    report.Add("setup_s", Median(setups), "s");
    report.Add("campaign_s", MedianOf(plain, [](const RoundTimings& r) { return r.campaign_s; }), "s");
    report.Add("join_ms_p50", Percentile(joins, 0.50), "ms");
    report.Add("join_ms_p99", MedianOf(plain, [](const RoundTimings& r) { return Percentile(r.join_ms, 0.99); }), "ms");
    report.Add("leave_ms_p50", Percentile(leaves, 0.50), "ms");
    report.Add("leave_ms_p99", MedianOf(plain, [](const RoundTimings& r) { return Percentile(r.leave_ms, 0.99); }), "ms");
    report.Add("uploads_per_s", Median(uploads_per_s), "1/s");
    report.Add("upload_call_us_p50", Percentile(upload_us, 0.50), "us");
    report.Add("upload_call_us_p99", MedianOf(plain, [](const RoundTimings& r) { return Percentile(r.calls.upload_us, 0.99); }), "us");
    report.Add("rank_ready_ms", MedianOf(plain, [](const RoundTimings& r) { return r.rank_ready_s * 1e3; }), "ms");
    report.Add("rank_query_ms_p50", Median(Pool(plain, &RoundTimings::rank_query_ms)), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  std::vector<double> join_us, leave_us, upload_us;
  for (const RoundTimings& r : traced) {
    join_us.insert(join_us.end(), r.calls.join_us.begin(), r.calls.join_us.end());
    leave_us.insert(leave_us.end(), r.calls.leave_us.begin(), r.calls.leave_us.end());
    upload_us.insert(upload_us.end(), r.calls.upload_us.begin(), r.calls.upload_us.end());
  }
  std::vector<double> feature_rankings_ms;
  for (const RoundTimings& r : traced)
    for (std::size_t i = 0; i < r.rank_query_ms.size(); ++i)
      feature_rankings_ms.push_back(r.rank_query_ms[i] - r.aggregate_ms[i]);
  const auto counts = [&traced_counts](double RoundCounts::*field) {
    std::vector<double> v;
    for (const RoundCounts& n : traced_counts) v.push_back(n.*field);
    return Median(std::move(v));
  };
  std::vector<double> upload_handler_s;
  for (const RoundTimings& r : traced) {
    double sum_s = 0.0;
    for (double us : r.calls.upload_us) sum_s += us * 1e-6;
    upload_handler_s.push_back(sum_s);
  }
  const auto per_call = [](const RoundTimings& r, double v) {
    return r.sensing_calls > 0 ? v / r.sensing_calls : 0.0;
  };
  report.Add("server.join_handler_us_p50", Percentile(join_us, 0.50), "us");
  report.Add("server.join_handler_us_p99", MedianOf(traced, [](const RoundTimings& r) { return Percentile(r.calls.join_us, 0.99); }), "us");
  report.Add("server.leave_handler_us_p50", Percentile(leave_us, 0.50), "us");
  report.Add("server.leave_handler_us_p99", MedianOf(traced, [](const RoundTimings& r) { return Percentile(r.calls.leave_us, 0.99); }), "us");
  report.Add("server.upload_handler_us_p50", Percentile(upload_us, 0.50), "us");
  report.Add("server.upload_handler_s", Median(upload_handler_s), "s");
  report.Add("phone.join_client_us_p50", Median(Pool(traced, &RoundTimings::join_client_us)), "us");
  report.Add("phone.tick_s", MedianOf(traced, [](const RoundTimings& r) { return r.tick_s; }), "s");
  report.Add("phone.tick_us_per_phone_tick",
             MedianOf(traced, [](const RoundTimings& r) {
               return r.tick_s * 1e6 / (static_cast<double>(r.join_ms.size()) * static_cast<double>(r.ticks));
             }), "us");
  report.Add("net.merge_self_s", MedianOf(traced, [](const RoundTimings& r) { return r.merge_s - r.sensing_call_s; }), "s");
  report.Add("net.frames_delivered", MedianOf(traced, [](const RoundTimings& r) { return static_cast<double>(r.sensing_frames); }), "count");
  report.Add("sched.gain_evaluations_per_join", counts(&RoundCounts::gain_evaluations) / counts(&RoundCounts::joins), "count");
  report.Add("sched.schedules_sent_per_join", counts(&RoundCounts::schedules_sent) / counts(&RoundCounts::joins), "count");
  report.Add("db.full_scans", counts(&RoundCounts::full_scans), "count");
  report.Add("db.raw_data_rows", counts(&RoundCounts::raw_data_rows), "count");
  report.Add("db.schedule_rows", counts(&RoundCounts::schedule_rows), "count");
  report.Add("processor.process_ms", MedianOf(traced, [](const RoundTimings& r) { return r.process_s * 1e3; }), "ms");
  report.Add("processor.blobs_per_s", counts(&RoundCounts::blobs_decoded) / MedianOf(traced, [](const RoundTimings& r) { return r.process_s; }), "1/s");
  report.Add("processor.decoded_per_stored", counts(&RoundCounts::blobs_decoded) / counts(&RoundCounts::uploads_stored), "count");
  report.Add("processor.build_matrix_ms", MedianOf(traced, [](const RoundTimings& r) { return r.build_matrix_s * 1e3; }), "ms");
  report.Add("flow.aggregate_ms_p50", Median(Pool(traced, &RoundTimings::aggregate_ms)), "ms");
  report.Add("rank.feature_rankings_ms_p50", Median(feature_rankings_ms), "ms");
  report.Add("daemon.cpu_us_per_call", MedianOf(traced, [&](const RoundTimings& r) { return per_call(r, r.sensing_cpu_s) * 1e6; }), "us");
  report.Add("client.cpu_us_per_call", MedianOf(traced, [&](const RoundTimings& r) { return per_call(r, r.sensing_cpu_s) * 1e6; }), "us");
  report.Add("transport.wait_us_per_call", MedianOf(traced, [&](const RoundTimings& r) { return per_call(r, r.sensing_s - r.sensing_cpu_s) * 1e6; }), "us");
  report.Add("transport.frames_per_call", MedianOf(traced, [&](const RoundTimings& r) { return per_call(r, static_cast<double>(r.sensing_frames)); }), "count");
  const double plain_campaign = MedianOf(plain, [](const RoundTimings& r) { return r.campaign_s; });
  const double traced_campaign = MedianOf(traced, [](const RoundTimings& r) { return r.campaign_s; });
  report.Add("trace.overhead_pct", (traced_campaign / plain_campaign - 1.0) * 100.0, "%");
}

}  // namespace campaign
