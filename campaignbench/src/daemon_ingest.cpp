// daemon_ingest: `sor serve` on a private Unix socket, with the fleet
// replayed from this process over two connections, each call timed by
// message type.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "campaign.hpp"
#include "codec/messages.hpp"
#include "transport/channel.hpp"
#include "transport/socket.hpp"

namespace campaign {

using namespace sor;

namespace {

constexpr int kConnections = 2;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The worker's stand-in for the server on its private loopback network:
// ships every frame over the connection and times the call, by type.
class TimedProxy final : public net::Endpoint {
 public:
  TimedProxy(transport::ClientChannel& channel, CallTimes& calls)
      : channel_(channel), calls_(calls) {}

  bool measure_cpu = false;  // traced rounds: client CPU inside each call
  double call_cpu_s = 0.0;
  std::uint64_t failures = 0;

  [[nodiscard]] Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    const double cpu0 = measure_cpu ? ThreadCpuSeconds() : 0.0;
    const auto t0 = Clock::now();
    Result<Bytes> reply = channel_.Call("server", frame);
    calls_.Record(frame.size() > 4 ? frame[4] : 0,
                  std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (measure_cpu) call_cpu_s += ThreadCpuSeconds() - cpu0;
    if (!reply.ok()) {
      ++failures;
      ErrorReply err;
      err.code = static_cast<std::uint8_t>(Errc::kUnavailable);
      err.message = reply.error().message;
      return EncodeFrame(Message{err});
    }
    return std::move(reply).value();
  }

 private:
  transport::ClientChannel& channel_;
  CallTimes& calls_;
};

// One connection's share of the fleet: every phone of the places p with
// p % kConnections == w, on a private clock and loopback network.
struct Worker {
  SimClock clock;
  net::LoopbackNetwork net;
  CallTimes calls;
  std::unique_ptr<transport::ClientChannel> channel;
  std::unique_ptr<TimedProxy> proxy;
  std::vector<std::unique_ptr<world::PhoneAgent>> agents;
  std::vector<std::unique_ptr<phone::MobileFrontend>> phones;
  std::map<std::string, phone::MobileFrontend*> by_endpoint;
  double tick_s = 0.0;
  double merge_s = 0.0;
  double sensing_call_s = 0.0;
  std::uint64_t sensing_calls = 0;
};

// `sor serve` in a private directory under the working directory (a
// relative socket path stays short of the sun_path limit). The destructor
// kills and reaps a daemon still running, so a failed run leaves nothing.
class ServeProcess {
 public:
  ~ServeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  Status Start(const std::string& binary, const CampaignSpec& spec) {
    std::filesystem::create_directories(".bench_tmp");
    char tmpl[] = ".bench_tmp/serve-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) return Status(Errc::kInternal, "mkdtemp failed");
    dir_ = tmpl;
    chmod(dir_.c_str(), 0700);
    address_ = "unix:" + dir_ + "/s";
    const std::vector<std::string> args = {
        binary, "serve", "--scenario", "trails",
        "--phones", std::to_string(spec.scenario.phones_per_place),
        "--seed", std::to_string(spec.config.seed),
        "--bind", address_,
        "--rankings-out", path("rankings.txt"),
        "--snapshot", path("snapshot.bin")};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const std::string out_path = path("serve.out");
    const std::string err_path = path("serve.err");
    pid_ = fork();
    if (pid_ < 0) return Status(Errc::kInternal, "fork failed");
    if (pid_ == 0) {
      // The daemon dies with this process, even if this process is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
      const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
      if (out < 0 || err < 0 || dup2(out, 1) < 0 || dup2(err, 2) < 0) _exit(127);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    return Status::Ok();
  }

  // Ready means a connection was accepted: dial until one is.
  Status WaitReady(transport::Transport& transport) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      Result<std::unique_ptr<transport::Connection>> conn = transport.Dial(address_, 200);
      if (conn.ok()) {
        conn.value()->Close();
        return Status::Ok();
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status(Errc::kUnavailable, "sor serve exited during start-up: " + Slurp("serve.err"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status(Errc::kTimeout, "sor serve never accepted a connection");
  }

  // SIGTERM, then wait for a clean exit (code 0) within 30 s.
  Status Stop() {
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (Clock::now() < deadline) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::Ok();
        return Status(Errc::kInternal, "sor serve exited with status " + std::to_string(status));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status(Errc::kTimeout, "sor serve did not stop on SIGTERM");
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] std::string path(const char* file) const { return dir_ + "/" + file; }
  [[nodiscard]] std::string Slurp(const char* file) const {
    std::ifstream in(path(file), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }

 private:
  pid_t pid_ = -1;
  std::string dir_;
  std::string address_;
};

// Counters from the registry the daemon prints when it stops.
std::map<std::string, double> ParseRegistry(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string name;
  std::string value;
  while (lines >> name && std::getline(lines, value)) {
    if (value.find('=') == std::string::npos) out[name] = std::atof(value.c_str());
  }
  return out;
}

struct DaemonRound {
  RoundTimings t;  // calls pooled across workers
  double finalize_s = 0.0;
  double daemon_cpu_s = 0.0;
  double client_call_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double uploads_acked = 0.0;
  std::map<std::string, double> registry;
  std::string rankings_text;
  CampaignOutput out;
};

// One daemon campaign: set-up, joins, sensing, leaves with finalize, stop,
// then the daemon's stored state restored in-process for the checks and
// the ranking-layer timings.
// With `setup_only` the round ends after the set-up (the daemon is killed).
Status RunDaemonRound(const CampaignSpec& spec, const std::string& binary,
                      bool traced, bool setup_only, DaemonRound& round) {
  RoundTimings& t = round.t;
  const auto setup_start = Clock::now();
  ServeProcess serve;
  if (Status s = serve.Start(binary, spec); !s.ok()) return s;
  transport::SocketTransport socket_transport;
  if (Status s = serve.WaitReady(socket_transport); !s.ok()) return s;

  core::FleetPlanParams params;
  params.seed = spec.config.seed;
  params.n_instants = spec.config.n_instants;
  params.sigma_s = spec.config.sigma_s;
  const core::FleetPlan plan = core::PlanFleet(spec.scenario, params);
  std::vector<BitMatrix> barcodes;
  for (const BarcodePayload& b : plan.barcodes) barcodes.push_back(RenderBarcodeMatrix(b));
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < kConnections; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->net.set_clock(&worker->clock);
    Worker* raw = worker.get();
    worker->channel = std::make_unique<transport::ClientChannel>(
        socket_transport, serve.address(),
        [raw](const std::string& dest, std::span<const std::uint8_t> frame) {
          auto it = raw->by_endpoint.find(dest);
          if (it == raw->by_endpoint.end()) {
            ErrorReply err;
            err.code = static_cast<std::uint8_t>(Errc::kNotFound);
            err.message = "no phone " + dest + " on this connection";
            return EncodeFrame(Message{err});
          }
          return it->second->HandleFrame(frame);
        });
    worker->proxy = std::make_unique<TimedProxy>(*worker->channel, worker->calls);
    worker->proxy->measure_cpu = traced;
    worker->net.Register(params.server_endpoint, worker->proxy.get());
    workers.push_back(std::move(worker));
  }
  // Phones in plan order; user ids follow it (the daemon registers every
  // user at start-up in the same order).
  std::vector<std::pair<Worker*, phone::MobileFrontend*>> fleet;
  for (std::size_t k = 0; k < plan.phones.size(); ++k) {
    const core::PhonePlan& ph = plan.phones[k];
    Worker& worker = *workers[ph.place_index % workers.size()];
    world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = PhoneId{ph.seq};
    agent_cfg.mobility = world::Mobility::kTrailWalk;
    agent_cfg.enter_time = SimTime{0};
    agent_cfg.seed = ph.agent_seed;
    worker.agents.push_back(std::make_unique<world::PhoneAgent>(
        spec.scenario.places[ph.place_index], agent_cfg));
    phone::FrontendConfig phone_cfg;
    phone_cfg.phone_id = agent_cfg.id;
    phone_cfg.user_id = UserId{k + 1};
    phone_cfg.user_name = ph.user_name;
    phone_cfg.token = ph.token;
    worker.phones.push_back(std::make_unique<phone::MobileFrontend>(
        phone_cfg, worker.net, *worker.agents.back(), worker.clock));
    worker.by_endpoint[worker.phones.back()->EndpointName()] = worker.phones.back().get();
    fleet.emplace_back(&worker, worker.phones.back().get());
  }
  // Open both connections now, so that no join pays for a connect: a
  // PingReply is the one message the server merely acknowledges.
  for (auto& worker : workers) {
    Result<Bytes> reply = worker->channel->Call(
        "server", EncodeFrame(Message{PingReply{}}));
    if (!reply.ok()) return reply.error();
  }
  t.setup_s = SecondsSince(setup_start);
  if (setup_only) return Status::Ok();

  // Joins, serial in plan order (join order is campaign identity).
  const auto campaign_start = Clock::now();
  std::size_t joined = 0;
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    const auto j0 = Clock::now();
    Result<TaskId> task = fleet[k].second->ScanBarcodeMatrix(
        barcodes[plan.phones[k].place_index], spec.config.budget_per_user);
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - j0).count();
    t.join_ms.push_back(us * 1e-3);
    t.join_client_us.push_back(us - fleet[k].first->calls.last_us);
    ++t.attempted;
    if (task.ok()) {
      ++joined;
    } else {
      ++t.failed;
    }
  }

  // The sensing period, one delivery epoch per tick and connection. One
  // thread drives both connections in turn, so one call is in flight at a
  // time: on a small shared host, client threads competing with the
  // daemon's for cores made the call tails vary several-fold between runs.
  const std::int64_t period_ms = SimTime::FromSeconds(spec.scenario.period_s).ms;
  const std::int64_t ticks = (period_ms + spec.config.tick.ms - 1) / spec.config.tick.ms;
  std::vector<std::uint64_t> frames0;
  std::vector<double> call_s0;
  for (auto& w : workers) {
    frames0.push_back(w->calls.frames);
    call_s0.push_back(w->calls.total_s);
    std::vector<std::string> names;
    for (const auto& phone : w->phones) names.push_back(phone->EndpointName());
    w->net.BeginEpoch(std::move(names));
  }
  const double daemon_cpu0 = ProcCpuSeconds(serve.pid());
  const double client_cpu0 = SelfCpuSeconds();
  const auto sensing_start = Clock::now();
  for (std::int64_t i = 0; i < ticks; ++i) {
    for (auto& w : workers) {
      w->clock.advance(spec.config.tick);
      if (traced) {
        const auto a = Clock::now();
        for (auto& phone : w->phones) phone->Tick();
        const auto b = Clock::now();
        w->net.MergeEpoch();
        w->tick_s += SecondsBetween(a, b);
        w->merge_s += SecondsSince(b);
      } else {
        for (auto& phone : w->phones) phone->Tick();
        w->net.MergeEpoch();
      }
    }
  }
  t.sensing_s = SecondsSince(sensing_start);
  t.sensing_cpu_s = SelfCpuSeconds() - client_cpu0;
  round.daemon_cpu_s = ProcCpuSeconds(serve.pid()) - daemon_cpu0;
  t.ticks = static_cast<std::uint64_t>(ticks);
  for (std::size_t w = 0; w < workers.size(); ++w) {
    workers[w]->net.EndEpoch();
    workers[w]->sensing_calls = workers[w]->calls.frames - frames0[w];
    workers[w]->sensing_call_s = workers[w]->calls.total_s - call_s0[w];
  }
  for (auto& [worker, phone] : fleet) {
    t.attempted += phone->stats().uploads_sent + phone->stats().upload_failures;
    t.failed += phone->stats().upload_failures;
    round.uploads_acked += static_cast<double>(phone->stats().uploads_sent);
  }
  for (auto& worker : workers) {
    t.tick_s += worker->tick_s;
    t.merge_s += worker->merge_s;
    t.sensing_calls += static_cast<double>(worker->sensing_calls);
    t.sensing_call_s += worker->sensing_call_s;
    t.sensing_frames += worker->sensing_calls;
    round.client_call_cpu_s += worker->proxy->call_cpu_s;
  }

  // Leaves, serial in plan order. The last one triggers the daemon's
  // finalize (process, build H, rank every profile, write the rankings and
  // a snapshot). The daemon acknowledges that leave before it finalizes,
  // so the rankings are ready when their file appears (written by rename).
  const std::string rankings_path = serve.path("rankings.txt");
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    const auto l0 = Clock::now();
    const Status s = fleet[k].second->LeavePlace();
    const double ms = SecondsSince(l0) * 1e3;
    ++t.attempted;
    if (!s.ok() || fleet[k].second->pending_leaves() > 0) ++t.failed;
    if (k + 1 < fleet.size()) {
      t.leave_ms.push_back(ms);
      continue;
    }
    fleet[k].first->calls.leave_us.pop_back();  // part of rank_ready
    struct stat st{};
    const auto deadline = l0 + std::chrono::seconds(60);
    while (stat(rankings_path.c_str(), &st) != 0 && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    round.finalize_s = SecondsSince(l0);
  }
  t.campaign_s = SecondsSince(campaign_start);
  t.rank_ready_s = round.finalize_s;

  round.peak_rss_mb = PeakRssMb(serve.pid());
  for (auto& worker : workers) worker->channel->Close();
  for (auto& worker : workers) {
    const CallTimes& c = worker->calls;
    t.calls.join_us.insert(t.calls.join_us.end(), c.join_us.begin(), c.join_us.end());
    t.calls.upload_us.insert(t.calls.upload_us.end(), c.upload_us.begin(), c.upload_us.end());
    t.calls.leave_us.insert(t.calls.leave_us.end(), c.leave_us.begin(), c.leave_us.end());
    t.calls.frames += c.frames;
    t.calls.total_s += c.total_s;
    t.failed += worker->proxy->failures;
  }
  if (Status s = serve.Stop(); !s.ok()) return s;
  round.registry = ParseRegistry(serve.Slurp("serve.out"));
  round.rankings_text = serve.Slurp("rankings.txt");

  // The daemon's stored state, restored here: the feature matrix and tasks
  // for the checks, and the ranking layer timed on the daemon's own data.
  const std::string snapshot = serve.Slurp("snapshot.bin");
  SimClock clock;
  obs::MetricsRegistry registry;
  net::LoopbackNetwork net;
  net.set_clock(&clock);
  net.set_metrics(&registry);
  server::SensingServer restored(server::ServerConfig{}, net, clock);
  restored.AttachObservability(&registry, nullptr);
  if (Status s = restored.RestoreFromSnapshot(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(snapshot.data()), snapshot.size()));
      !s.ok()) {
    return s;
  }
  const std::vector<server::ApplicationRecord> records = restored.applications().All();
  const auto build_start = Clock::now();
  Result<rank::FeatureMatrix> matrix =
      restored.data_processor().BuildFeatureMatrix(records, spec.scenario.features);
  if (!matrix.ok()) return matrix.error();
  t.build_matrix_s = SecondsSince(build_start);
  CampaignOutput& out = round.out;
  out.matrix = std::move(matrix).value();
  const rank::PersonalizableRanker ranker(out.matrix);
  for (const rank::UserProfile& profile : spec.scenario.profiles) {
    const auto q0 = Clock::now();
    Result<rank::RankingOutcome> outcome = ranker.Rank(profile, spec.config.aggregation);
    const double first_ms = SecondsSince(q0) * 1e3;
    ++t.attempted;
    if (!outcome.ok()) {
      ++t.failed;
      return outcome.error();
    }
    t.rank_query_ms.push_back(
        RankQueryMs(ranker, profile, spec.config.aggregation, first_ms));
    if (traced) t.aggregate_ms.push_back(AggregateMs(outcome.value()));
    out.rankings.emplace_back(profile.name, std::move(outcome).value());
  }
  out.phones = fleet.size();
  out.joined = joined;
  for (const server::ApplicationRecord& rec : records) {
    std::vector<server::ParticipationRecord> tasks = restored.participations().AllForApp(rec.id);
    out.tasks.insert(out.tasks.end(), tasks.begin(), tasks.end());
  }
  out.uploads_stored = static_cast<std::uint64_t>(round.registry["server.uploads_stored"]);
  out.uploads_acked = static_cast<std::uint64_t>(round.uploads_acked);
  out.blobs_decoded = static_cast<std::uint64_t>(round.registry["processor.blobs_decoded"]);
  out.raw_data_rows = restored.database().table("raw_data")->size();
  round.registry["db.raw_data_rows"] = static_cast<double>(out.raw_data_rows);
  round.registry["db.schedule_rows"] =
      static_cast<double>(restored.database().table("schedules")->size());
  return Status::Ok();
}

template <typename F>
double MedianOf(const std::vector<DaemonRound>& rounds, F&& f) {
  std::vector<double> v;
  for (const DaemonRound& r : rounds) v.push_back(f(r));
  return Median(std::move(v));
}

std::vector<double> Pool(const std::vector<DaemonRound>& rounds,
                         std::vector<double> RoundTimings::*field) {
  std::vector<double> all;
  for (const DaemonRound& r : rounds)
    all.insert(all.end(), (r.t.*field).begin(), (r.t.*field).end());
  return all;
}

std::vector<double> PoolCalls(const std::vector<DaemonRound>& rounds,
                              std::vector<double> CallTimes::*field) {
  std::vector<double> all;
  for (const DaemonRound& r : rounds)
    all.insert(all.end(), (r.t.calls.*field).begin(), (r.t.calls.*field).end());
  return all;
}

}  // namespace

Result<std::string> DaemonRankingsText(const CampaignSpec& spec,
                                       const std::string& serve_binary) {
  DaemonRound round;
  if (Status s = RunDaemonRound(spec, serve_binary, false, false, round); !s.ok()) return s.error();
  return round.rankings_text;
}

void RunDaemonWorkload(const Options& opts, Report& report) {
  const CampaignSpec spec = DaemonIngestSpec(opts.seed);
  std::vector<DaemonRound> plain;
  std::vector<DaemonRound> traced;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    const bool traced_round = opts.trace && round % 2 == 1;
    DaemonRound r;
    const Status s = RunDaemonRound(spec, opts.serve_binary, traced_round, false, r);
    report.Check(s.ok(), "daemon round " + std::to_string(round) + ": " + s.str());
    if (!s.ok()) return;
    CheckCampaign(spec, r.out, report);
    report.Check(r.rankings_text == core::RenderRankingsText(r.out.matrix, r.out.rankings),
                 "the daemon's rankings differ from its own stored feature data");
    report.Count(r.t.attempted, r.t.failed);
    (traced_round ? traced : plain).push_back(std::move(r));
    const bool whole = !opts.trace || round % 2 == 1;
    if (whole && SecondsSince(start) >= opts.seconds) break;
  }
  std::vector<double> setups;
  for (const DaemonRound& r : plain) setups.push_back(r.t.setup_s);
  while (setups.size() < kSetupSamples) {
    DaemonRound r;
    const Status s = RunDaemonRound(spec, opts.serve_binary, false, true, r);
    report.Check(s.ok(), "daemon set-up: " + s.str());
    if (!s.ok()) return;
    setups.push_back(r.t.setup_s);
  }

  if (!opts.trace) {
    const std::vector<double> joins = Pool(plain, &RoundTimings::join_ms);
    const std::vector<double> leaves = Pool(plain, &RoundTimings::leave_ms);
    const std::vector<double> uploads = PoolCalls(plain, &CallTimes::upload_us);
    report.Add("setup_s", Median(setups), "s");
    report.Add("campaign_s", MedianOf(plain, [](const DaemonRound& r) { return r.t.campaign_s; }), "s");
    report.Add("join_ms_p50", Percentile(joins, 0.50), "ms");
    report.Add("join_ms_p99", MedianOf(plain, [](const DaemonRound& r) { return Percentile(r.t.join_ms, 0.99); }), "ms");
    report.Add("leave_ms_p50", Percentile(leaves, 0.50), "ms");
    report.Add("leave_ms_p99", MedianOf(plain, [](const DaemonRound& r) { return Percentile(r.t.leave_ms, 0.99); }), "ms");
    report.Add("uploads_per_s", MedianOf(plain, [](const DaemonRound& r) { return r.uploads_acked / r.t.sensing_s; }), "1/s");
    report.Add("upload_call_us_p50", Percentile(uploads, 0.50), "us");
    report.Add("upload_call_us_p99", MedianOf(plain, [](const DaemonRound& r) { return Percentile(r.t.calls.upload_us, 0.99); }), "us");
    report.Add("rank_ready_ms", MedianOf(plain, [](const DaemonRound& r) { return r.t.rank_ready_s * 1e3; }), "ms");
    report.Add("rank_query_ms_p50", Median(Pool(plain, &RoundTimings::rank_query_ms)), "ms");
    report.Add("peak_rss_mb", MedianOf(plain, [](const DaemonRound& r) { return r.peak_rss_mb; }), "MB");
    return;
  }

  const auto reg = [&traced](const char* name) {
    return MedianOf(traced, [name](const DaemonRound& r) {
      const auto it = r.registry.find(name);
      return it == r.registry.end() ? 0.0 : it->second;
    });
  };
  const double joins = static_cast<double>(traced.front().out.joined);
  std::vector<double> feature_rankings_ms;
  for (const DaemonRound& r : traced)
    for (std::size_t i = 0; i < r.t.rank_query_ms.size(); ++i)
      feature_rankings_ms.push_back(r.t.rank_query_ms[i] - r.t.aggregate_ms[i]);
  const auto per_call = [](const DaemonRound& r, double v) { return v / r.t.sensing_calls; };
  report.Add("server.join_handler_us_p50", Percentile(PoolCalls(traced, &CallTimes::join_us), 0.50), "us");
  report.Add("server.join_handler_us_p99", MedianOf(traced, [](const DaemonRound& r) { return Percentile(r.t.calls.join_us, 0.99); }), "us");
  report.Add("server.leave_handler_us_p50", Percentile(PoolCalls(traced, &CallTimes::leave_us), 0.50), "us");
  report.Add("server.leave_handler_us_p99", MedianOf(traced, [](const DaemonRound& r) { return Percentile(r.t.calls.leave_us, 0.99); }), "us");
  report.Add("server.upload_handler_us_p50", Percentile(PoolCalls(traced, &CallTimes::upload_us), 0.50), "us");
  report.Add("server.upload_handler_s", MedianOf(traced, [](const DaemonRound& r) { return r.t.sensing_call_s; }), "s");
  report.Add("phone.join_client_us_p50", Median(Pool(traced, &RoundTimings::join_client_us)), "us");
  report.Add("phone.tick_s", MedianOf(traced, [](const DaemonRound& r) { return r.t.tick_s; }), "s");
  report.Add("phone.tick_us_per_phone_tick", MedianOf(traced, [](const DaemonRound& r) {
               return r.t.tick_s * 1e6 / (static_cast<double>(r.out.phones) * static_cast<double>(r.t.ticks));
             }), "us");
  report.Add("net.merge_self_s", MedianOf(traced, [](const DaemonRound& r) { return r.t.merge_s - r.t.sensing_call_s; }), "s");
  report.Add("net.frames_delivered", MedianOf(traced, [](const DaemonRound& r) { return static_cast<double>(r.t.sensing_frames); }), "count");
  report.Add("sched.gain_evaluations_per_join", reg("sched.gain_evaluations") / joins, "count");
  report.Add("sched.schedules_sent_per_join", reg("sched.schedules_distributed") / joins, "count");
  report.Add("db.full_scans", reg("db.full_scans"), "count");
  report.Add("db.raw_data_rows", reg("db.raw_data_rows"), "count");
  report.Add("db.schedule_rows", reg("db.schedule_rows"), "count");
  const double finalize_s = MedianOf(traced, [](const DaemonRound& r) { return r.finalize_s; });
  report.Add("processor.process_ms", finalize_s * 1e3, "ms");
  report.Add("processor.blobs_per_s", reg("processor.blobs_decoded") / finalize_s, "1/s");
  report.Add("processor.decoded_per_stored", reg("processor.blobs_decoded") / reg("server.uploads_stored"), "count");
  report.Add("processor.build_matrix_ms", MedianOf(traced, [](const DaemonRound& r) { return r.t.build_matrix_s * 1e3; }), "ms");
  report.Add("flow.aggregate_ms_p50", Median(Pool(traced, &RoundTimings::aggregate_ms)), "ms");
  report.Add("rank.feature_rankings_ms_p50", Median(feature_rankings_ms), "ms");
  report.Add("daemon.cpu_us_per_call", MedianOf(traced, [&](const DaemonRound& r) { return per_call(r, r.daemon_cpu_s) * 1e6; }), "us");
  report.Add("client.cpu_us_per_call", MedianOf(traced, [&](const DaemonRound& r) { return per_call(r, r.client_call_cpu_s) * 1e6; }), "us");
  report.Add("transport.wait_us_per_call", MedianOf(traced, [&](const DaemonRound& r) {
               return per_call(r, r.t.sensing_call_s - r.daemon_cpu_s - r.client_call_cpu_s) * 1e6;
             }), "us");
  report.Add("transport.frames_per_call", MedianOf(traced, [](const DaemonRound& r) {
               const auto it = r.registry.find("transport.frames_in");
               return (it == r.registry.end() ? 0.0 : it->second) / static_cast<double>(r.t.calls.frames);
             }), "count");
  const double plain_campaign = MedianOf(plain, [](const DaemonRound& r) { return r.t.campaign_s; });
  const double traced_campaign = MedianOf(traced, [](const DaemonRound& r) { return r.t.campaign_s; });
  report.Add("trace.overhead_pct", (traced_campaign / plain_campaign - 1.0) * 100.0, "%");
}

}  // namespace campaign
