#include "transport/daemon.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <variant>
#include <vector>

#include "codec/messages.hpp"
#include "common/log.hpp"

namespace sor::transport {

namespace {

// Atomic file write: tmp + rename, so readers (and a restarted daemon)
// never observe a half-written snapshot.
Status WriteFileAtomic(const std::string& path,
                       std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status(Errc::kUnavailable, "cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) return Status(Errc::kUnavailable, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(Errc::kUnavailable, "rename " + tmp + " -> " + path);
  }
  return Status::Ok();
}

Bytes UnavailableFrame(const std::string& why) {
  ErrorReply err;
  err.code = static_cast<std::uint8_t>(Errc::kUnavailable);
  err.message = why;
  return EncodeFrame(Message{err});
}

}  // namespace

Daemon::Daemon(Transport& transport, DaemonConfig config)
    : transport_(transport), config_(std::move(config)) {
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  transport_metrics_ = Metrics::For(*registry_);
}

Daemon::~Daemon() { Stop(); }

Status Daemon::Start() {
  if (started_) return Status(Errc::kAlreadyExists, "daemon already started");

  Result<std::unique_ptr<Listener>> listener = transport_.Listen(config_.bind);
  if (!listener.ok()) return listener.error();
  listener_ = std::move(listener).value();

  net_.set_clock(&clock_);
  net_.set_metrics(registry_);
  server::ServerConfig server_config;
  server_config.endpoint_name = config_.plan.server_endpoint;
  server_config.overload = config_.overload;
  server_ = std::make_unique<server::SensingServer>(server_config, net_,
                                                    clock_);
  server_->scheduler().set_algorithm(config_.scheduler_algorithm);
  server_->AttachObservability(registry_, nullptr);

  if (Status s = Bootstrap(); !s.ok()) return s;

  started_ = true;
  stopped_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatcher_thread_ = std::thread([this] { DispatcherLoop(); });
  SOR_LOG(kInfo, "daemon", "serving on " << listener_->address());
  return Status::Ok();
}

Status Daemon::Bootstrap() {
  const core::FleetPlan plan = core::PlanFleet(config_.scenario, config_.plan);
  expected_participations_ = plan.phones.size();

  Bytes snapshot;
  if (!config_.snapshot_path.empty()) {
    std::ifstream in(config_.snapshot_path, std::ios::binary);
    if (in) {
      snapshot.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
  }
  if (!snapshot.empty()) {
    if (Status s = server_->RestoreFromSnapshot(snapshot); !s.ok()) {
      return Status(s.error().code,
                    "restore " + config_.snapshot_path + ": " + s.str());
    }
    SOR_LOG(kInfo, "daemon",
            "restored snapshot (" << snapshot.size() << " bytes, "
                                  << server_->users().count() << " users)");
    return Status::Ok();
  }

  // Fresh start: deploy the fleet plan — one application per place, every
  // user registered up-front in join order. Registration never touches the
  // scheduler, so pre-registering here (instead of interleaving with
  // participations the way core::System spawns phones) leaves the
  // scheduler-visible event sequence identical; it also pins user ids to
  // plan order, which the load generator relies on.
  for (const server::ApplicationSpec& spec : plan.app_specs) {
    Result<BarcodePayload> barcode = server_->DeployApplication(spec);
    if (!barcode.ok()) return barcode.error();
  }
  for (const core::PhonePlan& phone : plan.phones) {
    Result<UserId> user =
        server_->users().RegisterUser(phone.user_name, phone.token);
    if (!user.ok()) return user.error();
  }
  return Status::Ok();
}

void Daemon::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  RequestStop();
  queue_cv_.notify_all();

  if (listener_) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (auto& conn : conns) conn->connection->Close();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    conns_.clear();
  }
  sessions_.clear();

  WriteSnapshot();
  SOR_LOG(kInfo, "daemon", "stopped");
}

SimTime Daemon::sim_now() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_.now();
}

void Daemon::AcceptLoop() {
  while (!stop_requested()) {
    Result<std::unique_ptr<Connection>> accepted = listener_->Accept(200);
    if (!accepted.ok()) {
      if (accepted.error().code == Errc::kTimeout) continue;
      break;  // listener closed or failed
    }
    auto conn = std::make_shared<Conn>();
    conn->connection = std::move(accepted).value();
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void Daemon::ReaderLoop(const std::shared_ptr<Conn>& conn) {
  RecordReader reader(transport_metrics_);
  while (!stop_requested()) {
    Result<Record> record = reader.Read(*conn->connection, 200);
    if (!record.ok()) {
      if (record.error().code == Errc::kTimeout) continue;
      if (record.error().code == Errc::kDecodeError) {
        SOR_LOG(kWarn, "daemon",
                conn->connection->peer() << ": " << record.error().message);
      }
      break;  // EOF, poisoned framing, or closed
    }
    Record rec = std::move(record).value();
    if (rec.kind == RecordKind::kCall) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(Inbound{conn->id, std::move(rec)});
      }
      queue_cv_.notify_one();
    } else if (rec.kind == RecordKind::kReply) {
      std::lock_guard<std::mutex> lock(conn->push_mu);
      if (conn->push_corr != 0 && rec.corr == conn->push_corr &&
          !conn->push_done) {
        conn->push_reply = std::move(rec.frame);
        conn->push_done = true;
        conn->push_cv.notify_all();
      }
      // A stale corr (reply to a push that already timed out) is dropped.
    } else {
      SOR_LOG(kWarn, "daemon",
              conn->connection->peer() << ": client sent a push; dropping");
      break;
    }
  }
  conn->dead.store(true, std::memory_order_relaxed);
  FailPush(*conn);
}

void Daemon::FailPush(Conn& conn) {
  std::lock_guard<std::mutex> lock(conn.push_mu);
  if (conn.push_corr != 0 && !conn.push_done) {
    conn.push_failed = true;
    conn.push_done = true;
  }
  conn.push_cv.notify_all();
}

void Daemon::DispatcherLoop() {
  for (;;) {
    Inbound inbound;
    bool have = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock,
                         std::chrono::milliseconds(config_.tick_interval_ms),
                         [this] { return stop_requested() || !queue_.empty(); });
      if (!queue_.empty()) {
        inbound = std::move(queue_.front());
        queue_.pop_front();
        have = true;
      } else if (stop_requested()) {
        break;
      }
    }
    if (have) {
      HandleCall(inbound);
      continue;
    }
    // Idle tick: drive overload-control bookkeeping and reap dead
    // connections whose readers have exited.
    server_->health().ObserveTick(sim_now());
    std::vector<std::shared_ptr<Conn>> reaped;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->dead.load(std::memory_order_relaxed)) {
          reaped.push_back(it->second);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& conn : reaped) {
      if (conn->reader.joinable()) conn->reader.join();
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        it = it->second == conn->id ? sessions_.erase(it) : std::next(it);
      }
    }
  }
}

void Daemon::AdvanceClockTo(SimTime t) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (t > clock_.now()) clock_.advance_to(t);
}

void Daemon::BindSession(const std::string& endpoint, std::uint64_t conn_id) {
  sessions_[endpoint] = conn_id;
  auto [it, inserted] = relays_.try_emplace(endpoint, nullptr);
  if (inserted) {
    it->second = std::make_unique<RelayEndpoint>(*this, endpoint);
    net_.Register(endpoint, it->second.get());
  }
}

void Daemon::ObserveMessage(const Message& message, std::uint64_t conn_id) {
  if (const auto* req = std::get_if<ParticipationRequest>(&message)) {
    AdvanceClockTo(req->scan_time);
    BindSession("phone:" + req->token.value, conn_id);
    // A joining phone reopens the campaign: finalize again once every
    // participation (old and new) has closed.
    finalized_.store(false, std::memory_order_relaxed);
    return;
  }
  if (const auto* upload = std::get_if<SensedDataUpload>(&message)) {
    SimTime latest = clock_.now();
    for (const ReadingTuple& batch : upload->batches) {
      if (batch.t + batch.dt > latest) latest = batch.t + batch.dt;
    }
    AdvanceClockTo(latest);
    if (Result<server::ParticipationRecord> part =
            server_->participations().Get(upload->task);
        part.ok()) {
      BindSession("phone:" + part.value().token.value, conn_id);
    }
    return;
  }
  if (const auto* leave = std::get_if<LeaveNotification>(&message)) {
    AdvanceClockTo(leave->time);
    if (Result<server::ParticipationRecord> part =
            server_->participations().Get(leave->task);
        part.ok()) {
      BindSession("phone:" + part.value().token.value, conn_id);
    }
    return;
  }
}

void Daemon::HandleCall(const Inbound& inbound) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    auto it = conns_.find(inbound.conn_id);
    if (it != conns_.end()) conn = it->second;
  }
  if (!conn || conn->dead.load(std::memory_order_relaxed)) return;

  // Peek at the frame before the server does: advance the simulated clock
  // to the message's own timestamps and (re)bind the sender's session so
  // schedule pushes triggered by this very call find their way back.
  bool is_leave = false;
  if (Result<Message> message = DecodeFrame(inbound.record.frame);
      message.ok()) {
    ObserveMessage(message.value(), inbound.conn_id);
    is_leave = std::holds_alternative<LeaveNotification>(message.value());
  }

  Bytes reply = server_->HandleFrame(inbound.record.frame);

  // Campaign completion is decided from traffic alone: once every expected
  // participation has been opened and none remain active, the campaign is
  // over. Finalizing before the last leave's reply is written keeps this
  // race-free for clients — when their final Call returns, the rankings
  // file exists.
  const bool finalized_now = is_leave && MaybeFinalize();

  Record out;
  out.kind = RecordKind::kReply;
  out.corr = inbound.record.corr;
  out.dest = inbound.record.dest;
  out.frame = std::move(reply);
  if (Status s = WriteRecord(*conn->connection, out, config_.io_timeout_ms,
                             transport_metrics_);
      !s.ok()) {
    conn->dead.store(true, std::memory_order_relaxed);
  }
  // The snapshot only makes the finished campaign durable; the client
  // waiting on the reply needs the rankings, not the snapshot.
  if (finalized_now) WriteSnapshot();
}

Bytes Daemon::RelayPush(const std::string& endpoint,
                        std::span<const std::uint8_t> frame) {
  std::shared_ptr<Conn> conn;
  {
    auto session = sessions_.find(endpoint);
    if (session != sessions_.end()) {
      std::lock_guard<std::mutex> lock(conns_mu);
      auto it = conns_.find(session->second);
      if (it != conns_.end()) conn = it->second;
    }
  }
  if (!conn || conn->dead.load(std::memory_order_relaxed)) {
    return UnavailableFrame("no session for " + endpoint);
  }

  const std::uint64_t corr = next_push_corr_++;
  {
    std::lock_guard<std::mutex> lock(conn->push_mu);
    conn->push_corr = corr;
    conn->push_done = false;
    conn->push_failed = false;
    conn->push_reply.clear();
  }
  Record push;
  push.kind = RecordKind::kPush;
  push.corr = corr;
  push.dest = endpoint;
  push.frame.assign(frame.begin(), frame.end());
  if (Status s = WriteRecord(*conn->connection, push, config_.io_timeout_ms,
                             transport_metrics_);
      !s.ok()) {
    conn->dead.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn->push_mu);
    conn->push_corr = 0;
    return UnavailableFrame("push to " + endpoint + " failed: " + s.str());
  }

  std::unique_lock<std::mutex> lock(conn->push_mu);
  const bool done = conn->push_cv.wait_for(
      lock, std::chrono::milliseconds(config_.io_timeout_ms),
      [&conn] { return conn->push_done; });
  conn->push_corr = 0;
  if (!done || conn->push_failed) {
    // Same answer a down phone produces on the loopback path — the
    // scheduler already degrades gracefully on it.
    return UnavailableFrame("push to " + endpoint +
                            (done ? " failed" : " timed out"));
  }
  return std::move(conn->push_reply);
}

Bytes Daemon::RelayEndpoint::HandleFrame(std::span<const std::uint8_t> frame) {
  return daemon_.RelayPush(endpoint_, frame);
}

bool Daemon::MaybeFinalize() {
  if (finalized_.load(std::memory_order_relaxed)) return false;
  server::ParticipationManager& parts = server_->participations();
  if (parts.TotalCount() < expected_participations_) return false;
  if (parts.ActiveCount() != 0) return false;

  if (Result<int> n = server_->ProcessAllData(); !n.ok()) {
    SOR_LOG(kWarn, "daemon", "finalize: processing failed: " << n.error().str());
    return false;
  }
  const std::vector<server::ApplicationRecord> records =
      server_->applications().All();
  Result<rank::FeatureMatrix> matrix =
      server_->data_processor().BuildFeatureMatrix(records,
                                                   config_.scenario.features);
  if (!matrix.ok()) {
    SOR_LOG(kWarn, "daemon", "finalize: matrix failed: " << matrix.error().str());
    return false;
  }
  const rank::PersonalizableRanker ranker(matrix.value());
  std::vector<std::pair<std::string, rank::RankingOutcome>> rankings;
  for (const rank::UserProfile& profile : config_.scenario.profiles) {
    Result<rank::RankingOutcome> outcome =
        ranker.Rank(profile, config_.aggregation);
    if (!outcome.ok()) {
      SOR_LOG(kWarn, "daemon", "finalize: ranking failed: " << outcome.error().str());
      return false;
    }
    rankings.emplace_back(profile.name, std::move(outcome).value());
  }
  const std::string text = core::RenderRankingsText(matrix.value(), rankings);
  if (!config_.rankings_path.empty()) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    if (Status s = WriteFileAtomic(config_.rankings_path, bytes); !s.ok()) {
      SOR_LOG(kWarn, "daemon", "finalize: " << s.str());
      return false;
    }
  }
  finalized_.store(true, std::memory_order_release);
  SOR_LOG(kInfo, "daemon",
          "campaign finalized: " << rankings.size() << " profiles ranked");
  return true;
}

void Daemon::WriteSnapshot() {
  if (config_.snapshot_path.empty() || !server_) return;
  const Bytes snapshot = server_->SnapshotState();
  if (Status s = WriteFileAtomic(config_.snapshot_path, snapshot); !s.ok()) {
    SOR_LOG(kWarn, "daemon", "snapshot: " << s.str());
  }
}

}  // namespace sor::transport
