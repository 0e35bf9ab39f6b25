// The `sor serve` daemon: hosts one SensingServer behind a byte-stream
// transport (Unix-domain/TCP sockets in production, PipeTransport in
// tests), so phones live in other processes instead of on the server's
// LoopbackNetwork.
//
// Threading model (three kinds of threads, one mutation site):
//
//   accept thread   — Accept() loop; spawns one reader per connection.
//   reader threads  — one per connection; parse stream records. kCall
//                     records go to the dispatch queue; kReply records
//                     fulfil the connection's pending push slot.
//   dispatcher      — single thread, the ONLY one that touches the
//                     SensingServer, the simulated clock and the session
//                     table. Drains the dispatch queue in arrival order;
//                     when idle for tick_interval_ms it drives
//                     HealthMonitor::ObserveTick, preserving the serial
//                     discipline the in-process System gives the server.
//
// Server→phone pushes (schedule distributions, pings) ride the phone's own
// client-initiated connection as kPush records: the server's outbound
// Send lands on a RelayEndpoint registered on the daemon's private
// LoopbackNetwork, which writes a kPush to the session's connection and
// blocks the dispatcher until the reader thread hands back the kReply (or
// the io timeout fires — then the relay answers kUnavailable, exactly what
// a down phone produces on the loopback path, so the scheduler's existing
// degradation logic applies unchanged).
//
// The simulated clock follows traffic: every decoded message carries sim
// timestamps (scan_time, batch [t, t+dt], leave time) and the dispatcher
// advances the clock monotonically to the largest one seen. A campaign
// replayed through sockets therefore presents the scheduler with the same
// clock readings as the in-process run — the heart of the byte-identical
// rankings guarantee (docs/deployment.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "core/fleet.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rank/personalizable_ranker.hpp"
#include "server/health_monitor.hpp"
#include "server/server.hpp"
#include "transport/channel.hpp"
#include "transport/transport.hpp"
#include "world/scenarios.hpp"

namespace sor::transport {

struct DaemonConfig {
  std::string bind = "unix:/tmp/sor-serve.sock";
  world::Scenario scenario;
  core::FleetPlanParams plan;  // seed / n_instants / sigma_s
  rank::AggregationMethod aggregation =
      rank::AggregationMethod::kFootruleMcmf;
  server::SchedulerAlgorithm scheduler_algorithm =
      server::SchedulerAlgorithm::kLazyGreedy;
  server::OverloadConfig overload;

  // Wall-clock cadence of HealthMonitor ticks while the queue is idle.
  int tick_interval_ms = 50;
  // Per-record read/write deadline and the push-reply deadline.
  int io_timeout_ms = 10'000;

  // Snapshot written on Stop() and after finalize; restored on Start()
  // when the file exists. "" disables persistence.
  std::string snapshot_path;
  // Rankings text (core::RenderRankingsText) written when the campaign
  // completes. "" disables.
  std::string rankings_path;

  // Shared registry (so the SocketTransport's byte counters and the
  // server's counters land in one export). nullptr → the daemon owns one.
  obs::MetricsRegistry* registry = nullptr;
};

class Daemon {
 public:
  Daemon(Transport& transport, DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Bind, restore-or-bootstrap the server state, start the threads.
  [[nodiscard]] Status Start();

  // Async-signal-safe stop request (sets an atomic flag; the dispatcher
  // notices within one tick interval). Call Stop() afterwards to join.
  void RequestStop() { stop_requested_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  // Close the listener and every connection, join all threads, write the
  // final snapshot. Idempotent.
  void Stop();

  // True once the campaign completed and rankings were written.
  [[nodiscard]] bool finalized() const {
    return finalized_.load(std::memory_order_acquire);
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return *registry_; }
  // Serial access only (before Start or after Stop): tests inspect the
  // hosted server directly.
  [[nodiscard]] server::SensingServer& server() { return *server_; }
  [[nodiscard]] SimTime sim_now() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    std::unique_ptr<Connection> connection;
    std::thread reader;
    std::atomic<bool> dead{false};

    // Single pending-push slot: only the dispatcher issues pushes, one at
    // a time, so one (corr, reply) cell per connection suffices.
    std::mutex push_mu;
    std::condition_variable push_cv;
    std::uint64_t push_corr = 0;  // nonzero while a push awaits its reply
    bool push_done = false;
    bool push_failed = false;
    Bytes push_reply;
  };

  struct Inbound {
    std::uint64_t conn_id = 0;
    Record record;
  };

  // The server's outbound Send target for one phone endpoint.
  class RelayEndpoint final : public net::Endpoint {
   public:
    RelayEndpoint(Daemon& daemon, std::string endpoint)
        : daemon_(daemon), endpoint_(std::move(endpoint)) {}
    [[nodiscard]] Bytes HandleFrame(
        std::span<const std::uint8_t> frame) override;

   private:
    Daemon& daemon_;
    std::string endpoint_;
  };

  [[nodiscard]] Status Bootstrap();
  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Conn>& conn);
  void DispatcherLoop();
  void HandleCall(const Inbound& inbound);
  // Session endpoint derivation + clock advancement from a decoded message.
  void ObserveMessage(const Message& message, std::uint64_t conn_id);
  void AdvanceClockTo(SimTime t);
  void BindSession(const std::string& endpoint, std::uint64_t conn_id);
  [[nodiscard]] Bytes RelayPush(const std::string& endpoint,
                                std::span<const std::uint8_t> frame);
  // Processes, ranks and writes the rankings once the campaign is over;
  // true when this call did it (the caller then writes the snapshot).
  bool MaybeFinalize();
  void WriteSnapshot();
  void FailPush(Conn& conn);

  Transport& transport_;
  DaemonConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  Metrics transport_metrics_;

  SimClock clock_;
  net::LoopbackNetwork net_;  // private: server + relay endpoints only
  std::unique_ptr<server::SensingServer> server_;
  std::map<std::string, std::unique_ptr<RelayEndpoint>> relays_;

  // endpoint name ("phone:tok-3") → connection currently homing it.
  std::map<std::string, std::uint64_t> sessions_;
  std::size_t expected_participations_ = 0;

  std::unique_ptr<Listener> listener_;
  std::mutex conns_mu;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_push_corr_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Inbound> queue_;

  std::thread accept_thread_;
  std::thread dispatcher_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finalized_{false};
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex clock_mu_;  // guards clock_ reads from sim_now()
};

}  // namespace sor::transport
