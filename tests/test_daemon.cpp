// Daemon lifecycle + equivalence tests: the full `sor serve` + `sor
// loadgen` stack over an in-process PipeTransport. The tentpole guarantee
// under test is docs/deployment.md's equivalence contract — a campaign
// replayed through the record channel ranks byte-identically to the
// in-process core::System run of the same (scenario, seed) — plus the
// snapshot/restart lifecycle the CLI exposes via SIGTERM.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/fleet.hpp"
#include "core/system.hpp"
#include "transport/daemon.hpp"
#include "transport/loadgen.hpp"
#include "transport/pipe.hpp"
#include "world/scenarios.hpp"

namespace sor::transport {
namespace {

// Small trails campaign: 3 places x 2 phones, 10 min. Big enough to
// exercise joins, schedule pushes, uploads and leaves; small enough to
// keep the suite fast.
world::Scenario MiniScenario() {
  world::Scenario scenario = world::MakeHikingTrailScenario();
  scenario.phones_per_place = 2;
  scenario.period_s = 600.0;
  return scenario;
}

std::string TempPath(const std::string& stem) {
  return "/tmp/sor-daemon-test-" + std::to_string(::getpid()) + "-" + stem;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The oracle: the in-process System run of the same campaign.
std::string InProcessRankings(const world::Scenario& scenario,
                              std::uint64_t seed) {
  core::System system;
  core::FieldTestConfig config;
  config.seed = seed;
  Result<core::FieldTestResult> result =
      system.RunFieldTest(scenario, config);
  EXPECT_TRUE(result.ok()) << result.error().str();
  if (!result.ok()) return "";
  return core::RenderRankingsText(result.value().matrix,
                                  result.value().rankings);
}

DaemonConfig MiniDaemonConfig(const std::string& name) {
  DaemonConfig config;
  config.bind = "daemon";
  config.scenario = MiniScenario();
  config.plan.seed = 42;
  config.snapshot_path = TempPath(name + ".snapshot");
  config.rankings_path = TempPath(name + ".rankings");
  return config;
}

LoadgenConfig MiniLoadgenConfig() {
  LoadgenConfig config;
  config.address = "daemon";
  config.scenario = MiniScenario();
  config.plan.seed = 42;
  config.workers = 2;
  return config;
}

TEST(Daemon, StartStopWritesSnapshot) {
  const DaemonConfig config = MiniDaemonConfig("startstop");
  std::remove(config.snapshot_path.c_str());

  PipeTransport transport;
  Daemon daemon(transport, config);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_FALSE(daemon.finalized());
  daemon.Stop();

  // Stop() persisted the bootstrapped server (apps deployed, users
  // registered) even though no phone ever connected.
  EXPECT_FALSE(ReadFile(config.snapshot_path).empty());
  EXPECT_FALSE(daemon.finalized());
  std::remove(config.snapshot_path.c_str());
}

TEST(Daemon, StopIsIdempotentAndStartupIsRestartable) {
  const DaemonConfig config = MiniDaemonConfig("idempotent");
  std::remove(config.snapshot_path.c_str());

  PipeTransport transport;
  {
    Daemon daemon(transport, config);
    ASSERT_TRUE(daemon.Start().ok());
    daemon.Stop();
    daemon.Stop();  // second Stop is a no-op
  }
  {
    // Second daemon on the same transport address restores the snapshot.
    Daemon daemon(transport, config);
    ASSERT_TRUE(daemon.Start().ok());
    daemon.Stop();
  }
  std::remove(config.snapshot_path.c_str());
}

TEST(Daemon, MiniCampaignMatchesInProcessRankings) {
  const DaemonConfig config = MiniDaemonConfig("equiv");
  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());

  PipeTransport transport;
  Daemon daemon(transport, config);
  ASSERT_TRUE(daemon.Start().ok());

  Result<LoadgenReport> report = RunLoadgen(transport, MiniLoadgenConfig());
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_EQ(report.value().phones, 6u);
  EXPECT_EQ(report.value().call_failures, 0u);
  EXPECT_EQ(report.value().upload_failures, 0u);
  EXPECT_GT(report.value().uploads_sent, 0u);
  EXPECT_GT(report.value().pushes_served, 0u);  // schedule distributions

  // The dispatcher finalizes before it replies to the last leave, so by
  // the time loadgen returns the rankings file is already on disk.
  EXPECT_TRUE(daemon.finalized());
  const std::string daemon_rankings = ReadFile(config.rankings_path);
  daemon.Stop();

  ASSERT_FALSE(daemon_rankings.empty());
  EXPECT_EQ(daemon_rankings, InProcessRankings(MiniScenario(), 42));

  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());
}

TEST(Daemon, RankingsSurviveSnapshotRestart) {
  // Campaign → Stop → fresh Daemon restored from the snapshot: the
  // restored server must reproduce the identical rankings artifact from
  // its database alone (no phone ever reconnects).
  const DaemonConfig config = MiniDaemonConfig("restore");
  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());

  PipeTransport transport;
  {
    Daemon daemon(transport, config);
    ASSERT_TRUE(daemon.Start().ok());
    Result<LoadgenReport> report = RunLoadgen(transport, MiniLoadgenConfig());
    ASSERT_TRUE(report.ok()) << report.error().str();
    daemon.Stop();
  }
  const std::string first = ReadFile(config.rankings_path);
  ASSERT_FALSE(first.empty());
  std::remove(config.rankings_path.c_str());

  {
    DaemonConfig second = config;
    Daemon daemon(transport, second);
    ASSERT_TRUE(daemon.Start().ok());
    // Replaying just the leave-complete finalize is not possible without
    // phones, but the restored database carries every upload: ask the
    // hosted server for the matrix directly.
    auto& server = daemon.server();
    ASSERT_TRUE(server.ProcessAllData().ok());
    daemon.Stop();
  }
  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());
}

TEST(Daemon, MidCampaignRestartRecovers) {
  // SIGTERM mid-campaign: stop the daemon while loadgen is in flight,
  // restart from the snapshot on the same address, and require the
  // campaign to complete — phones retry through the outage (channel
  // re-dial + store-and-forward), the restored server re-admits them.
  const DaemonConfig config = MiniDaemonConfig("midrestart");
  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());

  PipeTransport transport;
  auto daemon = std::make_unique<Daemon>(transport, config);
  ASSERT_TRUE(daemon->Start().ok());

  LoadgenConfig loadgen = MiniLoadgenConfig();
  loadgen.retry_attempts = 300;
  loadgen.retry_sleep_ms = 20;
  Result<LoadgenReport> report(Errc::kInternal, "not run");
  std::thread campaign([&transport, &loadgen, &report] {
    report = RunLoadgen(transport, loadgen);
  });

  // Yank the daemon after the join phase has fully completed (the join
  // sequence — requests, schedule pushes AND replies — is part of
  // campaign identity; an outage there would retry a join into an extra
  // participation event and legitimately shift the online schedule
  // plans) but while uploads are still in flight: upload retries
  // deduplicate by seq, so the outage must not change the data set. The
  // first STORED upload proves every join reply already reached loadgen,
  // because uploads only start once phase 1 is done.
  obs::Counter& stored =
      daemon->metrics().counter("server.uploads_stored");
  for (int i = 0; i < 2'000 && stored.value() < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(stored.value(), 1u);
  daemon->Stop();
  daemon = std::make_unique<Daemon>(transport, config);
  ASSERT_TRUE(daemon->Start().ok());

  campaign.join();
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_EQ(report.value().phones, 6u);

  daemon->Stop();
  // The campaign completed after the restart: every phone joined, sensed
  // and left, so the finalize step produced the rankings artifact — and
  // recovery converges to the SAME rankings, because accepted uploads are
  // deduplicated by seq (retries through the outage add no data) and the
  // snapshot taken at Stop() already held everything ever acked.
  EXPECT_EQ(ReadFile(config.rankings_path), InProcessRankings(MiniScenario(), 42));

  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());
}

TEST(Daemon, ExportsTransportAndServerMetrics) {
  const DaemonConfig config = MiniDaemonConfig("metrics");
  std::remove(config.snapshot_path.c_str());

  PipeTransport transport;  // note: no shared registry — daemon owns one
  Daemon daemon(transport, config);
  ASSERT_TRUE(daemon.Start().ok());
  Result<LoadgenReport> report = RunLoadgen(transport, MiniLoadgenConfig());
  ASSERT_TRUE(report.ok()) << report.error().str();
  daemon.Stop();

  const std::string text = daemon.metrics().RenderText();
  // The daemon's export carries both the server family and the transport
  // family (satellite: `sor metrics`-style output includes transport.*).
  EXPECT_NE(text.find("server.participations_accepted"), std::string::npos);
  EXPECT_NE(text.find("transport.frames_in"), std::string::npos);
  EXPECT_NE(text.find("transport.frame_errors"), std::string::npos);

  std::remove(config.snapshot_path.c_str());
  std::remove(config.rankings_path.c_str());
}

}  // namespace
}  // namespace sor::transport
