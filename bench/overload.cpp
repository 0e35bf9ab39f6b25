// overload — behaviour of the backpressure/shedding path under sustained
// ~2x-ingest-budget load (docs/robustness.md).
//
// Runs the coffee-shop campaign with the server's per-tick ingest budget
// set to about half the fleet's steady demand and reports, as one JSON
// object (redirect to BENCH_overload.json):
//
//   - shed_rate: refused admissions / admission attempts — how much of the
//     offered load the server pushed back onto the phones,
//   - queue_depth peak and p99: the fleet-wide store-and-forward backlog,
//     sampled once per tick (the "never grows unboundedly" claim, as data),
//   - recovery_ticks: the smallest post-period drain that fully flushes
//     every phone queue once the load drops — how long the system takes to
//     walk back to normal.
//
// Everything is seeded and deterministic, so the numbers are comparable
// across hosts; only wall time would differ (and none is reported).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/system.hpp"
#include "json_gate.hpp"

namespace {

// 90 phones × 20 uploads over the 180-tick period ≈ 10 uploads/tick of
// steady demand; a budget of 5 is sustained 2x overload.
constexpr int kIngestBudget = 5;
constexpr int kPhonesPerPlace = 30;

sor::core::FieldTestConfig OverloadConfigFor(int drain_ticks) {
  sor::core::FieldTestConfig config;
  config.budget_per_user = 20;
  config.n_instants = 120;
  config.sigma_s = 60.0;
  config.seed = 42;
  config.overload.ingest_budget = kIngestBudget;
  config.overload.throttle_at = 0.6;
  // Staleness threshold well above the retry hint: data that waited out a
  // couple of throttle rounds is still "fresh"; only the long tail of the
  // backlog gets deprioritized.
  config.overload.stale_after = sor::SimDuration{60'000};
  // One tick: a throttled phone is back the very next round. A hint just
  // above the tick period would alias (pace 12 s -> skip 2 of every 2
  // ticks) and halve the drain throughput for no added protection.
  config.overload.retry_after = sor::SimDuration{10'000};
  config.drain_ticks = drain_ticks;
  return config;
}

sor::world::Scenario SmallCoffee() {
  sor::world::Scenario s = sor::world::MakeCoffeeShopScenario();
  s.phones_per_place = kPhonesPerPlace;
  s.period_s = 1'800.0;
  return s;
}

// Fleet queue depth at or below which 99% of tick samples fall, from the
// driver-sampled histogram (upper bound of the covering bucket).
double DepthP99(sor::core::System& system) {
  const sor::obs::Histogram::Snapshot snap =
      system.metrics()
          .histogram("core.fleet_queue_depth",
                     sor::obs::ExponentialBuckets(1.0, 2.0, 14))
          .Read();
  if (snap.count == 0) return 0.0;
  const auto want = static_cast<std::uint64_t>(
      0.99 * static_cast<double>(snap.count) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < snap.upper_bounds.size(); ++i) {
    seen += snap.counts[i];
    if (seen >= want) return snap.upper_bounds[i];
  }
  return snap.upper_bounds.empty() ? 0.0 : snap.upper_bounds.back() * 2.0;
}

std::uint64_t PendingAfterRun(sor::core::System& system) {
  std::uint64_t pending = 0;
  for (const auto& frontend : system.frontends())
    pending += frontend->pending_uploads() + frontend->pending_leaves();
  return pending;
}

}  // namespace

int main(int argc, char** argv) {
  sor::bench::RequireCleanTree(
      sor::bench::ParseFlags(argc, argv, {"allow-dirty"}), argv[0]);
  const sor::world::Scenario scenario = SmallCoffee();

  // Main measurement run: a generous drain so the campaign itself ends
  // fully flushed and the admission counters cover the whole story.
  sor::core::System system;
  sor::Result<sor::core::FieldTestResult> run =
      system.RunFieldTest(scenario, OverloadConfigFor(/*drain_ticks=*/512));
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    return 1;
  }
  const sor::core::FieldTestResult& r = run.value();
  const std::uint64_t refused = r.server_stats.uploads_throttled;
  const std::uint64_t admitted = r.server_stats.uploads_stored +
                                 r.server_stats.duplicate_uploads_ignored;
  const std::uint64_t attempts = refused + admitted;
  const double shed_rate =
      attempts > 0 ? static_cast<double>(refused) / attempts : 0.0;
  const double p99 = DepthP99(system);
  const std::uint64_t leftover = PendingAfterRun(system);

  // Recovery: smallest drain (in ticks) after which every phone queue is
  // empty. Each probe is a fresh campaign with the same seed, so the load
  // phase is identical and only the drain varies.
  // A 2x overload sustained for the whole 180-tick period necessarily
  // banks ~half the demand on the phones; recovery is that backlog played
  // back at the ingest budget, so the probe ladder reaches past it.
  int recovery_ticks = -1;
  for (int drain : {32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 512}) {
    sor::core::System probe;
    sor::Result<sor::core::FieldTestResult> p =
        probe.RunFieldTest(scenario, OverloadConfigFor(drain));
    if (!p.ok()) {
      std::fprintf(stderr, "probe failed: %s\n", p.error().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "drain=%d pending=%llu\n", drain,
                 static_cast<unsigned long long>(PendingAfterRun(probe)));
    if (PendingAfterRun(probe) == 0) {
      recovery_ticks = drain;
      break;
    }
  }

  std::printf("{\n  \"bench\": \"overload\",\n");
  std::printf("  \"host_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  std::printf("  \"config\": {\"phones\": %d, \"ingest_budget\": %d, "
              "\"overload_factor\": 2.0, \"seed\": 42},\n",
              kPhonesPerPlace * static_cast<int>(scenario.places.size()),
              kIngestBudget);
  std::printf("  \"results\": {\n");
  std::printf("    \"uploads_stored\": %llu,\n",
              static_cast<unsigned long long>(r.server_stats.uploads_stored));
  std::printf("    \"uploads_throttled\": %llu,\n",
              static_cast<unsigned long long>(refused));
  std::printf("    \"uploads_shed_stale\": %llu,\n",
              static_cast<unsigned long long>(
                  r.server_stats.uploads_shed_stale));
  std::printf("    \"shed_rate\": %.4f,\n", shed_rate);
  std::printf("    \"queue_depth_peak\": %llu,\n",
              static_cast<unsigned long long>(r.peak_pending_uploads));
  std::printf("    \"queue_depth_p99\": %.0f,\n", p99);
  std::printf("    \"recovery_ticks\": %d,\n", recovery_ticks);
  std::printf("    \"uploads_abandoned\": %llu,\n",
              static_cast<unsigned long long>(r.total_uploads_abandoned));
  std::printf("    \"pending_after_drain\": %llu\n",
              static_cast<unsigned long long>(leftover));
  std::printf("  }\n}\n");
  return leftover == 0 && recovery_ticks >= 0 ? 0 : 1;
}
