// micro_obs — what the telemetry subsystem costs.
//
// Two layers of measurement, one JSON object on stdout:
//
//   * per-op nanoseconds of every hot-path primitive a traced campaign
//     exercises: counter increments (single and per-thread sharded), gauge
//     stores, histogram observations, tracer emits with tracing disabled
//     (the always-paid branch) and enabled (the ring write), and the
//     per-event cost of Merged()+Fingerprint().
//
//   * whole-campaign overhead: the same coffee-shop campaign run with
//     metrics only (the registry cannot be turned off — transport counters
//     always count) and again with the event trace recording, reported as
//     wall-time delta. This is the number docs/observability.md quotes when
//     it says tracing is cheap enough to leave on in chaos CI.
//
// Loop timings use steady_clock around a fixed iteration count with an
// empty-asm sink so the optimizer cannot delete the measured op. On a
// single-core or heavily shared host the campaign wall times are noisy;
// the per-op numbers are stable much earlier because they amortize over
// millions of iterations.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "json_gate.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Keep `v` alive as far as the optimizer knows, without a memory round trip.
template <typename T>
inline void Sink(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double NsPerOp(Clock::time_point t0, Clock::time_point t1,
               std::uint64_t iters) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

double BenchCounter(sor::obs::Sharding sharding, std::uint64_t iters) {
  sor::obs::MetricsRegistry registry;
  sor::obs::Counter& c = registry.counter("bench.counter", sharding);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) c.Inc();
  const auto t1 = Clock::now();
  Sink(c.value());
  return NsPerOp(t0, t1, iters);
}

double BenchGauge(std::uint64_t iters) {
  sor::obs::MetricsRegistry registry;
  sor::obs::Gauge& g = registry.gauge("bench.gauge");
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i)
    g.Set(static_cast<double>(i));
  const auto t1 = Clock::now();
  Sink(g.value());
  return NsPerOp(t0, t1, iters);
}

double BenchHistogram(std::uint64_t iters) {
  sor::obs::MetricsRegistry registry;
  sor::obs::Histogram& h = registry.histogram(
      "bench.histogram", sor::obs::ExponentialBuckets(1.0, 2.0, 10));
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i)
    h.Observe(static_cast<double>(i & 1023));
  const auto t1 = Clock::now();
  Sink(h.Read().count);
  return NsPerOp(t0, t1, iters);
}

double BenchEmit(bool enabled, std::uint64_t iters) {
  sor::obs::Tracer tracer(1 << 16);
  tracer.set_enabled(enabled);
  const sor::obs::StreamId stream = tracer.RegisterStream("bench");
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (tracer.enabled()) {
      tracer.Emit(stream, sor::SimTime{static_cast<std::int64_t>(i)},
                  sor::obs::EventKind::kSenseBatch, i, i, i);
    }
  }
  const auto t1 = Clock::now();
  Sink(tracer.total_events());
  return NsPerOp(t0, t1, iters);
}

double BenchFingerprint(std::uint64_t events) {
  sor::obs::Tracer tracer(static_cast<std::size_t>(events));
  tracer.set_enabled(true);
  const sor::obs::StreamId stream = tracer.RegisterStream("bench");
  for (std::uint64_t i = 0; i < events; ++i) {
    tracer.Emit(stream, sor::SimTime{static_cast<std::int64_t>(i)},
                sor::obs::EventKind::kSenseBatch, i, i, i);
  }
  const auto t0 = Clock::now();
  const std::uint64_t fp = tracer.Fingerprint();
  const auto t1 = Clock::now();
  Sink(fp);
  return NsPerOp(t0, t1, events);
}

// One short coffee-shop campaign; returns wall ms. Also reports (via the
// out-params) what the run produced, so the two arms can be asserted
// identical and the traced arm's event volume is visible in the JSON.
double CampaignMs(bool trace, std::uint64_t* fingerprint,
                  std::size_t* events) {
  sor::world::Scenario scenario = sor::world::MakeCoffeeShopScenario();
  scenario.period_s = 600.0;

  sor::core::FieldTestConfig config;
  config.budget_per_user = 10;
  config.n_instants = 60;
  config.sigma_s = 60.0;
  config.trace = trace;
  config.defer_setup_reschedules = true;

  sor::core::System system;
  const auto t0 = Clock::now();
  sor::Result<sor::core::FieldTestResult> run =
      system.RunFieldTest(scenario, config);
  const auto t1 = Clock::now();
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    std::exit(1);
  }
  if (fingerprint != nullptr)
    *fingerprint = run.value().trace_fingerprint;
  if (events != nullptr) *events = system.tracer().total_events();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  sor::bench::RequireCleanTree(
      sor::bench::ParseFlags(argc, argv, {"allow-dirty"}), argv[0]);
  constexpr std::uint64_t kIters = 4'000'000;
  constexpr std::uint64_t kFingerprintEvents = 200'000;
  constexpr int kCampaignRuns = 3;  // report the min — least-noise estimate

  const double counter_single =
      BenchCounter(sor::obs::Sharding::kSingle, kIters);
  const double counter_sharded =
      BenchCounter(sor::obs::Sharding::kPerThread, kIters);
  const double gauge_set = BenchGauge(kIters);
  const double histogram_observe = BenchHistogram(kIters);
  const double emit_disabled = BenchEmit(false, kIters);
  const double emit_enabled = BenchEmit(true, kIters);
  const double fingerprint_per_event = BenchFingerprint(kFingerprintEvents);

  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t events = 0;
  for (int i = 0; i < kCampaignRuns; ++i) {
    const double u = CampaignMs(false, nullptr, nullptr);
    const double t = CampaignMs(true, &fingerprint, &events);
    if (i == 0 || u < untraced_ms) untraced_ms = u;
    if (i == 0 || t < traced_ms) traced_ms = t;
  }
  const double overhead_pct =
      untraced_ms > 0.0 ? (traced_ms / untraced_ms - 1.0) * 100.0 : 0.0;

  std::printf("{\n  \"bench\": \"micro_obs\",\n");
  std::printf("  \"host_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  std::printf("  \"per_op_ns\": {\n");
  std::printf("    \"counter_inc_single\": %.2f,\n", counter_single);
  std::printf("    \"counter_inc_sharded\": %.2f,\n", counter_sharded);
  std::printf("    \"gauge_set\": %.2f,\n", gauge_set);
  std::printf("    \"histogram_observe\": %.2f,\n", histogram_observe);
  std::printf("    \"trace_emit_disabled\": %.2f,\n", emit_disabled);
  std::printf("    \"trace_emit_enabled\": %.2f,\n", emit_enabled);
  std::printf("    \"fingerprint_per_event\": %.2f\n", fingerprint_per_event);
  std::printf("  },\n");
  std::printf("  \"campaign\": {\n");
  std::printf("    \"untraced_ms\": %.1f,\n", untraced_ms);
  std::printf("    \"traced_ms\": %.1f,\n", traced_ms);
  std::printf("    \"overhead_pct\": %.1f,\n", overhead_pct);
  std::printf("    \"trace_events\": %zu,\n", events);
  std::printf("    \"trace_fingerprint\": \"%016llx\"\n",
              static_cast<unsigned long long>(fingerprint));
  std::printf("  }\n}\n");
  return 0;
}
