// Unit tests for the mobile frontend: preferences, TaskInstance execution
// semantics (schedules, acquisition binding, denial, script errors), and
// the MobileFrontend message handling against a scripted fake server.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "codec/barcode.hpp"
#include "phone/frontend.hpp"
#include "phone/task_instance.hpp"
#include "sensors/providers.hpp"

namespace sor::phone {
namespace {

class FakeEnvironment final : public sensors::SensorEnvironment {
 public:
  double Sample(SensorKind kind, SimTime) override {
    return static_cast<double>(static_cast<int>(kind)) + 0.5;
  }
  GeoPoint Position(SimTime) override { return GeoPoint{43.0, -76.0, 99.0}; }
};

sensors::SensorManager MakeSensors(FakeEnvironment& env,
                                   sensors::BluetoothLink& link) {
  sensors::SensorManager manager;
  for (int k = 0; k < kSensorKindCount; ++k) {
    manager.RegisterProvider(sensors::MakeProvider(
        static_cast<SensorKind>(k), env, link));
  }
  return manager;
}

// --- acquisition function mapping ------------------------------------------

TEST(AcquisitionFns, MappingRoundTrip) {
  EXPECT_EQ(AcquisitionFunctionSensor("get_location"), SensorKind::kGps);
  EXPECT_EQ(AcquisitionFunctionSensor("get_light_readings"),
            SensorKind::kDroneLight);
  EXPECT_EQ(AcquisitionFunctionSensor("nope"), std::nullopt);
  EXPECT_GE(AcquisitionFunctionNames().size(), 10u);
}

// --- TaskInstance --------------------------------------------------------------

TEST(TaskInstance, ParsesScriptAndRuns) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  link.Pair();
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;

  TaskInstance task(TaskId{1}, AppId{1},
                    "local xs = get_light_readings(3)",
                    {SimTime{10'000}, SimTime{20'000}}, SimDuration{1'000},
                    3);
  EXPECT_EQ(task.status(), TaskStatus::kRunning);

  // Nothing due yet.
  EXPECT_TRUE(task.RunDue(SimTime{5'000}, sensors, prefs).empty());
  // First instant due.
  auto batch1 = task.RunDue(SimTime{10'000}, sensors, prefs);
  ASSERT_EQ(batch1.size(), 1u);
  EXPECT_EQ(batch1[0].kind, SensorKind::kDroneLight);
  EXPECT_EQ(batch1[0].values.size(), 3u);
  EXPECT_EQ(batch1[0].t.ms, 10'000);
  EXPECT_EQ(task.status(), TaskStatus::kRunning);
  // Second instant; afterwards the task finishes.
  auto batch2 = task.RunDue(SimTime{50'000}, sensors, prefs);
  EXPECT_EQ(batch2.size(), 1u);
  EXPECT_EQ(task.status(), TaskStatus::kFinished);
  EXPECT_EQ(task.stats().executions, 2u);
  EXPECT_EQ(task.stats().acquisitions, 2u);
}

TEST(TaskInstance, MovedTaskStillAcquiresAndRecords) {
  // The frontend moves each new task into its map; the host functions
  // must act on the task where it lives when it runs.
  FakeEnvironment env;
  sensors::BluetoothLink link;
  link.Pair();
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  std::map<TaskId, TaskInstance> tasks;
  tasks.insert_or_assign(
      TaskId{1},
      TaskInstance(TaskId{1}, AppId{1},
                   "local xs = get_light_readings(2)\n"
                   "print(get_remaining_instants())\n",
                   {SimTime{1'000}, SimTime{2'000}}, SimDuration{100}, 2));
  TaskInstance& task = tasks.at(TaskId{1});
  ASSERT_EQ(task.status(), TaskStatus::kRunning) << task.last_error();
  const auto first = task.RunDue(SimTime{1'000}, sensors, prefs);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].values.size(), 2u);
  EXPECT_EQ(first[0].t.ms, 1'000);

  TaskInstance moved = std::move(task);
  const auto second = moved.RunDue(SimTime{2'000}, sensors, prefs);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].t.ms, 2'000);
  EXPECT_EQ(moved.stats().acquisitions, 2u);
  EXPECT_EQ(moved.stats().executions, 2u);
  EXPECT_EQ(moved.status(), TaskStatus::kFinished);
}

TEST(TaskInstance, CatchesUpOnMultipleDueInstants) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  link.Pair();
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  TaskInstance task(TaskId{1}, AppId{1}, "local x = get_wifi_readings(1)",
                    {SimTime{1'000}, SimTime{2'000}, SimTime{3'000}},
                    SimDuration{100}, 1);
  const auto batch = task.RunDue(SimTime{10'000}, sensors, prefs);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_TRUE(task.AllInstantsDone());
}

TEST(TaskInstance, BadScriptBecomesError) {
  TaskInstance task(TaskId{1}, AppId{1}, "local = broken", {SimTime{1'000}},
                    SimDuration{100}, 1);
  EXPECT_EQ(task.status(), TaskStatus::kError);
  EXPECT_FALSE(task.last_error().empty());
  FakeEnvironment env;
  sensors::BluetoothLink link;
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  EXPECT_TRUE(task.RunDue(SimTime{5'000}, sensors, prefs).empty());
}

TEST(TaskInstance, AnalyzerRejectsUnboundedLoopAtCompile) {
  // The static analyzer runs at task construction: a loop with no
  // derivable bound never reaches its first scheduled instant.
  TaskInstance task(TaskId{1}, AppId{1},
                    "while true do\n  print(\"spin\")\nend",
                    {SimTime{1'000}}, SimDuration{100}, 1);
  EXPECT_EQ(task.status(), TaskStatus::kError);
  EXPECT_NE(task.last_error().find("SA401"), std::string::npos)
      << task.last_error();
  EXPECT_EQ(task.stats().script_errors, 1u);
}

TEST(TaskInstance, OverBudgetLoopRejectedAtCompileNotAtRun) {
  // 400'000 empty iterations retire 2'400'008 IR steps, over the
  // 2'000'000 budget: SA404 refuses the task before its first instant,
  // instead of the executor killing it mid-run.
  TaskInstance task(TaskId{1}, AppId{1}, "for i = 1, 400000 do end",
                    {SimTime{1'000}}, SimDuration{100}, 1);
  EXPECT_EQ(task.status(), TaskStatus::kError);
  EXPECT_NE(task.last_error().find("SA404"), std::string::npos)
      << task.last_error();
  EXPECT_EQ(task.stats().script_errors, 1u);
  EXPECT_EQ(task.stats().executions, 0u);
}

TEST(TaskInstance, RuntimeScriptErrorSetsErrorStatus) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  TaskInstance task(TaskId{1}, AppId{1}, "print(undefined_var)",
                    {SimTime{1'000}}, SimDuration{100}, 1);
  (void)task.RunDue(SimTime{2'000}, sensors, prefs);
  EXPECT_EQ(task.status(), TaskStatus::kError);
  EXPECT_EQ(task.stats().script_errors, 1u);
}

TEST(TaskInstance, DeniedSensorYieldsEmptyListNotFailure) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  link.Pair();
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  prefs.Allow(SensorKind::kDroneLight, false);
  TaskInstance task(TaskId{1}, AppId{1},
                    "local xs = get_light_readings(3) print(len(xs))",
                    {SimTime{1'000}}, SimDuration{100}, 3);
  const auto batch = task.RunDue(SimTime{2'000}, sensors, prefs);
  EXPECT_TRUE(batch.empty());  // nothing recorded for upload
  EXPECT_EQ(task.status(), TaskStatus::kFinished);
  EXPECT_EQ(task.stats().denied, 1u);
}

TEST(TaskInstance, UnpairedDroneCountsAsFailure) {
  FakeEnvironment env;
  sensors::BluetoothLink link;  // unpaired
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  TaskInstance task(TaskId{1}, AppId{1},
                    "local xs = get_temperature_readings(2)",
                    {SimTime{1'000}}, SimDuration{100}, 2);
  const auto batch = task.RunDue(SimTime{2'000}, sensors, prefs);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(task.stats().failed, 1u);
}

TEST(TaskInstance, GpsTupleCarriesLocations) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  TaskInstance task(TaskId{1}, AppId{1}, "local loc = get_location(2, 60)",
                    {SimTime{1'000}}, SimDuration{100}, 1);
  const auto batch = task.RunDue(SimTime{2'000}, sensors, prefs);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].locations.size(), 2u);
  // Window override: 60 s, not the task default of 100 ms.
  EXPECT_EQ(batch[0].dt.ms, 60'000);
}

TEST(TaskInstance, IntrospectionFunctions) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  // On the last instant (0 remaining), do an extra-long wifi read.
  const char* script = R"(
local t = get_time_s()
if get_remaining_instants() == 0 then
  local xs = get_wifi_readings(4)
else
  local xs = get_wifi_readings(1)
end
)";
  TaskInstance task(TaskId{1}, AppId{1}, script,
                    {SimTime{10'000}, SimTime{20'000}}, SimDuration{1'000},
                    1);
  const auto batch1 = task.RunDue(SimTime{10'000}, sensors, prefs);
  ASSERT_EQ(batch1.size(), 1u);
  EXPECT_EQ(batch1[0].values.size(), 1u);  // not the last instant
  const auto batch2 = task.RunDue(SimTime{20'000}, sensors, prefs);
  ASSERT_EQ(batch2.size(), 1u);
  EXPECT_EQ(batch2[0].values.size(), 4u);  // final instant: long read
}

TEST(TaskInstance, CoarseLocationSnapsFixes) {
  FakeEnvironment env;
  sensors::BluetoothLink link;
  sensors::SensorManager sensors = MakeSensors(env, link);
  LocalPreferenceManager prefs;
  prefs.set_coarse_location(true);
  TaskInstance task(TaskId{1}, AppId{1}, "local loc = get_location(1)",
                    {SimTime{1'000}}, SimDuration{100}, 1);
  const auto batch = task.RunDue(SimTime{2'000}, sensors, prefs);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0].locations.size(), 1u);
  const double lat = batch[0].locations[0].lat_deg;
  EXPECT_DOUBLE_EQ(lat, std::round(lat * 100.0) / 100.0);
}

// --- preferences -----------------------------------------------------------

TEST(Preferences, DefaultsAllowEverything) {
  LocalPreferenceManager prefs;
  for (int k = 0; k < kSensorKindCount; ++k)
    EXPECT_TRUE(prefs.Allows(static_cast<SensorKind>(k)));
  EXPECT_FALSE(prefs.coarse_location());
}

TEST(Preferences, TogglePerSensor) {
  LocalPreferenceManager prefs;
  prefs.Allow(SensorKind::kGps, false);
  EXPECT_FALSE(prefs.Allows(SensorKind::kGps));
  EXPECT_TRUE(prefs.Allows(SensorKind::kMicrophone));
  prefs.Allow(SensorKind::kGps, true);
  EXPECT_TRUE(prefs.Allows(SensorKind::kGps));
}

// --- MobileFrontend against a scripted server --------------------------------

// A fake sensing server that accepts every participation and immediately
// distributes a fixed schedule.
class FakeServer final : public net::Endpoint {
 public:
  FakeServer(net::LoopbackNetwork& net, SimClock& clock)
      : net_(net), clock_(clock) {
    net_.Register("server", this);
  }
  ~FakeServer() override { net_.Unregister("server"); }

  Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    Result<Message> decoded = DecodeFrame(frame);
    if (!decoded.ok()) {
      return EncodeFrame(ErrorReply{
          static_cast<std::uint8_t>(decoded.error().code), "bad frame"});
    }
    if (const auto* req =
            std::get_if<ParticipationRequest>(&decoded.value())) {
      last_token_ = req->token;
      // Distribute the schedule as a separate message (like the real
      // server's reschedule) before replying.
      ScheduleDistribution sched;
      sched.task = TaskId{77};
      sched.app = req->app;
      sched.script = "local xs = get_wifi_readings(2)";
      sched.instants = {SimTime{10'000}, SimTime{20'000}};
      sched.sample_window = SimDuration{1'000};
      sched.samples_per_window = 2;
      (void)net_.Send("phone:" + req->token.value, sched);
      return EncodeFrame(ParticipationReply{TaskId{77}, true, ""});
    }
    if (const auto* upload =
            std::get_if<SensedDataUpload>(&decoded.value())) {
      if (throttle_next_ > 0) {
        // Overloaded-server mode: refuse with a pacing hint, keep nothing.
        --throttle_next_;
        ++throttles_sent_;
        return EncodeFrame(ThrottleReply{upload->task.value(), upload->seq,
                                         throttle_retry_after_, 2});
      }
      uploads_ += static_cast<int>(upload->batches.size());
      seqs_.push_back(upload->seq);
      // Echo the seq — the phone settles an upload only on a matching echo.
      return EncodeFrame(Ack{upload->task.value(), upload->seq});
    }
    if (std::get_if<LeaveNotification>(&decoded.value()) != nullptr) {
      ++leaves_;
      return EncodeFrame(Ack{});
    }
    return EncodeFrame(ErrorReply{0, "unexpected"});
  }

  net::LoopbackNetwork& net_;
  SimClock& clock_;
  Token last_token_;
  int uploads_ = 0;
  int leaves_ = 0;
  int throttle_next_ = 0;  // refuse the next N uploads with ThrottleReply
  int throttles_sent_ = 0;
  SimDuration throttle_retry_after_{12'000};
  std::vector<std::uint64_t> seqs_;  // seq of every upload received
};

BarcodePayload TestBarcode() {
  BarcodePayload p;
  p.app = AppId{5};
  p.place = PlaceId{1};
  p.place_name = "Test Place";
  p.location = GeoPoint{43.0, -76.0, 99.0};
  p.server = "server";
  p.radius_m = 100.0;
  return p;
}

struct FrontendFixture {
  SimClock clock;
  net::LoopbackNetwork net;
  FakeServer server{net, clock};
  FakeEnvironment env;
  FrontendConfig config{PhoneId{1}, UserId{1}, "tester", Token{"tok-x"},
                        true};
  MobileFrontend frontend{config, net, env, clock};
};

TEST(Frontend, ScanTriggersParticipationAndSchedule) {
  FrontendFixture f;
  Result<TaskId> task = f.frontend.ScanBarcode(TestBarcode(), 10);
  ASSERT_TRUE(task.ok()) << task.error().str();
  EXPECT_EQ(task.value(), TaskId{77});
  EXPECT_EQ(f.frontend.stats().schedules_received, 1u);
  EXPECT_EQ(f.frontend.num_tasks(), 1u);
  EXPECT_EQ(f.server.last_token_.value, "tok-x");
}

ScheduleDistribution TestSchedule(std::vector<SensorKind> required) {
  ScheduleDistribution sched;
  sched.task = TaskId{88};
  sched.app = AppId{5};
  sched.script = "local xs = get_wifi_readings(2)";
  sched.instants = {SimTime{10'000}};
  sched.sample_window = SimDuration{1'000};
  sched.samples_per_window = 2;
  sched.required_sensors = std::move(required);
  return sched;
}

TEST(Frontend, RefusesScheduleRequiringMissingSensor) {
  FrontendFixture f;
  // Simulate a phone whose GPS hardware is gone (or was never there).
  ASSERT_TRUE(
      f.frontend.sensor_manager().UnregisterProvider(SensorKind::kGps));
  Result<Message> reply =
      f.net.Send("phone:tok-x", TestSchedule({SensorKind::kGps}));
  // The loopback transport unwraps the phone's ErrorReply into a local
  // error, so the refusal surfaces as a failed Result with kUnsupported.
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, Errc::kUnsupported);
  EXPECT_EQ(f.frontend.stats().schedules_refused, 1u);
  EXPECT_EQ(f.frontend.num_tasks(), 0u);  // task was never created
}

TEST(Frontend, AcceptsScheduleWhenRequiredSensorsPresent) {
  FrontendFixture f;
  Result<Message> reply =
      f.net.Send("phone:tok-x", TestSchedule({SensorKind::kWifi}));
  ASSERT_TRUE(reply.ok()) << reply.error().str();
  EXPECT_NE(std::get_if<Ack>(&reply.value()), nullptr);
  EXPECT_EQ(f.frontend.stats().schedules_refused, 0u);
  EXPECT_EQ(f.frontend.num_tasks(), 1u);
}

TEST(Frontend, ScanViaTextAndMatrix) {
  FrontendFixture f;
  EXPECT_TRUE(
      f.frontend.ScanBarcodeText(EncodeBarcodeText(TestBarcode()), 5).ok());
  FrontendFixture g;
  EXPECT_TRUE(
      g.frontend.ScanBarcodeMatrix(RenderBarcodeMatrix(TestBarcode()), 5)
          .ok());
  // Corrupted matrix is rejected locally, before any network traffic.
  FrontendFixture h;
  BitMatrix damaged = RenderBarcodeMatrix(TestBarcode());
  damaged.flip(0, 0);
  EXPECT_EQ(h.frontend.ScanBarcodeMatrix(damaged, 5).code(),
            Errc::kDecodeError);
  EXPECT_EQ(h.net.stats().delivered, 0u);
}

TEST(Frontend, InvalidBudgetRejectedLocally) {
  FrontendFixture f;
  EXPECT_EQ(f.frontend.ScanBarcode(TestBarcode(), 0).code(),
            Errc::kInvalidArgument);
}

TEST(Frontend, GpsDisabledBlocksParticipation) {
  FrontendFixture f;
  f.frontend.preferences().Allow(SensorKind::kGps, false);
  EXPECT_EQ(f.frontend.ScanBarcode(TestBarcode(), 5).code(),
            Errc::kPermissionDenied);
}

TEST(Frontend, TickExecutesAndUploads) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.frontend.Tick();  // first instant due
  EXPECT_EQ(f.frontend.stats().uploads_sent, 1u);
  f.clock.advance_to(SimTime{30'000});
  f.frontend.Tick();  // second instant due
  EXPECT_EQ(f.frontend.stats().uploads_sent, 2u);
  EXPECT_EQ(f.server.uploads_, 2);
  const TaskInstance* task = f.frontend.task(TaskId{77});
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->status(), TaskStatus::kFinished);
}

TEST(Frontend, FailedUploadRetriedNextTick) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.net.faults().drop_next = 1;
  f.frontend.Tick();
  EXPECT_EQ(f.frontend.stats().upload_failures, 1u);
  EXPECT_EQ(f.server.uploads_, 0);
  f.clock.advance_to(SimTime{16'000});
  f.frontend.Tick();  // retry from the store-and-forward queue
  EXPECT_EQ(f.server.uploads_, 1);
  EXPECT_EQ(f.frontend.stats().uploads_sent, 1u);
}

TEST(Frontend, RetryQueueKeepsConcurrentTasksSeparate) {
  // Two tasks fail their uploads in the same tick; the store-and-forward
  // queue must retry each batch under its own task id.
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  // Hand a second task to the phone directly (same app, different id).
  ScheduleDistribution second;
  second.task = TaskId{88};
  second.app = AppId{5};
  second.script = "local xs = get_wifi_readings(1)";
  second.instants = {SimTime{10'000}};
  second.sample_window = SimDuration{500};
  second.samples_per_window = 1;
  ASSERT_TRUE(f.net.Send(f.frontend.EndpointName(), second).ok());
  ASSERT_EQ(f.frontend.num_tasks(), 2u);

  f.clock.advance_to(SimTime{15'000});
  f.net.faults().drop_next = 2;  // both uploads dropped
  f.frontend.Tick();
  EXPECT_EQ(f.frontend.stats().upload_failures, 2u);
  EXPECT_EQ(f.server.uploads_, 0);

  f.clock.advance_to(SimTime{16'000});
  f.frontend.Tick();  // both retried
  EXPECT_EQ(f.frontend.stats().uploads_sent, 2u);
  EXPECT_GE(f.server.uploads_, 2);
}

TEST(Frontend, RetryKeepsSameSeqAcrossAttempts) {
  // The seq assigned at first send IS the dedup key: the retry must carry
  // the same one so a server that stored the data (lost-Ack case) can tell.
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.net.faults().drop_next = 1;
  f.frontend.Tick();
  EXPECT_EQ(f.frontend.pending_uploads(), 1u);
  f.clock.advance_to(SimTime{16'000});
  f.frontend.Tick();  // retry lands
  ASSERT_EQ(f.server.seqs_.size(), 1u);
  EXPECT_EQ(f.server.seqs_[0], 1u);
  EXPECT_EQ(f.frontend.stats().uploads_retried, 1u);
  EXPECT_EQ(f.frontend.pending_uploads(), 0u);
  // The next fresh upload advances the sequence.
  f.clock.advance_to(SimTime{30'000});
  f.frontend.Tick();
  ASSERT_EQ(f.server.seqs_.size(), 2u);
  EXPECT_EQ(f.server.seqs_[1], 2u);
}

TEST(Frontend, FailedLeaveQueuedAndRetried) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.net.faults().drop_next = 1;
  EXPECT_FALSE(f.frontend.LeavePlace().ok());
  EXPECT_EQ(f.server.leaves_, 0);
  // The notification was not abandoned: it waits in the leave queue.
  EXPECT_EQ(f.frontend.pending_leaves(), 1u);
  f.clock.advance_to(SimTime{1'000});
  f.frontend.Tick();
  EXPECT_EQ(f.server.leaves_, 1);
  EXPECT_EQ(f.frontend.pending_leaves(), 0u);
  EXPECT_EQ(f.frontend.stats().leaves_retried, 1u);
}

TEST(Frontend, UploadQueueBoundedDropsOldest) {
  SimClock clock;
  net::LoopbackNetwork net;
  FakeServer server{net, clock};
  FakeEnvironment env;
  FrontendConfig config{PhoneId{1}, UserId{1}, "tester", Token{"tok-x"},
                        true};
  config.max_pending_uploads = 1;
  MobileFrontend frontend{config, net, env, clock};
  ASSERT_TRUE(frontend.ScanBarcode(TestBarcode(), 10).ok());

  net::FaultRule outage;  // every upload fails while this rule is armed
  outage.drop = 1.0;
  net.faults().AddRule(outage);

  clock.advance_to(SimTime{15'000});
  frontend.Tick();  // first instant's upload fails -> queued
  clock.advance_to(SimTime{25'000});
  frontend.Tick();  // retry fails; second instant's upload evicts the first
  EXPECT_EQ(frontend.pending_uploads(), 1u);
  EXPECT_EQ(frontend.stats().uploads_dropped, 1u);

  net.faults().Clear();
  clock.advance_to(SimTime{60'000});
  frontend.Tick();  // surviving entry flushes once the link heals
  EXPECT_EQ(frontend.pending_uploads(), 0u);
  // Only the newest upload (seq 2) made it; seq 1 was evicted, never sent.
  ASSERT_EQ(server.seqs_.size(), 1u);
  EXPECT_EQ(server.seqs_[0], 2u);
}

TEST(Frontend, BackoffGrowsAndIsCapped) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  net::FaultRule outage;
  outage.drop = 1.0;
  f.net.faults().AddRule(outage);
  f.clock.advance_to(SimTime{15'000});
  f.frontend.Tick();  // queue the first instant's upload
  ASSERT_EQ(f.frontend.pending_uploads(), 1u);

  // Drive many failed retries; the retry *attempt* count is bounded by the
  // exponential backoff — with a 1 s tick and a 60 s cap, 100 ticks can
  // hold at most ~20 attempts (1+2+4+...+60+60+... spacing), far fewer
  // than the 100 a retry-every-tick policy would burn.
  std::uint64_t attempts_before = f.frontend.stats().uploads_retried;
  for (int i = 0; i < 100; ++i) {
    f.clock.advance(SimDuration{1'000});
    f.frontend.Tick();
  }
  const std::uint64_t attempts =
      f.frontend.stats().uploads_retried - attempts_before;
  EXPECT_GE(attempts, 4u);   // it IS still retrying...
  EXPECT_LE(attempts, 30u);  // ...but exponentially spaced
  // Data is never abandoned (later instants may have queued up too).
  EXPECT_GE(f.frontend.pending_uploads(), 1u);
  EXPECT_EQ(f.frontend.stats().uploads_dropped, 0u);
}

TEST(Frontend, LeaveNotifiesServerAndFinishesTasks) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  EXPECT_TRUE(f.frontend.LeavePlace().ok());
  EXPECT_EQ(f.server.leaves_, 1);
  EXPECT_EQ(f.frontend.task(TaskId{77})->status(), TaskStatus::kFinished);
  // Leaving without participating is an error.
  FrontendFixture g;
  EXPECT_FALSE(g.frontend.LeavePlace().ok());
}

TEST(Frontend, AnswersPings) {
  FrontendFixture f;
  Result<Message> reply =
      f.net.Send(f.frontend.EndpointName(), Ping{PhoneId{1}});
  ASSERT_TRUE(reply.ok());
  const auto* pong = std::get_if<PingReply>(&reply.value());
  ASSERT_NE(pong, nullptr);
  EXPECT_DOUBLE_EQ(pong->location.lat_deg, 43.0);
  EXPECT_EQ(f.frontend.stats().pings_answered, 1u);
}

TEST(Frontend, ScheduleRefreshDropsPastInstants) {
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.frontend.Tick();  // executes the 10 s instant
  // Refresh with a schedule containing a past and a future instant.
  ScheduleDistribution refresh;
  refresh.task = TaskId{77};
  refresh.app = AppId{5};
  refresh.script = "local xs = get_wifi_readings(1)";
  refresh.instants = {SimTime{12'000}, SimTime{40'000}};
  refresh.sample_window = SimDuration{500};
  refresh.samples_per_window = 1;
  ASSERT_TRUE(f.net.Send(f.frontend.EndpointName(), refresh).ok());
  const TaskInstance* task = f.frontend.task(TaskId{77});
  ASSERT_NE(task, nullptr);
  // Only the 40 s instant survives (12 s is already in the past).
  EXPECT_EQ(task->schedule().size(), 1u);
  EXPECT_EQ(task->schedule()[0].ms, 40'000);
}

TEST(Frontend, RejectsUnexpectedMessageTypes) {
  FrontendFixture f;
  Result<Message> reply = f.net.Send(f.frontend.EndpointName(), Ack{1});
  EXPECT_EQ(reply.code(), Errc::kInvalidArgument);
}

TEST(Frontend, CrashLosesQueueButKeepsSeqAndIncarnation) {
  // A crash wipes volatile state (tasks, queued uploads) but the persisted
  // bits — the dedup sequence counter and the install incarnation — must
  // survive, so post-restart uploads never reuse a seq the server already
  // stored under this install.
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  EXPECT_EQ(f.frontend.incarnation(), 1u);
  f.clock.advance_to(SimTime{15'000});
  f.net.faults().drop_next = 1;
  f.frontend.Tick();  // seq 1 burned, upload queued
  ASSERT_EQ(f.frontend.pending_uploads(), 1u);

  f.frontend.Crash();
  EXPECT_EQ(f.frontend.pending_uploads(), 0u);  // queue was volatile
  EXPECT_EQ(f.frontend.num_tasks(), 0u);
  EXPECT_EQ(f.frontend.incarnation(), 1u);  // persisted

  Result<TaskId> rejoin = f.frontend.Restart();
  ASSERT_TRUE(rejoin.ok()) << rejoin.error().str();
  EXPECT_EQ(rejoin.value(), TaskId{77});
  f.clock.advance_to(SimTime{30'000});
  f.frontend.Tick();  // fresh upload after restart
  ASSERT_GE(f.server.seqs_.size(), 1u);
  // seq 1 died with the crash; the counter survived, so this is seq 2.
  EXPECT_EQ(f.server.seqs_[0], 2u);
}

TEST(Frontend, RestartWithoutEverJoiningFails) {
  FrontendFixture f;
  f.frontend.Crash();
  EXPECT_FALSE(f.frontend.Restart().ok());
}

TEST(Frontend, UninstallBumpsIncarnationAndResetsSeq) {
  // Uninstall/reinstall is a NEW install: the incarnation increments (the
  // server uses it to tell reinstall from replay) and the seq space
  // restarts at 1 under the new incarnation.
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.frontend.Tick();  // seq 1 delivered under incarnation 1
  ASSERT_EQ(f.server.seqs_.size(), 1u);

  f.frontend.Uninstall();
  EXPECT_EQ(f.frontend.num_tasks(), 0u);
  EXPECT_EQ(f.frontend.pending_uploads(), 0u);
  EXPECT_EQ(f.frontend.incarnation(), 2u);
  // Uninstall also forgets the join: Restart() has nothing to rejoin.
  EXPECT_FALSE(f.frontend.Restart().ok());

  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{30'000});
  f.frontend.Tick();
  ASSERT_EQ(f.server.seqs_.size(), 2u);
  EXPECT_EQ(f.server.seqs_[1], 1u);  // fresh seq space
}

TEST(Frontend, ThrottleReplyPacesTheWholeQueue) {
  // A ThrottleReply is not a failure: the upload goes back in the queue
  // untouched (no attempt charged, no failure counted) and the phone sends
  // NOTHING until the hint expires — uploads, that is; leaves still flush.
  FrontendFixture f;
  ASSERT_TRUE(f.frontend.ScanBarcode(TestBarcode(), 10).ok());
  f.clock.advance_to(SimTime{15'000});
  f.server.throttle_next_ = 1;  // hint: retry after 12 s
  f.frontend.Tick();
  EXPECT_EQ(f.frontend.stats().uploads_throttled, 1u);
  EXPECT_EQ(f.frontend.stats().upload_failures, 0u);
  EXPECT_EQ(f.frontend.pending_uploads(), 1u);
  EXPECT_EQ(f.frontend.paced_until().ms, 15'000 + 12'000);

  f.clock.advance_to(SimTime{20'000});
  f.frontend.Tick();  // still paced: nothing sent...
  EXPECT_EQ(f.server.uploads_, 0);
  // ...but sensing went on: the 20 s instant's data queued behind the gate.
  EXPECT_EQ(f.frontend.pending_uploads(), 2u);

  f.clock.advance_to(SimTime{28'000});
  f.frontend.Tick();  // hint expired: the whole queue flushes, in order
  EXPECT_EQ(f.server.uploads_, 2);
  ASSERT_EQ(f.server.seqs_.size(), 2u);
  EXPECT_EQ(f.server.seqs_[0], 1u);  // same seq, same data — only delayed
  EXPECT_EQ(f.server.seqs_[1], 2u);
  EXPECT_EQ(f.frontend.pending_uploads(), 0u);
}

TEST(Frontend, RetryBudgetExhaustionAbandonsTheUpload) {
  // With a per-campaign retry budget of 2, an upload gets its first send
  // plus two budgeted re-sends; the next failure abandons it instead of
  // retrying forever. Throttles never charge the budget — only failures.
  SimClock clock;
  net::LoopbackNetwork net;
  FakeServer server{net, clock};
  FakeEnvironment env;
  FrontendConfig config{PhoneId{1}, UserId{1}, "tester", Token{"tok-x"},
                        true};
  config.retry_budget = 2;
  MobileFrontend frontend{config, net, env, clock};
  ASSERT_TRUE(frontend.ScanBarcode(TestBarcode(), 10).ok());

  net::FaultRule outage;
  outage.drop = 1.0;
  net.faults().AddRule(outage);
  clock.advance_to(SimTime{15'000});
  frontend.Tick();  // first send fails (free), upload queued
  ASSERT_EQ(frontend.pending_uploads(), 1u);
  for (int i = 0; i < 20 && frontend.pending_uploads() > 0; ++i) {
    clock.advance(SimDuration{60'000});  // far past any backoff
    frontend.Tick();
  }
  // Both of the schedule's uploads die: the budget is per CAMPAIGN, not
  // per upload. The first upload burns the two budgeted re-queues (three
  // re-sends; the third finds the budget spent and abandons); the second
  // upload's very first retry then abandons immediately. Four retries
  // total — never the unbounded churn an outage would otherwise cause.
  EXPECT_EQ(frontend.stats().uploads_abandoned, 2u);
  EXPECT_EQ(frontend.pending_uploads(), 0u);
  EXPECT_EQ(frontend.stats().uploads_retried, 4u);
  EXPECT_EQ(server.uploads_, 0);
}

}  // namespace
}  // namespace sor::phone
