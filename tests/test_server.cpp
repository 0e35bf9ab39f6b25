// Unit tests for the sensing server's components: feature definitions, the
// three managers, the scheduler bridge, the data processor and the
// visualization module.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/features.hpp"
#include "server/server.hpp"
#include "server/coverage_report.hpp"
#include "server/json_export.hpp"
#include "server/visualization.hpp"

namespace sor::server {
namespace {

ApplicationSpec TestAppSpec() {
  ApplicationSpec spec;
  spec.creator = "tester";
  spec.place = PlaceId{11};
  spec.place_name = "Test Cafe";
  spec.location = GeoPoint{43.0, -76.0, 100.0};
  spec.radius_m = 80.0;
  spec.script = "local xs = get_noise_readings(3)";
  spec.features = CoffeeShopFeatures();
  spec.period = SimInterval{SimTime{0}, SimTime{600'000}};  // 10 min
  spec.n_instants = 60;
  spec.sigma_s = 10.0;
  return spec;
}

struct ServerFixture {
  SimClock clock;
  net::LoopbackNetwork net;
  SensingServer server{ServerConfig{}, net, clock};
};

// --- feature definitions ---------------------------------------------------

TEST(FeatureDefs, EncodeDecodeRoundTrip) {
  const std::vector<FeatureDef> defs = HikingTrailFeatures();
  Result<std::vector<FeatureDef>> decoded =
      DecodeFeatureDefs(EncodeFeatureDefs(defs));
  ASSERT_TRUE(decoded.ok()) << decoded.error().str();
  EXPECT_EQ(decoded.value(), defs);
}

TEST(FeatureDefs, MalformedRejected) {
  EXPECT_FALSE(DecodeFeatureDefs("").ok());
  EXPECT_FALSE(DecodeFeatureDefs("novalidcolons").ok());
  EXPECT_FALSE(DecodeFeatureDefs("x:not_a_sensor:mean").ok());
  EXPECT_FALSE(DecodeFeatureDefs("x:gps:not_a_method").ok());
}

TEST(FeatureDefs, PaperRecipes) {
  const auto trail = HikingTrailFeatures();
  ASSERT_EQ(trail.size(), 5u);
  EXPECT_EQ(trail[2].method, ExtractMethod::kMeanOfWindowStddev);  // roughness
  EXPECT_EQ(trail[3].method, ExtractMethod::kGpsCurvature);        // curvature
  EXPECT_EQ(trail[4].method, ExtractMethod::kStddevOfWindowMeans); // altitude
  const auto coffee = CoffeeShopFeatures();
  ASSERT_EQ(coffee.size(), 4u);
  for (const FeatureDef& d : coffee)
    EXPECT_EQ(d.method, ExtractMethod::kMeanOfAll);
}

// --- UserInfoManager --------------------------------------------------------

TEST(UserInfo, RegisterAndLookup) {
  ServerFixture f;
  Result<UserId> alice =
      f.server.users().RegisterUser("alice", Token{"tok-a"});
  ASSERT_TRUE(alice.ok());
  Result<UserId> bob = f.server.users().RegisterUser("bob", Token{"tok-b"});
  ASSERT_TRUE(bob.ok());
  EXPECT_NE(alice.value(), bob.value());
  EXPECT_EQ(f.server.users().FindByToken(Token{"tok-a"}), alice.value());
  EXPECT_EQ(f.server.users().FindByToken(Token{"tok-z"}), std::nullopt);
  EXPECT_EQ(f.server.users().count(), 2u);
}

TEST(UserInfo, DuplicateTokenRejected) {
  ServerFixture f;
  ASSERT_TRUE(f.server.users().RegisterUser("a", Token{"t"}).ok());
  EXPECT_EQ(f.server.users().RegisterUser("b", Token{"t"}).code(),
            Errc::kAlreadyExists);
}

TEST(UserInfo, VerifyUserChecksToken) {
  ServerFixture f;
  const UserId id =
      f.server.users().RegisterUser("a", Token{"t"}).value();
  EXPECT_TRUE(f.server.users().VerifyUser(id, Token{"t"}).ok());
  EXPECT_EQ(f.server.users().VerifyUser(id, Token{"wrong"}).code(),
            Errc::kPermissionDenied);
  EXPECT_EQ(f.server.users().VerifyUser(UserId{999}, Token{"t"}).code(),
            Errc::kNotFound);
}

// --- ApplicationManager --------------------------------------------------------

TEST(Applications, CreateGetRoundTrip) {
  ServerFixture f;
  Result<AppId> id = f.server.applications().CreateApplication(TestAppSpec());
  ASSERT_TRUE(id.ok()) << id.error().str();
  Result<ApplicationRecord> rec = f.server.applications().Get(id.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().spec.place_name, "Test Cafe");
  EXPECT_EQ(rec.value().spec.features, CoffeeShopFeatures());
  EXPECT_EQ(rec.value().spec.n_instants, 60);
  EXPECT_EQ(f.server.applications().All().size(), 1u);
}

TEST(Applications, ScriptValidatedAtCreation) {
  ServerFixture f;
  ApplicationSpec bad = TestAppSpec();
  bad.script = "local = syntax error";
  EXPECT_EQ(f.server.applications().CreateApplication(bad).code(),
            Errc::kScriptError);
}

TEST(Applications, AnalyzerRejectsUnboundedLoopWithLineDiagnostic) {
  ServerFixture f;
  ApplicationSpec bad = TestAppSpec();
  bad.script =
      "local xs = get_noise_readings(3)\n"
      "while true do\n"
      "  print(\"spin\")\n"
      "end\n";
  script::analysis::AnalysisReport report;
  Result<AppId> id = f.server.applications().CreateApplication(bad, &report);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.code(), Errc::kScriptError);
  EXPECT_EQ(id.error().line, 2);  // the while statement
  EXPECT_TRUE(report.Has("SA401"));
  EXPECT_NE(id.error().message.find("SA401"), std::string::npos);
}

TEST(Applications, AnalyzerEnforcesEnergyBudget) {
  ServerFixture f;
  ApplicationSpec spec = TestAppSpec();
  spec.script = "local track = get_location(40)";  // 40×150 = 6000 mJ
  script::analysis::AnalysisReport report;
  Result<AppId> id = f.server.applications().CreateApplication(spec, &report);
  ASSERT_FALSE(id.ok());  // default budget is 5000 mJ
  EXPECT_TRUE(report.Has("SA403"));
  EXPECT_EQ(id.error().line, 1);
  // The creator can raise the app's budget; the same script then registers.
  spec.energy_budget_mj = 10'000.0;
  EXPECT_TRUE(f.server.applications().CreateApplication(spec).ok());
}

TEST(Applications, ManifestStoredAndReadBack) {
  ServerFixture f;
  // TestAppSpec's script acquires from the microphone only.
  Result<AppId> id = f.server.applications().CreateApplication(TestAppSpec());
  ASSERT_TRUE(id.ok()) << id.error().str();
  Result<ApplicationRecord> rec = f.server.applications().Get(id.value());
  ASSERT_TRUE(rec.ok());
  const std::vector<SensorKind> want = {SensorKind::kMicrophone};
  EXPECT_EQ(rec.value().required_sensors, want);
  // The information-flow manifest persists next to the capability manifest.
  EXPECT_EQ(rec.value().flow_manifest, "acquire@1=microphone");
  EXPECT_DOUBLE_EQ(rec.value().spec.energy_budget_mj, 5000.0);
}

TEST(Applications, ParameterValidation) {
  ServerFixture f;
  ApplicationSpec s = TestAppSpec();
  s.n_instants = 0;
  EXPECT_FALSE(f.server.applications().CreateApplication(s).ok());
  s = TestAppSpec();
  s.sigma_s = 0;
  EXPECT_FALSE(f.server.applications().CreateApplication(s).ok());
  s = TestAppSpec();
  s.features.clear();
  EXPECT_FALSE(f.server.applications().CreateApplication(s).ok());
  s = TestAppSpec();
  s.period = SimInterval{SimTime{10}, SimTime{5}};
  EXPECT_FALSE(f.server.applications().CreateApplication(s).ok());
}

TEST(Applications, BarcodeCarriesAppIdentity) {
  ServerFixture f;
  const AppId id =
      f.server.applications().CreateApplication(TestAppSpec()).value();
  Result<BarcodePayload> barcode =
      f.server.applications().BarcodeFor(id, "server");
  ASSERT_TRUE(barcode.ok());
  EXPECT_EQ(barcode.value().app, id);
  EXPECT_EQ(barcode.value().place_name, "Test Cafe");
  EXPECT_EQ(barcode.value().server, "server");
  EXPECT_FALSE(f.server.applications().BarcodeFor(AppId{99}, "s").ok());
}

// --- ParticipationManager -------------------------------------------------------

struct ParticipationFixture : ServerFixture {
  AppId app;
  UserId user;
  ParticipationFixture() {
    app = server.applications().CreateApplication(TestAppSpec()).value();
    user = server.users().RegisterUser("alice", Token{"tok-a"}).value();
  }
  ParticipationRequest Request(GeoPoint loc, int budget = 5) {
    ParticipationRequest req;
    req.user = user;
    req.token = Token{"tok-a"};
    req.app = app;
    req.location = loc;
    req.budget = budget;
    req.scan_time = clock.now();
    return req;
  }
};

TEST(Participation, AcceptsTruthfulUser) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  Result<TaskId> task = f.server.participations().HandleRequest(
      f.Request(GeoPoint{43.0001, -76.0001, 100}), rec, f.server.users());
  ASSERT_TRUE(task.ok()) << task.error().str();
  Result<ParticipationRecord> p = f.server.participations().Get(task.value());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().status, "waiting_for_schedule");
  EXPECT_EQ(p.value().budget_left, 5);
}

TEST(Participation, RejectsDistantUser) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  // ~1.1 km away; radius is 80 m.
  Result<TaskId> task = f.server.participations().HandleRequest(
      f.Request(GeoPoint{43.01, -76.0, 100}), rec, f.server.users());
  EXPECT_EQ(task.code(), Errc::kNotInPlace);
}

TEST(Participation, RejectsBadTokenAndBudget) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  ParticipationRequest req = f.Request(GeoPoint{43.0, -76.0, 100});
  req.token = Token{"stolen"};
  EXPECT_EQ(f.server.participations()
                .HandleRequest(req, rec, f.server.users())
                .code(),
            Errc::kPermissionDenied);
  req = f.Request(GeoPoint{43.0, -76.0, 100}, 0);
  EXPECT_EQ(f.server.participations()
                .HandleRequest(req, rec, f.server.users())
                .code(),
            Errc::kInvalidArgument);
}

TEST(Participation, RescanIsIdempotent) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  const TaskId first =
      f.server.participations()
          .HandleRequest(f.Request(GeoPoint{43.0, -76.0, 100}), rec,
                         f.server.users())
          .value();
  const TaskId second =
      f.server.participations()
          .HandleRequest(f.Request(GeoPoint{43.0, -76.0, 100}), rec,
                         f.server.users())
          .value();
  EXPECT_EQ(first, second);
}

TEST(Participation, StatusTransitionsAndBudget) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  const TaskId task =
      f.server.participations()
          .HandleRequest(f.Request(GeoPoint{43.0, -76.0, 100}), rec,
                         f.server.users())
          .value();
  EXPECT_TRUE(f.server.participations().MarkRunning(task).ok());
  EXPECT_EQ(f.server.participations().Get(task).value().status, "running");
  EXPECT_TRUE(f.server.participations().ConsumeBudget(task, 3).ok());
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 2);
  // Budget floors at zero.
  EXPECT_TRUE(f.server.participations().ConsumeBudget(task, 10).ok());
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 0);
  EXPECT_TRUE(
      f.server.participations().MarkFinished(task, SimTime{123}).ok());
  const auto finished = f.server.participations().Get(task).value();
  EXPECT_EQ(finished.status, "finished");
  ASSERT_TRUE(finished.leave.has_value());
  EXPECT_EQ(finished.leave->ms, 123);
  EXPECT_TRUE(f.server.participations().ActiveForApp(f.app).empty());
}

TEST(Participation, ActiveVisitorMatchesActiveForApp) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  ParticipationManager& parts = f.server.participations();
  std::vector<TaskId> tasks;
  for (const char* name : {"bob", "carol", "dave"}) {
    const Token token{std::string("tok-") + name};
    ParticipationRequest req = f.Request(GeoPoint{43.0, -76.0, 100});
    req.user = f.server.users().RegisterUser(name, token).value();
    req.token = token;
    tasks.push_back(parts.HandleRequest(req, rec, f.server.users()).value());
  }
  ASSERT_TRUE(parts.MarkRunning(tasks[2]).ok());
  ASSERT_TRUE(parts.MarkFinished(tasks[1], SimTime{50}).ok());

  std::vector<TaskId> visited;
  parts.ForEachActiveForApp(f.app, [&](const ParticipationRecord& r) {
    visited.push_back(r.task);
    return true;
  });
  std::vector<TaskId> copied;
  for (const ParticipationRecord& r : parts.ActiveForApp(f.app))
    copied.push_back(r.task);
  EXPECT_EQ(visited, (std::vector<TaskId>{tasks[0], tasks[2]}));
  EXPECT_EQ(visited, copied);

  // Returning false stops the walk.
  int calls = 0;
  parts.ForEachActiveForApp(f.app, [&](const ParticipationRecord&) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1);
}

// --- end-to-end server message handling ----------------------------------------

// A minimal phone endpoint that records schedule distributions.
class RecordingPhone final : public net::Endpoint {
 public:
  RecordingPhone(net::LoopbackNetwork& net, const std::string& name)
      : net_(net), name_(name) {
    net_.Register(name_, this);
  }
  ~RecordingPhone() override { net_.Unregister(name_); }

  Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    Result<Message> decoded = DecodeFrame(frame);
    if (decoded.ok()) {
      if (const auto* sched =
              std::get_if<ScheduleDistribution>(&decoded.value())) {
        schedules_.push_back(*sched);
      }
    }
    return EncodeFrame(Ack{});
  }

  net::LoopbackNetwork& net_;
  std::string name_;
  std::vector<ScheduleDistribution> schedules_;
};

TEST(ServerEndToEnd, ParticipationTriggersScheduleDistribution) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const UserId user =
      f.server.users().RegisterUser("alice", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");

  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = barcode.value().app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 4;
  req.scan_time = f.clock.now();
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok()) << reply.error().str();
  const auto& accepted = std::get<ParticipationReply>(reply.value());
  EXPECT_TRUE(accepted.accepted);

  ASSERT_EQ(phone.schedules_.size(), 1u);
  const ScheduleDistribution& sched = phone.schedules_[0];
  EXPECT_EQ(sched.task, accepted.task);
  EXPECT_LE(sched.instants.size(), 4u);  // within budget
  EXPECT_GT(sched.instants.size(), 0u);
  EXPECT_FALSE(sched.script.empty());
  // The statically derived sensor manifest rides with the schedule, and so
  // does the information-flow manifest (SOR5).
  const std::vector<SensorKind> want_sensors = {SensorKind::kMicrophone};
  EXPECT_EQ(sched.required_sensors, want_sensors);
  EXPECT_EQ(sched.flow_manifest, "acquire@1=microphone");
  // Participation is now "running"; schedule persisted in the database.
  EXPECT_EQ(f.server.participations().Get(accepted.task).value().status,
            "running");
  EXPECT_EQ(f.server.database().table(db::tables::kSchedules)->size(), 1u);
}

// A phone that refuses every schedule with kUnsupported, as the real
// frontend does when the required-sensor manifest names hardware it lacks.
class RefusingPhone final : public net::Endpoint {
 public:
  RefusingPhone(net::LoopbackNetwork& net, const std::string& name)
      : net_(net), name_(name) {
    net_.Register(name_, this);
  }
  ~RefusingPhone() override { net_.Unregister(name_); }

  Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    Result<Message> decoded = DecodeFrame(frame);
    if (decoded.ok() &&
        std::get_if<ScheduleDistribution>(&decoded.value()) != nullptr) {
      ++refusals_;
      return EncodeFrame(
          ErrorReply{static_cast<std::uint8_t>(Errc::kUnsupported),
                     "phone lacks required sensor 'microphone'"});
    }
    return EncodeFrame(Ack{});
  }

  net::LoopbackNetwork& net_;
  std::string name_;
  int refusals_ = 0;
};

TEST(ServerEndToEnd, PhoneRefusalMarksParticipationError) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const UserId user =
      f.server.users().RegisterUser("alice", Token{"tok-a"}).value();
  RefusingPhone phone(f.net, "phone:tok-a");

  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = barcode.value().app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 4;
  req.scan_time = f.clock.now();
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok()) << reply.error().str();
  const auto& accepted = std::get<ParticipationReply>(reply.value());
  EXPECT_TRUE(accepted.accepted);  // participation itself was fine
  EXPECT_EQ(phone.refusals_, 1);

  // The refusal (a decodable ErrorReply, not a transport failure) must not
  // count as a delivered schedule: the task goes to error, not running.
  const std::string status =
      f.server.participations().Get(accepted.task).value().status;
  EXPECT_EQ(status.rfind("error:", 0), 0u) << status;
  EXPECT_EQ(f.server.scheduler().stats().schedules_distributed, 0u);
  EXPECT_EQ(f.server.scheduler().stats().distribution_failures, 1u);
}

TEST(ServerEndToEnd, UploadStoredAndBudgetConsumed) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const UserId user =
      f.server.users().RegisterUser("alice", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");
  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = barcode.value().app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 4;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  const TaskId task = std::get<ParticipationReply>(reply.value()).task;

  SensedDataUpload upload;
  upload.task = task;
  upload.user = user;
  ReadingTuple t;
  t.kind = SensorKind::kMicrophone;
  t.t = SimTime{30'000};
  t.dt = SimDuration{1'000};
  t.values = {0.2, 0.3};
  upload.batches = {t};
  ASSERT_TRUE(f.net.Send("server", upload).ok());
  EXPECT_EQ(f.server.stats().uploads_stored, 1u);
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 3);

  // Upload from the wrong user is rejected.
  upload.user = UserId{999};
  EXPECT_EQ(f.net.Send("server", upload).code(), Errc::kPermissionDenied);
  // Upload against an unknown task is rejected.
  upload.user = user;
  upload.task = TaskId{404};
  EXPECT_EQ(f.net.Send("server", upload).code(), Errc::kNotFound);
}

TEST(ServerEndToEnd, LeaveFinishesAndReschedules) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  RecordingPhone phone_a(f.net, "phone:tok-a");
  RecordingPhone phone_b(f.net, "phone:tok-b");
  const UserId ua = f.server.users().RegisterUser("a", Token{"tok-a"}).value();
  const UserId ub = f.server.users().RegisterUser("b", Token{"tok-b"}).value();
  TaskId task_a;
  for (const auto& [user, token] :
       std::vector<std::pair<UserId, std::string>>{{ua, "tok-a"},
                                                   {ub, "tok-b"}}) {
    ParticipationRequest req;
    req.user = user;
    req.token = Token{token};
    req.app = barcode.value().app;
    req.location = GeoPoint{43.0, -76.0, 100};
    req.budget = 4;
    Result<Message> reply = f.net.Send("server", req);
    ASSERT_TRUE(reply.ok());
    if (user == ua)
      task_a = std::get<ParticipationReply>(reply.value()).task;
  }
  const std::size_t schedules_before = phone_b.schedules_.size();
  const std::uint64_t reschedules_before =
      f.server.scheduler().stats().reschedules;

  LeaveNotification note{task_a, ua, SimTime{60'000}};
  ASSERT_TRUE(f.net.Send("server", note).ok());
  EXPECT_EQ(f.server.participations().Get(task_a).value().status,
            "finished");
  // The leave reclaimed A's unexecuted picks (a reschedule ran), but B's
  // plan is append-only and unchanged — plan-delta distribution sends B
  // nothing.
  EXPECT_GT(f.server.scheduler().stats().reschedules, reschedules_before);
  EXPECT_EQ(phone_b.schedules_.size(), schedules_before);
}

TEST(ServerEndToEnd, MalformedFrameAnsweredWithError) {
  ServerFixture f;
  const Bytes garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  // Talk to the endpoint directly (bypassing Send's own encode).
  const Bytes reply_frame = f.server.HandleFrame(garbage);
  Result<Message> reply = DecodeFrame(reply_frame);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<ErrorReply>(reply.value()));
  EXPECT_EQ(f.server.stats().decode_failures, 1u);
}

// --- DataProcessor ---------------------------------------------------------------

TEST(DataProcessor, ExtractsMeanFeatures) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const AppId app = barcode.value().app;
  const UserId user =
      f.server.users().RegisterUser("a", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");
  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 10;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  const TaskId task = std::get<ParticipationReply>(reply.value()).task;

  SensedDataUpload upload;
  upload.task = task;
  upload.user = user;
  ReadingTuple noise;
  noise.kind = SensorKind::kMicrophone;
  noise.t = SimTime{10'000};
  noise.dt = SimDuration{1'000};
  noise.values = {0.2, 0.4};
  ReadingTuple temp;
  temp.kind = SensorKind::kDroneTemperature;
  temp.t = SimTime{10'000};
  temp.dt = SimDuration{1'000};
  temp.values = {70.0, 72.0};
  upload.batches = {noise, temp};
  ASSERT_TRUE(f.net.Send("server", upload).ok());

  Result<int> n = f.server.ProcessAllData();
  ASSERT_TRUE(n.ok()) << n.error().str();
  EXPECT_EQ(n.value(), 4);  // 4 coffee-shop features written
  EXPECT_DOUBLE_EQ(
      f.server.data_processor().FeatureValue(app, features::kNoise).value(),
      0.3);
  EXPECT_DOUBLE_EQ(f.server.data_processor()
                       .FeatureValue(app, features::kTemperature)
                       .value(),
                   71.0);
  // No data for brightness: value 0, still written.
  EXPECT_DOUBLE_EQ(f.server.data_processor()
                       .FeatureValue(app, features::kBrightness)
                       .value(),
                   0.0);
  EXPECT_FALSE(
      f.server.data_processor().FeatureValue(app, "bogus").ok());
  // Raw rows flagged processed.
  EXPECT_TRUE(f.server.database()
                  .table(db::tables::kRawData)
                  ->FindWhereEq("processed", db::Value(false))
                  .empty());
  // Reprocessing is idempotent (upserts).
  ASSERT_TRUE(f.server.ProcessAllData().ok());
  EXPECT_EQ(f.server.database().table(db::tables::kFeatureData)->size(), 4u);
}

TEST(DataProcessor, WindowStatisticsMethods) {
  ServerFixture f;
  ApplicationSpec spec = TestAppSpec();
  spec.features = HikingTrailFeatures();
  Result<BarcodePayload> barcode = f.server.DeployApplication(spec);
  ASSERT_TRUE(barcode.ok());
  const AppId app = barcode.value().app;
  const UserId user =
      f.server.users().RegisterUser("a", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");
  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 10;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  const TaskId task = std::get<ParticipationReply>(reply.value()).task;

  SensedDataUpload upload;
  upload.task = task;
  upload.user = user;
  // Two accelerometer windows with stddevs 1.0 and 3.0 -> roughness 2.0.
  ReadingTuple a1;
  a1.kind = SensorKind::kAccelerometer;
  a1.t = SimTime{1'000};
  a1.dt = SimDuration{1'000};
  a1.values = {9.0, 11.0};  // stddev 1
  ReadingTuple a2 = a1;
  a2.t = SimTime{2'000};
  a2.values = {7.0, 13.0};  // stddev 3
  // Two altitude windows with means 100 and 104 -> stddev 2.0.
  ReadingTuple b1;
  b1.kind = SensorKind::kBarometer;
  b1.t = SimTime{1'000};
  b1.dt = SimDuration{1'000};
  b1.values = {100.0, 100.0};
  ReadingTuple b2 = b1;
  b2.t = SimTime{2'000};
  b2.values = {104.0, 104.0};
  upload.batches = {a1, a2, b1, b2};
  ASSERT_TRUE(f.net.Send("server", upload).ok());
  ASSERT_TRUE(f.server.ProcessAllData().ok());

  EXPECT_DOUBLE_EQ(f.server.data_processor()
                       .FeatureValue(app, features::kRoughness)
                       .value(),
                   2.0);
  EXPECT_DOUBLE_EQ(f.server.data_processor()
                       .FeatureValue(app, features::kAltitudeChange)
                       .value(),
                   2.0);
}

TEST(DataProcessor, CurvatureFromGpsTrack) {
  ServerFixture f;
  ApplicationSpec spec = TestAppSpec();
  spec.features = HikingTrailFeatures();
  Result<BarcodePayload> barcode = f.server.DeployApplication(spec);
  ASSERT_TRUE(barcode.ok());
  const AppId app = barcode.value().app;
  const UserId user =
      f.server.users().RegisterUser("a", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");
  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 10;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  const TaskId task = std::get<ParticipationReply>(reply.value()).task;

  // A clean zig-zag track: 20 m segments, constant 0.2 rad turns ->
  // curvature 10 mrad/m before smoothing. With 3-point smoothing the turn
  // density drops but stays clearly positive; a straight track must give
  // ~0. We compare the two.
  auto MakeTrack = [&](bool curved) {
    ReadingTuple gps;
    gps.kind = SensorKind::kGps;
    gps.t = SimTime{curved ? 10'000 : 500'000};
    gps.dt = SimDuration{200'000};
    const GeoPoint origin{43.0, curved ? -76.0 : -75.9, 100.0};
    double heading = 0.0;
    double x = 0, y = 0;
    double sign = 1.0;
    for (int i = 0; i < 30; ++i) {
      gps.locations.push_back(OffsetMeters(origin, x, y));
      gps.values.push_back(100.0);
      if (curved) {
        heading += sign * 0.2;
        sign = -sign;  // zig-zag
      }
      x += 20.0 * std::cos(heading);
      y += 20.0 * std::sin(heading);
    }
    return gps;
  };

  SensedDataUpload upload;
  upload.task = task;
  upload.user = user;
  upload.batches = {MakeTrack(true)};
  ASSERT_TRUE(f.net.Send("server", upload).ok());
  ASSERT_TRUE(f.server.ProcessAllData().ok());
  const double curved_value = f.server.data_processor()
                                  .FeatureValue(app, features::kCurvature)
                                  .value();
  EXPECT_GT(curved_value, 1.0);
}

TEST(DataProcessor, BrokenSensorOutlierRejected) {
  // One phone uploads wildly wrong temperatures among three honest ones;
  // with outlier rejection (default) the feature barely moves, without it
  // the mean is dragged far off.
  auto run = [&](bool robust) {
    ServerFixture f;
    f.server.data_processor().set_options(
        DataProcessorOptions{robust, 6.0});
    Result<BarcodePayload> barcode =
        f.server.DeployApplication(TestAppSpec());
    EXPECT_TRUE(barcode.ok());
    const AppId app = barcode.value().app;
    const UserId user =
        f.server.users().RegisterUser("a", Token{"tok-a"}).value();
    RecordingPhone phone(f.net, "phone:tok-a");
    ParticipationRequest req;
    req.user = user;
    req.token = Token{"tok-a"};
    req.app = app;
    req.location = GeoPoint{43.0, -76.0, 100};
    req.budget = 50;
    Result<Message> reply = f.net.Send("server", req);
    EXPECT_TRUE(reply.ok());
    const TaskId task = std::get<ParticipationReply>(reply.value()).task;

    SensedDataUpload upload;
    upload.task = task;
    upload.user = user;
    for (int i = 0; i < 30; ++i) {
      ReadingTuple t;
      t.kind = SensorKind::kDroneTemperature;
      t.t = SimTime{(i + 1) * 1'000};
      t.dt = SimDuration{500};
      t.values = {70.0 + 0.01 * i};
      upload.batches.push_back(std::move(t));
    }
    // The broken sensor: three absurd readings.
    for (int i = 0; i < 3; ++i) {
      ReadingTuple t;
      t.kind = SensorKind::kDroneTemperature;
      t.t = SimTime{(100 + i) * 1'000};
      t.dt = SimDuration{500};
      t.values = {9'999.0};
      upload.batches.push_back(std::move(t));
    }
    EXPECT_TRUE(f.net.Send("server", upload).ok());
    EXPECT_TRUE(f.server.ProcessAllData().ok());
    return f.server.data_processor()
        .FeatureValue(app, features::kTemperature)
        .value();
  };

  const double robust_value = run(true);
  const double naive_value = run(false);
  EXPECT_NEAR(robust_value, 70.1, 0.5);
  EXPECT_GT(naive_value, 500.0);
}

TEST(CoverageReport, ReportsExecutedMeasurements) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const AppId app = barcode.value().app;
  const UserId user =
      f.server.users().RegisterUser("a", Token{"tok-a"}).value();
  RecordingPhone phone(f.net, "phone:tok-a");
  ParticipationRequest req;
  req.user = user;
  req.token = Token{"tok-a"};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 10;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  const TaskId task = std::get<ParticipationReply>(reply.value()).task;

  const auto rec = f.server.applications().Get(app).value();
  // Before any upload: zero coverage, empty-but-valid report.
  Result<CoverageReport> before =
      ReportCoverage(f.server.database(), rec, f.server.participations());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().executed_measurements, 0);
  EXPECT_DOUBLE_EQ(before.value().average_coverage, 0.0);

  SensedDataUpload upload;
  upload.task = task;
  upload.user = user;
  for (int i = 0; i < 4; ++i) {
    ReadingTuple t;
    t.kind = SensorKind::kMicrophone;
    t.t = SimTime{(i + 1) * 100'000};  // 100 s apart on a 10 s grid
    t.dt = SimDuration{1'000};
    t.values = {0.2};
    upload.batches.push_back(std::move(t));
  }
  ASSERT_TRUE(f.net.Send("server", upload).ok());

  Result<CoverageReport> after =
      ReportCoverage(f.server.database(), rec, f.server.participations());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().executed_measurements, 4);
  EXPECT_GT(after.value().average_coverage, 0.0);
  EXPECT_LT(after.value().average_coverage, 1.0);
  EXPECT_NE(after.value().timeline.find('#'), std::string::npos);

  const auto by_task =
      ExecutedInstantsByTask(f.server.database(), app,
                             MakeInstantGrid(rec.spec.period,
                                             rec.spec.n_instants));
  ASSERT_EQ(by_task.size(), 1u);
  EXPECT_EQ(by_task.at(task).size(), 4u);
}

// --- visualization ------------------------------------------------------------

TEST(JsonExport, EscapingAndStructure) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");

  rank::FeatureMatrix m({"B&N \"Cafe\"", "A"},
                        {{"noise", rank::PrefDirection::kMinimize, 0}});
  m.set(0, 0, 0.25);
  m.set(1, 0, 0.5);
  const std::string json = RenderFeatureJson(m);
  EXPECT_NE(json.find("\"B&N \\\"Cafe\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"values\":[[0.25],[0.5]]"), std::string::npos);
  EXPECT_NE(json.find("\"features\":[{\"name\":\"noise\"}]"),
            std::string::npos);

  const std::string rankings = RenderRankingJson(
      m, {{"Emma", rank::Ranking::FromOrder({1, 0}).value()}});
  EXPECT_EQ(rankings,
            "{\"rankings\":[{\"user\":\"Emma\",\"order\":"
            "[\"A\",\"B&N \\\"Cafe\\\"\"]}]}");
}

TEST(JsonExport, NonFiniteValuesBecomeNull) {
  rank::FeatureMatrix m({"A"}, {{"x", rank::PrefDirection::kTarget, 0}});
  m.set(0, 0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(RenderFeatureJson(m).find("\"values\":[[null]]"),
            std::string::npos);
}

TEST(Visualization, BarsCsvAndTable) {
  rank::FeatureMatrix m({"A", "B"},
                        {{"temp", rank::PrefDirection::kTarget, 73},
                         {"noise", rank::PrefDirection::kMinimize, 0}});
  m.set(0, 0, 70.0);
  m.set(0, 1, 0.3);
  m.set(1, 0, 75.0);
  m.set(1, 1, 0.1);
  const std::string bars = RenderFeatureBars(m);
  EXPECT_NE(bars.find("temp"), std::string::npos);
  EXPECT_NE(bars.find("A"), std::string::npos);
  EXPECT_NE(bars.find('#'), std::string::npos);

  const std::string csv = RenderFeatureCsv(m);
  EXPECT_NE(csv.find("place,temp,noise"), std::string::npos);
  EXPECT_NE(csv.find("A,70,0.3"), std::string::npos);

  const std::string table = RenderRankingTable(
      m, {{"UserX", rank::Ranking::Identity(2)}});
  EXPECT_NE(table.find("No. 1"), std::string::npos);
  EXPECT_NE(table.find("UserX"), std::string::npos);
}

// --- upload idempotency & crash recovery -----------------------------------

// Join one user to a freshly deployed app and return their task id.
TaskId JoinOneUser(ServerFixture& f, AppId app, const std::string& tok) {
  const UserId user = f.server.users().RegisterUser(tok, Token{tok}).value();
  ParticipationRequest req;
  req.user = user;
  req.token = Token{tok};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 10;
  Result<Message> reply = f.net.Send("server", req);
  return std::get<ParticipationReply>(reply.value()).task;
}

SensedDataUpload MakeUpload(TaskId task, UserId user, std::uint64_t seq,
                            std::int64_t instant_ms) {
  SensedDataUpload up;
  up.task = task;
  up.user = user;
  up.seq = seq;
  ReadingTuple noise;
  noise.kind = SensorKind::kMicrophone;
  noise.t = SimTime{instant_ms};
  noise.dt = SimDuration{1'000};
  noise.values = {0.5};
  up.batches = {noise};
  return up;
}

TEST(UploadIdempotency, DuplicateSeqStoredOnceAndBudgetChargedOnce) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  RecordingPhone phone(f.net, "phone:tok-a");
  const TaskId task = JoinOneUser(f, barcode.value().app, "tok-a");
  const UserId user = f.server.participations().Get(task).value().user;

  const SensedDataUpload up = MakeUpload(task, user, /*seq=*/1, 10'000);
  // Deliver the SAME upload twice — the retry-after-lost-Ack case.
  Result<Message> first = f.net.Send("server", up);
  Result<Message> second = f.net.Send("server", up);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Both deliveries acknowledged, and both Acks echo the seq.
  EXPECT_EQ(std::get<Ack>(first.value()).seq, 1u);
  EXPECT_EQ(std::get<Ack>(second.value()).seq, 1u);
  // One raw row, one budget decrement, and the duplicate is accounted.
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 1u);
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 9);
  EXPECT_EQ(f.server.stats().uploads_stored, 1u);
  EXPECT_EQ(f.server.stats().duplicate_uploads_ignored, 1u);

  // A different seq from the same task is new data.
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 2, 20'000)).ok());
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 2u);
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 8);
}

TEST(UploadIdempotency, SeqZeroIsLegacyAndNeverDeduped) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  RecordingPhone phone(f.net, "phone:tok-a");
  const TaskId task = JoinOneUser(f, barcode.value().app, "tok-a");
  const UserId user = f.server.participations().Get(task).value().user;
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 0, 10'000)).ok());
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 0, 10'000)).ok());
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 2u);
  EXPECT_EQ(f.server.stats().duplicate_uploads_ignored, 0u);
}

TEST(CrashRecovery, RestoreRebuildsStateAndDedupIndex) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  const AppId app = barcode.value().app;
  RecordingPhone phone(f.net, "phone:tok-a");
  const TaskId task = JoinOneUser(f, app, "tok-a");
  const UserId user = f.server.participations().Get(task).value().user;
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 1, 10'000)).ok());
  const Bytes snapshot = f.server.SnapshotState();

  // "Crash": stand up a brand-new server process on the same network and
  // feed it the snapshot.
  f.net.Unregister("server");
  SensingServer reborn{ServerConfig{}, f.net, f.clock};
  ASSERT_TRUE(reborn.RestoreFromSnapshot(snapshot).ok());
  EXPECT_EQ(reborn.stats().recoveries, 1u);

  // Durable state survived.
  EXPECT_EQ(reborn.users().count(), 1u);
  EXPECT_EQ(reborn.applications().All().size(), 1u);
  EXPECT_EQ(reborn.participations().Get(task).value().budget_left, 9);
  EXPECT_EQ(reborn.database().table(db::tables::kRawData)->size(), 1u);

  // The dedup index survived the crash: a phone retrying the pre-crash
  // upload (it never saw the Ack) is recognized, not double-stored.
  const std::size_t schedules_before = phone.schedules_.size();
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 1, 10'000)).ok());
  EXPECT_EQ(reborn.database().table(db::tables::kRawData)->size(), 1u);
  EXPECT_EQ(reborn.participations().Get(task).value().budget_left, 9);
  EXPECT_EQ(reborn.stats().duplicate_uploads_ignored, 1u);

  // First post-restart contact transparently re-pushed the schedule.
  EXPECT_GT(phone.schedules_.size(), schedules_before);
  EXPECT_EQ(reborn.stats().resyncs_triggered, 1u);

  // Id generators resumed past the restored ids: a new user and a new
  // participation get fresh ids, not collisions.
  Result<UserId> ub = reborn.users().RegisterUser("b", Token{"tok-b"});
  ASSERT_TRUE(ub.ok());
  EXPECT_GT(ub.value().value(), user.value());
  RecordingPhone phone_b(f.net, "phone:tok-b");
  ParticipationRequest req;
  req.user = ub.value();
  req.token = Token{"tok-b"};
  req.app = app;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 5;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok());
  EXPECT_GT(std::get<ParticipationReply>(reply.value()).task.value(),
            task.value());

  // New uploads (fresh seqs) flow normally after recovery.
  ASSERT_TRUE(f.net.Send("server", MakeUpload(task, user, 2, 20'000)).ok());
  EXPECT_EQ(reborn.database().table(db::tables::kRawData)->size(), 2u);
}

// --- overload control (docs/robustness.md) --------------------------------

TEST(HealthMonitor, LadderClimbsWithTheWindowAndDecaysOnQuietTicks) {
  HealthMonitor hm;
  OverloadConfig cfg;
  cfg.ingest_budget = 4;  // threshold = ceil(0.75 * 4) = 3
  hm.set_config(cfg);

  const SimTime t1{10'000};
  const SimTime fresh = t1;  // sensed right now: never stale
  for (int i = 0; i < 3; ++i) {
    AdmitDecision d = hm.AdmitUpload(t1, fresh);
    EXPECT_TRUE(d.admit);
    EXPECT_EQ(d.mode, ServerMode::kNormal);
  }
  // At the threshold the ladder steps to throttling, but FRESH uploads
  // still ride until the budget is spent.
  AdmitDecision fourth = hm.AdmitUpload(t1, fresh);
  EXPECT_TRUE(fourth.admit);
  EXPECT_EQ(fourth.mode, ServerMode::kThrottling);
  // Budget spent: shedding, everything refused with the doubled hint.
  AdmitDecision fifth = hm.AdmitUpload(t1, fresh);
  EXPECT_FALSE(fifth.admit);
  EXPECT_EQ(fifth.mode, ServerMode::kShedding);
  EXPECT_EQ(fifth.retry_after.ms, 2 * cfg.retry_after.ms);
  EXPECT_EQ(hm.window_used(), 4u);
  EXPECT_EQ(hm.throttled_total(), 1u);

  // A quiet tick decays the ladder even with no admission traffic at all.
  hm.ObserveTick(SimTime{20'000});
  EXPECT_EQ(hm.mode(), ServerMode::kNormal);
  EXPECT_EQ(hm.window_used(), 0u);
}

TEST(HealthMonitor, ShedsStaleBeforeFresh) {
  HealthMonitor hm;
  OverloadConfig cfg;
  cfg.ingest_budget = 4;
  cfg.stale_after = SimDuration{10'000};
  hm.set_config(cfg);

  const SimTime now{100'000};
  const SimTime fresh = now;
  const SimTime stale{50'000};  // sensed 50 s ago
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(hm.AdmitUpload(now, fresh).admit);
  // Past the throttle threshold: the stale upload is refused (with the
  // BASE hint — it only needs to wait out the crunch) while a fresh one
  // arriving after it still gets the last budget slot.
  AdmitDecision shed = hm.AdmitUpload(now, stale);
  EXPECT_FALSE(shed.admit);
  EXPECT_TRUE(shed.stale);
  EXPECT_EQ(shed.retry_after.ms, cfg.retry_after.ms);
  AdmitDecision last = hm.AdmitUpload(now, fresh);
  EXPECT_TRUE(last.admit);
  EXPECT_EQ(hm.shed_stale_total(), 1u);
  EXPECT_EQ(hm.window_used(), 4u);
}

TEST(HealthMonitor, StorageFailuresTriggerReprimeAndRecoveringMode) {
  HealthMonitor hm;
  OverloadConfig cfg;
  cfg.reprime_after_failures = 2;
  hm.set_config(cfg);

  const SimTime now{10'000};
  hm.NoteStorageFailure(now);
  EXPECT_FALSE(hm.ShouldReprime());
  hm.NoteStorageFailure(now);
  EXPECT_TRUE(hm.ShouldReprime());
  hm.NoteReprimed(now);
  EXPECT_EQ(hm.mode(), ServerMode::kRecovering);
  EXPECT_FALSE(hm.ShouldReprime());  // epoch reset
  // The rest of the tick is a quiet period: every upload is refused.
  EXPECT_FALSE(hm.AdmitUpload(now, now).admit);
  // The next tick resumes service.
  EXPECT_TRUE(hm.AdmitUpload(SimTime{20'000}, SimTime{20'000}).admit);
  EXPECT_EQ(hm.mode(), ServerMode::kNormal);
  EXPECT_EQ(hm.reprimes_total(), 1u);
}

TEST(ServerOverload, DedupAnswersBeforeAdmissionCharges) {
  // Retries of already-stored uploads must be re-acked FREE under
  // overload: the data is safe, and refusing the ack would keep the phone
  // re-sending forever — the opposite of load shedding.
  ServerFixture f;
  OverloadConfig cfg;
  cfg.ingest_budget = 1;
  f.server.set_overload(cfg);
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  RecordingPhone phone(f.net, "phone:tok-a");
  const TaskId task = JoinOneUser(f, barcode.value().app, "tok-a");
  const UserId user = f.server.participations().Get(task).value().user;

  // The single budget slot admits seq 1.
  Result<Message> first = f.net.Send("server", MakeUpload(task, user, 1, 10'000));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(std::get<Ack>(first.value()).seq, 1u);
  // A retry of seq 1 (the lost-Ack case) is re-acked without touching the
  // spent budget...
  Result<Message> dup = f.net.Send("server", MakeUpload(task, user, 1, 10'000));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(std::get<Ack>(dup.value()).seq, 1u);
  EXPECT_EQ(f.server.stats().duplicate_uploads_ignored, 1u);
  // ...while genuinely new data is refused with a throttle hint.
  Result<Message> fresh = f.net.Send("server", MakeUpload(task, user, 2, 20'000));
  ASSERT_TRUE(fresh.ok());
  const auto* throttle = std::get_if<ThrottleReply>(&fresh.value());
  ASSERT_NE(throttle, nullptr);
  EXPECT_EQ(throttle->seq, 2u);
  EXPECT_GT(throttle->retry_after.ms, 0);
  EXPECT_EQ(f.server.stats().uploads_throttled, 1u);
  EXPECT_EQ(f.server.stats().uploads_stored, 1u);
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 1u);
}

TEST(ServerOverload, StorageWriteFailureThrottlesThenReprimeRecovers) {
  // A failed raw-data write answers with a throttle (the phone keeps the
  // batch — at-least-once delivery IS the recovery path), and enough
  // failures quarantine-and-reprime: derived state is rebuilt from the
  // intact tables and service resumes next tick with nothing lost.
  ServerFixture f;
  OverloadConfig cfg;
  cfg.reprime_after_failures = 1;
  f.server.set_overload(cfg);
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  RecordingPhone phone(f.net, "phone:tok-a");
  const TaskId task = JoinOneUser(f, barcode.value().app, "tok-a");
  const UserId user = f.server.participations().Get(task).value().user;

  db::StorageFaultInjector faults;
  db::StorageFaultRule rule;
  rule.table = db::tables::kRawData;
  rule.fail_next = 1;  // scripted: exactly the next raw write fails
  faults.AddRule(rule);
  f.server.database().AttachStorageFaults(&faults);

  Result<Message> failed = f.net.Send("server", MakeUpload(task, user, 1, 10'000));
  ASSERT_TRUE(failed.ok());
  ASSERT_NE(std::get_if<ThrottleReply>(&failed.value()), nullptr);
  EXPECT_EQ(f.server.stats().storage_write_failures, 1u);
  EXPECT_EQ(f.server.stats().reprimes, 1u);
  EXPECT_EQ(f.server.health().mode(), ServerMode::kRecovering);
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 0u);

  // Next tick the phone retries the SAME seq; it lands, budget charged
  // once, and the reprimed dedup index still recognizes later retries.
  f.clock.advance(SimDuration{10'000});
  Result<Message> retry = f.net.Send("server", MakeUpload(task, user, 1, 10'000));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(std::get<Ack>(retry.value()).seq, 1u);
  EXPECT_EQ(f.server.database().table(db::tables::kRawData)->size(), 1u);
  Result<Message> dup = f.net.Send("server", MakeUpload(task, user, 1, 10'000));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(f.server.stats().duplicate_uploads_ignored, 1u);
  EXPECT_EQ(f.server.participations().Get(task).value().budget_left, 9);
  f.server.database().AttachStorageFaults(nullptr);
}

// --- incarnations: crash-rejoin vs reinstall (docs/robustness.md) ----------

TEST(Participation, RejoinWithSameIncarnationIsIdempotent) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  ParticipationRequest req = f.Request(GeoPoint{43.0, -76.0, 100});
  req.incarnation = 1;
  const TaskId first =
      f.server.participations().HandleRequest(req, rec, f.server.users()).value();
  // A crashed phone restarts with its persisted incarnation: same task,
  // same dedup seq space — exactly what its surviving seq counter needs.
  const TaskId again =
      f.server.participations().HandleRequest(req, rec, f.server.users()).value();
  EXPECT_EQ(first, again);
}

TEST(Participation, StaleIncarnationRejected) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  ParticipationRequest req = f.Request(GeoPoint{43.0, -76.0, 100});
  req.incarnation = 2;
  ASSERT_TRUE(f.server.participations()
                  .HandleRequest(req, rec, f.server.users())
                  .ok());
  // A replayed (or long-delayed) join from the PREVIOUS install must not
  // resurrect the old task: its seq space would collide with stored rows.
  req.incarnation = 1;
  EXPECT_EQ(f.server.participations()
                .HandleRequest(req, rec, f.server.users())
                .code(),
            Errc::kPermissionDenied);
}

TEST(Participation, ReinstallFinishesTheOldTaskAndOpensAFreshOne) {
  ParticipationFixture f;
  const auto rec = f.server.applications().Get(f.app).value();
  ParticipationRequest req = f.Request(GeoPoint{43.0, -76.0, 100});
  req.incarnation = 1;
  const TaskId old_task =
      f.server.participations().HandleRequest(req, rec, f.server.users()).value();
  // The user uninstalled and reinstalled: a higher incarnation. The old
  // participation is closed (its uploads stay; its budget is gone) and a
  // fresh task opens so seq 1 from the new install is NOT a duplicate.
  req.incarnation = 2;
  const TaskId new_task =
      f.server.participations().HandleRequest(req, rec, f.server.users()).value();
  EXPECT_NE(new_task, old_task);
  EXPECT_EQ(f.server.participations().Get(old_task).value().status, "finished");
  const ParticipationRecord fresh = f.server.participations().Get(new_task).value();
  EXPECT_EQ(fresh.incarnation, 2u);
  EXPECT_EQ(fresh.status, "waiting_for_schedule");
}

TEST(CrashRecovery, CorruptSnapshotRejectedWithoutStateChange) {
  ServerFixture f;
  Result<BarcodePayload> barcode = f.server.DeployApplication(TestAppSpec());
  ASSERT_TRUE(barcode.ok());
  Bytes snapshot = f.server.SnapshotState();
  snapshot[snapshot.size() / 2] ^= 0x5a;

  f.net.Unregister("server");
  SensingServer reborn{ServerConfig{}, f.net, f.clock};
  EXPECT_FALSE(reborn.RestoreFromSnapshot(snapshot).ok());
  EXPECT_EQ(reborn.stats().recoveries, 0u);
  // The fresh server's (empty) schema is untouched — still usable.
  EXPECT_TRUE(reborn.DeployApplication(TestAppSpec()).ok());
}

}  // namespace
}  // namespace sor::server
