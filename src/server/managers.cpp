#include "server/managers.hpp"

#include <functional>

#include "phone/task_instance.hpp"

namespace sor::server {

namespace {

using db::Row;
using db::Table;
using db::Value;

}  // namespace

// --- UserInfoManager ------------------------------------------------------

Result<UserId> UserInfoManager::RegisterUser(const std::string& name,
                                             const Token& token) {
  Table* users = db_.table(db::tables::kUsers);
  if (!users) return Error{Errc::kInternal, "users table missing"};
  if (!users->FindWhereEq("token", Value(token.value)).empty())
    return Error{Errc::kAlreadyExists,
                 "token already registered: " + token.value};
  const UserId id = ids_.next();
  Result<db::RowId> r = users->Insert(
      {Value(id.value()), Value(name), Value(token.value)});
  if (!r.ok()) return r.error();
  return id;
}

std::optional<UserId> UserInfoManager::FindByToken(const Token& token) const {
  const Table* users = db_.table(db::tables::kUsers);
  const auto rows = users->FindWhereEq("token", Value(token.value));
  if (rows.empty()) return std::nullopt;
  return UserId{static_cast<std::uint64_t>(rows[0][0].as_int())};
}

Status UserInfoManager::VerifyUser(UserId user, const Token& token) const {
  const Table* users = db_.table(db::tables::kUsers);
  const auto row = users->FindByKey(Value(user.value()));
  if (!row.has_value())
    return Status(Errc::kNotFound, "unknown user " + user.str());
  if ((*row)[2].as_text() != token.value)
    return Status(Errc::kPermissionDenied, "token mismatch for user " +
                                               user.str());
  return Status::Ok();
}

std::size_t UserInfoManager::count() const {
  return db_.table(db::tables::kUsers)->size();
}

void UserInfoManager::ResyncIds() {
  if (auto max = db_.table(db::tables::kUsers)->MaxPrimaryKey())
    ids_.advance_past(static_cast<std::uint64_t>(max->as_int()));
}

// --- ApplicationManager -----------------------------------------------------

Result<AppId> ApplicationManager::CreateApplication(
    const ApplicationSpec& spec, script::analysis::AnalysisReport* report) {
  if (spec.n_instants < 1)
    return Error{Errc::kInvalidArgument, "n_instants must be >= 1"};
  if (spec.sigma_s <= 0.0)
    return Error{Errc::kInvalidArgument, "sigma must be positive"};
  if (spec.period.empty())
    return Error{Errc::kInvalidArgument, "empty scheduling period"};
  if (spec.features.empty())
    return Error{Errc::kInvalidArgument, "application needs features"};

  // Script validation: full static analysis, not just a parse. A script with
  // scope/type errors, calls outside the acquisition whitelist, unboundable
  // loops or an over-budget worst-case energy estimate is rejected here with
  // line-addressed diagnostics — the server never distributes a script
  // phones would reject or could not afford to run.
  script::analysis::AnalyzerOptions options;
  options.energy_budget_mj = spec.energy_budget_mj;
  script::analysis::AnalysisReport analysis =
      script::analysis::AnalyzeSource(spec.script, options);
  if (report) *report = analysis;
  if (!analysis.ok()) {
    const auto errors = analysis.errors();
    return Error{Errc::kScriptError, analysis.RenderErrors(),
                 errors.empty() ? 0 : errors.front().line};
  }

  Table* apps = db_.table(db::tables::kApplications);
  const AppId id = ids_.next();
  Result<db::RowId> r = apps->Insert(
      {Value(id.value()), Value(spec.creator), Value(spec.place.value()),
       Value(spec.place_name), Value(spec.location.lat_deg),
       Value(spec.location.lon_deg), Value(spec.location.alt_m),
       Value(spec.radius_m), Value(spec.script),
       Value(EncodeFeatureDefs(spec.features)),
       Value(spec.period.begin.ms), Value(spec.period.end.ms),
       Value(static_cast<std::int64_t>(spec.n_instants)),
       Value(spec.sigma_s),
       Value(script::analysis::EncodeSensorList(
           analysis.manifest.required_sensors)),
       Value(spec.energy_budget_mj),
       Value(script::analysis::EncodeFlowManifest(analysis.flow))});
  if (!r.ok()) return r.error();
  return id;
}

Result<ApplicationRecord> ApplicationManager::Get(AppId id) const {
  const Table* apps = db_.table(db::tables::kApplications);
  const auto row = apps->FindByKey(Value(id.value()));
  if (!row.has_value())
    return Error{Errc::kNotFound, "unknown application " + id.str()};
  const Row& r = *row;
  ApplicationRecord rec;
  rec.id = id;
  rec.spec.creator = r[1].as_text();
  rec.spec.place = PlaceId{static_cast<std::uint64_t>(r[2].as_int())};
  rec.spec.place_name = r[3].as_text();
  rec.spec.location = GeoPoint{r[4].as_double(), r[5].as_double(),
                               r[6].as_double()};
  rec.spec.radius_m = r[7].as_double();
  rec.spec.script = r[8].as_text();
  Result<std::vector<FeatureDef>> defs = DecodeFeatureDefs(r[9].as_text());
  if (!defs.ok()) return defs.error();
  rec.spec.features = std::move(defs).value();
  rec.spec.period = SimInterval{SimTime{r[10].as_int()},
                                SimTime{r[11].as_int()}};
  rec.spec.n_instants = static_cast<int>(r[12].as_int());
  rec.spec.sigma_s = r[13].as_double();
  Result<std::vector<SensorKind>> sensors =
      script::analysis::DecodeSensorList(r[14].as_text());
  if (!sensors.ok()) return sensors.error();
  rec.required_sensors = std::move(sensors).value();
  rec.spec.energy_budget_mj = r[15].as_double();
  rec.flow_manifest = r[16].as_text();
  return rec;
}

std::vector<ApplicationRecord> ApplicationManager::All() const {
  std::vector<ApplicationRecord> out;
  const Table* apps = db_.table(db::tables::kApplications);
  for (const Row& row : apps->ScanOrderedBy("app_id")) {
    Result<ApplicationRecord> rec =
        Get(AppId{static_cast<std::uint64_t>(row[0].as_int())});
    if (rec.ok()) out.push_back(std::move(rec).value());
  }
  return out;
}

Result<BarcodePayload> ApplicationManager::BarcodeFor(
    AppId id, const std::string& server_endpoint) const {
  Result<ApplicationRecord> rec = Get(id);
  if (!rec.ok()) return rec.error();
  BarcodePayload p;
  p.app = id;
  p.place = rec.value().spec.place;
  p.place_name = rec.value().spec.place_name;
  p.location = rec.value().spec.location;
  p.server = server_endpoint;
  p.radius_m = rec.value().spec.radius_m;
  return p;
}

void ApplicationManager::ResyncIds() {
  if (auto max = db_.table(db::tables::kApplications)->MaxPrimaryKey())
    ids_.advance_past(static_cast<std::uint64_t>(max->as_int()));
}

// --- ParticipationManager ----------------------------------------------------

namespace {

ParticipationRecord RecordFromRow(const Row& r) {
  ParticipationRecord rec;
  rec.task = TaskId{static_cast<std::uint64_t>(r[0].as_int())};
  rec.user = UserId{static_cast<std::uint64_t>(r[1].as_int())};
  rec.app = AppId{static_cast<std::uint64_t>(r[2].as_int())};
  rec.token = Token{r[3].as_text()};
  rec.budget = static_cast<int>(r[4].as_int());
  rec.budget_left = static_cast<int>(r[5].as_int());
  rec.status = r[6].as_text();
  rec.arrive = SimTime{r[7].as_int()};
  if (!r[8].is_null()) rec.leave = SimTime{r[8].as_int()};
  if (r.size() > 9)
    rec.incarnation = static_cast<std::uint32_t>(r[9].as_int());
  return rec;
}

}  // namespace

Result<TaskId> ParticipationManager::HandleRequest(
    const ParticipationRequest& req, const ApplicationRecord& app,
    const UserInfoManager& users) {
  if (Status s = users.VerifyUser(req.user, req.token); !s.ok())
    return s.error();
  if (req.budget <= 0)
    return Error{Errc::kInvalidArgument, "budget must be positive"};

  // Truthfulness check: claimed location must be inside the place radius.
  const double dist = HaversineMeters(req.location, app.spec.location);
  if (dist > app.spec.radius_m) {
    return Error{Errc::kNotInPlace,
                 "location is " + std::to_string(static_cast<int>(dist)) +
                     "m from " + app.spec.place_name + " (radius " +
                     std::to_string(static_cast<int>(app.spec.radius_m)) +
                     "m)"};
  }

  // One active participation per (user, app). A re-scan from the SAME
  // install (equal incarnation) is idempotent and returns the existing task
  // — this is how a crashed-and-restarted phone rejoins without losing its
  // dedup seq space. A HIGHER incarnation is a reinstalled phone: its
  // upload seqs restart at 1, so reusing the old task would let the dedup
  // index silently swallow every new upload. Finish the old participation
  // and fall through to open a fresh task. A LOWER incarnation is a stale
  // install (e.g. a delayed duplicate) and is refused.
  std::optional<ParticipationRecord> open;
  ForEachActiveForApp(app.id, [&](const ParticipationRecord& rec) {
    if (rec.user != req.user) return true;
    open = rec;
    return false;
  });
  if (open.has_value()) {
    if (req.incarnation == open->incarnation) return open->task;
    if (req.incarnation < open->incarnation)
      return Error{Errc::kPermissionDenied,
                   "stale incarnation " + std::to_string(req.incarnation) +
                       " for task " + open->task.str()};
    if (Status s = MarkFinished(open->task, req.scan_time); !s.ok())
      return s.error();
  }

  Table* parts = db_.table(db::tables::kParticipations);
  const TaskId task = ids_.next();
  Result<db::RowId> r = parts->Insert(
      {Value(task.value()), Value(req.user.value()), Value(app.id.value()),
       Value(req.token.value), Value(static_cast<std::int64_t>(req.budget)),
       Value(static_cast<std::int64_t>(req.budget)),
       Value("waiting_for_schedule"), Value(req.scan_time.ms), Value(db::Null{}),
       Value(static_cast<std::int64_t>(req.incarnation))});
  if (!r.ok()) return r.error();
  return task;
}

Status ParticipationManager::MarkRunning(TaskId task) {
  Table* parts = db_.table(db::tables::kParticipations);
  return parts->UpdateByKey(Value(task.value()),
                            [](Row& row) { row[6] = Value("running"); });
}

Status ParticipationManager::MarkFinished(TaskId task, SimTime when) {
  Table* parts = db_.table(db::tables::kParticipations);
  return parts->UpdateByKey(Value(task.value()), [&](Row& row) {
    row[6] = Value("finished");
    row[8] = Value(when.ms);
  });
}

Status ParticipationManager::MarkError(TaskId task, const std::string& why) {
  Table* parts = db_.table(db::tables::kParticipations);
  return parts->UpdateByKey(Value(task.value()), [&](Row& row) {
    row[6] = Value("error:" + why);
  });
}

Status ParticipationManager::ConsumeBudget(TaskId task, int executions) {
  if (executions < 0)
    return Status(Errc::kInvalidArgument, "negative executions");
  // Per-upload hot path: budget_left is non-key and unindexed, so read the
  // one cell and write it back in place — no row copy, no re-index. The
  // read-modify-write is not atomic, but upload handling runs only inside
  // the epoch merge pass (driver thread), so no interleaving can occur.
  Table* parts = db_.table(db::tables::kParticipations);
  constexpr int kBudgetLeftCol = 5;
  Result<Value> left = parts->ReadCell(Value(task.value()), kBudgetLeftCol);
  if (!left.ok()) return Status(left.error());
  const std::int64_t next =
      std::max<std::int64_t>(0, left.value().as_int() - executions);
  return parts->UpdateInPlace(Value(task.value()), kBudgetLeftCol,
                              Value(next));
}

Result<ParticipationRecord> ParticipationManager::Get(TaskId task) const {
  const Table* parts = db_.table(db::tables::kParticipations);
  const auto row = parts->FindByKey(Value(task.value()));
  if (!row.has_value())
    return Error{Errc::kNotFound, "unknown task " + task.str()};
  return RecordFromRow(*row);
}

std::vector<ParticipationRecord> ParticipationManager::ActiveForApp(
    AppId app) const {
  std::vector<ParticipationRecord> out;
  ForEachActiveForApp(app, [&out](const ParticipationRecord& rec) {
    out.push_back(rec);
    return true;
  });
  return out;
}

void ParticipationManager::ForEachActiveForApp(
    AppId app,
    const std::function<bool(const ParticipationRecord&)>& visit) const {
  const Table* parts = db_.table(db::tables::kParticipations);
  parts->ForEachWhereEq("app_id", Value(app.value()), [&](const Row& row) {
    const std::string& status = row[6].as_text();
    if (status != "waiting_for_schedule" && status != "running") return true;
    return visit(RecordFromRow(row));
  });
}

std::vector<ParticipationRecord> ParticipationManager::AllForApp(
    AppId app) const {
  const Table* parts = db_.table(db::tables::kParticipations);
  std::vector<ParticipationRecord> out;
  for (const Row& row : parts->FindWhereEq("app_id", Value(app.value())))
    out.push_back(RecordFromRow(row));
  return out;
}

std::size_t ParticipationManager::TotalCount() const {
  return db_.table(db::tables::kParticipations)->size();
}

std::size_t ParticipationManager::ActiveCount() const {
  const Table* parts = db_.table(db::tables::kParticipations);
  // Both open statuses are indexed; counting two index hits beats a scan.
  return parts->FindWhereEq("status", Value("waiting_for_schedule")).size() +
         parts->FindWhereEq("status", Value("running")).size();
}

void ParticipationManager::ResyncIds() {
  if (auto max = db_.table(db::tables::kParticipations)->MaxPrimaryKey())
    ids_.advance_past(static_cast<std::uint64_t>(max->as_int()));
}

}  // namespace sor::server
