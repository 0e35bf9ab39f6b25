#include "phone/task_instance.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/analysis/host_api.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"

namespace sor::phone {

// The acquisition vocabulary lives in the analyzer's host-API table
// (script/analysis/host_api.cpp) — one shared row per sensor, so the
// server-side checker and the phone-side registrations can never drift.
std::optional<SensorKind> AcquisitionFunctionSensor(
    const std::string& fn_name) {
  return script::analysis::AcquisitionSensor(fn_name);
}

std::vector<std::string> AcquisitionFunctionNames() {
  std::vector<std::string> names;
  for (const script::analysis::HostSignature& sig :
       script::analysis::HostSignatures()) {
    if (sig.sensor.has_value()) names.emplace_back(sig.name);
  }
  return names;
}

TaskInstance::TaskInstance(TaskId id, AppId app, const std::string& script,
                           std::vector<SimTime> schedule,
                           SimDuration sample_window, int samples_per_window)
    : id_(id),
      app_(app),
      schedule_(std::move(schedule)),
      sample_window_(sample_window),
      samples_per_window_(std::max(1, samples_per_window)) {
  std::sort(schedule_.begin(), schedule_.end());
  // Compile = parse + static analysis + lowering, once per task. The phone
  // re-checks what the server should already have verified — a defense
  // against a stale or hostile server build — so a script that would crash
  // or exceed the instruction budget is refused before its first scheduled
  // instant. Warnings only get logged.
  namespace analysis = script::analysis;
  Result<script::Program> parsed = script::Parse(script);
  analysis::AnalysisReport report;
  if (parsed.ok()) {
    analysis::AnalyzerOptions options;
    options.default_samples_per_window = samples_per_window_;
    report = analysis::Analyze(parsed.value(), options);
  } else {
    report.diagnostics.push_back(analysis::FromError(parsed.error()));
  }
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity == analysis::Severity::kWarning)
      SOR_LOG(kWarn, "task", id_.str() << ": " << Render(d));
  }
  if (!report.ok()) {
    status_ = TaskStatus::kError;
    last_error_ = report.RenderErrors();
    ++stats_.script_errors;
    return;
  }
  module_ = script::ir::Lower(parsed.value());
  status_ = TaskStatus::kRunning;
}

std::vector<ReadingTuple> TaskInstance::RunDue(
    SimTime now, sensors::SensorManager& sensors,
    const LocalPreferenceManager& prefs) {
  std::vector<ReadingTuple> collected;
  if (status_ != TaskStatus::kRunning) return collected;
  while (next_instant_ < schedule_.size() &&
         schedule_[next_instant_] <= now) {
    ExecuteOnce(schedule_[next_instant_], sensors, prefs, collected);
    ++next_instant_;
  }
  if (AllInstantsDone() && status_ == TaskStatus::kRunning)
    status_ = TaskStatus::kFinished;
  return collected;
}

struct TaskInstance::Instant {
  TaskInstance& task;
  SimTime t;
  sensors::SensorManager& sensors;
  const LocalPreferenceManager& prefs;
  std::vector<ReadingTuple>& out;
};

thread_local const TaskInstance::Instant* TaskInstance::instant_ = nullptr;

const script::HostRegistry& TaskInstance::Host() {
  static const script::HostRegistry host = [] {
    script::HostRegistry h;
    script::InstallStdlib(h);
    // Introspection: scripts can adapt to where they are in the task
    // (e.g. take a final long GPS trace on the last scheduled instant).
    h.Register("get_time_s",
               [](std::span<const script::Value>) -> Result<script::Value> {
                 return script::Value(instant_->t.seconds());
               });
    h.Register("get_sample_window_s",
               [](std::span<const script::Value>) -> Result<script::Value> {
                 return script::Value(instant_->task.sample_window_.seconds());
               });
    h.Register("get_remaining_instants",
               [](std::span<const script::Value>) -> Result<script::Value> {
                 const TaskInstance& task = instant_->task;
                 return script::Value(static_cast<double>(
                     task.schedule_.size() - task.next_instant_ - 1));
               });
    for (const script::analysis::HostSignature& sig :
         script::analysis::HostSignatures()) {
      if (!sig.sensor.has_value()) continue;
      const SensorKind kind = *sig.sensor;
      h.Register(std::string(sig.name),
                 [kind](std::span<const script::Value> args) {
                   return instant_->task.Acquire(*instant_, kind, args);
                 });
    }
    return h;
  }();
  return host;
}

Result<script::Value> TaskInstance::Acquire(
    const Instant& at, SensorKind kind, std::span<const script::Value> args) {
  int samples = samples_per_window_;
  if (!args.empty() && args[0].is_number())
    samples = std::max(1, static_cast<int>(args[0].as_number()));
  // Optional second argument: a per-call window override in seconds.
  // Trail scripts use it to spread GPS fixes far enough apart that the
  // curvature estimate is geometry- rather than noise-driven.
  SimDuration window = sample_window_;
  if (args.size() >= 2 && args[1].is_number() && args[1].as_number() > 0)
    window = SimDuration::FromSeconds(args[1].as_number());

  if (!at.prefs.Allows(kind)) {
    ++stats_.denied;
    // Denied sensors yield an empty list rather than aborting the whole
    // script: partial participation is better than none.
    return script::Value::MakeList();
  }
  sensors::AcquireRequest req{at.t, window, samples};
  Result<std::vector<sensors::Reading>> readings =
      at.sensors.Acquire(kind, req);
  if (!readings.ok()) {
    ++stats_.failed;
    SOR_LOG(kDebug, "task", "acquisition failed: " << readings.error().str());
    return script::Value::MakeList();
  }
  ++stats_.acquisitions;

  ReadingTuple tuple;
  tuple.kind = kind;
  tuple.t = at.t;
  tuple.dt = window;
  script::List values;
  for (const sensors::Reading& r : readings.value()) {
    tuple.values.push_back(r.value);
    values.emplace_back(r.value);
    if (r.location.has_value()) {
      GeoPoint loc = *r.location;
      if (at.prefs.coarse_location()) {
        // Snap to a ~1 km grid (0.01 degrees): coarse mode.
        loc.lat_deg = std::round(loc.lat_deg * 100.0) / 100.0;
        loc.lon_deg = std::round(loc.lon_deg * 100.0) / 100.0;
      }
      tuple.locations.push_back(loc);
    }
  }
  at.out.push_back(std::move(tuple));
  return script::Value::MakeList(std::move(values));
}

void TaskInstance::ExecuteOnce(SimTime t, sensors::SensorManager& sensors,
                               const LocalPreferenceManager& prefs,
                               std::vector<ReadingTuple>& out) {
  ++stats_.executions;
  const Instant at{*this, t, sensors, prefs, out};
  instant_ = &at;
  Result<script::ExecutionResult> r =
      script::ir::Execute(module_, Host(), script::InterpreterOptions{});
  instant_ = nullptr;
  if (!r.ok()) {
    ++stats_.script_errors;
    last_error_ = r.error().str();
    status_ = TaskStatus::kError;
    SOR_LOG(kWarn, "task", "script failed: " << last_error_);
  }
}

}  // namespace sor::phone
