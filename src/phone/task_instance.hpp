// TaskInstance — one running sensing task on the phone (§II-A).
//
// "Each incoming task will be served by a task instance ... A task instance
// is a self-contained component, which maintains its own status (e.g.,
// running, waiting for data, etc), call[s] proper API functions to acquire
// data from sensors, and manages data collected from sensors."
//
// The task owns its SenseScript program, compiled once to the IR, and its
// schedule Φ_k. When the simulation clock reaches a scheduled instant, the
// task executes the lowered module with the data-acquisition host functions
// (get_temperature, get_location, ...) bound to the phone's SensorManager;
// every successful acquisition is recorded as a ReadingTuple (t, Δt, d)
// ready for upload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codec/messages.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "phone/preferences.hpp"
#include "script/interpreter.hpp"
#include "script/ir/ir.hpp"
#include "sensors/manager.hpp"

namespace sor::phone {

enum class TaskStatus {
  kWaitingForSchedule,
  kRunning,
  kFinished,
  kError,
};

[[nodiscard]] constexpr const char* to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::kWaitingForSchedule: return "waiting_for_schedule";
    case TaskStatus::kRunning: return "running";
    case TaskStatus::kFinished: return "finished";
    case TaskStatus::kError: return "error";
  }
  return "?";
}

struct TaskRunStats {
  std::uint64_t executions = 0;        // scheduled instants executed
  std::uint64_t acquisitions = 0;      // successful get_* calls
  std::uint64_t denied = 0;            // blocked by local preferences
  std::uint64_t failed = 0;            // sensor unavailable / timeout
  std::uint64_t script_errors = 0;
};

class TaskInstance {
 public:
  // `script` is compiled immediately (parse, static analysis, lowering to
  // the IR); a parse failure or any analyzer error puts the task in kError
  // and last_error() carries the rendered diagnostics.
  TaskInstance(TaskId id, AppId app, const std::string& script,
               std::vector<SimTime> schedule, SimDuration sample_window,
               int samples_per_window);

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] AppId app() const { return app_; }
  [[nodiscard]] TaskStatus status() const { return status_; }
  [[nodiscard]] const TaskRunStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  [[nodiscard]] const std::vector<SimTime>& schedule() const {
    return schedule_;
  }

  // Execute all scheduled instants with time <= now that have not yet run.
  // Produces the ReadingTuples collected by those executions (the caller —
  // the frontend — uploads them). `sensors` and `prefs` belong to the
  // phone; the task only borrows them per execution.
  [[nodiscard]] std::vector<ReadingTuple> RunDue(
      SimTime now, sensors::SensorManager& sensors,
      const LocalPreferenceManager& prefs);

  // Mark the task finished (user left the place / server said stop).
  void Finish() {
    if (status_ != TaskStatus::kError) status_ = TaskStatus::kFinished;
  }

  [[nodiscard]] bool AllInstantsDone() const {
    return next_instant_ >= schedule_.size();
  }

 private:
  // Run the script once for the instant at `t`, collecting tuples.
  void ExecuteOnce(SimTime t, sensors::SensorManager& sensors,
                   const LocalPreferenceManager& prefs,
                   std::vector<ReadingTuple>& out);

  // The scheduled instant a thread is executing: what the host functions
  // act on. ExecuteOnce publishes it in `instant_` around ir::Execute.
  struct Instant;
  static thread_local const Instant* instant_;

  // The stdlib, introspection and acquisition functions, built once per
  // process. They read `instant_` rather than capturing a task, so tasks
  // stay movable and no task pays for a registry of its own.
  static const script::HostRegistry& Host();

  // One acquisition call: `samples_per_window_` readings (or the script's
  // count) within [t, t+Δt], recorded as a (t, Δt, d) tuple for upload.
  Result<script::Value> Acquire(const Instant& at, SensorKind kind,
                                std::span<const script::Value> args);

  TaskId id_;
  AppId app_;
  script::ir::Module module_;  // lowered once, executed at every instant
  std::vector<SimTime> schedule_;  // sorted
  std::size_t next_instant_ = 0;
  SimDuration sample_window_;
  int samples_per_window_;
  TaskStatus status_ = TaskStatus::kWaitingForSchedule;
  TaskRunStats stats_;
  std::string last_error_;
};

// Maps a data-acquisition function name (as callable from SenseScript, the
// paper's get_light_readings()/get_location() convention) to the sensor it
// reads. Shared with the server side, which validates scripts against the
// supported-sensor list before distributing them.
[[nodiscard]] std::optional<SensorKind> AcquisitionFunctionSensor(
    const std::string& fn_name);
[[nodiscard]] std::vector<std::string> AcquisitionFunctionNames();

}  // namespace sor::phone
