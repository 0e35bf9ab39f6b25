// Diagnostics emitted by the SenseScript static analyzer.
//
// Every rule has a stable code (SAxxx) so registration replies, logs and
// tests can match on it without parsing prose. The full catalog with
// examples lives in docs/sensescript.md; the one-line summary:
//
//   SA001 error    script does not lex/parse
//   SA101 error    undefined name (never assigned anywhere)
//   SA102 warning  use of a possibly-unassigned variable
//   SA103 warning  declaration shadows an outer variable
//   SA104 warning  unreachable statement (after return/break)
//   SA105 error    break outside any loop
//   SA106 error    function definition shadows a host function
//   SA107 warning  top-level call before the function is defined
//   SA201 error    operator applied to incompatible types
//   SA202 error    host-function argument mismatch (arity or type)
//   SA203 error    script-function called with wrong argument count
//   SA301 error    call to a function outside the whitelist
//   SA302 error    required sensor not available on the target device
//   SA401 error    loop without a derivable static bound
//   SA402 error    recursive function (unbounded cost)
//   SA403 error    worst-case energy estimate exceeds the app budget
//   SA404 error    worst-case step count exceeds the interpreter budget
//   SA405 warning  acquisition sample count not statically derivable
//   SA501 error    use no assignment can reach (flow-sensitive, on the IR)
//   SA502 warning  assigned value is never read (dead store)
//   SA503 warning  if/while condition is constant
//   SA504 warning  statement unreachable due to a constant condition
//   SA505 warning  sensors are acquired but no output depends on them
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sensor_kind.hpp"
#include "script/analysis/flow_manifest.hpp"

namespace sor::script::analysis {

enum class Severity { kWarning, kError };

[[nodiscard]] constexpr const char* to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

struct Diagnostic {
  std::string code;   // "SA101"
  Severity severity = Severity::kError;
  int line = 0;       // 1-based script line
  std::string message;
  int col = 0;        // 1-based column; 0 = not tracked for this rule

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// "error SA101 at line 3: undefined name 'foo'" — uniform with the parser's
// "parse error at line 3: ..." rendering.
[[nodiscard]] std::string Render(const Diagnostic& d);
// One diagnostic per line, deterministic order (callers sort first).
[[nodiscard]] std::string Render(std::span<const Diagnostic> ds);

// Convert a lexer/parser Error (which carries Error::line) into the SA001
// diagnostic so parse and analysis failures render through one channel.
[[nodiscard]] Diagnostic FromError(const Error& err);

// Deterministic report order: by line, then column, then code, then
// message; exact duplicates collapse to one.
void SortAndDedupe(std::vector<Diagnostic>& ds);

// What the analyzer proved about the script, shipped with the schedule so
// the phone can refuse tasks its hardware cannot serve (§II-A's provider
// registry, checked before the task ever runs).
struct ScriptManifest {
  std::vector<SensorKind> required_sensors;  // sorted, unique
  double worst_case_acquisitions = 0.0;  // physical samples per run (bound)
  double worst_case_energy_mj = 0.0;     // per run, via AcquisitionEnergyMj
  double worst_case_steps = 0.0;         // IR instructions per run (bound)
  bool cost_bounded = true;              // false => SA401/SA402 was emitted
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  ScriptManifest manifest;
  // Where acquired sensor data flows: one site per acquisition/print/
  // top-level return, with the sensors influencing the value there.
  FlowManifest flow;

  [[nodiscard]] bool ok() const;  // no error-severity diagnostics
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::vector<Diagnostic> errors() const;
  [[nodiscard]] bool Has(std::string_view code) const;
  [[nodiscard]] std::string RenderErrors() const;
};

// Database/wire encoding of the required-sensor manifest: comma-joined
// sensor names ("drone_temperature,gps"). Empty string == no sensors.
[[nodiscard]] std::string EncodeSensorList(std::span<const SensorKind> kinds);
[[nodiscard]] Result<std::vector<SensorKind>> DecodeSensorList(
    std::string_view text);

}  // namespace sor::script::analysis
