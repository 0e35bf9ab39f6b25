// SenseScript static analyzer.
//
// Produces the diagnostics catalogued in diagnostics.hpp plus a
// ScriptManifest describing what the script needs from a device, without
// executing it. One walk over the parsed Program covers
//
//   scope          — names no visible binding can satisfy, shadowing, dead
//                    code after return/break, break placement, host-
//                    function shadowing, call-before-definition
//   types          — abstract interpretation over the nil/bool/number/
//                    string/list lattice; operator and host-signature
//                    argument mismatches
//   capability     — acquisition calls resolved against the host API
//                    table; required-sensor manifest; unknown functions;
//                    sensors absent from the target device
//
// and every flow-sensitive fact comes from the lowered IR (passes.hpp):
// definite assignment (SA102, SA501), dead stores and constant conditions
// (SA502-SA504), sensor taint (SA505), and the one cost pass — loop trip
// bounds from intervals and list lengths, and the worst-case steps,
// acquisitions and energy of the module the phone executes, which reject
// unboundable loops, recursion and over-budget scripts (SA401-SA405).
//
// The analyzer is deliberately conservative in both directions: it only
// *errors* on programs that are guaranteed wrong if the flagged code runs
// (or whose cost it cannot bound, which the registration contract treats
// as wrong), and it uses warnings where execution may still succeed.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sensor_kind.hpp"
#include "script/analysis/diagnostics.hpp"
#include "script/ast.hpp"

namespace sor::script::analysis {

struct AnalyzerOptions {
  // Samples assumed for an acquisition call whose sample-count argument is
  // absent (mirroring TaskInstance's samples_per_window fallback) or not
  // statically bounded (SA405).
  int default_samples_per_window = 5;
  // Instruction budget the worst-case step bound is checked against
  // (SA404): IR instructions retired per run, the unit and default of
  // InterpreterOptions::max_steps, so an accepted script cannot exhaust it.
  double max_steps = 2'000'000;
  // Per-run energy budget in millijoules (SA403). <= 0 disables the check.
  double energy_budget_mj = 0.0;
  // When set, acquisition calls whose sensor is not in this list get SA302.
  // Unset = analyze against the full provider vocabulary.
  std::optional<std::vector<SensorKind>> available_sensors;
  // Extra host functions to accept (variadic, untyped). Lets embedders that
  // register bespoke helpers keep their scripts lint-clean.
  std::vector<std::string> extra_host_fns;
};

// Analyze a parsed program.
[[nodiscard]] AnalysisReport Analyze(const Program& program,
                                     const AnalyzerOptions& options = {});

// Parse + analyze. Lex/parse failures come back as a single SA001
// diagnostic (carrying the parser's line number) instead of a Result error,
// so every caller renders failures through one channel.
[[nodiscard]] AnalysisReport AnalyzeSource(std::string_view source,
                                           const AnalyzerOptions& options = {});

}  // namespace sor::script::analysis
