// SenseScript host boundary and execution limits.
//
// §II-A: "The script interpreter tells the task instance which Java
// function to call to obtain data from sensors ... security can be enforced
// here by only allowing a white list of unharmful functions to be called."
// Here the host functions are C++ callbacks registered in a HostRegistry —
// the registry IS the whitelist: a script calling anything unregistered
// fails with kPermissionDenied (exercised by the failure-injection tests).
//
// The interpreter itself is the IR executor (script/ir/exec.hpp): a phone
// parses and lowers a task's script once and runs the lowered module at
// every scheduled instant. Scripts run under an instruction budget so a
// buggy or malicious task description distributed by a server cannot spin
// a phone forever; the analyzer's SA404 proves the budget holds first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "script/value.hpp"

namespace sor::script {

// A host (native) function callable from scripts.
using HostFn = std::function<Result<Value>(std::span<const Value>)>;

class HostRegistry {
 public:
  // Register a callable under `name`. Re-registration replaces (used by
  // tests to stub sensors).
  void Register(const std::string& name, HostFn fn);

  [[nodiscard]] const HostFn* Find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  std::map<std::string, HostFn> fns_;
};

struct InterpreterOptions {
  // Maximum number of IR instructions a run may retire before it is
  // killed. One step is one executed ir::Inst, terminators included.
  std::uint64_t max_steps = 2'000'000;
  // Maximum call depth (scripts can define and call functions).
  int max_call_depth = 64;
};

struct ExecutionResult {
  Value return_value;        // value of a top-level `return`, else nil
  std::uint64_t steps = 0;   // IR instructions retired
  std::string output;        // everything print() emitted
};

// Installs the pure builtin library (len, push, abs, floor, min, max,
// tostring, tonumber, mean, stddev) into a registry. `print` appends to
// ExecutionResult::output, so the executor handles it itself; this
// installs everything else.
void InstallStdlib(HostRegistry& registry);

}  // namespace sor::script
