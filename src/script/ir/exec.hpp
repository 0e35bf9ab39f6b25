// IR executor: the SenseScript interpreter. Runs a lowered (optionally
// optimized) module against a host registry. Every retired instruction is
// one step of InterpreterOptions::max_steps; a call to a name that is
// neither script-defined nor registered fails with kPermissionDenied — the
// only runtime whitelist check. The differential tests hold its return
// values, print output and error text to a reference tree walker.
#pragma once

#include "common/result.hpp"
#include "script/interpreter.hpp"
#include "script/ir/ir.hpp"

namespace sor::script::ir {

[[nodiscard]] Result<ExecutionResult> Execute(const Module& m,
                                              const HostRegistry& host,
                                              const InterpreterOptions& opts);

}  // namespace sor::script::ir
