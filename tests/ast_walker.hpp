// Reference tree-walking SenseScript evaluator for differential tests (see
// ast_walker.cpp). Not linked into the product.
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "script/interpreter.hpp"

namespace sor::script::reference {

// Parse + walk; parse failures come back as the parser's error.
[[nodiscard]] Result<ExecutionResult> RunAstWalker(
    std::string_view source, const HostRegistry& host,
    const InterpreterOptions& opts = {});

}  // namespace sor::script::reference
