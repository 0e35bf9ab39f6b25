// SenseScript IR: executor parity with the reference tree walker, and the
// step-budget contract.
//
// The IR executor is the only engine phones run, so a lowered (and
// optimized) module must be observationally identical to the reference
// AST walker in ast_walker.cpp: same return value (bit-for-bit for
// numbers), same print output, same error code/message/line. This file
// checks that three ways:
//   * targeted edge cases for every semantic subtlety the lowering has to
//     preserve (iteration-fresh block scopes, evaluation order, dynamic
//     function binding, short-circuit result values, ...),
//   * a seeded random-program fuzz battery (600 programs), and
//   * the same battery partitioned across 1/2/8 worker threads, asserting
//     the aggregated result fingerprints are thread-count invariant.
// The IrBudget tests then hold SA404 to what it proves: an IR run of an
// accepted script never retires more steps than the analyzer's bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ast_walker.hpp"
#include "core/system.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/analysis/host_api.hpp"
#include "script/analysis/passes.hpp"
#include "script/interpreter.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/ir.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"

namespace sor::script {
namespace {

// Deterministic host registry: the pure stdlib plus stand-ins for sensor
// acquisition (fixed data) and a host function that always fails, so the
// "in fn(): ..." error-wrapping path is exercised.
HostRegistry MakeTestHost() {
  HostRegistry host;
  InstallStdlib(host);
  host.Register("get_value", [](std::span<const Value>) -> Result<Value> {
    return Value(42.5);
  });
  host.Register("get_series", [](std::span<const Value>) -> Result<Value> {
    return Value::MakeList({Value(1.0), Value(2.5), Value(-3.0)});
  });
  host.Register("host_fail", [](std::span<const Value>) -> Result<Value> {
    return Error{Errc::kUnavailable, "sensor offline"};
  });
  return host;
}

std::string FingerprintValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNumber: {
      // Bit-exact: two doubles that happen to print alike must not pass.
      std::uint64_t bits = 0;
      const double d = v.as_number();
      std::memcpy(&bits, &d, sizeof(bits));
      char buf[20];
      std::snprintf(buf, sizeof(buf), "n%016llx",
                    static_cast<unsigned long long>(bits));
      return buf;
    }
    case Value::Kind::kList: {
      std::string s = "[";
      for (const Value& e : *v.as_list()) s += FingerprintValue(e) + ",";
      return s + "]";
    }
    default:
      return std::string(v.TypeName()) + ":" + v.ToDisplayString();
  }
}

std::string Fingerprint(const Result<ExecutionResult>& r) {
  if (!r.ok()) {
    const Error& e = r.error();
    return "err|" + std::to_string(static_cast<int>(e.code)) + "|" +
           e.message + "|" + std::to_string(e.line);
  }
  return "ok|" + FingerprintValue(r.value().return_value) + "|" +
         r.value().output;
}

struct DiffResult {
  std::string ast;
  std::string ir;
  std::string opt;
};

DiffResult RunDifferential(const std::string& source) {
  const HostRegistry host = MakeTestHost();
  DiffResult out;

  out.ast = Fingerprint(reference::RunAstWalker(source, host));

  Result<Program> program = Parse(source);
  if (!program.ok()) {
    // Parse failures never reach lowering; mirror the walker's result.
    out.ir = Fingerprint(Result<ExecutionResult>(program.error()));
    out.opt = out.ir;
    return out;
  }
  const InterpreterOptions opts;
  {
    ir::Module m = ir::Lower(program.value());
    out.ir = Fingerprint(ir::Execute(m, host, opts));
  }
  {
    ir::Module m = ir::Lower(program.value());
    analysis::OptimizeModule(m);
    out.opt = Fingerprint(ir::Execute(m, host, opts));
  }
  return out;
}

// Asserts AST / raw-IR / optimized-IR all agree and returns the fingerprint.
std::string ExpectParity(const std::string& source) {
  const DiffResult r = RunDifferential(source);
  EXPECT_EQ(r.ast, r.ir) << "raw IR diverged for:\n" << source;
  EXPECT_EQ(r.ast, r.opt) << "optimized IR diverged for:\n" << source;
  return r.ast;
}

// --- targeted semantic edge cases -----------------------------------------

TEST(IrParity, StraightLineArithmeticAndPrint) {
  const std::string fp = ExpectParity(
      "local a = 2 + 3 * 4\n"
      "local b = a / 7\n"
      "print(a, b, a % 5, -b)\n"
      "return a .. \"/\" .. b\n");
  EXPECT_EQ(fp.rfind("ok|", 0), 0u) << fp;
}

TEST(IrParity, BlockScopeLocalInvisibleAfterIf) {
  // `local y` inside the branch dies with the scope; the later read must
  // fail with the same undefined-variable error in both engines.
  const std::string fp = ExpectParity(
      "if true then\n"
      "  local y = 1\n"
      "end\n"
      "print(y)\n");
  EXPECT_NE(fp.find("undefined variable 'y'"), std::string::npos) << fp;
}

TEST(IrParity, LoopIterationFreshLocals) {
  // Iteration 1 assigns y; iteration 2 reads it before its declaration.
  // Scopes are iteration-fresh, so this must fail on iteration 2 — a slot
  // reuse bug would happily reuse iteration 1's value.
  const std::string fp = ExpectParity(
      "for i = 1, 2 do\n"
      "  if i == 2 then print(y) end\n"
      "  local y = 5\n"
      "end\n");
  EXPECT_NE(fp.find("undefined variable 'y'"), std::string::npos) << fp;
}

TEST(IrParity, WhileIterationFreshLocals) {
  ExpectParity(
      "local n = 0\n"
      "while n < 2 do\n"
      "  if n == 1 then print(z) end\n"
      "  local z = 7\n"
      "  n = n + 1\n"
      "end\n");
}

TEST(IrParity, TopLevelLocalIsVisibleInsideFunctions) {
  // A top-level `local` lives in the interpreter's global scope, so a
  // function body can read it.
  const std::string fp = ExpectParity(
      "function f() return base * 2 end\n"
      "local base = 21\n"
      "return f()\n");
  EXPECT_NE(fp.find("ok|"), std::string::npos) << fp;
}

TEST(IrParity, FunctionDoesNotSeeCallerBlockLocals) {
  ExpectParity(
      "function f() return hidden end\n"
      "if true then\n"
      "  local hidden = 1\n"
      "  print(f())\n"
      "end\n");
}

TEST(IrParity, AssignmentBeforeLocalDeclarationHitsGlobal) {
  // Inside a block, `x = 2` before `local x` writes the global; the local
  // then shadows it for the rest of the scope.
  ExpectParity(
      "if true then\n"
      "  x = 2\n"
      "  local x = 10\n"
      "  x = x + 1\n"
      "  print(x)\n"
      "end\n"
      "print(x)\n");
}

TEST(IrParity, ShadowingAndScopeExit) {
  ExpectParity(
      "local v = 1\n"
      "if true then\n"
      "  local v = 2\n"
      "  print(v)\n"
      "end\n"
      "print(v)\n");
}

TEST(IrParity, LocalInitializerSeesOuterBinding) {
  ExpectParity(
      "local x = 3\n"
      "if true then\n"
      "  local x = x + 10\n"
      "  print(x)\n"
      "end\n"
      "print(x)\n");
}

TEST(IrParity, ForLoopVarReassignmentDoesNotAffectIteration) {
  ExpectParity(
      "local total = 0\n"
      "for i = 1, 4 do\n"
      "  i = 100\n"
      "  total = total + 1\n"
      "end\n"
      "print(total)\n");
}

TEST(IrParity, ForLoopBounds) {
  ExpectParity("for i = 3, 1 do print(i) end print(\"done\")\n");
  ExpectParity("for i = 3, 1, -1 do print(i) end\n");
  ExpectParity("for i = 1, 2, 0.5 do print(i) end\n");
  ExpectParity("for i = 1, \"x\" do print(i) end\n");       // bounds error
  ExpectParity("for i = 1, 5, \"y\" do print(i) end\n");    // step error
  ExpectParity("for i = 1, 5, 0 do print(i) end\n");        // zero step
  ExpectParity("for i = 1, 5, 1 - 1 do print(i) end\n");    // computed zero
}

TEST(IrParity, ForStepErrorPrecedesBoundsError) {
  // The interpreter validates the (explicit) step's type before the bounds.
  const std::string fp = ExpectParity("for i = nil, nil, nil do end\n");
  EXPECT_NE(fp.find("for step must be a number"), std::string::npos) << fp;
}

TEST(IrParity, BreakVariants) {
  ExpectParity(
      "local c = 0\n"
      "while true do\n"
      "  c = c + 1\n"
      "  if c > 3 then break end\n"
      "end\n"
      "print(c)\n");
  ExpectParity(
      "for i = 1, 10 do\n"
      "  if i == 4 then break end\n"
      "  print(i)\n"
      "end\n");
  // break outside any loop unwinds the whole block (return-nil semantics).
  ExpectParity("print(1)\nbreak\nprint(2)\n");
  ExpectParity("function f() print(1) break print(2) end\nf()\nprint(3)\n");
}

TEST(IrParity, ShortCircuitReturnsOperand) {
  ExpectParity("print(nil and 1, false and 1, 2 and 3)\n");
  ExpectParity("print(nil or \"fallback\", false or 0, 1 or 2)\n");
  ExpectParity("local l = {1} and {2}\nprint(l[1])\n");
}

TEST(IrParity, ShortCircuitSkipsSideEffects) {
  ExpectParity(
      "function loud() print(\"evaluated\") return true end\n"
      "local a = false and loud()\n"
      "local b = true or loud()\n"
      "print(a, b)\n"
      "local c = true and loud()\n");
}

TEST(IrParity, ListLiteralIndexAndAppend) {
  ExpectParity(
      "local l = {10, 20, 30}\n"
      "l[2] = 21\n"
      "l[4] = 40\n"
      "print(l[1], l[2], l[3], l[4], #l)\n");
}

TEST(IrParity, ListAliasingIsShared) {
  ExpectParity(
      "local a = {1}\n"
      "local b = a\n"
      "b[2] = 2\n"
      "print(#a, a[2])\n");
}

// A list never comes to contain itself: printing or comparing one that
// did would recurse without end, and shared_ptr ownership would leak it.
TEST(IrParity, SelfContainingListRefused) {
  const std::string pushed =
      ExpectParity("local v = {1, 2}\npush(v, v)\nprint(v)\n");
  EXPECT_NE(pushed.find("in push(): push: cannot insert a list into itself"),
            std::string::npos)
      << pushed;
  const std::string compared = ExpectParity(
      "local v = {1}\npush(v, v)\nlocal w = {1}\npush(w, w)\n"
      "print(v == w)\n");
  EXPECT_EQ(compared.rfind("err|", 0), 0u) << compared;
  const std::string stored = ExpectParity(
      "local inner = {1}\nlocal outer = {inner}\ninner[2] = outer\n");
  EXPECT_NE(stored.find("runtime error at line 3: cannot store a list "
                        "inside itself"),
            std::string::npos)
      << stored;
}

TEST(IrParity, NestedListsWithoutCyclesStillWork) {
  const std::string out = ExpectParity(
      "local a = {1}\n"
      "local b = {a, a}\n"
      "push(b, {2})\n"
      "b[4] = a\n"
      "push(a, 3)\n"
      "print(b, b == {a, a, {2}, a})\n");
  EXPECT_EQ(out, "ok|nil:nil|{{1, 3}, {1, 3}, {2}, {1, 3}}\ttrue\n") << out;
}

TEST(IrParity, IndexErrors) {
  ExpectParity("local l = {1}\nprint(l[2])\n");       // read out of range
  ExpectParity("local l = {1}\nl[3] = 9\n");          // write skips a slot
  ExpectParity("local l = {1}\nprint(l[\"k\"])\n");   // non-number index
  ExpectParity("local n = 5\nprint(n[1])\n");         // index a number
  ExpectParity("local n = 5\nn[1] = 2\n");            // assign into a number
  ExpectParity("local l = {1}\nprint(l[0])\n");
}

TEST(IrParity, EvaluationOrderValueBeforeListBeforeIndex) {
  // list[i] = v evaluates v first, then the list, then the index — observable
  // through print side effects.
  ExpectParity(
      "function mk() print(\"list\") return {0} end\n"
      "function idx() print(\"index\") return 1 end\n"
      "function val() print(\"value\") return 9 end\n"
      "local l = {0}\n"
      "l[idx()] = val()\n"
      "local err = 5\n"
      "err[idx()] = val()\n");  // value+list evaluated, then type error
}

TEST(IrParity, CallArgumentSnapshotting) {
  // Argument values are captured at evaluation time: bump() changes x after
  // x was already evaluated as the first argument.
  ExpectParity(
      "x = 1\n"
      "function bump() x = 99 return 2 end\n"
      "print(x, bump(), x)\n");
}

TEST(IrParity, TypeErrors) {
  ExpectParity("print(1 + \"s\")\n");
  ExpectParity("print(nil < 1)\n");
  ExpectParity("print(\"a\" < \"b\", \"b\" <= \"a\")\n");
  ExpectParity("print(-\"x\")\n");
  ExpectParity("print(#5)\n");
  ExpectParity("print({1} .. \"x\")\n");
  ExpectParity("print(1 == \"1\", {1} == {1}, nil == false)\n");
}

TEST(IrParity, FunctionSemantics) {
  ExpectParity(
      "function add(a, b) return a + b end\n"
      "print(add(2, 3))\n"
      "print(add(2))\n");  // arity error
  ExpectParity("function dup(a, a) return a end\nprint(dup(1, 2))\n");
  ExpectParity("function f() end\nprint(f())\n");  // implicit nil return
  ExpectParity("function len(x) return 0 end\n");  // host shadow error
  ExpectParity("nope(1)\n");                       // whitelist violation
  ExpectParity(
      "function rec(n) if n > 0 then return rec(n - 1) end return 0 end\n"
      "print(rec(10))\n"
      "print(rec(500))\n");  // call depth limit exceeded
}

TEST(IrParity, FunctionRebindingInLoop) {
  ExpectParity(
      "for i = 1, 2 do\n"
      "  function pick() return i end\n"
      "  print(pick())\n"
      "end\n");
}

TEST(IrParity, CallBeforeDefinitionFails) {
  // Bindings happen when the `function` statement executes.
  ExpectParity("f()\nfunction f() return 1 end\n");
}

TEST(IrParity, HostFunctionsAndErrorWrapping) {
  ExpectParity("print(get_value(), abs(-3), min(4, 2), max(4, 2))\n");
  ExpectParity("local s = get_series()\nprint(#s, s[2], mean(s))\n");
  ExpectParity("print(host_fail())\n");  // "in host_fail(): sensor offline"
  ExpectParity("print(len(5))\n");       // stdlib arg error, wrapped
}

TEST(IrParity, StdlibPureFunctions) {
  ExpectParity(
      "print(floor(2.7), ceil(2.1), sqrt(16))\n"
      "print(tostring(nil), tostring(1.5), tonumber(\"2.5\"), "
      "tonumber(\"zz\"))\n"
      "local l = {3, 1, 2}\n"
      "push(l, 10)\n"
      "print(#l, mean(l), variance(l) >= 0, stddev(l) >= 0)\n");
}

TEST(IrParity, ReturnStopsExecution) {
  ExpectParity("print(1)\nreturn 42\nprint(2)\n");
  ExpectParity(
      "for i = 1, 5 do\n"
      "  if i == 2 then return \"early\" end\n"
      "  print(i)\n"
      "end\n"
      "print(\"after\")\n");
}

TEST(IrParity, NestedFunctionDefinition) {
  ExpectParity(
      "function outer()\n"
      "  function inner() return 5 end\n"
      "  return inner() + 1\n"
      "end\n"
      "print(outer())\n"
      "print(inner())\n");  // inner was bound when outer ran
}

TEST(IrParity, ConcatFormatsLikeDisplay) {
  ExpectParity(
      "print(1 .. \"\", 1.5 .. \"\", true .. \"!\", nil .. \"?\")\n"
      "print(\"v=\" .. 2 / 3)\n");
}

TEST(IrParity, DivisionEdgeCases) {
  ExpectParity("print(1 / 0, -1 / 0, 0 / 0 ~= 0 / 0)\n");
  ExpectParity("print(5 % 3, -5 % 3, 5.5 % 2)\n");
}

TEST(IrParity, UndefinedVariableLineNumbers) {
  const DiffResult r = RunDifferential("local a = 1\n\n\nprint(missing)\n");
  EXPECT_EQ(r.ast, r.ir);
  EXPECT_NE(r.ast.find("line 4"), std::string::npos) << r.ast;
}

// --- random program generator ----------------------------------------------

// Generates syntactically valid programs (parser never rejects them) that
// are runtime-bounded by construction: while loops use dedicated counters
// the rest of the generator can't touch, for loops have constant trip
// counts, and script functions only call previously defined functions.
class ProgramGen {
 public:
  explicit ProgramGen(std::uint32_t seed) : rng_(seed) {}

  std::string Generate() {
    out_.clear();
    vars_.clear();
    fns_.clear();
    loop_depth_ = 0;
    var_counter_ = 0;
    const int num_fns = Pick(0, 2);
    for (int i = 0; i < num_fns; ++i) GenFunction();
    GenBlock(Pick(3, 7), 0);
    if (Chance(2)) Line("return " + GenExpr(2));
    return out_;
  }

 private:
  bool Chance(int one_in) { return Pick(1, one_in) == 1; }
  int Pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  void Line(const std::string& s) { out_ += s + "\n"; }

  std::string FreshVar() { return "v" + std::to_string(var_counter_++); }

  std::string KnownVar() {
    if (vars_.empty() || Chance(14)) return "zz_undefined";
    return vars_[static_cast<std::size_t>(
        Pick(0, static_cast<int>(vars_.size()) - 1))];
  }

  std::string GenNumber() {
    switch (Pick(0, 3)) {
      case 0: return std::to_string(Pick(-20, 20));
      case 1: return std::to_string(Pick(0, 9)) + "." + std::to_string(Pick(0, 99));
      default: return std::to_string(Pick(0, 5));
    }
  }

  std::string GenExpr(int depth) {
    if (depth <= 0 || Chance(3)) {
      switch (Pick(0, 5)) {
        case 0: return GenNumber();
        case 1: return "\"s" + std::to_string(Pick(0, 9)) + "\"";
        case 2: return Chance(2) ? "true" : "false";
        case 3: return Chance(6) ? "nil" : GenNumber();
        default: return KnownVar();
      }
    }
    switch (Pick(0, 9)) {
      case 0: case 1: {
        static const char* kOps[] = {"+", "-",  "*",  "/",  "%",  "..",
                                     "==", "~=", "<",  "<=", ">",  ">="};
        return "(" + GenExpr(depth - 1) + " " + kOps[Pick(0, 11)] + " " +
               GenExpr(depth - 1) + ")";
      }
      case 2: {
        static const char* kUn[] = {"-", "not ", "#"};
        return "(" + std::string(kUn[Pick(0, 2)]) + GenExpr(depth - 1) + ")";
      }
      case 3: {
        static const char* kBool[] = {" and ", " or "};
        return "(" + GenExpr(depth - 1) + kBool[Pick(0, 1)] +
               GenExpr(depth - 1) + ")";
      }
      case 4: {
        switch (Pick(0, 6)) {
          case 0: return "abs(" + GenExpr(depth - 1) + ")";
          case 1: return "min(" + GenExpr(depth - 1) + ", " +
                         GenExpr(depth - 1) + ")";
          case 2: return "max(" + GenExpr(depth - 1) + ", " +
                         GenExpr(depth - 1) + ")";
          case 3: return "tostring(" + GenExpr(depth - 1) + ")";
          case 4: return "floor(" + GenExpr(depth - 1) + ")";
          case 5: return "get_value()";
          default: return "get_series()";
        }
      }
      case 5: {
        if (fns_.empty()) return GenNumber();
        const auto& [name, arity] = fns_[static_cast<std::size_t>(
            Pick(0, static_cast<int>(fns_.size()) - 1))];
        std::string call = name + "(";
        for (int i = 0; i < arity; ++i) {
          if (i) call += ", ";
          call += GenExpr(depth - 1);
        }
        return call + ")";
      }
      case 6:
        return "{" + GenExpr(depth - 1) + ", " + GenExpr(depth - 1) + "}";
      case 7:
        return "(" + GenExpr(depth - 1) + ")[" + GenExpr(depth - 1) + "]";
      default:
        return GenExpr(depth - 1);
    }
  }

  void GenFunction() {
    const std::string name = "fn" + std::to_string(fns_.size());
    const int arity = Pick(0, 2);
    std::string header = "function " + name + "(";
    std::vector<std::string> saved_vars;
    saved_vars.swap(vars_);  // bodies see only params (and earlier fns)
    for (int i = 0; i < arity; ++i) {
      const std::string p = "p" + std::to_string(i);
      if (i) header += ", ";
      header += p;
      vars_.push_back(p);
    }
    Line(header + ")");
    GenBlock(Pick(1, 3), 1);
    Line("return " + GenExpr(2));
    Line("end");
    vars_.swap(saved_vars);
    fns_.emplace_back(name, arity);
  }

  void GenBlock(int stmts, int depth) {
    const std::size_t scope_mark = vars_.size();
    for (int i = 0; i < stmts; ++i) {
      if (GenStmt(depth)) break;  // return/break ends the block
    }
    vars_.resize(scope_mark);  // block locals go out of scope
  }

  // Returns true if the statement terminated the block.
  bool GenStmt(int depth) {
    switch (Pick(0, 11)) {
      case 0: {
        const std::string v = FreshVar();
        Line("local " + v + " = " + GenExpr(2));
        vars_.push_back(v);
        return false;
      }
      case 1:
        if (!vars_.empty()) {
          Line(KnownVar() + " = " + GenExpr(2));
          return false;
        }
        [[fallthrough]];
      case 2:
        Line("print(" + GenExpr(2) + (Chance(2) ? ", " + GenExpr(1) : "") +
             ")");
        return false;
      case 3: {
        Line("if " + GenExpr(2) + " then");
        GenBlock(Pick(1, 3), depth + 1);
        if (Chance(2)) {
          Line("else");
          GenBlock(Pick(1, 2), depth + 1);
        }
        Line("end");
        return false;
      }
      case 4: {
        if (depth >= 2) return false;  // bound nesting (and runtime)
        const std::string v = FreshVar();
        std::string header = "for " + v + " = " + std::to_string(Pick(-2, 3)) +
                             ", " + std::to_string(Pick(-2, 4));
        if (Chance(2)) header += ", " + std::to_string(Pick(1, 2));
        Line(header + " do");
        vars_.push_back(v);
        ++loop_depth_;
        GenBlock(Pick(1, 3), depth + 1);
        --loop_depth_;
        vars_.pop_back();
        Line("end");
        return false;
      }
      case 5: {
        if (depth >= 2) return false;
        // Dedicated counter: never added to vars_, so no generated
        // statement can perturb it and the loop always terminates.
        const std::string c = "w" + std::to_string(var_counter_++);
        Line("local " + c + " = 0");
        Line("while " + c + " < " + std::to_string(Pick(1, 3)) + " do");
        ++loop_depth_;
        GenBlock(Pick(1, 2), depth + 1);
        --loop_depth_;
        Line(c + " = " + c + " + 1");
        Line("end");
        return false;
      }
      case 6: {
        const std::string v = FreshVar();
        Line("local " + v + " = {" + GenExpr(1) + ", " + GenExpr(1) + "}");
        vars_.push_back(v);
        if (Chance(2)) Line(v + "[" + std::to_string(Pick(1, 3)) + "] = " +
                            GenExpr(1));
        if (Chance(2)) Line("push(" + v + ", " + GenExpr(1) + ")");
        return false;
      }
      case 7:
        if (loop_depth_ > 0 && Chance(3)) {
          Line("break");
          return true;
        }
        Line("print(" + GenExpr(1) + ")");
        return false;
      case 8:
        if (Chance(4)) {
          Line("return " + GenExpr(2));
          return true;
        }
        Line(KnownVar() + " = " + GenExpr(2));
        return false;
      case 9:
        Line("print(#" + GenExpr(2) + ")");
        return false;
      case 10:
        if (Chance(6)) {
          Line("print(host_fail())");
          return false;
        }
        Line("print(get_value() * " + GenNumber() + ")");
        return false;
      default: {
        const std::string v = FreshVar();
        Line("local " + v + " = " + GenExpr(3));
        vars_.push_back(v);
        return false;
      }
    }
  }

  std::mt19937 rng_;
  std::string out_;
  std::vector<std::string> vars_;
  std::vector<std::pair<std::string, int>> fns_;
  int loop_depth_ = 0;
  int var_counter_ = 0;
};

constexpr std::uint32_t kFuzzSeeds[] = {11, 23, 47, 101, 9001};
constexpr int kProgramsPerSeed = 120;  // 5 * 120 = 600 programs total

std::vector<std::string> GeneratePrograms(std::uint32_t seed) {
  ProgramGen gen(seed);
  std::vector<std::string> programs;
  programs.reserve(kProgramsPerSeed);
  for (int i = 0; i < kProgramsPerSeed; ++i) programs.push_back(gen.Generate());
  return programs;
}

// Per-program fingerprint used by the thread-invariance battery: execution
// results through both engines plus analyzer diagnostics.
std::string ProgramFingerprint(const std::string& source) {
  const DiffResult r = RunDifferential(source);
  std::string fp = r.ast + "##" + r.ir + "##" + r.opt + "##";
  const analysis::AnalysisReport report = analysis::AnalyzeSource(source, {});
  for (const auto& d : report.diagnostics) {
    fp += d.code + "@" + std::to_string(d.line) + ";";
  }
  return fp;
}

TEST(IrFuzz, DifferentialBatteryAllSeeds) {
  int mismatches = 0;
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    for (const std::string& src : programs) {
      const DiffResult r = RunDifferential(src);
      if (r.ast != r.ir || r.ast != r.opt) {
        ++mismatches;
        ADD_FAILURE() << "divergence (seed " << seed << "):\n"
                      << src << "\nAST: " << r.ast << "\nIR:  " << r.ir
                      << "\nOPT: " << r.opt;
        if (mismatches > 5) return;  // don't drown the log
      }
    }
  }
}

TEST(IrFuzz, ThreadCountInvariantFingerprints) {
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    std::vector<std::string> reference;
    for (const int threads : {1, 2, 8}) {
      std::vector<std::string> fps(programs.size());
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = static_cast<std::size_t>(t);
               i < programs.size(); i += static_cast<std::size_t>(threads)) {
            fps[i] = ProgramFingerprint(programs[i]);
          }
        });
      }
      for (std::thread& th : pool) th.join();
      if (reference.empty()) {
        reference = std::move(fps);
      } else {
        ASSERT_EQ(reference.size(), fps.size());
        for (std::size_t i = 0; i < fps.size(); ++i) {
          EXPECT_EQ(reference[i], fps[i])
              << "seed " << seed << " program " << i
              << " fingerprint changed with " << threads << " threads:\n"
              << programs[i];
        }
      }
    }
  }
}

// --- budget contract ---------------------------------------------------------
//
// What SA404 proves: for a script the analyzer bounds, the IR run a phone
// performs retires no more steps than manifest.worst_case_steps, and an
// accepted script's bound is within the budget. Each run executes under a
// budget of exactly the bound, so a run that stops on a runtime error still
// shows it never needed more.

// The test host plus stand-ins for the phone's host functions: each
// acquisition returns as many readings as it asks for (the analyzer's
// default when it does not say), the introspection helpers a number.
HostRegistry MakePhoneHost(int default_samples) {
  HostRegistry host = MakeTestHost();
  for (const analysis::HostSignature& sig : analysis::HostSignatures()) {
    const std::string name(sig.name);
    if (name == "print" || host.Find(name) != nullptr) continue;
    if (!sig.sensor.has_value()) {
      host.Register(name, [](std::span<const Value>) -> Result<Value> {
        return Value(1.0);
      });
      continue;
    }
    host.Register(name, [default_samples](std::span<const Value> args)
                            -> Result<Value> {
      int n = default_samples;
      if (!args.empty() && args[0].is_number())
        n = std::max(1, static_cast<int>(args[0].as_number()));
      List readings;
      for (int i = 0; i < n; ++i) readings.emplace_back(0.5 * i);
      return Value::MakeList(std::move(readings));
    });
  }
  return host;
}

struct BudgetOutcome {
  bool bounded = false;   // the analyzer bounded the cost
  bool accepted = false;  // ... and reported no error
};

BudgetOutcome ExpectRunWithinBound(const std::string& source,
                                   const std::string& label,
                                   const analysis::AnalyzerOptions& options) {
  BudgetOutcome out;
  const Result<Program> program = Parse(source);
  if (!program.ok()) return out;
  const analysis::AnalysisReport report =
      analysis::Analyze(program.value(), options);
  if (!report.manifest.cost_bounded) return out;
  out.bounded = true;
  out.accepted = report.ok();
  const double bound = report.manifest.worst_case_steps;
  if (out.accepted) {
    EXPECT_LE(bound, options.max_steps) << label;
  }

  const HostRegistry host = MakePhoneHost(options.default_samples_per_window);
  InterpreterOptions budget;
  budget.max_steps = static_cast<std::uint64_t>(bound);
  const Result<ExecutionResult> run =
      ir::Execute(ir::Lower(program.value()), host, budget);
  if (run.ok()) {
    EXPECT_LE(static_cast<double>(run.value().steps), bound) << label;
  } else {
    EXPECT_EQ(run.error().message.find("instruction budget exhausted"),
              std::string::npos)
        << label << ": " << run.error().str() << "\n" << source;
  }
  return out;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(IrBudget, StepBoundCoversExampleScripts) {
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SOR_EXAMPLE_SCRIPTS_DIR)) {
    if (entry.path().extension() != ".sor") continue;
    const std::string label = entry.path().filename().string();
    const BudgetOutcome out =
        ExpectRunWithinBound(ReadFile(entry.path()), label, {});
    EXPECT_TRUE(out.accepted) << label;
    ++seen;
  }
  EXPECT_GE(seen, 4);  // the repo ships at least four example scripts
}

TEST(IrBudget, StepBoundCoversBuiltins) {
  for (const world::PlaceCategory category :
       {world::PlaceCategory::kHikingTrail, world::PlaceCategory::kCoffeeShop}) {
    const BudgetOutcome out = ExpectRunWithinBound(
        core::DefaultScript(category), "builtin", {});
    EXPECT_TRUE(out.accepted);
  }
}

TEST(IrBudget, StepBoundCoversFuzzBattery) {
  analysis::AnalyzerOptions options;
  options.extra_host_fns = {"get_value", "get_series", "host_fail"};
  int bounded = 0;
  int accepted = 0;
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const BudgetOutcome out = ExpectRunWithinBound(
          programs[i],
          "seed " + std::to_string(seed) + " program " + std::to_string(i),
          options);
      bounded += out.bounded ? 1 : 0;
      accepted += out.accepted ? 1 : 0;
    }
  }
  // The contract is checked on every program the analyzer bounds (591 of
  // the 600), a superset of those it accepts outright (11): most generated
  // programs carry a deliberate error, such as an undefined name. A bound
  // the analyzer loses shows up here.
  EXPECT_GE(bounded, 591);
  EXPECT_GE(accepted, 11);
}

}  // namespace
}  // namespace sor::script
