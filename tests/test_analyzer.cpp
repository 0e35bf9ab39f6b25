// SenseScript static analyzer: one rejecting test and one accepting
// near-miss per diagnostic code, manifest/cost checks, the diagnostics
// plumbing, and a seeded random-source property test that drives
// lexer→parser→analyzer without crashing (runs under asan-ubsan in CI).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/analysis/diagnostics.hpp"
#include "script/analysis/flow_manifest.hpp"
#include "script/analysis/host_api.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"

namespace sor::script::analysis {
namespace {

AnalysisReport Analyzed(const std::string& source,
                   const AnalyzerOptions& options = {}) {
  return AnalyzeSource(source, options);
}

// --- SA001: lex/parse failure ----------------------------------------------

TEST(Analyzer, SA001ParseErrorBecomesDiagnostic) {
  const AnalysisReport r = Analyzed("local = 3\n");
  EXPECT_TRUE(r.Has("SA001"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA001NearMissValidLocalPasses) {
  const AnalysisReport r = Analyzed("local x = 3\nprint(x)\n");
  EXPECT_FALSE(r.Has("SA001"));
  EXPECT_TRUE(r.ok());
}

// --- SA101: undefined name ---------------------------------------------------

TEST(Analyzer, SA101UndefinedNameRejected) {
  const AnalysisReport r = Analyzed("print(nowhere)\n");
  EXPECT_TRUE(r.Has("SA101"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA101NearMissAssignedNamePasses) {
  const AnalysisReport r = Analyzed("somewhere = 1\nprint(somewhere)\n");
  EXPECT_FALSE(r.Has("SA101"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA101BlockLocalUsedAfterItsBlockRejected) {
  // After the `if`, `x` names a global nothing stores: the use always
  // fails, however the branch went.
  const AnalysisReport r = Analyzed(
      "if get_time_s() > 0 then\n"
      "  local x = 1\n"
      "  print(x)\n"
      "end\n"
      "print(x)\n");
  EXPECT_TRUE(r.Has("SA101"));
  EXPECT_FALSE(r.ok());
}

// --- SA102: use of possibly-unassigned variable ------------------------------

TEST(Analyzer, SA102OneBranchAssignmentWarns) {
  const AnalysisReport r = Analyzed(
      "local a = get_time_s()\n"
      "if a > 0 then\n"
      "  b = 1\n"
      "end\n"
      "print(b)\n");
  EXPECT_TRUE(r.Has("SA102"));
  EXPECT_TRUE(r.ok());  // warning, not error
}

TEST(Analyzer, SA102NearMissBothBranchesAssignPasses) {
  const AnalysisReport r = Analyzed(
      "local a = get_time_s()\n"
      "if a > 0 then\n"
      "  b = 1\n"
      "else\n"
      "  b = 2\n"
      "end\n"
      "print(b)\n");
  EXPECT_FALSE(r.Has("SA102"));
}

TEST(Analyzer, SA102LoopCarriedAssignmentWarns) {
  // The first test of the condition sees `n` unassigned; later ones see
  // the body's store.
  const AnalysisReport r = Analyzed(
      "local i = 0\n"
      "while i < 2 do\n"
      "  if i > 0 then\n"
      "    print(n)\n"
      "  end\n"
      "  n = i\n"
      "  i = i + 1\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA102"));
  EXPECT_FALSE(r.Has("SA501"));
  EXPECT_TRUE(r.ok());
}

// --- SA103: shadowing --------------------------------------------------------

TEST(Analyzer, SA103InnerLocalShadowsOuterWarns) {
  const AnalysisReport r = Analyzed(
      "local x = 1\n"
      "if x > 0 then\n"
      "  local x = 2\n"
      "  print(x)\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA103"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA103NearMissDistinctNamesPass) {
  const AnalysisReport r = Analyzed(
      "local x = 1\n"
      "if x > 0 then\n"
      "  local y = 2\n"
      "  print(y)\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA103"));
}

// --- SA104: unreachable statement --------------------------------------------

TEST(Analyzer, SA104StatementAfterReturnWarns) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  return 1\n"
      "  print(\"dead\")\n"
      "end\n"
      "local r = f()\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA104"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA104NearMissReturnLastPasses) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  print(\"live\")\n"
      "  return 1\n"
      "end\n"
      "local r = f()\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA104"));
}

// --- SA105: break outside loop -----------------------------------------------

TEST(Analyzer, SA105TopLevelBreakRejected) {
  const AnalysisReport r = Analyzed("break\n");
  EXPECT_TRUE(r.Has("SA105"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA105NearMissBreakInsideLoopPasses) {
  const AnalysisReport r = Analyzed(
      "while true do\n"
      "  break\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA105"));
  EXPECT_TRUE(r.ok());
}

// --- SA106: function shadows a host function ---------------------------------

TEST(Analyzer, SA106RedefiningHostFunctionRejected) {
  const AnalysisReport r = Analyzed(
      "function mean(xs)\n"
      "  return 0\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA106"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA106NearMissFreshNamePasses) {
  const AnalysisReport r = Analyzed(
      "function center(xs)\n"
      "  return mean(xs)\n"
      "end\n"
      "local c = center({1, 2, 3})\n"
      "print(c)\n");
  EXPECT_FALSE(r.Has("SA106"));
}

// --- SA107: top-level call before definition ---------------------------------

TEST(Analyzer, SA107CallBeforeDefinitionWarns) {
  const AnalysisReport r = Analyzed(
      "early()\n"
      "function early()\n"
      "  print(\"hi\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA107"));
}

TEST(Analyzer, SA107NearMissDefinitionFirstPasses) {
  const AnalysisReport r = Analyzed(
      "function early()\n"
      "  print(\"hi\")\n"
      "end\n"
      "early()\n");
  EXPECT_FALSE(r.Has("SA107"));
  EXPECT_TRUE(r.ok());
}

// --- SA201: operator type mismatch -------------------------------------------

TEST(Analyzer, SA201StringPlusNumberRejected) {
  const AnalysisReport r = Analyzed("local x = \"a\" + 1\nprint(x)\n");
  EXPECT_TRUE(r.Has("SA201"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA201NearMissConcatPasses) {
  const AnalysisReport r = Analyzed(
      "local x = \"a\" .. tostring(1)\nprint(x)\n");
  EXPECT_FALSE(r.Has("SA201"));
  EXPECT_TRUE(r.ok());
}

// --- SA202: host-function argument mismatch ----------------------------------

TEST(Analyzer, SA202LenOfNumberRejected) {
  const AnalysisReport r = Analyzed("local n = len(5)\nprint(n)\n");
  EXPECT_TRUE(r.Has("SA202"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA202NearMissLenOfStringPasses) {
  const AnalysisReport r = Analyzed("local n = len(\"abc\")\nprint(n)\n");
  EXPECT_FALSE(r.Has("SA202"));
  EXPECT_TRUE(r.ok());
}

// --- SA203: script-function arity mismatch -----------------------------------

TEST(Analyzer, SA203WrongArgumentCountRejected) {
  const AnalysisReport r = Analyzed(
      "function add(a, b)\n"
      "  return a + b\n"
      "end\n"
      "local r = add(1)\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA203"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA203NearMissCorrectArityPasses) {
  const AnalysisReport r = Analyzed(
      "function add(a, b)\n"
      "  return a + b\n"
      "end\n"
      "local r = add(1, 2)\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA203"));
  EXPECT_TRUE(r.ok());
}

// --- SA301: call outside the whitelist ---------------------------------------

TEST(Analyzer, SA301UnknownFunctionRejected) {
  const AnalysisReport r = Analyzed("delete_all_files()\n");
  EXPECT_TRUE(r.Has("SA301"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA301NearMissExtraHostFnAccepted) {
  AnalyzerOptions options;
  options.extra_host_fns = {"delete_all_files"};
  const AnalysisReport r = Analyzed("delete_all_files()\n", options);
  EXPECT_FALSE(r.Has("SA301"));
  EXPECT_TRUE(r.ok());
}

// --- SA302: sensor unavailable on target device ------------------------------

TEST(Analyzer, SA302MissingSensorRejected) {
  AnalyzerOptions options;
  options.available_sensors = {{SensorKind::kMicrophone}};
  const AnalysisReport r = Analyzed("local fix = get_location()\nprint(fix)\n",
                               options);
  EXPECT_TRUE(r.Has("SA302"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA302NearMissSensorPresentPasses) {
  AnalyzerOptions options;
  options.available_sensors = {{SensorKind::kGps}};
  const AnalysisReport r = Analyzed("local fix = get_location()\nprint(fix)\n",
                               options);
  EXPECT_FALSE(r.Has("SA302"));
  EXPECT_TRUE(r.ok());
}

// --- SA401: unboundable loop -------------------------------------------------

TEST(Analyzer, SA401WhileTrueWithoutBreakRejected) {
  const AnalysisReport r = Analyzed(
      "while true do\n"
      "  print(\"spin\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA401WhileThatMayLoopBackRejected) {
  const AnalysisReport r = Analyzed(
      "local n = get_time_s()\n"
      "while n > 0 do\n"
      "  if n > 5 then\n"
      "    break\n"
      "  end\n"
      "  print(n)\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA401NearMissWhileThatAlwaysBreaksRunsOnce) {
  // No path leads from the body back to the head: at most one trip.
  const AnalysisReport r = Analyzed(
      "local n = get_time_s()\n"
      "while n > 0 do\n"
      "  local xs = get_noise_readings(4)\n"
      "  print(len(xs))\n"
      "  break\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_acquisitions, 4.0);
}

TEST(Analyzer, SA401ForOverUnknownListLengthRejected) {
  // What a script function returns has no known length.
  const AnalysisReport r = Analyzed(
      "function readings()\n"
      "  return get_noise_readings(4)\n"
      "end\n"
      "local xs = readings()\n"
      "for i = 1, len(xs) do\n"
      "  print(xs[i])\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA401NearMissForOverAcquisitionLength) {
  // An acquisition returns at most the samples it asks for.
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "for i = 1, len(xs) do\n"
      "  print(xs[i])\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA401ForOverListAScriptCallMayGrowRejected) {
  const AnalysisReport r = Analyzed(
      "function grow(list)\n"
      "  push(list, 0)\n"
      "end\n"
      "local xs = {3, 1, 2}\n"
      "grow(xs)\n"
      "for i = 1, #xs do\n"
      "  print(xs[i])\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
}

TEST(Analyzer, SA401NearMissForOverListLiteral) {
  const AnalysisReport r = Analyzed(
      "local xs = {3, 1, 2}\n"
      "local best = 0\n"
      "for i = 1, #xs do\n"
      "  best = max(best, xs[i])\n"
      "end\n"
      "print(best)\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA401ForOverListGrownInALoopRejected) {
  // Lengths do not follow trip counts: growing a list in a loop leaves its
  // length unbounded, so a loop over it is refused rather than under-
  // estimated at the length it had before the first append.
  const AnalysisReport r = Analyzed(
      "local xs = {}\n"
      "for j = 1, 3 do\n"
      "  push(xs, j)\n"
      "end\n"
      "for i = 1, len(xs) do\n"
      "  print(xs[i])\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
}

TEST(Analyzer, SA401NearMissForOverPushGrownList) {
  // Each push adds one to the bound — of every list, since `alias` and
  // `xs` are the same list.
  const std::string source =
      "local xs = {}\n"
      "local alias = xs\n"
      "push(alias, 1)\n"
      "xs[2] = 2\n"
      "for i = 1, len(xs) do\n"
      "  print(xs[i])\n"
      "end\n";
  const AnalysisReport r = Analyzed(source);
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
  const Result<Program> program = Parse(source);
  ASSERT_TRUE(program.ok());
  HostRegistry host;
  InstallStdlib(host);
  const Result<ExecutionResult> run =
      ir::Execute(ir::Lower(program.value()), host, InterpreterOptions{});
  ASSERT_TRUE(run.ok()) << run.error().str();
  EXPECT_EQ(run.value().output, "1\n2\n");
  EXPECT_LE(static_cast<double>(run.value().steps),
            r.manifest.worst_case_steps);
}

TEST(Analyzer, SA401NearMissTriangularLoopBounded) {
  // Inside a numeric-for body the counter is within the stop bound, so an
  // inner loop up to it is bounded too.
  const AnalysisReport r = Analyzed(
      "for i = 1, 3 do\n"
      "  for j = 1, i do\n"
      "    print(j)\n"
      "  end\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA401NearMissInductionBoundPasses) {
  const AnalysisReport r = Analyzed(
      "local i = 0\n"
      "while i < 10 do\n"
      "  i = i + 1\n"
      "end\n"
      "print(i)\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.manifest.cost_bounded);
}

// --- SA402: recursion --------------------------------------------------------

TEST(Analyzer, SA402RecursionRejected) {
  const AnalysisReport r = Analyzed(
      "function f(n)\n"
      "  return f(n)\n"
      "end\n"
      "local r = f(1)\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA402"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.manifest.cost_bounded);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == "SA402") {
      EXPECT_EQ(d.line, 1);  // the definition
    }
  }
}

TEST(Analyzer, SA402NearMissNonRecursiveChainPasses) {
  const AnalysisReport r = Analyzed(
      "function g(n)\n"
      "  return n + 1\n"
      "end\n"
      "function f(n)\n"
      "  return g(n)\n"
      "end\n"
      "local r = f(1)\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA402"));
  EXPECT_TRUE(r.ok());
}

// --- SA403: energy over budget -----------------------------------------------

TEST(Analyzer, SA403OverBudgetRejectedWithLine) {
  AnalyzerOptions options;
  options.energy_budget_mj = 100.0;  // 3 GPS fixes cost 450 mJ
  const AnalysisReport r = Analyzed(
      "local warmup = get_time_s()\n"
      "local fix = get_location(3)\n"
      "print(warmup)\n",
      options);
  ASSERT_TRUE(r.Has("SA403"));
  EXPECT_FALSE(r.ok());
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == "SA403") {
      EXPECT_EQ(d.line, 2);
    }
  }
}

TEST(Analyzer, SA403NearMissWithinBudgetPasses) {
  AnalyzerOptions options;
  options.energy_budget_mj = 1000.0;
  const AnalysisReport r = Analyzed("local fix = get_location(3)\nprint(fix)\n",
                               options);
  EXPECT_FALSE(r.Has("SA403"));
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_energy_mj, 450.0);
}

// --- SA404: steps exceed interpreter budget ----------------------------------

TEST(Analyzer, SA404HugeBoundedLoopRejected) {
  const AnalysisReport r = Analyzed(
      "for i = 1, 10000000 do\n"
      "  print(i)\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA404"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.manifest.cost_bounded);  // bounded — just too expensive
}

TEST(Analyzer, SA404NearMissModestLoopPasses) {
  const AnalysisReport r = Analyzed(
      "for i = 1, 1000 do\n"
      "  print(i)\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA404"));
  EXPECT_TRUE(r.ok());
}

// Steps are IR instructions: an empty numeric-for body retires 6 per
// iteration (test, ClearSlots, Move, Jump, ForStep, Jump) plus 8 around
// the loop, so 400'000 iterations need 2'400'008 of the 2'000'000 budget.
// The per-AST-node estimate this replaced said 400'006 and let it through.
TEST(Analyzer, SA404CountsIrStepsNotAstNodes) {
  const AnalysisReport r = Analyzed("for i = 1, 400000 do end\n");
  EXPECT_TRUE(r.Has("SA404"));
  EXPECT_FALSE(r.ok());
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_steps, 2'400'008.0);
}

TEST(Analyzer, SA404NearMissJustUnderIrBudgetRuns) {
  const std::string source = "for i = 1, 333331 do end\n";
  const AnalysisReport r = Analyzed(source);
  EXPECT_FALSE(r.Has("SA404"));
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_steps, 1'999'994.0);

  // The bound is exact for this loop: the default budget admits the run.
  const Result<Program> program = Parse(source);
  ASSERT_TRUE(program.ok());
  HostRegistry host;
  InstallStdlib(host);
  const Result<ExecutionResult> run =
      ir::Execute(ir::Lower(program.value()), host, InterpreterOptions{});
  ASSERT_TRUE(run.ok()) << run.error().str();
  EXPECT_EQ(run.value().steps, 1'999'994u);
}

// --- SA405: non-static sample count ------------------------------------------

TEST(Analyzer, SA405DynamicSampleCountWarns) {
  const AnalysisReport r = Analyzed(
      "local n = get_time_s()\n"
      "local readings = get_noise_readings(n)\n"
      "print(len(readings))\n");
  EXPECT_TRUE(r.Has("SA405"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA405NearMissLiteralCountPasses) {
  const AnalysisReport r = Analyzed(
      "local readings = get_noise_readings(4)\n"
      "print(len(readings))\n");
  EXPECT_FALSE(r.Has("SA405"));
  EXPECT_TRUE(r.ok());
}

// --- SA501: flow-sensitive use before assignment -----------------------------

TEST(Analyzer, SA501NoPathAssignsBeforeUseRejected) {
  // 'y' is assigned somewhere (so SA101 stays quiet), but no assignment
  // can reach the use: an error, where some path reaching it would be
  // SA102's warning.
  const AnalysisReport r = Analyzed(
      "print(y)\n"
      "y = 1\n");
  EXPECT_TRUE(r.Has("SA501"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA501NearMissEveryPathAssignsPasses) {
  const AnalysisReport r = Analyzed(
      "if get_time_s() > 0 then\n"
      "  x = 1\n"
      "else\n"
      "  x = 2\n"
      "end\n"
      "print(x)\n");
  EXPECT_FALSE(r.Has("SA501"));
  EXPECT_TRUE(r.ok());
}

// --- SA502: dead store -------------------------------------------------------

TEST(Analyzer, SA502OverwrittenLocalStoreWarns) {
  // Function bodies have true locals (top-level locals are globals), so
  // the overwritten initializer is a per-occurrence dead store.
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  local acc = 1\n"
      "  acc = 2\n"
      "  return acc\n"
      "end\n"
      "print(f())\n");
  EXPECT_TRUE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());  // warning only
}

TEST(Analyzer, SA502NeverReadGlobalWarns) {
  const AnalysisReport r = Analyzed(
      "g = 5\n"
      "print(1)\n");
  EXPECT_TRUE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA502NearMissBothStoresReadPasses) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  local acc = 1\n"
      "  print(acc)\n"
      "  acc = 2\n"
      "  return acc\n"
      "end\n"
      "print(f())\n");
  EXPECT_FALSE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());
}

// --- SA503: constant condition -----------------------------------------------

TEST(Analyzer, SA503ConstantComparisonWarns) {
  const AnalysisReport r = Analyzed(
      "if 1 < 2 then\n"
      "  print(\"always\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA503"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA503NearMissWhileTrueBreakIdiomPasses) {
  // `while true do ... break end` is the idiomatic bounded reader; the
  // constant-true head is deliberately not reported.
  const AnalysisReport r = Analyzed(
      "local n = 0\n"
      "while true do\n"
      "  n = n + 1\n"
      "  if n >= 3 then\n"
      "    break\n"
      "  end\n"
      "end\n"
      "print(n)\n");
  EXPECT_FALSE(r.Has("SA503"));
  // The cost pass still (correctly) rejects the loop as unboundable —
  // SA503 suppression is about not piling a misleading "condition is
  // always true" on top of that.
  EXPECT_TRUE(r.Has("SA401"));
}

// --- SA504: unreachable via constant condition -------------------------------

TEST(Analyzer, SA504ConstantFalseBranchUnreachable) {
  const AnalysisReport r = Analyzed(
      "if 2 < 1 then\n"
      "  print(\"never\")\n"
      "end\n"
      "print(\"after\")\n");
  EXPECT_TRUE(r.Has("SA504"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA504NearMissDynamicConditionPasses) {
  const AnalysisReport r = Analyzed(
      "if get_time_s() > 0 then\n"
      "  print(\"maybe\")\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA504"));
  EXPECT_TRUE(r.ok());
}

// --- SA505: acquisition feeds no output --------------------------------------

TEST(Analyzer, SA505UnusedAcquisitionWarns) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(\"done\")\n");
  EXPECT_TRUE(r.Has("SA505"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA505NearMissOutputDependsOnSensorPasses) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(len(xs))\n");
  EXPECT_FALSE(r.Has("SA505"));
  EXPECT_TRUE(r.ok());
}

// --- information-flow manifest -----------------------------------------------

TEST(FlowManifest, AnalyzerComputesSitesWithSensors) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(len(xs))\n"
      "print(\"static\")\n");
  ASSERT_EQ(r.flow.sites.size(), 3u);
  EXPECT_EQ(r.flow.sites[0].kind, FlowSite::Kind::kAcquire);
  EXPECT_EQ(r.flow.sites[0].line, 1);
  ASSERT_EQ(r.flow.sites[0].sensors.size(), 1u);
  EXPECT_EQ(r.flow.sites[0].sensors[0], SensorKind::kMicrophone);
  EXPECT_EQ(r.flow.sites[1].kind, FlowSite::Kind::kPrint);
  EXPECT_EQ(r.flow.sites[1].sensors,
            std::vector<SensorKind>{SensorKind::kMicrophone});
  // The constant print carries no sensor data.
  EXPECT_EQ(r.flow.sites[2].line, 3);
  EXPECT_TRUE(r.flow.sites[2].sensors.empty());
}

TEST(FlowManifest, ImplicitFlowThroughBranchIsTracked) {
  // The printed value is a constant, but WHICH constant depends on the
  // sensed reading — an implicit flow the taint pass must catch.
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "local label = \"quiet\"\n"
      "if len(xs) > 0 then\n"
      "  label = \"noisy\"\n"
      "end\n"
      "print(label)\n");
  ASSERT_EQ(r.flow.sites.size(), 2u);
  EXPECT_EQ(r.flow.sites[1].kind, FlowSite::Kind::kPrint);
  EXPECT_EQ(r.flow.sites[1].sensors,
            std::vector<SensorKind>{SensorKind::kMicrophone});
}

TEST(FlowManifest, EncodeDecodeRoundTrip) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "local fixes = get_location(3)\n"
      "print(len(xs) + len(fixes))\n");
  const std::string encoded = EncodeFlowManifest(r.flow);
  EXPECT_EQ(encoded,
            "acquire@1=microphone;acquire@2=gps;print@3=gps,microphone");
  const auto decoded = DecodeFlowManifest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), r.flow);
}

// --- manifest & cost ---------------------------------------------------------

// Samples, energy and IR steps per run of a script the repo ships.
struct ShippedManifest {
  const char* name;
  double samples;
  double energy_mj;
  double steps;
};

void ExpectManifest(const AnalysisReport& r, const ShippedManifest& want) {
  EXPECT_TRUE(r.diagnostics.empty())
      << want.name << "\n"
      << Render(std::span<const Diagnostic>(r.diagnostics));
  EXPECT_TRUE(r.manifest.cost_bounded) << want.name;
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_acquisitions, want.samples)
      << want.name;
  EXPECT_NEAR(r.manifest.worst_case_energy_mj, want.energy_mj, 1e-9)
      << want.name;
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_steps, want.steps) << want.name;
}

TEST(Analyzer, DefaultTrailScriptCleanWithExpectedManifest) {
  const AnalysisReport r = Analyzed(
      core::DefaultScript(world::PlaceCategory::kHikingTrail));
  const std::vector<SensorKind> want = {
      SensorKind::kAccelerometer, SensorKind::kGps, SensorKind::kBarometer,
      SensorKind::kDroneTemperature, SensorKind::kDroneHumidity};
  EXPECT_EQ(r.manifest.required_sensors, want);
  // 5×8 (temp) + 5×8 (humidity) + 12×0.5 (accel) + 6×0.4 (baro) + 15×150
  // (GPS) = 2338.4 mJ.
  ExpectManifest(r, {"builtin trails", 43, 2338.4, 34});
}

TEST(Analyzer, DefaultCoffeeScriptClean) {
  const AnalysisReport r = Analyzed(
      core::DefaultScript(world::PlaceCategory::kCoffeeShop));
  ExpectManifest(r, {"builtin coffee", 23, 420, 30});
}

TEST(Analyzer, ExampleScriptManifestsPinned) {
  // air_quality's loop runs len(co) <= 6 times; noise_survey's while loop
  // exactly 3.
  const ShippedManifest table[] = {
      {"air_quality.sor", 16, 128, 151},
      {"coffee_shop.sor", 23, 420, 30},
      {"hiking_trail.sor", 43, 2338.4, 34},
      {"noise_survey.sor", 12, 60, 136},
  };
  for (const ShippedManifest& row : table) {
    std::ifstream in(std::string(SOR_EXAMPLE_SCRIPTS_DIR) + "/" + row.name);
    ASSERT_TRUE(in) << row.name;
    std::ostringstream source;
    source << in.rdbuf();
    ExpectManifest(Analyzed(source.str()), row);
  }
}

TEST(Analyzer, ManifestCountsLoopScaledAcquisitions) {
  const AnalysisReport r = Analyzed(
      "local i = 0\n"
      "while i < 3 do\n"
      "  local xs = get_noise_readings(4)\n"
      "  print(len(xs))\n"
      "  i = i + 1\n"
      "end\n");
  EXPECT_TRUE(r.ok());
  // The interval pass proves exactly 3 iterations.
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_acquisitions, 12.0);
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_energy_mj, 60.0);
}

// --- diagnostics plumbing ----------------------------------------------------

TEST(Diagnostics, RenderMatchesParserStyle) {
  const Diagnostic d{"SA101", Severity::kError, 3, "undefined name 'foo'"};
  EXPECT_EQ(Render(d), "error SA101 at line 3: undefined name 'foo'");
}

TEST(Diagnostics, SortAndDedupeIsDeterministic) {
  std::vector<Diagnostic> ds = {
      {"SA102", Severity::kWarning, 5, "b"},
      {"SA101", Severity::kError, 5, "a"},
      {"SA101", Severity::kError, 2, "c"},
      {"SA101", Severity::kError, 5, "a"},  // exact duplicate
  };
  SortAndDedupe(ds);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].line, 2);
  EXPECT_EQ(ds[1].code, "SA101");
  EXPECT_EQ(ds[2].code, "SA102");
}

TEST(Diagnostics, OrderingIsLineColCodeRegardlessOfInsertion) {
  // Regression for the (line, col, code) contract: shuffling the insertion
  // order of same-line diagnostics must not change the rendered output.
  const std::vector<Diagnostic> want = {
      {"SA101", Severity::kError, 2, "a", 0},
      {"SA503", Severity::kWarning, 5, "c", 1},
      {"SA101", Severity::kError, 5, "b", 4},
      {"SA502", Severity::kWarning, 5, "d", 4},
  };
  std::vector<Diagnostic> forward = want;
  std::vector<Diagnostic> reversed(want.rbegin(), want.rend());
  SortAndDedupe(forward);
  SortAndDedupe(reversed);
  EXPECT_EQ(forward, reversed);
  ASSERT_EQ(forward.size(), 4u);
  EXPECT_EQ(forward[0].code, "SA101");  // line 2 first
  EXPECT_EQ(forward[1].col, 1);         // then line 5 by col...
  EXPECT_EQ(forward[2].col, 4);
  EXPECT_EQ(forward[2].code, "SA101");  // ...ties broken by code
  EXPECT_EQ(forward[3].code, "SA502");
}

TEST(Diagnostics, RenderIncludesColumnWhenKnown) {
  const Diagnostic d{"SA501", Severity::kError, 3, "boom", 7};
  EXPECT_EQ(Render(d), "error SA501 at line 3, col 7: boom");
}

TEST(Diagnostics, SensorListRoundTrip) {
  const std::vector<SensorKind> kinds = {SensorKind::kGps,
                                         SensorKind::kBarometer};
  const std::string text = EncodeSensorList(kinds);
  Result<std::vector<SensorKind>> back = DecodeSensorList(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), kinds);
  EXPECT_TRUE(DecodeSensorList("").value().empty());
  EXPECT_FALSE(DecodeSensorList("gps,flux_capacitor").ok());
}

TEST(HostApi, AcquisitionTableConsistent) {
  int acquisition_rows = 0;
  for (const HostSignature& sig : HostSignatures()) {
    if (sig.sensor.has_value()) {
      ++acquisition_rows;
      EXPECT_EQ(AcquisitionSensor(sig.name), sig.sensor);
      EXPECT_EQ(FindHostSignature(sig.name), &sig);
    }
  }
  EXPECT_EQ(acquisition_rows, 14);
  EXPECT_EQ(FindHostSignature("not_a_function"), nullptr);
  EXPECT_EQ(AcquisitionSensor("mean"), std::nullopt);
}

// --- property test: random source never crashes the pipeline -----------------

TEST(AnalyzerProperty, RandomTokenSoupNeverCrashes) {
  // Deterministic LCG so failures reproduce from the seed printed below.
  const char* const vocab[] = {
      "local", "if", "then", "else", "elseif", "end", "while", "do", "for",
      "function", "return", "break", "and", "or", "not", "true", "false",
      "nil", "x", "y", "readings", "f", "get_location", "get_noise_readings",
      "len", "mean", "print", "0", "1", "42", "3.5", "\"s\"", "+", "-", "*",
      "/", "%", "..", "==", "~=", "<", "<=", ">", ">=", "=", "(", ")", "{",
      "}", "[", "]", ",", "\n"};
  constexpr std::size_t kVocab = sizeof(vocab) / sizeof(vocab[0]);
  std::uint64_t state = 0x5eedULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int iter = 0; iter < 400; ++iter) {
    std::string source;
    const std::size_t tokens = 1 + next() % 60;
    for (std::size_t t = 0; t < tokens; ++t) {
      source += vocab[next() % kVocab];
      source += ' ';
    }
    const AnalysisReport r = AnalyzeSource(source);
    // Whatever came out must be internally consistent.
    for (const Diagnostic& d : r.diagnostics) {
      EXPECT_FALSE(d.code.empty()) << "iter " << iter << ": " << source;
      EXPECT_GE(d.line, 0) << "iter " << iter << ": " << source;
    }
  }
}

// Structured variant: mutate a known-good script by splicing random tokens
// into random positions — exercises deeper parser states than pure soup.
TEST(AnalyzerProperty, MutatedTrailScriptNeverCrashes) {
  const std::string base =
      core::DefaultScript(world::PlaceCategory::kHikingTrail);
  const char* const splices[] = {"end", "do", "then", "(", ")", "=", "local",
                                 "while", "\"", "..", "[", "9e99", "--[["};
  constexpr std::size_t kSplices = sizeof(splices) / sizeof(splices[0]);
  std::uint64_t state = 0xfeedULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string source = base;
    const int cuts = 1 + static_cast<int>(next() % 4);
    for (int c = 0; c < cuts; ++c) {
      const std::size_t at = next() % (source.size() + 1);
      source.insert(at, splices[next() % kSplices]);
    }
    const AnalysisReport r = AnalyzeSource(source);
    (void)r;  // surviving the pipeline (under asan/ubsan) is the property
  }
}

}  // namespace
}  // namespace sor::script::analysis
