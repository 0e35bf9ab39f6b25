// IR analysis and optimization passes.
//
// Built on the worklist engine in dataflow.hpp, these passes derive every
// flow-sensitive fact the analyzer reports:
//
//   constant propagation / folding    SA503 (constant conditions), branch
//                                     folding, and the groundwork for DCE
//   definite assignment               SA501 (no assignment reaches a use),
//                                     SA102 (some path leaves it
//                                     unassigned), CheckDef elision
//   liveness + DCE                    SA502 (dead stores)
//   reachability diff                 SA504 (code killed by constant
//                                     branches)
//   intervals + list lengths          per-loop trip bounds and acquisition
//                                     sample counts: the worst-case cost
//                                     (SA401, SA402, SA405)
//   sensor taint                      the information-flow manifest and
//                                     SA505 (sensor-free output)
//
// OptimizeModule is semantics-preserving; AnalyzeModule runs it on a copy,
// derives diagnostics and the flow manifest from the optimized module, and
// prices the worst-case cost on the module phones execute.
#pragma once

#include <string>
#include <vector>

#include "script/analysis/diagnostics.hpp"
#include "script/analysis/flow_manifest.hpp"
#include "script/ir/ir.hpp"

namespace sor::script::analysis {

// Facts recorded while optimizing, for diagnostic synthesis.
struct OptimizeReport {
  struct FoldedBranch {
    int line = 0;
    bool value = false;      // condition constant-truthiness
    bool user_cond = false;  // came from a source if/while condition
    bool while_head = false; // the branch was a while-loop test
  };
  std::vector<FoldedBranch> folded_branches;

  struct NamedUse {
    int line = 0;
    std::string name;
  };
  std::vector<NamedUse> undef_uses;   // reachable uses no assignment reaches
  std::vector<NamedUse> maybe_uses;   // ... that some path reaches unassigned
  std::vector<NamedUse> dead_stores;  // pure user stores never read
  std::vector<int> unreachable_lines; // lines made unreachable by folding
};

// Semantics-preserving optimization pipeline: constant propagation and
// folding, constant-branch folding, definite-assignment CheckDef elision,
// and dead-code elimination. Observable behaviour (values, output, error
// text) is untouched. With `report`, records the facts behind SA102 and SA501-SA504.
void OptimizeModule(ir::Module& m, OptimizeReport* report = nullptr);

struct IrAnalysisOptions {
  // Samples an acquisition call takes when it passes no sample count, or
  // one that is not statically bounded; mirrors AnalyzerOptions.
  int default_samples_per_window = 5;
};

// Worst-case cost of one run of a module, callees included.
struct CostBound {
  bool bounded = true;  // false: a reachable loop has no trip bound (SA401)
                        // or calls recurse (SA402); the figures are void
  double steps = 0;     // IR instructions retired — the unit of
                        // InterpreterOptions::max_steps (SA404)
  double samples = 0;   // physical acquisition samples
  double energy_mj = 0;  // via sensors::AcquisitionEnergyMj (SA403)
  int heavy_loop_line = 0;  // outermost loop costing the most steps (0: none)
  double heavy_loop_steps = 0;
  int heavy_acquisition_line = 0;  // acquisition costing the most energy
  double heavy_acquisition_mj = 0;
};

struct IrAnalysis {
  // SA102, SA401, SA402, SA405 and SA501..SA505; SA403/SA404 compare
  // `cost` against the analyzer's budgets.
  std::vector<Diagnostic> diagnostics;
  CostBound cost;
  FlowManifest flow;
};

// Optimizes a copy of `m`, derives diagnostics and the information-flow
// manifest from it, and bounds the cost of running `m` itself — the
// unoptimized module a phone executes. Each block the optimized module
// still reaches is priced at its instruction count in `m` (optimizing keeps
// block ids and calls) times the trip bounds of its enclosing loops, whose
// condition blocks run once more than their body; each call adds the
// dearest definition its name may bind, and each acquisition its samples
// (the first argument's upper bound, floored) × AcquisitionEnergyMj.
[[nodiscard]] IrAnalysis AnalyzeModule(const ir::Module& m,
                                       const IrAnalysisOptions& opts = {});

}  // namespace sor::script::analysis
