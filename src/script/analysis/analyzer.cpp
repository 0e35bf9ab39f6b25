#include "script/analysis/analyzer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "script/analysis/host_api.hpp"
#include "script/analysis/passes.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"

namespace sor::script::analysis {

namespace {

// ===========================================================================
// Scope, types and capability.
//
// One abstract interpretation walk mirroring the language's scoping rules
// exactly (as src/script/ir/lower.cpp resolves them): a scope stack whose
// bottom is the global scope, block scopes pushed for if/while/for bodies,
// `local` declaring in the innermost scope, plain assignment writing the
// nearest enclosing binding or else creating a global. Branches are joined;
// whether a binding is assigned on every path is the IR's definite-
// assignment question (SA102/SA501), not this walk's.
// ===========================================================================

// Name -> the type bound to it.
using Scope = std::map<std::string, SType>;

SType JoinType(SType a, SType b) { return a == b ? a : SType::kAny; }

bool CouldBe(SType t, SType want) { return t == want || t == SType::kAny; }

class ScopeTypeChecker {
 public:
  ScopeTypeChecker(const Program& program, const AnalyzerOptions& options,
                   std::vector<Diagnostic>& out,
                   std::set<SensorKind>& required)
      : program_(program), options_(options), out_(out), required_(required) {}

  void Run() {
    Collect(program_.statements, /*top_level_main=*/true);
    scopes_.clear();
    scopes_.emplace_back();  // globals
    in_function_ = false;
    loop_depth_ = 0;
    WalkBlock(program_.statements);
    // Function bodies are checked against the set of every global the
    // program could ever create (functions run with whatever globals exist
    // at call time, so flow-sensitive "maybe unassigned" does not apply).
    for (const auto& [name, fn] : functions_) WalkFunction(*fn);
  }

 private:
  void Emit(std::string code, Severity sev, int line, std::string msg) {
    out_.push_back(
        Diagnostic{std::move(code), sev, line, std::move(msg)});
  }

  bool IsExtraHostFn(const std::string& name) const {
    return std::find(options_.extra_host_fns.begin(),
                     options_.extra_host_fns.end(),
                     name) != options_.extra_host_fns.end();
  }

  // --- pre-pass: every name the program can bind, anywhere ----------------

  void Collect(const std::vector<StmtPtr>& body, bool top_level_main) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      switch (st.kind) {
        case Stmt::Kind::kLocal:
          // A top-level `local` lives in the interpreter's global scope, so
          // function bodies can see it.
          if (top_level_main) global_candidates_.insert(st.name);
          break;
        case Stmt::Kind::kAssign:
          // Plain assignment creates a global when no local exists.
          if (!st.target_index) global_candidates_.insert(st.name);
          break;
        case Stmt::Kind::kNumericFor:
          Collect(st.body, false);
          break;
        case Stmt::Kind::kWhile:
          Collect(st.body, false);
          break;
        case Stmt::Kind::kIf:
          Collect(st.body, false);
          Collect(st.else_body, false);
          break;
        case Stmt::Kind::kFunction: {
          auto [it, inserted] = functions_.emplace(st.name, &st);
          const int arity = static_cast<int>(st.params.size());
          if (inserted) {
            fn_arity_[st.name] = arity;
          } else if (fn_arity_[st.name] != arity) {
            fn_arity_[st.name] = -1;  // conflicting defs: skip arity checks
          }
          Collect(st.body, false);
          break;
        }
        case Stmt::Kind::kExpr:
        case Stmt::Kind::kReturn:
        case Stmt::Kind::kBreak:
          break;
      }
    }
  }

  // --- environment --------------------------------------------------------

  SType* Find(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (auto v = it->find(name); v != it->end()) return &v->second;
    }
    return nullptr;
  }

  bool VisibleInOuterScope(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < scopes_.size(); ++i) {
      if (scopes_[i].count(name) != 0) return true;
    }
    return false;
  }

  // Merge `b` into `a` (same stack depth): a name bound on either path
  // stays bound, with the join of its types.
  static void MergeScopes(std::vector<Scope>& a, const std::vector<Scope>& b) {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      for (const auto& [name, type] : b[i]) {
        const auto [it, inserted] = a[i].emplace(name, type);
        if (!inserted) it->second = JoinType(it->second, type);
      }
    }
  }

  // --- statements ---------------------------------------------------------

  // Returns true when the block always transfers control out (return/break),
  // i.e. statements after it in the enclosing block are dead.
  bool WalkBlock(const std::vector<StmtPtr>& body) {
    bool terminated = false;
    for (const StmtPtr& st : body) {
      if (terminated) {
        Emit("SA104", Severity::kWarning, st->line,
             "unreachable statement (control flow never reaches here)");
        // Dead statements never execute: skip them rather than cascade.
        return true;
      }
      terminated = WalkStmt(*st);
    }
    return terminated;
  }

  bool WalkStmt(const Stmt& st) {
    switch (st.kind) {
      case Stmt::Kind::kLocal: {
        const SType t = WalkExpr(*st.expr);
        if (VisibleInOuterScope(st.name)) {
          Emit("SA103", Severity::kWarning, st.line,
               "local '" + st.name + "' shadows an outer variable");
        }
        scopes_.back()[st.name] = t;
        return false;
      }
      case Stmt::Kind::kAssign: {
        const SType t = WalkExpr(*st.expr);
        if (st.target_index) {
          const SType lt = WalkExpr(*st.target_index->lhs);
          if (!CouldBe(lt, SType::kList)) {
            Emit("SA201", Severity::kError, st.line,
                 "cannot index a " + std::string(to_string(lt)));
          }
          const SType it = WalkExpr(*st.target_index->rhs);
          if (!CouldBe(it, SType::kNumber)) {
            Emit("SA201", Severity::kError, st.line,
                 "list index must be a number, got " +
                     std::string(to_string(it)));
          }
          return false;
        }
        if (SType* v = Find(st.name)) {
          *v = t;
        } else {
          scopes_.front()[st.name] = t;  // creates a global
        }
        return false;
      }
      case Stmt::Kind::kExpr:
        WalkExpr(*st.expr);
        return false;
      case Stmt::Kind::kIf: {
        WalkExpr(*st.expr);
        const std::vector<Scope> snapshot = scopes_;
        scopes_.emplace_back();
        const bool then_exits = WalkBlock(st.body);
        scopes_.pop_back();
        std::vector<Scope> after_then = std::move(scopes_);
        scopes_ = snapshot;
        scopes_.emplace_back();
        const bool else_exits = WalkBlock(st.else_body);
        scopes_.pop_back();
        // State that flows past the `if` comes only from branches that fall
        // through.
        if (then_exits && !else_exits) {
          // keep else state (already current)
        } else if (else_exits && !then_exits) {
          scopes_ = std::move(after_then);
        } else {
          MergeScopes(scopes_, after_then);
        }
        return then_exits && else_exits;
      }
      case Stmt::Kind::kWhile: {
        // The first condition evaluation sees exactly the entry state, so
        // analyzing it (and the first body iteration) against the entry
        // state reports precisely the errors iteration one would hit.
        WalkExpr(*st.expr);
        const std::vector<Scope> snapshot = scopes_;
        ++loop_depth_;
        scopes_.emplace_back();
        WalkBlock(st.body);
        scopes_.pop_back();
        --loop_depth_;
        // Zero iterations are possible: join body effects with entry state.
        std::vector<Scope> after_body = std::move(scopes_);
        scopes_ = snapshot;
        MergeScopes(scopes_, after_body);
        return false;
      }
      case Stmt::Kind::kNumericFor: {
        auto check_bound = [&](const Expr* e, const char* what) {
          if (e == nullptr) return;
          const SType t = WalkExpr(*e);
          if (!CouldBe(t, SType::kNumber)) {
            Emit("SA201", Severity::kError, st.line,
                 std::string("for ") + what + " must be a number, got " +
                     std::string(to_string(t)));
          }
        };
        check_bound(st.for_start.get(), "start");
        check_bound(st.for_stop.get(), "stop");
        check_bound(st.for_step.get(), "step");
        if (Find(st.name) != nullptr) {
          Emit("SA103", Severity::kWarning, st.line,
               "loop variable '" + st.name + "' shadows an outer variable");
        }
        const std::vector<Scope> snapshot = scopes_;
        ++loop_depth_;
        scopes_.emplace_back();
        scopes_.back()[st.name] = SType::kNumber;
        WalkBlock(st.body);
        scopes_.pop_back();
        --loop_depth_;
        std::vector<Scope> after_body = std::move(scopes_);
        scopes_ = snapshot;
        MergeScopes(scopes_, after_body);
        return false;
      }
      case Stmt::Kind::kFunction: {
        if (FindHostSignature(st.name) != nullptr ||
            IsExtraHostFn(st.name)) {
          Emit("SA106", Severity::kError, st.line,
               "cannot shadow host function '" + st.name + "'");
        }
        defined_so_far_.insert(st.name);
        return false;  // body checked separately in WalkFunction
      }
      case Stmt::Kind::kReturn:
        if (st.expr) WalkExpr(*st.expr);
        return true;
      case Stmt::Kind::kBreak:
        if (loop_depth_ == 0) {
          Emit("SA105", Severity::kError, st.line,
               "'break' outside of a loop silently ends the "
               "enclosing block");
        }
        return true;
    }
    return false;
  }

  void WalkFunction(const Stmt& fn) {
    in_function_ = true;
    scopes_.clear();
    scopes_.emplace_back();
    for (const std::string& g : global_candidates_)
      scopes_.front()[g] = SType::kAny;
    scopes_.emplace_back();
    for (const std::string& p : fn.params) scopes_.back()[p] = SType::kAny;
    loop_depth_ = 0;
    WalkBlock(fn.body);
    in_function_ = false;
  }

  // --- expressions --------------------------------------------------------

  SType WalkExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber: return SType::kNumber;
      case Expr::Kind::kString: return SType::kString;
      case Expr::Kind::kBool: return SType::kBool;
      case Expr::Kind::kNil: return SType::kNil;
      case Expr::Kind::kName: {
        if (SType* v = Find(e.text)) return *v;
        // A global some path may assign: whether one reaches this use is
        // the IR's flow-sensitive SA102/SA501. Any other name resolves to
        // a global nothing ever stores, so the use always fails.
        if (global_candidates_.count(e.text) != 0) return SType::kAny;
        if (functions_.count(e.text) != 0) {
          Emit("SA101", Severity::kError, e.line,
               "undefined name '" + e.text +
                   "' (functions are not values; call it instead)");
        } else {
          Emit("SA101", Severity::kError, e.line,
               "undefined name '" + e.text + "'");
        }
        return SType::kAny;
      }
      case Expr::Kind::kUnary: {
        const SType t = WalkExpr(*e.lhs);
        switch (e.un_op) {
          case UnOp::kNeg:
            if (!CouldBe(t, SType::kNumber)) {
              Emit("SA201", Severity::kError, e.line,
                   "cannot negate a " + std::string(to_string(t)));
            }
            return SType::kNumber;
          case UnOp::kNot:
            return SType::kBool;
          case UnOp::kLen:
            if (!CouldBe(t, SType::kList) && !CouldBe(t, SType::kString)) {
              Emit("SA201", Severity::kError, e.line,
                   "cannot take length of a " + std::string(to_string(t)));
            }
            return SType::kNumber;
        }
        return SType::kAny;
      }
      case Expr::Kind::kBinary: return WalkBinary(e);
      case Expr::Kind::kCall: return WalkCall(e);
      case Expr::Kind::kIndex: {
        const SType lt = WalkExpr(*e.lhs);
        if (!CouldBe(lt, SType::kList)) {
          Emit("SA201", Severity::kError, e.line,
               "cannot index a " + std::string(to_string(lt)));
        }
        const SType it = WalkExpr(*e.rhs);
        if (!CouldBe(it, SType::kNumber)) {
          Emit("SA201", Severity::kError, e.line,
               "list index must be a number, got " +
                   std::string(to_string(it)));
        }
        return SType::kAny;  // element type is unknown
      }
      case Expr::Kind::kListLiteral: {
        for (const ExprPtr& arg : e.args) WalkExpr(*arg);
        return SType::kList;
      }
    }
    return SType::kAny;
  }

  SType WalkBinary(const Expr& e) {
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      // Lua semantics: the result is one of the operands.
      const SType a = WalkExpr(*e.lhs);
      const SType b = WalkExpr(*e.rhs);
      return JoinType(a, b);
    }
    const SType a = WalkExpr(*e.lhs);
    const SType b = WalkExpr(*e.rhs);
    auto type_names = [&] {
      return std::string(to_string(a)) + " and " + to_string(b);
    };
    switch (e.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod:
        if (!CouldBe(a, SType::kNumber) || !CouldBe(b, SType::kNumber)) {
          Emit("SA201", Severity::kError, e.line,
               "arithmetic on " + type_names());
        }
        return SType::kNumber;
      case BinOp::kConcat:
        if (a == SType::kList || b == SType::kList) {
          Emit("SA201", Severity::kError, e.line, "cannot concatenate lists");
        }
        return SType::kString;
      case BinOp::kEq:
      case BinOp::kNe:
        return SType::kBool;
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        auto comparable = [](SType t) {
          return t == SType::kNumber || t == SType::kString || t == SType::kAny;
        };
        const bool definite_mismatch =
            !comparable(a) || !comparable(b) ||
            (a != SType::kAny && b != SType::kAny && a != b);
        if (definite_mismatch) {
          Emit("SA201", Severity::kError, e.line,
               "cannot compare " + type_names());
        }
        return SType::kBool;
      }
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // handled above
    }
    return SType::kAny;
  }

  static bool ArgCompatible(SType actual, ArgType want) {
    if (actual == SType::kAny) return true;
    switch (want) {
      case ArgType::kAny: return true;
      case ArgType::kNumber: return actual == SType::kNumber;
      case ArgType::kString: return actual == SType::kString;
      case ArgType::kList: return actual == SType::kList;
      case ArgType::kListOrString:
        return actual == SType::kList || actual == SType::kString;
    }
    return true;
  }

  static const char* ArgTypeName(ArgType t) {
    switch (t) {
      case ArgType::kNumber: return "number";
      case ArgType::kString: return "string";
      case ArgType::kList: return "list";
      case ArgType::kListOrString: return "list or string";
      case ArgType::kAny: return "any";
    }
    return "?";
  }

  SType WalkCall(const Expr& e) {
    std::vector<SType> arg_types;
    arg_types.reserve(e.args.size());
    for (const ExprPtr& arg : e.args) arg_types.push_back(WalkExpr(*arg));
    const int n = static_cast<int>(arg_types.size());

    if (const HostSignature* sig = FindHostSignature(e.text)) {
      if (n < sig->min_args || (sig->max_args >= 0 && n > sig->max_args)) {
        std::string expect =
            sig->max_args < 0
                ? "at least " + std::to_string(sig->min_args)
                : (sig->min_args == sig->max_args
                       ? std::to_string(sig->min_args)
                       : std::to_string(sig->min_args) + " to " +
                             std::to_string(sig->max_args));
        Emit("SA202", Severity::kError, e.line,
             "'" + std::string(sig->name) + "' expects " + expect +
                 " argument(s), got " + std::to_string(n));
      }
      for (int i = 0; i < n; ++i) {
        const ArgType want = i < 2 ? sig->args[i] : sig->rest;
        if (!ArgCompatible(arg_types[static_cast<std::size_t>(i)], want)) {
          Emit("SA202", Severity::kError, e.line,
               "argument " + std::to_string(i + 1) + " of '" +
                   std::string(sig->name) + "' must be " + ArgTypeName(want) +
                   ", got " +
                   to_string(arg_types[static_cast<std::size_t>(i)]));
        }
      }
      if (sig->sensor.has_value()) {
        required_.insert(*sig->sensor);
        if (options_.available_sensors.has_value()) {
          const auto& avail = *options_.available_sensors;
          if (std::find(avail.begin(), avail.end(), *sig->sensor) ==
              avail.end()) {
            Emit("SA302", Severity::kError, e.line,
                 "'" + std::string(sig->name) + "' needs sensor '" +
                     std::string(to_string(*sig->sensor)) +
                     "', which the target device does not provide");
          }
        }
      }
      return sig->ret;
    }

    if (IsExtraHostFn(e.text)) return SType::kAny;

    if (auto it = functions_.find(e.text); it != functions_.end()) {
      const int arity = fn_arity_[e.text];
      if (arity >= 0 && n != arity) {
        Emit("SA203", Severity::kError, e.line,
             "'" + e.text + "' expects " + std::to_string(arity) +
                 " args, got " + std::to_string(n));
      }
      if (!in_function_ && defined_so_far_.count(e.text) == 0) {
        Emit("SA107", Severity::kWarning, e.line,
             "'" + e.text + "' is called before its definition on line " +
                 std::to_string(it->second->line) + " has executed");
      }
      return SType::kAny;
    }

    Emit("SA301", Severity::kError, e.line,
         "function '" + e.text + "' is not in the allowed function whitelist");
    return SType::kAny;
  }

  const Program& program_;
  const AnalyzerOptions& options_;
  std::vector<Diagnostic>& out_;
  std::set<SensorKind>& required_;

  std::set<std::string> global_candidates_;
  std::map<std::string, const Stmt*> functions_;
  std::map<std::string, int> fn_arity_;
  std::set<std::string> defined_so_far_;

  std::vector<Scope> scopes_;
  bool in_function_ = false;
  int loop_depth_ = 0;
};

int FirstStatementLine(const Program& program) {
  return program.statements.empty() ? 1 : program.statements.front()->line;
}

}  // namespace

AnalysisReport Analyze(const Program& program, const AnalyzerOptions& options) {
  AnalysisReport report;
  std::set<SensorKind> required;
  ScopeTypeChecker scopes(program, options, report.diagnostics, required);
  scopes.Run();

  // Flow-sensitive layer, on the lowered IR: definite assignment (SA102,
  // SA5xx), the information-flow manifest, and the worst-case cost of one
  // run of the module a phone executes (SA401/SA402/SA405).
  IrAnalysisOptions ir_opts;
  ir_opts.default_samples_per_window = options.default_samples_per_window;
  IrAnalysis ir_facts = AnalyzeModule(ir::Lower(program), ir_opts);
  report.diagnostics.insert(report.diagnostics.end(),
                            ir_facts.diagnostics.begin(),
                            ir_facts.diagnostics.end());
  report.flow = std::move(ir_facts.flow);

  const CostBound& cost = ir_facts.cost;
  report.manifest.required_sensors.assign(required.begin(), required.end());
  report.manifest.cost_bounded = cost.bounded;
  if (cost.bounded) {
    report.manifest.worst_case_steps = cost.steps;
    report.manifest.worst_case_acquisitions = cost.samples;
    report.manifest.worst_case_energy_mj = cost.energy_mj;
    if (options.energy_budget_mj > 0 &&
        cost.energy_mj > options.energy_budget_mj) {
      report.diagnostics.push_back(Diagnostic{
          "SA403", Severity::kError,
          cost.heavy_acquisition_line > 0 ? cost.heavy_acquisition_line
                                          : FirstStatementLine(program),
          "worst-case energy estimate " + std::to_string(cost.energy_mj) +
              " mJ/run exceeds the budget of " +
              std::to_string(options.energy_budget_mj) + " mJ/run"});
    }
    if (options.max_steps > 0 && cost.steps > options.max_steps) {
      report.diagnostics.push_back(Diagnostic{
          "SA404", Severity::kError,
          cost.heavy_loop_line > 0 ? cost.heavy_loop_line
                                   : FirstStatementLine(program),
          "worst-case step estimate " + std::to_string(cost.steps) +
              " exceeds the interpreter budget of " +
              std::to_string(options.max_steps)});
    }
  }
  SortAndDedupe(report.diagnostics);
  return report;
}

AnalysisReport AnalyzeSource(std::string_view source,
                             const AnalyzerOptions& options) {
  Result<Program> program = Parse(source);
  if (!program.ok()) {
    AnalysisReport report;
    report.diagnostics.push_back(FromError(program.error()));
    report.manifest.cost_bounded = false;
    return report;
  }
  return Analyze(program.value(), options);
}

}  // namespace sor::script::analysis
