#include "script/ir/exec.hpp"

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "script/ast.hpp"

namespace sor::script::ir {
namespace {

Error RuntimeError(int line, const std::string& msg) {
  return Error{Errc::kScriptError,
               "runtime error at line " + std::to_string(line) + ": " + msg,
               line};
}

class Executor {
 public:
  Executor(const Module& m, const HostRegistry& host,
           const InterpreterOptions& opts)
      : m_(m), host_(host), opts_(opts) {
    globals_.resize(m_.global_names.size());
    gdef_.assign(m_.global_names.size(), 0);
    bindings_.assign(m_.names.size(), -1);
    host_fns_.resize(m_.names.size(), nullptr);
    for (std::size_t i = 0; i < m_.names.size(); ++i) {
      if (m_.names[i] == "print") print_name_ = static_cast<std::uint32_t>(i);
      host_fns_[i] = host_.Find(m_.names[i]);
    }
  }

  Result<ExecutionResult> Run() {
    if (m_.functions.empty()) return result_;
    Result<Value> ret = RunFunction(0, {});
    if (!ret.ok()) return ret.error();
    result_.return_value = std::move(ret).value();
    result_.steps = steps_;
    return std::move(result_);
  }

 private:
  Result<Value> RunFunction(std::uint32_t fn_idx, std::span<const Value> args) {
    const Function& fn = m_.functions[fn_idx];
    std::vector<Value> regs(fn.num_regs);
    std::vector<std::uint8_t> defined(fn.num_named, 0);
    for (std::size_t i = 0; i < args.size() && i < fn.num_named; ++i) {
      regs[i] = args[i];
      defined[i] = 1;
    }

    int block = 0;
    while (true) {
      const BasicBlock& b = fn.blocks[static_cast<std::size_t>(block)];
      for (std::size_t ip = 0; ip < b.insts.size(); ++ip) {
        const Inst& inst = b.insts[ip];
        if (++steps_ > opts_.max_steps) {
          return Error{Errc::kScriptError,
                       "instruction budget exhausted at line " +
                           std::to_string(inst.line)};
        }
        switch (inst.op) {
          case Op::kConst:
            regs[inst.dst] = m_.consts[inst.imm];
            if (inst.dst < fn.num_named) defined[inst.dst] = 1;
            break;
          case Op::kMove:
            regs[inst.dst] = regs[inst.a];
            if (inst.dst < fn.num_named) defined[inst.dst] = 1;
            break;
          case Op::kCheckDef:
            if (!defined[inst.a]) {
              return RuntimeError(
                  inst.line,
                  "undefined variable '" + m_.names[inst.imm] + "'");
            }
            break;
          case Op::kClearSlots:
            for (Reg r = inst.a; r < inst.a + inst.b; ++r) {
              defined[r] = 0;
              regs[r] = Value();
            }
            break;
          case Op::kLoadGlobal:
            if (!gdef_[inst.a]) {
              return RuntimeError(
                  inst.line, "undefined variable '" +
                                 m_.names[m_.global_names[inst.a]] + "'");
            }
            regs[inst.dst] = globals_[inst.a];
            break;
          case Op::kStoreGlobal:
            globals_[inst.a] = regs[inst.b];
            gdef_[inst.a] = 1;
            break;
          case Op::kUnOp: {
            const Value& v = regs[inst.a];
            switch (static_cast<UnOp>(inst.sub)) {
              case UnOp::kNeg:
                if (!v.is_number()) {
                  return RuntimeError(
                      inst.line,
                      "cannot negate a " + std::string(v.TypeName()));
                }
                regs[inst.dst] = Value(-v.as_number());
                break;
              case UnOp::kNot:
                regs[inst.dst] = Value(!v.truthy());
                break;
              case UnOp::kLen:
                if (v.is_list()) {
                  regs[inst.dst] =
                      Value(static_cast<double>(v.as_list()->size()));
                } else if (v.is_string()) {
                  regs[inst.dst] =
                      Value(static_cast<double>(v.as_string().size()));
                } else {
                  return RuntimeError(inst.line,
                                      "cannot take length of a " +
                                          std::string(v.TypeName()));
                }
                break;
            }
            break;
          }
          case Op::kBinOp: {
            Result<Value> r = EvalBinOp(inst, regs);
            if (!r.ok()) return r;
            regs[inst.dst] = std::move(r).value();
            break;
          }
          case Op::kCheckList:
            if (!regs[inst.a].is_list()) {
              return RuntimeError(inst.line,
                                  "cannot index a " +
                                      std::string(regs[inst.a].TypeName()));
            }
            break;
          case Op::kIndexGet: {
            const Value& idx = regs[inst.b];
            if (!idx.is_number())
              return RuntimeError(inst.line, "list index must be a number");
            const List& list = *regs[inst.a].as_list();
            const auto i = static_cast<long long>(idx.as_number());
            if (i < 1 || i > static_cast<long long>(list.size())) {
              return RuntimeError(inst.line,
                                  "list index " + std::to_string(i) +
                                      " out of range (size " +
                                      std::to_string(list.size()) + ")");
            }
            regs[inst.dst] = list[static_cast<std::size_t>(i - 1)];
            break;
          }
          case Op::kIndexSet: {
            const Value& idx = regs[inst.b];
            if (!idx.is_number())
              return RuntimeError(inst.line, "list index must be a number");
            List& list = *regs[inst.a].as_list();
            const auto i = static_cast<long long>(idx.as_number());
            if (i < 1 || i > static_cast<long long>(list.size()) + 1) {
              return RuntimeError(inst.line,
                                  "list index " + std::to_string(i) +
                                      " out of range (size " +
                                      std::to_string(list.size()) + ")");
            }
            if (regs[inst.c].Reaches(&list))
              return RuntimeError(inst.line,
                                  "cannot store a list inside itself");
            if (i == static_cast<long long>(list.size()) + 1) {
              list.push_back(regs[inst.c]);  // Lua-style append
            } else {
              list[static_cast<std::size_t>(i - 1)] = regs[inst.c];
            }
            break;
          }
          case Op::kListNew: {
            List elems;
            elems.reserve(inst.b);
            for (std::uint32_t i = 0; i < inst.b; ++i)
              elems.push_back(regs[inst.a + i]);
            regs[inst.dst] = Value::MakeList(std::move(elems));
            break;
          }
          case Op::kCall: {
            Result<Value> r = DoCall(inst, regs);
            if (!r.ok()) return r;
            regs[inst.dst] = std::move(r).value();
            break;
          }
          case Op::kDefineFn: {
            const std::string& name = m_.names[inst.a];
            if (host_fns_[inst.a] != nullptr) {
              return Error{Errc::kScriptError,
                           "line " + std::to_string(inst.line) +
                               ": cannot shadow host function '" + name + "'"};
            }
            bindings_[inst.a] = static_cast<std::int32_t>(inst.b);
            break;
          }
          case Op::kForCheck: {
            const Value& start = regs[inst.a];
            const Value& stop = regs[inst.b];
            const Value& step = regs[inst.c];
            if ((inst.imm & 1u) != 0 && !step.is_number())
              return RuntimeError(inst.line, "for step must be a number");
            if (!start.is_number() || !stop.is_number())
              return RuntimeError(inst.line, "for bounds must be numbers");
            if (step.as_number() == 0.0)
              return RuntimeError(inst.line, "for step is zero");
            break;
          }
          case Op::kForLoop: {
            const double i = regs[inst.a].as_number();
            const double stop = regs[inst.b].as_number();
            const double step = regs[inst.c].as_number();
            block = (step > 0 ? i <= stop : i >= stop) ? inst.then_block
                                                       : inst.else_block;
            goto next_block;
          }
          case Op::kForStep:
            regs[inst.a] =
                Value(regs[inst.a].as_number() + regs[inst.c].as_number());
            break;
          case Op::kJump:
            block = inst.then_block;
            goto next_block;
          case Op::kBranch:
            block = regs[inst.a].truthy() ? inst.then_block : inst.else_block;
            goto next_block;
          case Op::kReturn:
            return inst.a == kNoReg ? Value() : regs[inst.a];
        }
      }
      // Blocks always end in a terminator; reaching here is a lowering bug.
      return Error{Errc::kInternal, "ir block fell through"};
    next_block:;
    }
  }

  Result<Value> EvalBinOp(const Inst& inst, std::vector<Value>& regs) {
    const Value& a = regs[inst.a];
    const Value& b = regs[inst.b];
    const int line = inst.line;
    auto arith = [&](auto f) -> Result<Value> {
      if (!a.is_number() || !b.is_number()) {
        return RuntimeError(line, std::string("arithmetic on ") + a.TypeName() +
                                      " and " + b.TypeName());
      }
      return Value(f(a.as_number(), b.as_number()));
    };
    auto compare = [&](auto f) -> Result<Value> {
      if (a.is_number() && b.is_number())
        return Value(f(a.as_number(), b.as_number()));
      if (a.is_string() && b.is_string())
        return Value(f(a.as_string().compare(b.as_string()), 0));
      return RuntimeError(line, std::string("cannot compare ") + a.TypeName() +
                                    " and " + b.TypeName());
    };
    switch (static_cast<BinOp>(inst.sub)) {
      case BinOp::kAdd: return arith([](double x, double y) { return x + y; });
      case BinOp::kSub: return arith([](double x, double y) { return x - y; });
      case BinOp::kMul: return arith([](double x, double y) { return x * y; });
      case BinOp::kDiv: return arith([](double x, double y) { return x / y; });
      case BinOp::kMod:
        return arith([](double x, double y) { return std::fmod(x, y); });
      case BinOp::kConcat:
        if (a.is_list() || b.is_list())
          return RuntimeError(line, "cannot concatenate lists");
        return Value(a.ToDisplayString() + b.ToDisplayString());
      case BinOp::kEq: return Value(a.Equals(b));
      case BinOp::kNe: return Value(!a.Equals(b));
      case BinOp::kLt: return compare([](auto x, auto y) { return x < y; });
      case BinOp::kLe: return compare([](auto x, auto y) { return x <= y; });
      case BinOp::kGt: return compare([](auto x, auto y) { return x > y; });
      case BinOp::kGe: return compare([](auto x, auto y) { return x >= y; });
      case BinOp::kAnd:
      case BinOp::kOr: break;  // lowered to branches, never reach the IR
    }
    return Error{Errc::kInternal, "unknown binary op"};
  }

  Result<Value> DoCall(const Inst& inst, std::vector<Value>& regs) {
    const std::span<const Value> args =
        inst.b == 0 ? std::span<const Value>{}
                    : std::span<const Value>{regs.data() + inst.a, inst.b};

    // print is executor-internal so output lands in ExecutionResult.
    if (inst.imm == print_name_) {
      std::string line;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) line += "\t";
        line += args[i].ToDisplayString();
      }
      result_.output += line;
      result_.output += '\n';
      return Value();
    }

    const std::string& name = m_.names[inst.imm];
    if (const std::int32_t target = bindings_[inst.imm]; target >= 0) {
      const Function& fn = m_.functions[static_cast<std::size_t>(target)];
      if (args.size() != fn.num_params) {
        return RuntimeError(inst.line,
                            "'" + name + "' expects " +
                                std::to_string(fn.num_params) + " args, got " +
                                std::to_string(args.size()));
      }
      if (++call_depth_ > opts_.max_call_depth) {
        --call_depth_;
        return RuntimeError(inst.line, "call depth limit exceeded");
      }
      Result<Value> r = RunFunction(static_cast<std::uint32_t>(target), args);
      --call_depth_;
      return r;
    }

    if (const HostFn* fn = host_fns_[inst.imm]) {
      Result<Value> r = (*fn)(args);
      if (!r.ok()) {
        Error err = r.error();
        err.message = "in " + name + "(): " + err.message;
        return err;
      }
      return r;
    }
    return Error{Errc::kPermissionDenied,
                 "line " + std::to_string(inst.line) + ": function '" + name +
                     "' is not in the allowed function whitelist",
                 inst.line};
  }

  const Module& m_;
  const HostRegistry& host_;
  const InterpreterOptions& opts_;
  std::vector<Value> globals_;
  std::vector<std::uint8_t> gdef_;
  std::vector<std::int32_t> bindings_;   // name idx -> bound function idx
  std::vector<const HostFn*> host_fns_;  // name idx -> host fn (whitelist)
  std::uint32_t print_name_ = 0xffffffffu;
  ExecutionResult result_;
  std::uint64_t steps_ = 0;
  int call_depth_ = 0;
};

}  // namespace

Result<ExecutionResult> Execute(const Module& m, const HostRegistry& host,
                                const InterpreterOptions& opts) {
  Executor exec(m, host, opts);
  return exec.Run();
}

}  // namespace sor::script::ir
