// SenseScript abstract syntax tree.
//
// Plain struct hierarchy with unique_ptr ownership. The static analyzer
// walks it; execution goes through the IR it lowers to (script/ir/).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace sor::script {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp { kNeg, kNot, kLen };

struct Expr {
  enum class Kind {
    kNumber, kString, kBool, kNil, kName, kBinary, kUnary, kCall, kIndex,
    kListLiteral,
  };
  Kind kind;
  int line = 1;

  // kNumber / kString / kBool
  double number = 0.0;
  std::string text;  // string literal payload or variable/function name
  bool boolean = false;

  // kBinary / kUnary
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;
  ExprPtr lhs;  // also: callee-name holder unused; operand for unary
  ExprPtr rhs;

  // kCall: text = function name, args in `args`
  std::vector<ExprPtr> args;

  // kIndex: lhs = list expression, rhs = index expression (1-based, Lua-like)

  // kListLiteral: elements in `args`
};

struct Stmt {
  enum class Kind {
    kLocal,       // local name = expr
    kAssign,      // name = expr  |  list[i] = expr
    kExpr,        // expression statement (function call)
    kIf,          // if/elseif/else
    kWhile,       // while cond do body end
    kNumericFor,  // for name = start, stop[, step] do body end
    kFunction,    // function name(params) body end
    kReturn,      // return [expr]
    kBreak,       // break
  };
  Kind kind;
  int line = 1;

  std::string name;               // target variable / function name
  ExprPtr target_index;           // for list-element assignment: list[i]
  ExprPtr expr;                   // value / condition / call / return value
  std::vector<StmtPtr> body;      // while/for/function body, if-then branch
  std::vector<StmtPtr> else_body; // if: else branch (elseif chains nest here)

  // numeric for:
  ExprPtr for_start;
  ExprPtr for_stop;
  ExprPtr for_step;  // may be null (defaults to 1)

  // function definition:
  std::vector<std::string> params;
};

// A parsed script: a statement block (plus any function definitions hoisted
// into the interpreter's global scope at execution time).
struct Program {
  std::vector<StmtPtr> statements;
};

}  // namespace sor::script
