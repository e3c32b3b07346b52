// Abstract syntax tree for MiniPy.
//
// Every node carries a unique id (stable within a Module) that the Profiler
// and the Speculative Graph Generator use as the key for control-flow
// decisions, type observations, and assumption bookkeeping — the analogue
// of the paper's bytecode-level instrumentation points (§5).
#ifndef JANUS_FRONTEND_AST_H_
#define JANUS_FRONTEND_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace janus::minipy {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExprKind {
  kIntLit, kFloatLit, kStringLit, kBoolLit, kNoneLit,
  kName, kUnary, kBinary, kCompare, kBoolOp,
  kCall, kAttribute, kSubscript, kList, kTuple, kDict, kLambda,
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kFloorDiv, kMod, kPow,
};

enum class UnaryOp { kNeg, kNot };

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kIn };

// The op a tensor operand runs the operator as: the eager kernel and the
// generated graph node share the name.
inline const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "Add";
    case BinaryOp::kSub: return "Sub";
    case BinaryOp::kMul: return "Mul";
    case BinaryOp::kDiv: return "Div";
    case BinaryOp::kFloorDiv: return "FloorDiv";
    case BinaryOp::kMod: return "Mod";
    case BinaryOp::kPow: return "Pow";
  }
  return "?";
}

inline const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "Equal";
    case CompareOp::kNe: return "NotEqual";
    case CompareOp::kLt: return "Less";
    case CompareOp::kLe: return "LessEqual";
    case CompareOp::kGt: return "Greater";
    case CompareOp::kGe: return "GreaterEqual";
    case CompareOp::kIn: return "In";
  }
  return "?";
}

enum class BoolOpKind { kAnd, kOr };

struct Expr {
  ExprKind kind;
  int id = 0;
  int line = 0;

  // Literals
  std::int64_t int_value = 0;
  double float_value = 0.0;
  std::string str_value;  // string literal, name, or attribute name
  bool bool_value = false;

  // Operators
  BinaryOp binary_op{};
  UnaryOp unary_op{};
  CompareOp compare_op{};
  BoolOpKind bool_op{};

  // Children
  ExprPtr left;                 // unary operand / binary lhs / call callee /
                                // attribute+subscript base / lambda body
  ExprPtr right;                // binary rhs / subscript index
  std::vector<ExprPtr> elements;  // call args / list / tuple / dict keys
  std::vector<ExprPtr> values;    // dict values
  std::vector<std::string> params;  // lambda parameters
};

enum class StmtKind {
  kExpr, kAssign, kAugAssign, kIf, kWhile, kFor, kDef, kClass, kReturn,
  kPass, kBreak, kContinue, kGlobal, kRaise, kTry,
};

// How a statement or block ended, for the interpreter and the graph
// generator alike. The parser admits `return` only inside a function and
// `break`/`continue` only inside a loop, so a function body ends in kNormal
// or kReturn and a module in kNormal.
enum class Flow { kNormal, kReturn, kBreak, kContinue };

struct Stmt {
  StmtKind kind;
  int id = 0;
  int line = 0;

  ExprPtr target;  // assign/augassign target; for-loop variable
  ExprPtr value;   // assign value / expr stmt / return value / condition /
                   // for iterable / raise message
  BinaryOp aug_op{};

  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;     // if-else / try-except
  std::vector<StmtPtr> finally_body;  // try-finally

  // def / class
  std::string name;
  std::vector<std::string> params;
  std::vector<StmtPtr> methods;  // class body (defs)
  std::vector<std::string> globals;  // global statement names
  std::string except_name;           // bound exception variable (may be "")
};

// A parsed program: top-level statements plus an id -> node registry.
struct Module {
  std::vector<StmtPtr> body;
  int num_nodes = 0;  // total AST nodes (ids are 0..num_nodes-1)
};

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_AST_H_
