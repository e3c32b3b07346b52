#include "frontend/parser.h"

#include <utility>

#include "common/error.h"
#include "frontend/lexer.h"

namespace janus::minipy {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Module ParseModule() {
    Module module;
    SkipNewlines();
    while (!Check(TokenKind::kEndOfFile)) {
      module.body.push_back(ParseStatement());
      SkipNewlines();
    }
    module.num_nodes = next_id_;
    return module;
  }

 private:
  // Holds one level of nesting (an expression, a block, an elif, or the
  // operand of a prefix or power operator) for its lifetime. Past
  // kMaxNestingDepth it raises, so no input recurses the parser — or the
  // walkers of the AST it returns — off the stack.
  struct NestingGuard {
    explicit NestingGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxNestingDepth) {
        throw InvalidArgument("line " + std::to_string(parser.Peek().line) +
                              ": nesting deeper than " +
                              std::to_string(kMaxNestingDepth) + " levels");
      }
    }
    ~NestingGuard() { --parser.depth_; }
    Parser& parser;
  };

  const Token& Peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& Expect(TokenKind kind, const char* context) {
    if (!Check(kind)) {
      throw InvalidArgument("line " + std::to_string(Peek().line) +
                            ": expected " + TokenKindName(kind) + " in " +
                            context + ", got " + TokenKindName(Peek().kind) +
                            (Peek().text.empty() ? "" : " '" + Peek().text + "'"));
    }
    return tokens_[pos_++];
  }
  void SkipNewlines() {
    while (Match(TokenKind::kNewline)) {
    }
  }

  ExprPtr NewExpr(ExprKind kind, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->id = next_id_++;
    e->line = line;
    return e;
  }
  StmtPtr NewStmt(StmtKind kind, int line) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->id = next_id_++;
    s->line = line;
    return s;
  }

  std::vector<StmtPtr> ParseBlock() {
    const NestingGuard guard(*this);
    Expect(TokenKind::kColon, "block header");
    Expect(TokenKind::kNewline, "block header");
    SkipNewlines();
    Expect(TokenKind::kIndent, "block");
    std::vector<StmtPtr> body;
    SkipNewlines();
    while (!Check(TokenKind::kDedent) && !Check(TokenKind::kEndOfFile)) {
      body.push_back(ParseStatement());
      SkipNewlines();
    }
    Expect(TokenKind::kDedent, "block");
    return body;
  }

  StmtPtr ParseStatement() {
    const int line = Peek().line;
    switch (Peek().kind) {
      case TokenKind::kDef:
        return ParseDef();
      case TokenKind::kClass:
        return ParseClass();
      case TokenKind::kIf:
        return ParseIf();
      case TokenKind::kWhile: {
        ++pos_;
        auto stmt = NewStmt(StmtKind::kWhile, line);
        stmt->value = ParseExpression();
        stmt->body = ParseLoopBody();
        return stmt;
      }
      case TokenKind::kFor: {
        ++pos_;
        auto stmt = NewStmt(StmtKind::kFor, line);
        auto var = NewExpr(ExprKind::kName, line);
        var->str_value = Expect(TokenKind::kName, "for").text;
        stmt->target = std::move(var);
        Expect(TokenKind::kIn, "for");
        stmt->value = ParseExpression();
        stmt->body = ParseLoopBody();
        return stmt;
      }
      case TokenKind::kReturn: {
        if (!in_function_) Reject(line, "'return' outside function");
        ++pos_;
        auto stmt = NewStmt(StmtKind::kReturn, line);
        if (!Check(TokenKind::kNewline)) stmt->value = ParseExpressionList();
        Expect(TokenKind::kNewline, "return");
        return stmt;
      }
      case TokenKind::kPass:
        ++pos_;
        Expect(TokenKind::kNewline, "pass");
        return NewStmt(StmtKind::kPass, line);
      case TokenKind::kBreak:
        if (loop_depth_ == 0) Reject(line, "'break' outside loop");
        ++pos_;
        Expect(TokenKind::kNewline, "break");
        return NewStmt(StmtKind::kBreak, line);
      case TokenKind::kContinue:
        if (loop_depth_ == 0) Reject(line, "'continue' outside loop");
        ++pos_;
        Expect(TokenKind::kNewline, "continue");
        return NewStmt(StmtKind::kContinue, line);
      case TokenKind::kGlobal: {
        ++pos_;
        auto stmt = NewStmt(StmtKind::kGlobal, line);
        stmt->globals.push_back(Expect(TokenKind::kName, "global").text);
        while (Match(TokenKind::kComma)) {
          stmt->globals.push_back(Expect(TokenKind::kName, "global").text);
        }
        Expect(TokenKind::kNewline, "global");
        return stmt;
      }
      case TokenKind::kRaise: {
        ++pos_;
        auto stmt = NewStmt(StmtKind::kRaise, line);
        if (!Check(TokenKind::kNewline)) stmt->value = ParseExpression();
        Expect(TokenKind::kNewline, "raise");
        return stmt;
      }
      case TokenKind::kTry:
        return ParseTry();
      case TokenKind::kYield:
      case TokenKind::kImport:
      case TokenKind::kWith:
        throw InvalidArgument(
            "line " + std::to_string(line) + ": '" + Peek().text +
            "' is recognised but not supported by this MiniPy build");
      default:
        return ParseExprOrAssign();
    }
  }

  StmtPtr ParseDef() {
    const int line = Peek().line;
    Expect(TokenKind::kDef, "def");
    auto stmt = NewStmt(StmtKind::kDef, line);
    stmt->name = Expect(TokenKind::kName, "def").text;
    Expect(TokenKind::kLParen, "def");
    if (!Check(TokenKind::kRParen)) {
      stmt->params.push_back(Expect(TokenKind::kName, "parameters").text);
      while (Match(TokenKind::kComma)) {
        stmt->params.push_back(Expect(TokenKind::kName, "parameters").text);
      }
    }
    Expect(TokenKind::kRParen, "def");
    // A body is a new context: `return` is allowed in it, and `break` and
    // `continue` only inside its own loops.
    const bool outer_in_function = std::exchange(in_function_, true);
    const int outer_loop_depth = std::exchange(loop_depth_, 0);
    stmt->body = ParseBlock();
    in_function_ = outer_in_function;
    loop_depth_ = outer_loop_depth;
    return stmt;
  }

  std::vector<StmtPtr> ParseLoopBody() {
    ++loop_depth_;
    std::vector<StmtPtr> body = ParseBlock();
    --loop_depth_;
    return body;
  }

  [[noreturn]] static void Reject(int line, const std::string& message) {
    throw InvalidArgument("line " + std::to_string(line) + ": " + message);
  }

  StmtPtr ParseClass() {
    const int line = Peek().line;
    Expect(TokenKind::kClass, "class");
    auto stmt = NewStmt(StmtKind::kClass, line);
    stmt->name = Expect(TokenKind::kName, "class").text;
    if (Match(TokenKind::kLParen)) {  // base classes ignored (object only)
      if (Check(TokenKind::kName)) ++pos_;
      Expect(TokenKind::kRParen, "class");
    }
    Expect(TokenKind::kColon, "class");
    Expect(TokenKind::kNewline, "class");
    SkipNewlines();
    Expect(TokenKind::kIndent, "class body");
    SkipNewlines();
    while (!Check(TokenKind::kDedent) && !Check(TokenKind::kEndOfFile)) {
      if (Check(TokenKind::kPass)) {
        ++pos_;
        Expect(TokenKind::kNewline, "pass");
      } else {
        stmt->methods.push_back(ParseDef());
      }
      SkipNewlines();
    }
    Expect(TokenKind::kDedent, "class body");
    return stmt;
  }

  StmtPtr ParseIf() {
    const int line = Peek().line;
    ++pos_;  // if / elif
    auto stmt = NewStmt(StmtKind::kIf, line);
    stmt->value = ParseExpression();
    stmt->body = ParseBlock();
    SkipNewlines();
    if (Check(TokenKind::kElif)) {
      const NestingGuard guard(*this);
      stmt->else_body.push_back(ParseIf());
    } else if (Match(TokenKind::kElse)) {
      stmt->else_body = ParseBlock();
    }
    return stmt;
  }

  StmtPtr ParseTry() {
    const int line = Peek().line;
    Expect(TokenKind::kTry, "try");
    auto stmt = NewStmt(StmtKind::kTry, line);
    stmt->body = ParseBlock();
    SkipNewlines();
    if (Match(TokenKind::kExcept)) {
      if (Check(TokenKind::kName)) {
        // `except Name` or `except Name as var`; the class name is ignored
        // (MiniPy has a single exception type).
        ++pos_;
        if (Match(TokenKind::kAs)) {
          stmt->except_name = Expect(TokenKind::kName, "except").text;
        }
      }
      stmt->else_body = ParseBlock();
      SkipNewlines();
    }
    if (Match(TokenKind::kFinally)) {
      stmt->finally_body = ParseBlock();
    }
    if (stmt->else_body.empty() && stmt->finally_body.empty()) {
      throw InvalidArgument("line " + std::to_string(line) +
                            ": try without except/finally");
    }
    return stmt;
  }

  StmtPtr ParseExprOrAssign() {
    const int line = Peek().line;
    ExprPtr first = ParseExpressionList();
    if (Match(TokenKind::kAssign)) {
      auto stmt = NewStmt(StmtKind::kAssign, line);
      stmt->target = std::move(first);
      stmt->value = ParseExpressionList();
      Expect(TokenKind::kNewline, "assignment");
      return stmt;
    }
    for (const auto& [token, op] :
         {std::pair{TokenKind::kPlusAssign, BinaryOp::kAdd},
          std::pair{TokenKind::kMinusAssign, BinaryOp::kSub},
          std::pair{TokenKind::kStarAssign, BinaryOp::kMul},
          std::pair{TokenKind::kSlashAssign, BinaryOp::kDiv}}) {
      if (Match(token)) {
        auto stmt = NewStmt(StmtKind::kAugAssign, line);
        stmt->target = std::move(first);
        stmt->aug_op = op;
        stmt->value = ParseExpressionList();
        Expect(TokenKind::kNewline, "augmented assignment");
        return stmt;
      }
    }
    auto stmt = NewStmt(StmtKind::kExpr, line);
    stmt->value = std::move(first);
    Expect(TokenKind::kNewline, "expression statement");
    return stmt;
  }

  // expression-list: expr (',' expr)*  — a bare tuple when >1 element.
  ExprPtr ParseExpressionList() {
    ExprPtr first = ParseExpression();
    if (!Check(TokenKind::kComma)) return first;
    auto tuple = NewExpr(ExprKind::kTuple, first->line);
    tuple->elements.push_back(std::move(first));
    while (Match(TokenKind::kComma)) {
      if (Check(TokenKind::kNewline) || Check(TokenKind::kRParen)) break;
      tuple->elements.push_back(ParseExpression());
    }
    return tuple;
  }

  ExprPtr ParseExpression() {
    const NestingGuard guard(*this);
    return ParseOr();
  }

  ExprPtr ParseOr() {
    ExprPtr left = ParseAnd();
    while (Check(TokenKind::kOr)) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kBoolOp, line);
      e->bool_op = BoolOpKind::kOr;
      e->left = std::move(left);
      e->right = ParseAnd();
      left = std::move(e);
    }
    return left;
  }

  ExprPtr ParseAnd() {
    ExprPtr left = ParseNot();
    while (Check(TokenKind::kAnd)) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kBoolOp, line);
      e->bool_op = BoolOpKind::kAnd;
      e->left = std::move(left);
      e->right = ParseNot();
      left = std::move(e);
    }
    return left;
  }

  ExprPtr ParseNot() {
    if (Check(TokenKind::kNot)) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kUnary, line);
      e->unary_op = UnaryOp::kNot;
      const NestingGuard guard(*this);
      e->left = ParseNot();
      return e;
    }
    return ParseComparison();
  }

  ExprPtr ParseComparison() {
    ExprPtr left = ParseArith();
    const auto as_compare = [&](CompareOp op) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kCompare, line);
      e->compare_op = op;
      e->left = std::move(left);
      e->right = ParseArith();
      left = std::move(e);
    };
    for (;;) {
      switch (Peek().kind) {
        case TokenKind::kEq: as_compare(CompareOp::kEq); break;
        case TokenKind::kNe: as_compare(CompareOp::kNe); break;
        case TokenKind::kLt: as_compare(CompareOp::kLt); break;
        case TokenKind::kLe: as_compare(CompareOp::kLe); break;
        case TokenKind::kGt: as_compare(CompareOp::kGt); break;
        case TokenKind::kGe: as_compare(CompareOp::kGe); break;
        case TokenKind::kIn: as_compare(CompareOp::kIn); break;
        default: return left;
      }
    }
  }

  ExprPtr ParseArith() {
    ExprPtr left = ParseTerm();
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Check(TokenKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kBinary, line);
      e->binary_op = op;
      e->left = std::move(left);
      e->right = ParseTerm();
      left = std::move(e);
    }
  }

  ExprPtr ParseTerm() {
    ExprPtr left = ParseFactor();
    for (;;) {
      BinaryOp op;
      if (Check(TokenKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (Check(TokenKind::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Check(TokenKind::kDoubleSlash)) {
        op = BinaryOp::kFloorDiv;
      } else if (Check(TokenKind::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kBinary, line);
      e->binary_op = op;
      e->left = std::move(left);
      e->right = ParseFactor();
      left = std::move(e);
    }
  }

  ExprPtr ParseFactor() {
    if (Check(TokenKind::kMinus)) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kUnary, line);
      e->unary_op = UnaryOp::kNeg;
      const NestingGuard guard(*this);
      e->left = ParseFactor();
      return e;
    }
    if (Check(TokenKind::kPlus)) {
      ++pos_;
      const NestingGuard guard(*this);
      return ParseFactor();
    }
    return ParsePower();
  }

  ExprPtr ParsePower() {
    ExprPtr base = ParsePostfix();
    if (Check(TokenKind::kDoubleStar)) {
      const int line = Peek().line;
      ++pos_;
      auto e = NewExpr(ExprKind::kBinary, line);
      e->binary_op = BinaryOp::kPow;
      e->left = std::move(base);
      const NestingGuard guard(*this);
      e->right = ParseFactor();  // right-associative
      return e;
    }
    return base;
  }

  ExprPtr ParsePostfix() {
    ExprPtr expr = ParseAtom();
    for (;;) {
      if (Check(TokenKind::kLParen)) {
        const int line = Peek().line;
        ++pos_;
        auto call = NewExpr(ExprKind::kCall, line);
        call->left = std::move(expr);
        if (!Check(TokenKind::kRParen)) {
          call->elements.push_back(ParseExpression());
          while (Match(TokenKind::kComma)) {
            call->elements.push_back(ParseExpression());
          }
        }
        Expect(TokenKind::kRParen, "call");
        expr = std::move(call);
      } else if (Check(TokenKind::kDot)) {
        const int line = Peek().line;
        ++pos_;
        auto attr = NewExpr(ExprKind::kAttribute, line);
        attr->left = std::move(expr);
        attr->str_value = Expect(TokenKind::kName, "attribute").text;
        expr = std::move(attr);
      } else if (Check(TokenKind::kLBracket)) {
        const int line = Peek().line;
        ++pos_;
        auto sub = NewExpr(ExprKind::kSubscript, line);
        sub->left = std::move(expr);
        sub->right = ParseExpression();
        Expect(TokenKind::kRBracket, "subscript");
        expr = std::move(sub);
      } else {
        return expr;
      }
    }
  }

  ExprPtr ParseAtom() {
    const Token& token = Peek();
    const int line = token.line;
    switch (token.kind) {
      case TokenKind::kInt: {
        ++pos_;
        auto e = NewExpr(ExprKind::kIntLit, line);
        e->int_value = token.int_value;
        return e;
      }
      case TokenKind::kFloat: {
        ++pos_;
        auto e = NewExpr(ExprKind::kFloatLit, line);
        e->float_value = token.float_value;
        return e;
      }
      case TokenKind::kString: {
        ++pos_;
        auto e = NewExpr(ExprKind::kStringLit, line);
        e->str_value = token.text;
        return e;
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        ++pos_;
        auto e = NewExpr(ExprKind::kBoolLit, line);
        e->bool_value = token.kind == TokenKind::kTrue;
        return e;
      }
      case TokenKind::kNone:
        ++pos_;
        return NewExpr(ExprKind::kNoneLit, line);
      case TokenKind::kName: {
        ++pos_;
        auto e = NewExpr(ExprKind::kName, line);
        e->str_value = token.text;
        return e;
      }
      case TokenKind::kLParen: {
        ++pos_;
        if (Check(TokenKind::kRParen)) {  // empty tuple
          ++pos_;
          return NewExpr(ExprKind::kTuple, line);
        }
        ExprPtr inner = ParseExpression();
        if (Check(TokenKind::kComma)) {
          auto tuple = NewExpr(ExprKind::kTuple, line);
          tuple->elements.push_back(std::move(inner));
          while (Match(TokenKind::kComma)) {
            if (Check(TokenKind::kRParen)) break;
            tuple->elements.push_back(ParseExpression());
          }
          Expect(TokenKind::kRParen, "tuple");
          return tuple;
        }
        Expect(TokenKind::kRParen, "parenthesised expression");
        return inner;
      }
      case TokenKind::kLBracket: {
        ++pos_;
        auto list = NewExpr(ExprKind::kList, line);
        if (!Check(TokenKind::kRBracket)) {
          list->elements.push_back(ParseExpression());
          while (Match(TokenKind::kComma)) {
            if (Check(TokenKind::kRBracket)) break;
            list->elements.push_back(ParseExpression());
          }
        }
        Expect(TokenKind::kRBracket, "list");
        return list;
      }
      case TokenKind::kLBrace: {
        ++pos_;
        auto dict = NewExpr(ExprKind::kDict, line);
        if (!Check(TokenKind::kRBrace)) {
          do {
            if (Check(TokenKind::kRBrace)) break;
            dict->elements.push_back(ParseExpression());
            Expect(TokenKind::kColon, "dict");
            dict->values.push_back(ParseExpression());
          } while (Match(TokenKind::kComma));
        }
        Expect(TokenKind::kRBrace, "dict");
        return dict;
      }
      case TokenKind::kLambda: {
        ++pos_;
        auto lambda = NewExpr(ExprKind::kLambda, line);
        if (!Check(TokenKind::kColon)) {
          lambda->params.push_back(Expect(TokenKind::kName, "lambda").text);
          while (Match(TokenKind::kComma)) {
            lambda->params.push_back(Expect(TokenKind::kName, "lambda").text);
          }
        }
        Expect(TokenKind::kColon, "lambda");
        lambda->left = ParseExpression();
        return lambda;
      }
      default:
        throw InvalidArgument("line " + std::to_string(line) +
                              ": unexpected " + TokenKindName(token.kind) +
                              (token.text.empty() ? "" : " '" + token.text + "'"));
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int next_id_ = 0;
  int depth_ = 0;  // current nesting, see NestingGuard
  bool in_function_ = false;  // parsing a def body
  int loop_depth_ = 0;        // loops enclosing the statement, within its def
};

}  // namespace

Module Parse(const std::string& source) {
  return Parser(Tokenize(source)).ParseModule();
}

}  // namespace janus::minipy
