// Recursive-descent parser for MiniPy.
#ifndef JANUS_FRONTEND_PARSER_H_
#define JANUS_FRONTEND_PARSER_H_

#include <string>

#include "frontend/ast.h"

namespace janus::minipy {

// The deepest nesting the parser accepts (CPython's parser uses 200 too).
// Every expression, block, elif, and operand of a prefix or power operator
// nests one level, so an expression statement is at depth 1 and each
// bracket inside it adds one. Deeper input is a syntax error, not a stack
// overflow.
inline constexpr int kMaxNestingDepth = 200;

// Parses a full program. Throws InvalidArgument with line information on
// syntax errors.
Module Parse(const std::string& source);

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_PARSER_H_
