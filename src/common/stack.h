// Stack headroom for recursion limits.
//
// MiniPy calls (Interpreter::CallFunction), nested graph functions
// (Executor::RunFunction: Invoke, While, WhileGrad) and the graph
// generator's expressions recurse on the C++ stack. Each checks the
// headroom left below its frame before recursing and raises an error
// instead of overflowing. The limit follows the stack actually used, not
// a call count: a sanitizer build spends about 9 times the stack of a
// release build per MiniPy call, so no fixed count fits both.
#ifndef JANUS_COMMON_STACK_H_
#define JANUS_COMMON_STACK_H_

#include <cstddef>

namespace janus {

// What must stay free below a checked frame. The deepest stretch between
// two checks is a function body's block and expression nesting (at most
// 200 levels, the parser's limit) plus one plan run: measured at 180-190
// levels, up to 86 KiB in a release build and 0.94 MiB under ASAN+UBSAN
// (DESIGN.md §5).
inline constexpr std::size_t kStackReserveBytes = 2 << 20;

// True when less than kStackReserveBytes of the calling thread's stack
// remain below the caller's frame. The thread's stack bounds are read once
// per thread; a thread whose bounds cannot be read is never reported low.
bool StackNearlyExhausted();

}  // namespace janus

#endif  // JANUS_COMMON_STACK_H_
