#include "common/stack.h"

#include <pthread.h>

#include <cstdint>

namespace janus {
namespace {

// The lowest usable address of the calling thread's stack, or 0 when it
// cannot be read. Stacks grow down on every supported target.
std::uintptr_t StackLimit() {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return 0;
  void* low = nullptr;
  std::size_t size = 0;
  const int status = pthread_attr_getstack(&attr, &low, &size);
  pthread_attr_destroy(&attr);
  return status == 0 ? reinterpret_cast<std::uintptr_t>(low) : 0;
}

}  // namespace

bool StackNearlyExhausted() {
  thread_local const std::uintptr_t limit = StackLimit();
  const auto frame =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  return limit != 0 && frame < limit + kStackReserveBytes;
}

}  // namespace janus
