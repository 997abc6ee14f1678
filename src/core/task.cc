#include "core/task.h"

#include <array>
#include <cstdint>
#include <new>

namespace glb::core {

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kCache = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kCache = false;
#else
constexpr bool kCache = true;
#endif
#else
constexpr bool kCache = true;
#endif

constexpr std::size_t kGrain = 64;
constexpr std::size_t kClasses = 16;  // frames up to 1 KiB

struct FreeFrame {
  FreeFrame* next;
};

// Constant-initialised and trivially destructible, so the hot path
// reads them without a thread-local guard; Drain frees the cached
// blocks when the thread exits, and later frees bypass the cache.
thread_local std::array<FreeFrame*, kClasses> t_free{};
thread_local bool t_drained = false;
thread_local std::uint64_t t_allocations = 0;

struct Drain {
  ~Drain() {
    t_drained = true;
    for (FreeFrame*& head : t_free) {
      while (head != nullptr) {
        FreeFrame* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }
};
thread_local Drain t_drain;

std::size_t ClassOf(std::size_t size) { return size == 0 ? 0 : (size - 1) / kGrain; }

}  // namespace

void* FrameAlloc(std::size_t size) {
  const std::size_t c = ClassOf(size);
  if (kCache && c < kClasses) {
    if (FreeFrame* f = t_free[c]) {
      t_free[c] = f->next;
      return f;
    }
    static_cast<void>(&t_drain);  // registers the exit-time drain
    size = (c + 1) * kGrain;
  }
  ++t_allocations;
  return ::operator new(size);
}

std::uint64_t FrameAllocations() { return t_allocations; }

bool FrameCacheEnabled() { return kCache; }

void FrameFree(void* frame, std::size_t size) noexcept {
  const std::size_t c = ClassOf(size);
  if (!kCache || c >= kClasses || t_drained) {
    ::operator delete(frame);
    return;
  }
  auto* f = static_cast<FreeFrame*>(frame);
  f->next = t_free[c];
  t_free[c] = f;
}

}  // namespace glb::core
