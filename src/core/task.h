// Coroutine task type for simulated programs.
//
// Workloads and the software-synchronization runtime are written as
// C++20 coroutines returning Task. A Task is lazy (nothing runs until it
// is awaited or started by Core::Run) and supports nesting with
// symmetric transfer: `co_await SomeSubroutine(core, ...)` suspends the
// caller and resumes it when the subroutine finishes, all inside the
// discrete-event simulation — simulated time passes only at the
// architectural awaitables (Load/Store/Amo/Compute/GlBarrier).
//
// Frames are recycled: a finished coroutine's frame goes to a
// per-thread free list of its size class and the next frame of that
// class reuses it, so a workload that calls a subroutine per barrier
// (sync::Barrier::Wait) allocates only until the lists have warmed up.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <exception>
#include <utility>

namespace glb::core {

/// Coroutine-frame allocation (task.cc). Frames up to 1 KiB are cached
/// per thread by 64-byte size class; each block is allocated on its
/// own, so one freed on another thread is cached there. Sanitizer
/// builds bypass the cache so ASan still sees every frame.
void* FrameAlloc(std::size_t size);
void FrameFree(void* frame, std::size_t size) noexcept;
/// Frames this thread has taken from operator new so far: cache misses,
/// or every frame where the cache is bypassed (allocation-count tests).
std::uint64_t FrameAllocations();
/// False in the sanitizer builds that bypass the cache.
bool FrameCacheEnabled();

class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    /// Coroutine to resume when this task finishes (nested call), or
    /// null for a top-level task.
    std::coroutine_handle<> continuation;
    /// Set for top-level tasks: flipped when the coroutine runs to
    /// completion, so the owner can observe termination.
    bool* done_flag = nullptr;
    /// Optional top-level completion hook, run at final suspension.
    std::function<void()> on_complete;

    static void* operator new(std::size_t size) { return FrameAlloc(size); }
    static void operator delete(void* frame, std::size_t size) noexcept {
      FrameFree(frame, size);
    }

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto& p = h.promise();
        if (p.done_flag != nullptr) *p.done_flag = true;
        if (p.on_complete) p.on_complete();
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    // A simulated program must not throw: any exception is a bug in the
    // workload or the simulator itself.
    void unhandled_exception() { std::terminate(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  /// Nested await: starts the subtask and resumes the awaiter when it
  /// completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
        handle.promise().continuation = caller;
        return handle;  // symmetric transfer into the subtask
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

  Handle handle() const { return handle_; }
  bool valid() const { return static_cast<bool>(handle_); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

}  // namespace glb::core
