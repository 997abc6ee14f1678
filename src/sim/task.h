// Allocation-free callback type for the event engine.
//
// sim::Task is a move-only type-erased `void()` callable with 48 bytes
// of inline storage. Typical simulator event lambdas (a `this` pointer
// plus a few ids/cycles) fit inline, so scheduling an event performs no
// heap allocation — the property bench/micro_engine.cc and
// tests/engine_test.cc assert. Callables that are larger than the
// buffer, over-aligned, or not nothrow-move-constructible fall back to
// a heap box transparently.
//
// Compared to std::function: move-only (so move-only captures work),
// guaranteed inline-storage threshold, and a 3-entry static ops table
// instead of RTTI-based manager dispatch.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace glb::sim {

class Task {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineBytes = 48;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Task> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  Task(Task&& other) noexcept { MoveFrom(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  void operator()() {
    GLB_DCHECK(ops_ != nullptr) << "invoking empty Task";
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable lives in the inline buffer (introspection
  /// for tests; a false return means a heap box was needed).
  bool stored_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

  /// The stored callable if it is a `D` held inline, else null (the
  /// engine recognises its own batch events this way).
  template <typename D>
  D* target() noexcept {
    if (ops_ != &kInlineOps<D>) return nullptr;
    return std::launder(reinterpret_cast<D*>(storage_));
  }

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*std::launder(reinterpret_cast<D*>(self)))(); },
      [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* self) noexcept { std::launder(reinterpret_cast<D*>(self))->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kBoxedOps = {
      [](void* self) { (**std::launder(reinterpret_cast<D**>(self)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* self) noexcept { delete *std::launder(reinterpret_cast<D**>(self)); },
      /*inline_storage=*/false,
  };

  void MoveFrom(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace glb::sim
