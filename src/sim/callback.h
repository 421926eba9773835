// Move-only `void()` callable with inline storage: the event loop's callback.
//
// Every simulated event carries one callback, so its storage is on the
// engine's hottest path. std::function keeps only 16 bytes inline and
// heap-allocates anything larger — which in this simulator is the common
// case: a link's arrival lambda captures (this, port, Frame) = 48 bytes.
// InlineCallback keeps up to 48 bytes of captures in the object itself (the
// whole object is one 64-byte cache line) and falls back to one heap node
// only for larger captures. It is move-only, so a capture need not be
// copyable and a move never allocates.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sttcp::sim {

class InlineCallback {
 public:
  /// Captures up to this many bytes live inline; larger ones on the heap.
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, InlineCallback> &&
                                     std::is_invocable_r_v<void, Fn&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (!std::is_trivially_copyable_v<Fn>) {
        manage_ = &manage_inline<Fn>;
      } else if constexpr (sizeof(Fn) < kInlineBytes) {
        // A trivial capture moves as a whole-buffer memcpy: define the tail.
        std::memset(buf_ + sizeof(Fn), 0, kInlineBytes - sizeof(Fn));
      }
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      manage_ = &manage_heap<Fn>;
    }
  }

  InlineCallback(InlineCallback&& o) noexcept { take(o); }
  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(buf_); }

  /// True when an `F` would be stored without a heap allocation.
  template <class F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  enum class Op { kMove, kDestroy };
  using Invoke = void (*)(void*);
  // nullptr manage_ means "trivially copyable inline capture": a move is a
  // memcpy of the buffer and destruction is a no-op.
  using Manage = void (*)(Op, void* dst, void* src);

  template <class Fn>
  static void manage_inline(Op op, void* dst, void* src) {
    if (op == Op::kMove) ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <class Fn>
  static void manage_heap(Op op, void* dst, void* src) {
    if (op == Op::kMove) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    } else {
      delete *static_cast<Fn**>(src);
    }
  }

  void take(InlineCallback& o) noexcept {
    if (o.manage_ != nullptr) {
      o.manage_(Op::kMove, buf_, o.buf_);
    } else if (o.invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, nullptr, buf_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace sttcp::sim
