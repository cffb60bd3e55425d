/// @file inplace_action.hpp — small-buffer-optimised move-only callable,
/// the zero-allocation replacement for std::function<void()> on the
/// kernel's event hot path.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sixg::netsim {

/// Move-only `void()` callable with inline storage.
///
/// Every scheduled event used to carry a std::function<void()>, which
/// heap-allocates for any capture larger than the implementation's tiny
/// internal buffer (and for any non-trivially-copyable capture at all in
/// common implementations, because std::function must stay copyable).
/// Kernel actions are fired exactly once and never copied, so the type
/// requirements collapse to "movable + invocable" — which lets captures
/// up to kInlineBytes live directly inside the event record in the
/// queue's flat arena. Larger captures fall back to a single heap cell.
///
/// Dispatch is one indirect call through a per-type operations table
/// (no virtual destructors, no RTTI). Moving and destroying call
/// through the table only for captures that need it: a trivially
/// copyable capture, or the heap fallback's pointer, moves as a copy of
/// the inline buffer, and a trivially destructible one is dropped
/// without a call. Every event the fleet engine schedules takes that
/// path (edgeai/fleet.cpp asserts it).
class InplaceAction {
 public:
  /// Captures up to this size (and max_align_t alignment) are stored
  /// inline. 48 bytes covers a `this` pointer plus five words — every
  /// timer/completion lambda the kernel schedules internally, and the
  /// common shapes in the edgeai/measurement layers.
  static constexpr std::size_t kInlineBytes = 48;

  constexpr InplaceAction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceAction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceAction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InplaceAction(InplaceAction&& other) noexcept { take(other); }
  InplaceAction& operator=(InplaceAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InplaceAction(const InplaceAction&) = delete;
  InplaceAction& operator=(const InplaceAction&) = delete;

  ~InplaceAction() { reset(); }

  /// Invoke the stored callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the stored callable (if any) and become empty.
  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  /// True when a callable of type D would avoid the heap fallback.
  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst from src, then destroy src. Null when a
    /// copy of the inline buffer relocates the stored bytes.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when the stored bytes need no destructor call.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }

  template <typename D>
  static void destroy_inline(void* s) noexcept {
    static_cast<D*>(s)->~D();
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      std::is_trivially_copyable_v<D> ? nullptr : &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      nullptr,  // the buffer holds only the cell's pointer
      [](void* s) noexcept { delete *static_cast<D**>(s); },
  };

  void take(InplaceAction& other) noexcept {
    ops_ = other.ops_;
    other.ops_ = nullptr;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sixg::netsim
