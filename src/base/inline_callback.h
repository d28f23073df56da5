// InlineFunction: a move-only, type-erased callable with fixed inline
// storage and NO heap fallback. InlineCallback is its `void()` alias.
//
// The discrete-event engine dispatches hundreds of millions of callbacks per
// run; wrapping each capture in a std::function means a heap allocation for
// anything larger than the (small) libstdc++ SBO buffer, plus a pointer chase
// on every invoke. InlineFunction stores the callable directly in the owner's
// slot instead. Oversized captures are a *compile error* — the static_assert
// below is the proof that no schedule site in the tree allocates. If you hit
// it, either shrink the capture (capture a pointer to long-lived state rather
// than copies) or, as a last resort, bump kCapacity.
//
// Relocation: a callable that is trivially copyable and trivially
// destructible (every `[this, cpu]`-style lambda over pointers and integers)
// is byte-relocatable. Moving it copies the storage bytes, and dropping it
// does nothing: it has no manager, so neither path makes an indirect call.
// Only callables that own something (a shared_ptr, a std::function) pay for
// a manager call on move and on destruction.
#ifndef GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_
#define GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gs {

template <typename Signature>
class InlineFunction;  // undefined primary; only R(Args...) is provided

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Sized to cover the largest capture in the tree (the fuzz-test chaos
  // lambda, 10 captured words) with a little headroom.
  static constexpr size_t kCapacity = 96;

  // True iff a callable of type F is relocated by byte copy and destroyed
  // without a call (see the file comment).
  template <typename F>
  static constexpr bool kByteRelocatable =
      std::is_trivially_copyable_v<std::decay_t<F>> &&
      std::is_trivially_destructible_v<std::decay_t<F>>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Implicit so every existing `loop->ScheduleAfter(d, [..] {...})` call site
  // keeps working unchanged.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture too large for InlineFunction inline storage: "
                  "capture pointers to long-lived state instead of copies, "
                  "or bump InlineFunction::kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned capture not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callable must be nothrow-move-constructible (slots move "
                  "when the owning slab grows)");
    new (storage_) Fn(std::forward<F>(fn));
    invoke_ = &InvokeImpl<Fn>;
    if constexpr (!kByteRelocatable<Fn>) {
      manage_ = &ManageImpl<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  // True iff this holds a byte-relocatable callable (kByteRelocatable).
  bool byte_relocatable() const {
    return invoke_ != nullptr && manage_ == nullptr;
  }

  // Const like std::function: the held callable is logically part of the
  // function value, and call sites pass `const InlineFunction&` through
  // plumbing that never reassigns it.
  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  // Destroys the held callable (releasing its captures) and becomes empty.
  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMoveAndDestroy };
  using InvokeFn = R (*)(void*, Args&&...);
  using ManageFn = void (*)(Op, void* src, void* dst);

  template <typename Fn>
  static R InvokeImpl(void* storage, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(storage)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void ManageImpl(Op op, void* src, void* dst) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(src));
    if (op == Op::kMoveAndDestroy) {
      new (dst) Fn(std::move(*fn));
    }
    fn->~Fn();
  }

  void MoveFrom(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveAndDestroy, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) mutable unsigned char storage_[kCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

using InlineCallback = InlineFunction<void()>;

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_
