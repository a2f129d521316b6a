#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mobidist::sim {

/// Move-only type-erased `void()` callable with a fixed inline buffer of
/// `Capacity` bytes.
///
/// The scheduler's replacement for `std::function<void()>`: callables
/// whose captures fit in kInlineCapacity bytes are stored in place, so
/// scheduling them performs no heap allocation. Larger callables fall
/// back to a single heap allocation, trading speed for correctness
/// rather than failing to compile.
///
/// Unlike `std::function` it is move-only, so captures may own
/// non-copyable resources and moving one never allocates. The buffer
/// comes first and the ops pointer right after it, so the object is
/// `Capacity + 8` bytes rounded up to 16: 272 for SmallFn, and 48 for the
/// scheduler's small slots (kSmallSlotCapacity).
template <std::size_t Capacity>
class BasicSmallFn {
 public:
  /// Inline storage size.
  static constexpr std::size_t kInlineCapacity = Capacity;
  static_assert(Capacity >= sizeof(void*) && Capacity % alignof(void*) == 0,
                "the buffer holds the heap pointer and is followed by the ops pointer");

  /// True when a callable of type `Fn` lives inline: it fits the buffer
  /// (size and alignment) and its move constructor cannot throw.
  /// sim::Scheduler picks a slot's size class with this test.
  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  BasicSmallFn() noexcept = default;

  /// Wrap any `void()` callable: inline when fits_inline(), otherwise on
  /// the heap.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  BasicSmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct(std::forward<F>(fn));
  }

  BasicSmallFn(BasicSmallFn&& other) noexcept { steal(other); }

  BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;

  ~BasicSmallFn() { reset(); }

  /// Destroy the held callable (if any), then build `fn` in place. If
  /// building it throws, this is left empty.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void emplace(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
  }

  /// Destroy the held callable (if any); this becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

  /// True when a callable is held (empty ones must not be invoked).
  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the held callable. Precondition: non-empty.
  void operator()() { ops_->invoke(this); }

 private:
  struct Ops {
    void (*invoke)(BasicSmallFn* self);
    void (*relocate)(BasicSmallFn* dst, BasicSmallFn* src) noexcept;  // move into dst, leave src empty
    void (*destroy)(BasicSmallFn* self) noexcept;
  };

  /// Precondition: empty. `ops_` is set only once the callable exists.
  template <typename F>
  void construct(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  template <typename Fn>
  [[nodiscard]] Fn* inline_target() noexcept {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }
  template <typename Fn>
  [[nodiscard]] Fn* heap_target() noexcept {
    return *std::launder(reinterpret_cast<Fn**>(buf_));
  }

  template <typename Fn>
  static void inline_invoke(BasicSmallFn* self) {
    (*self->inline_target<Fn>())();
  }
  template <typename Fn>
  static void inline_relocate(BasicSmallFn* dst, BasicSmallFn* src) noexcept {
    ::new (static_cast<void*>(dst->buf_)) Fn(std::move(*src->inline_target<Fn>()));
    src->inline_target<Fn>()->~Fn();
  }
  template <typename Fn>
  static void inline_destroy(BasicSmallFn* self) noexcept {
    self->inline_target<Fn>()->~Fn();
  }
  template <typename Fn>
  static void heap_invoke(BasicSmallFn* self) {
    (*self->heap_target<Fn>())();
  }
  template <typename Fn>
  static void heap_relocate(BasicSmallFn* dst, BasicSmallFn* src) noexcept {
    ::new (static_cast<void*>(dst->buf_)) Fn*(src->heap_target<Fn>());
  }
  template <typename Fn>
  static void heap_destroy(BasicSmallFn* self) noexcept {
    delete self->heap_target<Fn>();
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {&inline_invoke<Fn>, &inline_relocate<Fn>,
                                     &inline_destroy<Fn>};

  template <typename Fn>
  static constexpr Ops kHeapOps = {&heap_invoke<Fn>, &heap_relocate<Fn>,
                                   &heap_destroy<Fn>};

  void steal(BasicSmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(this, &other);
      other.ops_ = nullptr;
    }
  }

  /// The callable itself, or (heap fallback) a pointer to it.
  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

/// The 256-byte callable: cross-shard mail and the scheduler's wide
/// slots. Its buffer holds the largest `net` hot-path capture (a 128-byte
/// Envelope plus the downlink failure callback and retry bookkeeping,
/// about 200 bytes) with headroom.
using SmallFn = BasicSmallFn<256>;

/// Inline capacity of sim::Scheduler's 64-byte small slots. Every timer
/// on the hot path (echo's ping, the formation deadline, the mobility
/// driver's three timers) captures a few ids and pointers and fits; a
/// callable that does not takes a 288-byte wide slot instead.
inline constexpr std::size_t kSmallSlotCapacity = 40;

}  // namespace mobidist::sim
