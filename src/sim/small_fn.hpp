// Move-only callable with a fixed inline capture budget.
//
// The simulator's hot path is "schedule a closure, fire it once": 18M+
// closures per bench run. std::function's 16-byte small-buffer means nearly
// every capture (a PacketPtr plus a timestamp plus a this-pointer already
// exceeds it) heap-allocates, and the allocator shows up at the top of the
// wall-clock profile. SmallFn trades memory for allocation-freedom: 80
// bytes of inline storage, sized for the per-packet closures (a `this`, an
// epoch, costs, a PacketPtr). That is a budget, not a guarantee: a larger
// capture silently takes the heap fallback (one allocation per
// construction). A closure that nests another SmallFn (96 B) can never fit,
// and one that copies a whole request rarely does — check the size of a
// new hot-path closure instead of assuming it is inline. Move-only
// (closures own packets and sockets; copying them would be a bug anyway).
//
// SmallFnOf<Sig, N> generalizes the same storage scheme to any signature
// and any inline budget N. A stored callback pays for its budget whether
// it uses it or not, so long-lived callbacks (TcpSocket::Callbacks, an
// app's socklib::ConnCallbacks table) are sim::Callback<Sig>, N = 16: one `this` or one weak_ptr, which is all any
// of them captures, for 24 bytes per callback instead of 96. sim::SmallFn stays the void() alias every event slot and job holds;
// schedule()/post()/submit() build the caller's callable straight into
// one with emplace().
//
// SmallFnOfs of different budgets are distinct types and never convert
// into each other (wrapping one in another would hide a heap allocation):
// move the underlying callable instead.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace neat::sim {

template <typename Sig, std::size_t N = 80>
class SmallFnOf;

template <typename T>
inline constexpr bool is_small_fn_v = false;
template <typename Sig, std::size_t N>
inline constexpr bool is_small_fn_v<SmallFnOf<Sig, N>> = true;

template <typename R, typename... Args, std::size_t N>
class SmallFnOf<R(Args...), N> {
 public:
  /// Inline capture budget in bytes; larger captures go to the heap.
  static constexpr std::size_t kInlineSize = N;
  static_assert(N >= sizeof(void*), "the heap fallback stores a pointer");
  /// Storage alignment. A 16-B budget holds one `this` or one weak_ptr;
  /// aligning it for long double would pad every stored callback from 24
  /// to 32 B, and with it every object that embeds one.
  static constexpr std::size_t kAlign =
      N <= 16 ? alignof(void*) : alignof(std::max_align_t);

  SmallFnOf() = default;

  template <typename F,
            typename = std::enable_if_t<
                !is_small_fn_v<std::decay_t<F>> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFnOf(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                      // std::function at every call site
    construct(std::forward<F>(f));
  }

  SmallFnOf(SmallFnOf&& other) noexcept { steal(other); }

  SmallFnOf& operator=(SmallFnOf&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  SmallFnOf(const SmallFnOf&) = delete;
  SmallFnOf& operator=(const SmallFnOf&) = delete;

  ~SmallFnOf() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Callable through a const reference, as std::function is: a shared,
  /// immutable table of callbacks (socklib::ConnCallbacks) is read through
  /// a const pointer. The held callable itself is not const.
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Replace the held callable by `f`, built directly in this object's
  /// storage: the event queue and the job ring construct each callable
  /// where it will run instead of moving a temporary in. A SmallFnOf of
  /// the same type is moved (its callable relocated), not wrapped.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFnOf>) {
      static_assert(!std::is_lvalue_reference_v<F>, "SmallFnOf is move-only");
      steal(f);
    } else {
      static_assert(!is_small_fn_v<std::decay_t<F>>,
                    "budgets never convert: move the callable instead");
      construct(std::forward<F>(f));
    }
  }

  /// Destroy the held callable (releases captured resources immediately —
  /// cancellation paths use this so dead closures don't pin packets).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*destroy)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](unsigned char* b, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](unsigned char* b, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* b) {
        delete *std::launder(reinterpret_cast<Fn**>(b));
      },
      [](unsigned char* dst, unsigned char* src) {
        Fn** s = std::launder(reinterpret_cast<Fn**>(src));
        ::new (static_cast<void*>(dst)) Fn*(*s);
      }};

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= kAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  void steal(SmallFnOf& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};

using SmallFn = SmallFnOf<void()>;

/// A callback stored for as long as a connection lives: the TcpSocket and
/// socket-API callbacks and the doorbell handlers. Every connection end
/// holds several, so the inline budget is one `this` or one weak_ptr.
template <typename Sig>
using Callback = SmallFnOf<Sig, 16>;

}  // namespace neat::sim
