// Edge-triggered, coalescing doorbell.
//
// When an application deposits data into a socket ring it must make sure the
// stack replica eventually looks at it — but ringing on *every* write would
// turn the syscall-less fast path back into a per-operation notification.
// A Doorbell coalesces: while a previous ring has not been consumed, further
// rings are free no-ops, exactly like an MWAIT monitor armed on a write.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/process.hpp"

namespace neat::ipc {

class Doorbell {
 public:
  /// Stored for the doorbell's lifetime, and a socket carries two
  /// doorbells: a capture beyond one `this` or weak_ptr costs one heap
  /// allocation at construction.
  using Handler = sim::Callback<void()>;

  /// `cost` is the consumer-side cycles to take the notification (queue
  /// scan); `handler` then runs in the consumer's context and typically
  /// drains the associated ring(s).
  Doorbell(sim::Process& consumer, sim::Cycles cost, Handler handler)
      : consumer_(&consumer), cost_(cost), handler_(std::move(handler)) {}

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Ring on behalf of `owner`: the object this doorbell is a member of
  /// (itself derived from enable_shared_from_this), or a shared_ptr to it
  /// or to the doorbell itself when that is shared-owned. Coalesced while
  /// a previous ring is pending: such a ring builds nothing. A posted ring
  /// holds `owner` weakly, through a handle of its own type, and keeps it
  /// alive while the handler runs, so a ring still in flight when the
  /// owner dies is a no-op — the owner's own control block is the liveness
  /// check, and the doorbell carries no flag of its own.
  template <typename Owner>
  void ring(const Owner& owner) {
    if (pending_) return;
    if (consumer_->crashed()) return;
    pending_ = true;
    consumer_->post(cost_, [this, owner = weak_handle(owner)] {
      const auto alive = owner.lock();
      if (!alive) return;  // the doorbell's owner was destroyed
      pending_ = false;
      handler_();
    });
  }

  /// Re-target after consumer restart; clears any lost pending state.
  void rebind(sim::Process& consumer) {
    consumer_ = &consumer;
    pending_ = false;
  }

  /// Recovery hook: a pending ring queued to a process that crashed will
  /// never fire; callers re-arm after restart.
  void reset() { pending_ = false; }

  [[nodiscard]] bool pending() const { return pending_; }

 private:
  template <typename T>
  static std::weak_ptr<T> weak_handle(const std::shared_ptr<T>& owner) {
    return owner;
  }
  template <typename T>
  static std::weak_ptr<const T> weak_handle(
      const std::enable_shared_from_this<T>& owner) {
    return owner.weak_from_this();
  }

  sim::Process* consumer_;
  sim::Cycles cost_;
  Handler handler_;
  bool pending_{false};
};

}  // namespace neat::ipc
