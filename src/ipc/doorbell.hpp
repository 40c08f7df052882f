// Edge-triggered, coalescing doorbell.
//
// When an application deposits data into a socket ring it must make sure the
// stack replica eventually looks at it — but ringing on *every* write would
// turn the syscall-less fast path back into a per-operation notification.
// A Doorbell coalesces: while a previous ring has not been consumed, further
// rings are free no-ops, exactly like an MWAIT monitor armed on a write.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "sim/process.hpp"

namespace neat::ipc {

/// The doorbell itself is one flag. Whoever rings it supplies the consumer,
/// the cost and the handler: a socket already holds all three (its replica,
/// its host's costs, its own member function), so it does not store them a
/// second time per doorbell (DESIGN.md §5n).
class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Ring `consumer` on behalf of `owner`: the object this doorbell is a
  /// member of, itself derived from enable_shared_from_this. After `cost`
  /// consumer cycles (the queue scan), `handler` runs in the consumer's
  /// context and typically drains the associated ring(s); it may capture a
  /// bare owner `this`. Coalesced while a previous ring is pending: such a
  /// ring builds nothing. A posted ring holds `owner` weakly and keeps it
  /// alive while the handler runs, so a ring still in flight when the
  /// owner dies is a no-op — the owner's own control block is the liveness
  /// check.
  template <typename Owner, typename Handler>
  void ring(sim::Process& consumer, sim::Cycles cost, const Owner& owner,
            Handler&& handler) {
    if (pending_) return;
    if (consumer.crashed()) return;
    pending_ = true;
    consumer.post(cost, [this, owner = owner.weak_from_this(),
                         handler = std::forward<Handler>(handler)]() mutable {
      const auto alive = owner.lock();
      if (!alive) return;  // the doorbell's owner was destroyed
      pending_ = false;
      handler();
    });
  }

  /// Recovery and re-homing hook: a pending ring queued to a process that
  /// crashed (or that the owner no longer rings) will never fire; callers
  /// re-arm by ringing again.
  void reset() { pending_ = false; }

  [[nodiscard]] bool pending() const { return pending_; }

 private:
  bool pending_{false};
};

/// A doorbell that keeps its consumer, cost and handler, for a shared-owned
/// notification with no owner object around it: a listening socket's
/// accept notification. ring() is a no-op once the bell is destroyed.
class BoundDoorbell : public std::enable_shared_from_this<BoundDoorbell> {
 public:
  BoundDoorbell(sim::Process& consumer, sim::Cycles cost,
                std::function<void()> handler)
      : consumer_(&consumer), cost_(cost), handler_(std::move(handler)) {}

  void ring() {
    bell_.ring(*consumer_, cost_, *this, [this] { handler_(); });
  }

  [[nodiscard]] bool pending() const { return bell_.pending(); }

 private:
  sim::Process* consumer_;
  sim::Cycles cost_;
  std::function<void()> handler_;
  Doorbell bell_;
};

}  // namespace neat::ipc
