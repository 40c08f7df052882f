// Bounded single-producer message channels between isolated processes.
//
// All cross-process communication in NEaT goes through asynchronous bounded
// queues: the producer deposits a message and (if needed) wakes the consumer;
// the consumer is charged a per-message CPU cost when it dequeues. A full
// channel drops the message — exactly like a full NIC ring or a full MINIX
// asynsend slot — and the upper layers (TCP) are responsible for recovery.
//
// Accounting invariant: once the simulation has quiesced (no message still
// inside its transfer latency), every message ever sent is classified as
// exactly one of delivered / dropped_full / dropped_dead:
//
//     sent == delivered + dropped_full + dropped_dead
//
// "Delivered" means the message reached a live consumer incarnation (the
// handler job was enqueued); if the consumer crashes before executing the
// job, the message still counts as delivered — it made it into the dead
// process's memory, which is where it died. tests/test_chaos.cpp sweeps
// this invariant across chaos campaigns via the process-wide registry
// below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace neat::ipc {

/// Statistics every channel keeps; the harness reads these to report drop
/// rates and queue pressure.
struct ChannelStats {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_full{0};
  std::uint64_t dropped_dead{0};
  /// Consumer wake-ups: number of batched delivery jobs posted. The
  /// amortization ratio is delivered / batches.
  std::uint64_t batches{0};
  /// Highest number of simultaneously in-flight messages ever observed.
  std::size_t in_flight_hwm{0};
};

/// Untyped view of a channel: what audits need without knowing T. Every
/// live Channel<T> is reachable through channel_registry() — the chaos
/// tests sweep it to check the accounting invariant on *every* channel in
/// the simulation, including ones buried inside replicas.
class ChannelBase {
 public:
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  [[nodiscard]] virtual const ChannelStats& channel_stats() const = 0;
  [[nodiscard]] virtual std::size_t channel_in_flight() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  ChannelBase();
  virtual ~ChannelBase();
};

/// All channels currently alive in this process (the sim is
/// single-threaded; no locking).
[[nodiscard]] inline std::vector<ChannelBase*>& channel_registry() {
  static std::vector<ChannelBase*> reg;
  return reg;
}

inline ChannelBase::ChannelBase() { channel_registry().push_back(this); }
inline ChannelBase::~ChannelBase() {
  auto& reg = channel_registry();
  reg.erase(std::remove(reg.begin(), reg.end(), this), reg.end());
}

/// Explicit reset of the process-wide registry. The registry is a
/// function-local static, so it outlives every simulator; harnesses call
/// this between simulations (after asserting it drained) so an entry leaked
/// by one test can never alias a later simulation's audit sweep.
inline void channel_registry_reset() { channel_registry().clear(); }

/// A typed, bounded, unidirectional channel into `consumer`.
///
/// `cost_fn(msg)` gives the CPU cycles the consumer spends handling the
/// message; the consumer is built with exactly one of `handler(msg)`, run
/// per message, or `batch_handler(batch)`, run once per delivery job; either
/// runs after that work completes. `latency` models the
/// cache-line/interconnect transfer delay between cores.
///
/// Delivery is batched: messages deposited while a transfer is pending
/// accumulate in the shared ring and are drained together when the consumer
/// wakes — one flush event and ONE consumer job per batch (budget
/// kBatchBudget, re-armed immediately while the ring is non-empty so a deep
/// queue cannot starve interleaved work). The consumer is still charged the
/// full per-message cost (summed into the batch job), so virtual-time
/// accounting is unchanged — batching amortizes the event/job dispatch, not
/// the modeled CPU work. The first message of a batch pays the full
/// transfer latency; later ones ride the same doorbell, exactly like frames
/// sharing a NIC interrupt.
template <typename T>
class Channel : public ChannelBase {
 public:
  using Handler = std::function<void(T&&)>;
  /// Whole-batch consumer: receives every message of one delivery job at
  /// once, a lone message as a one-element batch (TcpStack-style loops
  /// hoist per-batch work this way).
  using BatchHandler = std::function<void(std::vector<T>&&)>;
  using CostFn = std::function<sim::Cycles(const T&)>;

  /// Max messages drained per consumer wake-up; bounds per-job latency so
  /// percentiles stay honest under deep queues.
  static constexpr std::size_t kBatchBudget = 32;

  Channel(sim::Process& consumer, std::size_t capacity, sim::SimTime latency,
          CostFn cost_fn, Handler handler)
      : consumer_(&consumer),
        capacity_(capacity),
        latency_(latency),
        cost_fn_(std::move(cost_fn)),
        handler_(std::move(handler)) {}

  /// Convenience: fixed per-message cost.
  Channel(sim::Process& consumer, std::size_t capacity, sim::SimTime latency,
          sim::Cycles cost, Handler handler)
      : Channel(consumer, capacity, latency,
                [cost](const T&) { return cost; }, std::move(handler)) {}

  /// Batch consumer: every delivery job goes to `batch_handler` whole.
  Channel(sim::Process& consumer, std::size_t capacity, sim::SimTime latency,
          CostFn cost_fn, BatchHandler batch_handler)
      : consumer_(&consumer),
        capacity_(capacity),
        latency_(latency),
        cost_fn_(std::move(cost_fn)),
        batch_handler_(std::move(batch_handler)) {}

  Channel(sim::Process& consumer, std::size_t capacity, sim::SimTime latency,
          sim::Cycles cost, BatchHandler batch_handler)
      : Channel(consumer, capacity, latency,
                [cost](const T&) { return cost; }, std::move(batch_handler)) {}

  /// Deposit a message. Returns false (and drops it) if the channel is full
  /// or the consumer is dead.
  bool send(T msg) {
    ++stats_.sent;
    if (consumer_->crashed()) {
      // Messages to a dead process are lost; any slots still accounted to
      // in-flight messages died with it, so reclaim them all.
      in_flight_ = 0;
      ++stats_.dropped_dead;
      return false;
    }
    if (staging_head_ < staging_.size() &&
        consumer_->epoch() != staged_epoch_) {
      // The consumer restarted while a batch sat in the ring: everything
      // staged belonged to the previous incarnation.
      drop_staged_dead();
      staged_epoch_ = consumer_->epoch();
    }
    if (in_flight_ >= capacity_) {
      ++stats_.dropped_full;
      return false;
    }
    ++in_flight_;
    stats_.in_flight_hwm = std::max(stats_.in_flight_hwm, in_flight_);
    staging_.push_back(Staged{std::move(msg), consumer_->sim().now()});
    if (!flush_armed_) {
      flush_armed_ = true;
      staged_epoch_ = consumer_->epoch();
      consumer_->sim().queue().post(latency_, [this] { flush(); });
    }
    return true;
  }

  /// Re-target the channel at a (possibly restarted) consumer; forgets any
  /// in-flight messages, which died with the previous incarnation.
  void rebind(sim::Process& consumer) {
    drop_staged_dead();
    consumer_ = &consumer;
    in_flight_ = 0;
    staged_epoch_ = consumer.epoch();
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] sim::Process& consumer() const { return *consumer_; }

  [[nodiscard]] const ChannelStats& channel_stats() const override {
    return stats_;
  }
  [[nodiscard]] std::size_t channel_in_flight() const override {
    return in_flight_;
  }
  [[nodiscard]] std::string describe() const override {
    return "channel->" + consumer_->name();
  }

 private:
  struct Staged {
    T msg;
    sim::SimTime at;
  };

  /// Classify everything still staged as dead-with-its-consumer.
  void drop_staged_dead() {
    const std::size_t n = staging_.size() - staging_head_;
    if (n > 0) {
      stats_.dropped_dead += n;
      in_flight_ = in_flight_ >= n ? in_flight_ - n : 0;
    }
    staging_.clear();
    staging_head_ = 0;
  }

  /// The consumer's doorbell fired: drain up to kBatchBudget staged
  /// messages into one delivery job, re-arming immediately if more remain.
  void flush() {
    flush_armed_ = false;
    if (staging_head_ >= staging_.size()) {
      staging_.clear();
      staging_head_ = 0;
      return;
    }
    if (consumer_->crashed() || consumer_->epoch() != staged_epoch_) {
      // Died in transfer: the consumer (or its incarnation) is gone.
      drop_staged_dead();
      return;
    }
    const std::size_t avail = staging_.size() - staging_head_;
    const std::size_t n = avail < kBatchBudget ? avail : kBatchBudget;
    const sim::SimTime oldest = staging_[staging_head_].at;
    auto& sim = consumer_->sim();
    stats_.delivered += n;
    ++stats_.batches;
    if (batch_size_ == nullptr) {
      batch_size_ = &sim.metrics().histogram("ipc.batch_size");
    }
    batch_size_->record(n);
    if (n == 1 && !batch_handler_) {
      // Single-message fast path: capture the message in the job closure
      // directly — no batch vector, no heap allocation. Under steady
      // (non-bursty) load this is the overwhelmingly common case.
      T msg = std::move(staging_[staging_head_].msg);
      const sim::Cycles cost = cost_fn_(msg);
      if (++staging_head_ >= staging_.size()) {
        staging_.clear();
        staging_head_ = 0;
      } else {
        flush_armed_ = true;
        sim.queue().post(0, [this] { flush(); });
      }
      consumer_->post(cost, [this, oldest, msg = std::move(msg)]() mutable {
        in_flight_ = in_flight_ > 0 ? in_flight_ - 1 : 0;
        record_delay(oldest);
        handler_(std::move(msg));
      });
      return;
    }
    std::vector<T> batch = acquire_vec(n);
    sim::Cycles cost = 0;
    for (std::size_t k = 0; k < n; ++k) {
      Staged& s = staging_[staging_head_ + k];
      cost += cost_fn_(s.msg);
      batch.push_back(std::move(s.msg));
    }
    staging_head_ += n;
    if (staging_head_ >= staging_.size()) {
      staging_.clear();
      staging_head_ = 0;
    } else {
      flush_armed_ = true;
      sim.queue().post(0, [this] { flush(); });
    }
    const auto epoch = staged_epoch_;
    consumer_->post(
        cost, [this, epoch, oldest, batch = std::move(batch)]() mutable {
          const std::size_t n = batch.size();
          in_flight_ = in_flight_ >= n ? in_flight_ - n : 0;
          record_delay(oldest);
          if (batch_handler_) {
            batch_handler_(std::move(batch));
          } else {
            for (auto& m : batch) {
              // A handler may crash its own process mid-batch; the rest of
              // the burst dies with it (it was already in its memory).
              if (consumer_->crashed() || consumer_->epoch() != epoch) break;
              handler_(std::move(m));
            }
          }
          release_vec(std::move(batch));
        });
  }

  /// Batch vectors cycle through a small pool so steady-state delivery —
  /// including the batch-handler path — never touches the allocator.
  std::vector<T> acquire_vec(std::size_t n) {
    std::vector<T> v;
    if (!vec_pool_.empty()) {
      v = std::move(vec_pool_.back());
      vec_pool_.pop_back();
    }
    v.reserve(n);
    return v;
  }

  void release_vec(std::vector<T>&& v) {
    v.clear();
    if (vec_pool_.size() < 4) vec_pool_.push_back(std::move(v));
  }

  void record_delay(sim::SimTime oldest) {
    auto& sim = consumer_->sim();
    if (queue_delay_ == nullptr) {
      queue_delay_ = &sim.metrics().histogram("ipc.queue_delay_ns");
    }
    queue_delay_->record(sim.now() - oldest);
  }

  sim::Process* consumer_;
  std::size_t capacity_;
  sim::SimTime latency_;
  CostFn cost_fn_;
  Handler handler_;
  BatchHandler batch_handler_;
  std::size_t in_flight_{0};
  std::vector<Staged> staging_;
  std::size_t staging_head_{0};
  bool flush_armed_{false};
  std::uint64_t staged_epoch_{0};
  ChannelStats stats_;
  std::vector<std::vector<T>> vec_pool_;
  obs::Histogram* queue_delay_{nullptr};
  obs::Histogram* batch_size_{nullptr};
};

/// Default inter-core message latency: a couple of cache-line transfers.
inline constexpr sim::SimTime kDefaultChannelLatency = 200 * sim::kNanosecond;

}  // namespace neat::ipc
