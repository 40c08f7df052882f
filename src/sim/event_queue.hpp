// Deterministic discrete-event queue.
//
// Events scheduled for the same virtual time fire in schedule order (FIFO),
// which makes every run with the same seed bit-for-bit reproducible — a
// property the NEaT test suite relies on (DESIGN.md invariant 7).
//
// The queue is the hottest structure in the whole simulator (tens of
// millions of events per bench run), so it is built for allocation-free,
// move-free steady state:
//
//  * heap entries are 16-byte PODs {time, seq << 24 | slot} ordered by one
//    128-bit compare — sift operations never move closures and never
//    branch on a tie;
//  * each callback is built in place in a recycled slot (fixed chunks, so
//    slot addresses never move), runs there and is destroyed there;
//  * a slot records the seq of the entry that owns it, and an entry is live
//    only while its slot is armed with its seq. So cancel() destroys the
//    closure and frees the slot at once: the slot table follows the live
//    events, and the cancelled entry left in the heap is skipped when it
//    surfaces, whoever holds its slot by then;
//  * cancelled far-horizon timers are compacted out of the far heap in
//    bulk instead of being sifted out one at a time;
//  * post()/post_at() skip EventHandle construction entirely for
//    fire-and-forget events (the vast majority: channel deliveries, NIC
//    wire arrivals, process wake-ups).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace neat::sim {

namespace detail {

/// Callback storage shared between the queue and its handles. Kept alive by
/// outstanding EventHandles so cancel()/pending() stay safe even after the
/// queue itself is destroyed (the queue clears all closures on destruction,
/// so no user object is pinned past the simulation).
struct EventSlots {
  /// Holders: the queue, plus every EventHandle naming a slot here. The
  /// last holder to let go deletes the table. A plain count, like the rest
  /// of the simulator single-threaded: taking a handle is one increment,
  /// not a locked read-modify-write.
  static void retain(EventSlots* slots) {
    if (slots != nullptr) ++slots->refs;
  }
  static void release(EventSlots* slots) {
    if (slots != nullptr && --slots->refs == 0) delete slots;
  }

  struct Slot {
    SmallFn fn;
    std::uint64_t seq{0};  // seq of the heap entry that owns the slot
    bool armed{false};     // scheduled, not yet fired or cancelled
    bool far{false};       // its heap entry sits in the far heap
  };

  /// Slots live in fixed chunks: a callback that schedules events while it
  /// runs in its own slot may grow the table without moving itself.
  static constexpr std::uint32_t kChunkBits = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  /// Slot indices share a 64-bit heap key with the sequence number.
  static constexpr unsigned kSlotBits = 24;

  Slot& operator[](std::uint32_t idx) {
    return chunks[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  /// A free slot (unarmed, empty). Recycled LIFO for cache warmth.
  std::uint32_t acquire() {
    if (!free.empty()) {
      const std::uint32_t idx = free.back();
      free.pop_back();
      return idx;
    }
    if (allocated == chunks.size() * kChunkSize) {
      if (allocated == (1u << kSlotBits)) [[unlikely]] {
        throw std::length_error("EventQueue: more than 2^24 pending events");
      }
      chunks.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return allocated++;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks;
  std::uint32_t allocated{0};
  std::vector<std::uint32_t> free;
  std::size_t live{0};           // armed slots: pending events
  std::size_t cancelled_far{0};  // stale (cancelled) entries in the far heap
  std::size_t refs{1};           // the queue's own reference
};

}  // namespace detail

/// Handle to a scheduled event: the slot table plus the key of its heap
/// entry, which names its slot and its seq — 16 B (a TCB holds three).
/// Allows O(1) cancellation; the cancelled entry stays in its heap and is
/// skipped when it reaches the head of the queue or when the far heap is
/// compacted. A handle keeps the slot table (not the queue) alive, so
/// cancel() and pending() stay safe after the queue is destroyed.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : slots_(other.slots_), key_(other.key_) {
    detail::EventSlots::retain(slots_);
  }
  EventHandle(EventHandle&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)), key_(other.key_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(key_, other.key_);
    return *this;
  }
  ~EventHandle() { detail::EventSlots::release(slots_); }

  /// Cancel the event if it has not fired yet. Idempotent. Releases the
  /// closure (and anything it captured) and the slot immediately.
  void cancel() {
    if (!pending()) return;
    detail::EventSlots& slots = *slots_;
    auto& s = slots[slot()];
    s.armed = false;
    --slots.live;
    if (s.far) ++slots.cancelled_far;
    // The closure's destructors may schedule or cancel other events; the
    // slot joins the free list only once it is empty.
    s.fn.reset();
    slots.free.push_back(slot());
  }

  /// True while the event is scheduled and not cancelled or fired.
  [[nodiscard]] bool pending() const {
    if (!slots_) return false;
    const auto& s = (*slots_)[slot()];
    return s.armed && s.seq == key_ >> detail::EventSlots::kSlotBits;
  }

 private:
  friend class EventQueue;
  EventHandle(detail::EventSlots* slots, std::uint64_t key)
      : slots_(slots), key_(key) {
    detail::EventSlots::retain(slots_);
  }

  [[nodiscard]] std::uint32_t slot() const {
    return static_cast<std::uint32_t>(
        key_ & ((1u << detail::EventSlots::kSlotBits) - 1));
  }

  detail::EventSlots* slots_{nullptr};
  /// seq << kSlotBits | slot, as in the heap entry.
  std::uint64_t key_{0};
};

/// Min-heap of timestamped callbacks with deterministic tie-breaking.
class EventQueue {
  using Slot = detail::EventSlots::Slot;
  static constexpr unsigned kSlotBits = detail::EventSlots::kSlotBits;

 public:
  EventQueue() : slots_(new detail::EventSlots) {}

  ~EventQueue() {
    // Drop every outstanding closure now: callbacks may capture sockets or
    // packets that must not outlive the simulation just because some
    // EventHandle still exists somewhere.
    detail::EventSlots& slots = *slots_;
    for (std::uint32_t i = 0; i < slots.allocated; ++i) {
      Slot& s = slots[i];
      s.fn.reset();
      s.armed = false;
    }
    slots.live = 0;
    detail::EventSlots::release(slots_);
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time. Advances only inside run_until()/step().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Number of live (non-cancelled) events still queued.
  [[nodiscard]] std::size_t size() const { return slots_->live; }
  [[nodiscard]] bool empty() const { return slots_->live == 0; }

  /// Total events executed since construction (wall-clock perf accounting:
  /// ext_perf reports events per host-second).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Completions fused past the heap (see try_advance): jobs that ran
  /// back-to-back on a HwThread without a schedule/pop round-trip.
  [[nodiscard]] std::uint64_t fused() const { return fused_; }

  /// Slots ever handed out: the high-water mark of pending events (plus
  /// the one firing). Cancelled events give their slot back at once, so
  /// timer churn does not grow it.
  [[nodiscard]] std::size_t slot_count() const { return slots_->allocated; }

  /// Fused-completion hook (HwThread back-to-back jobs): if advancing
  /// virtual time straight to `at` cannot change the event order — no live
  /// pending event anywhere is due at or before `at`, and `at` does not
  /// overrun the horizon of the run_until()/run_slice() we are inside — commit
  /// now_ = at and return true. The caller then runs its continuation
  /// inline instead of scheduling it, skipping a heap push + pop. An event
  /// already queued *at* exactly `at` blocks fusion (strict <=): it
  /// carries an earlier seq than a continuation posted now would, so it
  /// must run first (DESIGN.md invariant 7). Fusion is therefore
  /// bit-for-bit invisible to the simulation — it only removes heap
  /// traffic, never reorders callbacks.
  [[nodiscard]] bool try_advance(SimTime at) {
    if (at > deadline_) return false;
    prune_dead_top(near_);
    prune_dead_top(far_);
    if (const std::vector<Entry>* h = top_heap()) {
      if (h->front().time <= at) return false;
    }
    now_ = at;
    ++fused_;
    return true;
  }

  /// Schedule `fn` to run at absolute time `at` (>= now). Times in the past
  /// are clamped to `now` — firing immediately on the next step. `fn` is
  /// any void() callable, built directly in its slot (a SmallFn is moved).
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    return EventHandle{slots_, push(at, std::forward<F>(fn))};
  }

  /// Schedule `fn` to run `delay` ns from now.
  template <typename F>
  EventHandle schedule(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Fire-and-forget variants: no handle, no cancellation, no reference
  /// count traffic. The fast path for every message delivery.
  template <typename F>
  void post_at(SimTime at, F&& fn) {
    push(at, std::forward<F>(fn));
  }
  template <typename F>
  void post(SimTime delay, F&& fn) {
    push(now_ + delay, std::forward<F>(fn));
  }

  /// Run the earliest pending event, advancing time to it.
  /// Returns false if there is nothing left to run.
  bool step() {
    while (std::vector<Entry>* h = top_heap()) {
      const Entry e = h->front();
      heap_pop(*h);
      Slot& slot = (*slots_)[e.slot()];
      if (!owns(e, slot)) {  // cancelled: drop silently
        drop_stale(*h);
        continue;
      }
      fire(e, slot);
      return true;
    }
    return false;
  }

  /// Run events until the queue drains or virtual time would exceed
  /// `deadline`. Time is left at min(deadline, last event time).
  void run_until(SimTime deadline) { run_slice(deadline, deadline); }

  /// One piece of run_until(horizon): run the events due by `until`
  /// (<= horizon), while fused completions may still reach `horizon`.
  /// Pieces that end at `horizon` fire the same callbacks at the same
  /// times, with the same executed() and fused() counts, as one
  /// run_until(horizon) — so a host-side caller can time a run in slices
  /// without the simulation seeing the cuts. (run_until(until) pieces would
  /// stop fusion at every cut.)
  void run_slice(SimTime until, SimTime horizon) {
    // Publish the horizon so fused completions (try_advance) cannot run a
    // job past the window the caller was asked to simulate.
    const SimTime prev_deadline = deadline_;
    deadline_ = horizon;
    while (std::vector<Entry>* h = top_heap()) {
      const Entry e = h->front();
      Slot& slot = (*slots_)[e.slot()];
      if (!owns(e, slot)) {  // cancelled: drop silently
        heap_pop(*h);
        drop_stale(*h);
        continue;
      }
      if (e.time > until) break;
      heap_pop(*h);
      fire(e, slot);
    }
    deadline_ = prev_deadline;
    if (now_ < until) now_ = until;
  }

  /// Run until the queue is completely drained.
  void run() {
    while (step()) {
    }
  }

  /// One heap entry. `key` packs the schedule sequence number above the
  /// slot index; seq is unique, so the slot bits never decide the order.
  /// (Public only so tests can pin its size.)
  struct Entry {
    SimTime time{};
    std::uint64_t key{};

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & ((1u << kSlotBits) - 1));
    }
    [[nodiscard]] std::uint64_t seq() const { return key >> kSlotBits; }
  };

 private:
  static constexpr unsigned kSeqBits = 64 - kSlotBits;

  /// Strict ordering: earlier time first, schedule order (seq) as the
  /// deterministic tie-break (DESIGN.md invariant 7) — one 128-bit
  /// compare, no data-dependent branch.
  static bool earlier(const Entry& a, const Entry& b) {
    __extension__ using Key = unsigned __int128;
    return ((static_cast<Key>(a.time) << 64) | a.key) <
           ((static_cast<Key>(b.time) << 64) | b.key);
  }

  // Hand-rolled 4-ary min-heaps over the 16-byte POD entries. A 4-ary heap
  // halves the tree depth versus the binary std::priority_queue (fewer
  // cache lines touched per sift) and the hole-based sifts move each entry
  // once instead of swapping — this queue is the hottest structure in the
  // simulator, and the bench runs push ~1M events per simulated window.
  //
  // The queue is SPLIT by horizon: events due within kFarThreshold go to
  // the near heap, everything else (protocol timers: RTO, TIME_WAIT,
  // delayed ACK, app think time) to the far heap. Under connection churn
  // tens of thousands of ms-scale timers are pending at any instant; kept
  // in one heap they push every ns-scale delivery sift through hundreds of
  // kilobytes of cold entries. Split, the near heap stays a few hundred
  // cache-hot entries and the far heap is touched roughly once per timer.
  // Pop order is still strictly (time, seq): step() compares the two heap
  // tops with the same `earlier` ordering, so determinism (DESIGN.md
  // invariant 7) is preserved bit-for-bit.
  //
  // Most far timers (delayed ACKs, RTOs) are cancelled long before they are
  // due. Their slots are free again at once, but their entries stay in the
  // far heap. Once those stale entries outnumber live ones in a far heap of
  // at least kCompactMin entries, the next far push drops them all in one
  // pass and re-heapifies (compact_far). Keys are unique, so a heap pops
  // the same sequence whatever its layout: compaction cannot reorder
  // events.

  static constexpr SimTime kFarThreshold = 1 * kMillisecond;
  static constexpr std::size_t kCompactMin = 1024;

  /// Sift `e` down from hole `i` to its place.
  static void sift_down(std::vector<Entry>& h, std::size_t i, Entry e) {
    const std::size_t n = h.size();
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best;
      if (first + 4 <= n) {  // full node: a two-round tournament
        const std::size_t a = earlier(h[first + 1], h[first]) ? first + 1
                                                              : first;
        const std::size_t b =
            earlier(h[first + 3], h[first + 2]) ? first + 3 : first + 2;
        best = earlier(h[b], h[a]) ? b : a;
      } else {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          best = earlier(h[c], h[best]) ? c : best;
        }
      }
      if (!earlier(h[best], e)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
  }

  static void heap_push(std::vector<Entry>& h, Entry e) {
    h.push_back(e);  // grow; e sifts into place below
    std::size_t i = h.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  static void heap_pop(std::vector<Entry>& h) {
    const Entry last = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(h, 0, last);
  }

  /// True when `e` is the live entry of `slot`: armed, and armed for this
  /// entry rather than for a later event that reuses a slot freed by
  /// cancel().
  static bool owns(const Entry& e, const Slot& slot) {
    return slot.armed && slot.seq == e.seq();
  }

  /// Run the popped live event `e` in its slot: disarm it (its handle stops
  /// reporting pending(), cancel() becomes a no-op), call the callable in
  /// place, destroy it, and only then free the slot — so events the
  /// callback schedules can never land in the slot it is running from.
  void fire(const Entry& e, Slot& slot) {
    slot.armed = false;
    --slots_->live;
    ++executed_;
    now_ = e.time;
    slot.fn();
    slot.fn.reset();
    slots_->free.push_back(e.slot());
  }

  /// Account for a stale entry that just left heap `h`. Its slot was freed
  /// by cancel() and may already hold a near event, so the heap it left,
  /// not the slot, says whether it was counted in cancelled_far.
  void drop_stale(const std::vector<Entry>& h) {
    if (&h == &far_) --slots_->cancelled_far;
  }

  /// Drop every stale entry from the far heap and rebuild the heap over
  /// the live ones.
  void compact_far() {
    detail::EventSlots& slots = *slots_;
    std::size_t kept = 0;
    for (const Entry& e : far_) {
      if (owns(e, slots[e.slot()])) far_[kept++] = e;
    }
    far_.resize(kept);
    slots.cancelled_far = 0;
    for (std::size_t i = kept < 2 ? 0 : (kept - 2) / 4 + 1; i-- > 0;) {
      sift_down(far_, i, far_[i]);
    }
  }

  /// Pop stale entries off the top of `h` so front() (if any) is a live
  /// event — the precondition for the try_advance order check.
  void prune_dead_top(std::vector<Entry>& h) {
    while (!h.empty()) {
      const Entry& e = h.front();
      if (owns(e, (*slots_)[e.slot()])) break;
      heap_pop(h);
      drop_stale(h);
    }
  }

  /// The heap holding the globally earliest entry (nullptr when drained).
  [[nodiscard]] std::vector<Entry>* top_heap() {
    if (near_.empty()) return far_.empty() ? nullptr : &far_;
    if (far_.empty()) return &near_;
    return earlier(near_.front(), far_.front()) ? &near_ : &far_;
  }

  /// Schedule `fn` at `at`; returns the new heap entry's key.
  template <typename F>
  std::uint64_t push(SimTime at, F&& fn) {
    if (at < now_) at = now_;
    if (seq_ >> kSeqBits != 0) [[unlikely]] {
      // A wrapped seq would silently reorder same-time events.
      throw std::length_error("EventQueue: more than 2^40 events scheduled");
    }
    detail::EventSlots& slots = *slots_;
    const std::uint32_t idx = slots.acquire();
    Slot& slot = slots[idx];
    slot.fn.emplace(std::forward<F>(fn));
    slot.seq = seq_++;
    slot.armed = true;
    slot.far = at - now_ >= kFarThreshold;
    ++slots.live;
    const Entry e{at, slot.seq << kSlotBits | idx};
    if (slot.far) {
      if (far_.size() >= kCompactMin && slots.cancelled_far * 2 > far_.size()) {
        compact_far();
      }
      heap_push(far_, e);
    } else {
      heap_push(near_, e);
    }
    return e.key;
  }

  detail::EventSlots* slots_;  // owns one reference (see EventSlots::refs)
  std::vector<Entry> near_;
  std::vector<Entry> far_;
  SimTime now_{0};
  /// Horizon of the active run_until(); unbounded outside one (step()/run()
  /// drive the queue to exhaustion, so fusion can never overrun them).
  SimTime deadline_{~SimTime{0}};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t fused_{0};
};

}  // namespace neat::sim
