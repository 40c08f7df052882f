// Unit tests for the discrete-event simulator substrate: event queue,
// deterministic RNG, machines, hardware threads and the process model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace neat::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimestampFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelledEventDoesNotFire) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  int fires = 0;
  auto h = q.schedule_at(10, [&] { ++fires; });
  q.run();
  EXPECT_EQ(fires, 1);
  h.cancel();  // after fire: no-op
  h.cancel();
  EXPECT_FALSE(h.pending());
}

// A TCB holds three handles: the slot table and the heap key, no more.
static_assert(sizeof(EventHandle) == 16);

TEST(EventQueue, HandlesOutliveTheirQueue) {
  // Handles to a pending event, a fired one, a cancelled one and copies of
  // them all outlive the queue; cancel() and pending() stay safe (ASan, in
  // scripts/check.sh, sees the slot table freed with the last handle).
  auto token = std::make_shared<int>(1);
  EventHandle pending;
  EventHandle fired;
  EventHandle cancelled;
  EventHandle copy;
  {
    EventQueue q;
    pending = q.schedule(100, [token] {});
    fired = q.schedule(1, [] {});
    cancelled = q.schedule(50, [] {});
    cancelled.cancel();
    q.run_until(10);
    copy = pending;
    EXPECT_TRUE(pending.pending());
    EXPECT_TRUE(copy.pending());
    EXPECT_FALSE(fired.pending());
    EXPECT_FALSE(cancelled.pending());
    EXPECT_EQ(token.use_count(), 2);
  }
  // The queue dropped the pending closure (and what it captured) when it
  // died; the handles report nothing pending and cancel as no-ops.
  EXPECT_EQ(token.use_count(), 1);
  for (EventHandle* h : {&pending, &fired, &cancelled, &copy}) {
    EXPECT_FALSE(h->pending());
    h->cancel();
    h->cancel();
    EXPECT_FALSE(h->pending());
  }
  // Moved-from and reassigned handles release their reference once.
  EventHandle moved = std::move(copy);
  EXPECT_FALSE(moved.pending());
  moved = EventHandle{};
  pending = fired;
  EXPECT_FALSE(pending.pending());
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) q.schedule(10, step);
  };
  q.schedule(10, step);
  q.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    q.schedule_at(t, [&] { ++fired; });
  }
  q.run_until(50);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 50u);
  q.run_until(100);
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  bool fired = false;
  q.schedule_at(50, [&] { fired = true; });  // in the past
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 100u);
}

/// Counts its own moves: a capture that tells whether the callable holding
/// it was relocated (a check that needs no sanitizer to see a moved-out
/// callable keep running from freed storage).
struct MoveSpy {
  int* moves;
  explicit MoveSpy(int* m) : moves(m) {}
  MoveSpy(MoveSpy&& o) noexcept : moves(o.moves) { ++*moves; }
};

TEST(EventQueue, SizeAndEmptyCountOnlyArmedEvents) {
  // Near and far delays land in different heaps; both must count the same.
  for (const SimTime delay : {SimTime{10}, 5 * kMillisecond}) {
    EventQueue q;
    int fired = 0;
    auto a = q.schedule(delay, [&] { ++fired; });
    auto b = q.schedule(delay, [&] { ++fired; });
    auto c = q.schedule(delay, [&] { ++fired; });
    EXPECT_EQ(q.size(), 3u);
    b.cancel();
    b.cancel();  // idempotent
    EXPECT_EQ(q.size(), 2u) << "delay " << delay;
    a.cancel();
    c.cancel();
    EXPECT_EQ(q.size(), 0u) << "delay " << delay;
    EXPECT_TRUE(q.empty()) << "only cancelled events are left";

    q.schedule(delay, [&] { ++fired; });
    auto d = q.schedule(delay, [&] { ++fired; });
    q.post(delay, [&] { ++fired; });
    d.cancel();
    EXPECT_EQ(q.size(), 2u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), 2u);
  }
}

TEST(EventQueue, EntriesAreSixteenBytes) {
  static_assert(sizeof(EventQueue::Entry) == 16,
                "{time, seq << 24 | slot}: four entries per cache line");
  SUCCEED();
}

TEST(EventQueue, CallbackGrowingTheSlotTableKeepsRunningInItsOwnSlot) {
  // A callback that schedules more events than one slot chunk holds makes
  // the table grow while the callback runs from one of its slots. Its own
  // captures must survive, cancelling its own (already firing) handle must
  // be a no-op, and every event must fire exactly once.
  EventQueue q;
  constexpr int kSpawned = 3000;  // ~3 chunks of 1024 slots
  std::vector<int> fires(kSpawned, 0);
  EventHandle self;
  bool pending_inside = true;
  std::size_t size_inside = 0;
  int moves = 0;
  int moves_while_running = -1;
  self = q.schedule(10, [&, spy = MoveSpy(&moves)] {
    const int before = *spy.moves;
    for (int i = 0; i < kSpawned; ++i) {
      q.post(static_cast<SimTime>(1 + i % 5),
             [&fires, i] { ++fires[static_cast<std::size_t>(i)]; });
    }
    pending_inside = self.pending();
    self.cancel();
    size_inside = q.size();
    moves_while_running = *spy.moves - before;
  });
  q.run();
  EXPECT_EQ(moves_while_running, 0) << "the running callable must not move";
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(size_inside, static_cast<std::size_t>(kSpawned))
      << "cancelling a firing event must not touch the live count";
  for (int i = 0; i < kSpawned; ++i) {
    ASSERT_EQ(fires[static_cast<std::size_t>(i)], 1) << "event " << i;
  }
  EXPECT_EQ(q.executed(), static_cast<std::uint64_t>(kSpawned + 1));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledSlotReusedByALaterEventNeverFiresAtTheStaleTime) {
  // cancel() frees the slot at once, so the next schedule takes it while
  // the cancelled entry still sits in its heap. When that stale entry
  // surfaces — through run_until, step or try_advance — it must be dropped,
  // not fire the slot's new event early. Near and far stale entries, and a
  // far stale entry whose slot now holds a near event.
  struct Case {
    SimTime stale;
    SimTime fresh;
  };
  for (const Case c : {Case{100, 200}, Case{5 * kMillisecond, 6 * kMillisecond},
                       Case{5 * kMillisecond, 200}}) {
    for (const int via : {0, 1, 2}) {  // run_until, step, try_advance
      EventQueue q;
      std::vector<SimTime> fired_at;
      EventHandle stale = q.schedule(c.stale, [&] { fired_at.push_back(0); });
      stale.cancel();
      EventHandle fresh =
          q.schedule(c.fresh, [&] { fired_at.push_back(q.now()); });
      ASSERT_EQ(q.slot_count(), 1u) << "the fresh event reuses the slot";
      if (c.fresh > c.stale) {
        if (via == 0) q.run_until((c.stale + c.fresh) / 2);
        if (via == 1) {
          ASSERT_TRUE(q.step());
          EXPECT_EQ(q.now(), c.fresh);
        }
        if (via == 2) {
          EXPECT_TRUE(q.try_advance((c.stale + c.fresh) / 2))
              << "only a stale entry is due before the fresh event";
        }
        if (via != 1) {
          EXPECT_TRUE(fired_at.empty()) << "stale time " << c.stale;
          EXPECT_TRUE(fresh.pending());
          EXPECT_EQ(q.size(), 1u);
        }
      }
      q.run();
      EXPECT_EQ(fired_at, std::vector<SimTime>{c.fresh})
          << "stale " << c.stale << " fresh " << c.fresh << " via " << via;
      EXPECT_FALSE(stale.pending());
      EXPECT_FALSE(fresh.pending());
      EXPECT_TRUE(q.empty());
      EXPECT_EQ(q.executed(), 1u);
    }
  }
}

TEST(EventQueue, SlotTableStaysAtTheLiveHighWaterMarkUnderTimerChurn) {
  // A TCP stack re-arms its timers constantly: cancel, schedule again.
  // Each cancel gives its slot back, so the slot table never grows past the
  // timers alive at once, however many stale entries the heaps still hold.
  // An earlier live timer keeps the stale entries off the heap tops, where
  // run_until would otherwise pop them.
  for (const SimTime delay : {SimTime{500 * kMicrosecond}, 200 * kMillisecond}) {
    EventQueue q;
    constexpr std::size_t kLive = 16;
    int fired = 0;
    EventHandle first = q.schedule(delay / 2, [&] { ++fired; });
    std::vector<EventHandle> timers(kLive);
    for (auto& t : timers) t = q.schedule(delay, [&] { ++fired; });
    for (std::size_t round = 0; round < 20'000; ++round) {
      EventHandle& t = timers[round % kLive];
      t.cancel();
      t = q.schedule(delay, [&] { ++fired; });
      if (round % 256 == 0) q.run_until(q.now() + kMicrosecond);
      ASSERT_EQ(q.slot_count(), kLive + 1) << "round " << round;
    }
    EXPECT_TRUE(first.pending());
    EXPECT_EQ(q.size(), kLive + 1);
    q.run();
    EXPECT_EQ(fired, static_cast<int>(kLive + 1));
    EXPECT_EQ(q.slot_count(), kLive + 1);
  }
}

TEST(EventQueue, MatchesTimeSeqReferenceUnderHeavyFarCancellation) {
  // Property test: the queue fires exactly the (time, seq) order of a
  // std::map reference model, over 50k schedules mixing near and far
  // delays (many same-time ties), callbacks that schedule follow-ups, and
  // ~90% of far timers cancelled before they fire — enough to compact the
  // far heap many times over.
  EventQueue q;
  Rng rng(2024);
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> ref;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> expected;
  std::vector<std::pair<EventHandle, std::pair<SimTime, std::uint64_t>>>
      doomed;
  std::uint64_t next_id = 0;
  std::size_t far_scheduled = 0;
  std::size_t far_cancelled = 0;

  std::function<void(SimTime)> add = [&](SimTime delay) {
    const std::uint64_t id = next_id++;
    const std::pair<SimTime, std::uint64_t> key{q.now() + delay, id};
    ref.emplace(key, id);
    auto fire = [&, id] {
      fired.push_back(id);
      if (rng.chance(0.05)) add(rng.below(4) * kMicrosecond);
    };
    if (delay >= kMillisecond) {
      ++far_scheduled;
      EventHandle h = q.schedule(delay, fire);
      if (rng.chance(0.9)) doomed.emplace_back(std::move(h), key);
    } else {
      q.post(delay, fire);
    }
  };

  constexpr std::uint64_t kSchedules = 50'000;
  while (next_id < kSchedules) {
    for (int i = 0; i < 40 && next_id < kSchedules; ++i) {
      const bool far = rng.chance(0.6);
      add(far ? kMillisecond + rng.below(80) * kMillisecond / 4
              : rng.below(50) * kMicrosecond);
    }
    // Cancel a random share of the doomed far timers still pending.
    for (std::size_t i = 0; i < doomed.size();) {
      if (!rng.chance(0.3)) {
        ++i;
        continue;
      }
      if (doomed[i].first.pending()) {
        doomed[i].first.cancel();
        ref.erase(doomed[i].second);
        ++far_cancelled;
      }
      doomed[i] = std::move(doomed.back());
      doomed.pop_back();
    }
    const SimTime until = q.now() + 100 * kMicrosecond;
    q.run_until(until);
    while (!ref.empty() && ref.begin()->first.first <= until) {
      expected.push_back(ref.begin()->second);
      ref.erase(ref.begin());
    }
    ASSERT_EQ(fired.size(), expected.size()) << "at t=" << until;
    ASSERT_EQ(q.size(), ref.size()) << "at t=" << until;
  }
  q.run();
  for (const auto& [key, id] : ref) expected.push_back(id);
  EXPECT_GT(far_cancelled, far_scheduled * 8 / 10);
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], expected[i]) << "firing #" << i;
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng a(42);
  Rng s1 = a.split(1);
  Rng s2 = a.split(2);
  Rng s1b = Rng(42).split(1);
  EXPECT_EQ(s1(), s1b());
  EXPECT_NE(s1(), s2());
}

// ---------------------------------------------------------------------------
// Frequency
// ---------------------------------------------------------------------------

TEST(Frequency, DurationRoundsUpNonZeroWork) {
  Frequency f{2.0};
  EXPECT_EQ(f.duration(0), 0u);
  EXPECT_EQ(f.duration(1), 1u);  // 0.5ns rounds to at least 1
  EXPECT_EQ(f.duration(2000), 1000u);
}

TEST(Frequency, SpeedFactorScalesDuration) {
  Frequency f{1.0};
  EXPECT_EQ(f.duration(1000), 1000u);
  EXPECT_EQ(f.duration(1000, 0.5), 2000u);
}

// ---------------------------------------------------------------------------
// Process execution model
// ---------------------------------------------------------------------------

class TestProc : public Process {
 public:
  using Process::Process;
};

TEST(ProcessModel, WorkTakesTime) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};  // 1 cycle == 1 ns
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  SimTime done_at = 0;
  p.post(1000, [&] { done_at = sim.now(); });
  sim.run();
  // wake latency + resume overhead + 1000 cycles of work
  EXPECT_EQ(done_at, mp.wake_fast_latency + mp.resume_cycles + 1000);
  EXPECT_EQ(p.stats().processing, 1000u);
  EXPECT_EQ(p.stats().wakeups, 1u);
}

TEST(ProcessModel, SlicedRunMatchesOneRunUntilFusedCompletionsIncluded) {
  // A host-side caller cuts run_until(h) into run_slice(until, h) pieces
  // to time each one. The simulation must not see the cuts: the same jobs
  // at the same times, and the same executed() and fused() counts. Cut
  // with plain run_until(until) instead, fusion stops at every cut.
  struct Run {
    std::vector<std::pair<int, SimTime>> log;
    std::uint64_t executed{0};
    std::uint64_t fused{0};
  };
  static constexpr SimTime kHorizon = 2 * kMillisecond + 500 * kMicrosecond;
  const auto run = [](SimTime slice, bool plain) {
    Simulator sim;
    MachineParams mp;
    mp.cores = 2;
    mp.freq = Frequency{1.0};
    Machine& m = sim.add_machine(mp);
    TestProc a(sim, "a");
    TestProc b(sim, "b");
    a.pin(m.thread(0));
    b.pin(m.thread(1));
    Run r;
    Rng rng(77);
    for (int i = 0; i < 400; ++i) {
      sim.schedule(rng.below(2 * kMillisecond), [&, i] {
        TestProc& p = i % 3 == 0 ? b : a;
        for (int k = 0; k < 1 + i % 4; ++k) {
          p.post(static_cast<Cycles>(50 + (i * 37 + k * 11) % 900),
                 [&r, &sim, i, k] { r.log.emplace_back(i * 8 + k, sim.now()); });
        }
      });
    }
    if (slice == 0) {
      sim.run_until(kHorizon);
    } else {
      for (SimTime until = slice;; until += slice) {
        const SimTime cut = std::min(until, kHorizon);
        if (plain) {
          sim.run_until(cut);
        } else {
          sim.queue().run_slice(cut, kHorizon);
        }
        if (cut == kHorizon) break;
      }
    }
    r.executed = sim.queue().executed();
    r.fused = sim.queue().fused();
    return r;
  };
  const Run whole = run(0, false);
  ASSERT_GT(whole.fused, 0u);
  ASSERT_GT(whole.log.size(), 400u);
  for (const SimTime slice : {SimTime{1000}, SimTime{7919}, 100 * kMicrosecond}) {
    const Run cut = run(slice, false);
    EXPECT_EQ(cut.log, whole.log) << "slice " << slice;
    EXPECT_EQ(cut.executed, whole.executed) << "slice " << slice;
    EXPECT_EQ(cut.fused, whole.fused) << "slice " << slice;
  }
  EXPECT_LT(run(1000, true).fused, whole.fused)
      << "plain run_until cuts stop fusion at each cut";
}

TEST(ProcessModel, JobsSerializeFifoPerThread) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  std::vector<int> order;
  std::vector<SimTime> times;
  for (int i = 0; i < 3; ++i) {
    p.post(100, [&, i] {
      order.push_back(i);
      times.push_back(sim.now());
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Each 100-cycle job adds 100 ns, strictly serialized.
  EXPECT_EQ(times[1] - times[0], 100u);
  EXPECT_EQ(times[2] - times[1], 100u);
}

TEST(ProcessModel, TwoProcessesShareOneThreadSerially) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc a(sim, "a"), b(sim, "b");
  a.pin(m.thread(0));
  b.pin(m.thread(0));

  SimTime a_done = 0, b_done = 0;
  a.post(1000, [&] { a_done = sim.now(); });
  b.post(1000, [&] { b_done = sim.now(); });
  sim.run();
  // b starts only after a finishes.
  EXPECT_GE(b_done, a_done + 1000);
}

TEST(ProcessModel, HyperthreadSiblingsSlowEachOther) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.threads_per_core = 2;
  mp.freq = Frequency{1.0};
  mp.ht_shared_speed = 0.5;
  Machine& m = sim.add_machine(mp);
  TestProc a(sim, "a"), b(sim, "b");
  a.pin(m.thread(0, 0));
  b.pin(m.thread(0, 1));

  // Start a long job on thread 0 first; thread 1's job then begins while
  // its sibling is busy and runs at half speed.
  SimTime b_start = 0, b_done = 0;
  a.post(100000, [] {});
  sim.run_until(mp.wake_fast_latency + 1);  // a's job is now executing
  b.post(1000, [&] { b_done = sim.now(); });
  b_start = sim.now() + mp.wake_fast_latency;
  sim.run();
  EXPECT_EQ(b_done - b_start, 2 * (1000 + mp.resume_cycles))
      << "sibling contention halves speed";
}

TEST(ProcessModel, AloneOnCoreRunsFullSpeed) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 2;
  mp.threads_per_core = 2;
  mp.freq = Frequency{1.0};
  mp.ht_shared_speed = 0.5;
  Machine& m = sim.add_machine(mp);
  TestProc a(sim, "a");
  a.pin(m.thread(0, 0));
  SimTime done = 0;
  a.post(1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, mp.wake_fast_latency + mp.resume_cycles + 1000);
}

TEST(ProcessModel, CrashDropsQueuedWork) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  int ran = 0;
  p.post(100, [&] {
    ++ran;
    p.crash();
  });
  p.post(100, [&] { ++ran; });  // queued behind; must die with the crash
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(p.crashed());
}

TEST(ProcessModel, PostToCrashedProcessIsDropped) {
  Simulator sim;
  Machine& m = sim.add_machine(MachineParams{});
  TestProc p(sim, "p");
  p.pin(m.thread(0));
  p.crash();
  bool ran = false;
  p.post(10, [&] { ran = true; });
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(ProcessModel, RestartAcceptsNewWorkButNotStaleTimers) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  bool stale_fired = false;
  bool fresh_fired = false;
  p.after(1000, 10, [&] { stale_fired = true; });
  sim.run_until(10);
  p.crash();
  p.restart();
  p.post(10, [&] { fresh_fired = true; });
  sim.run();
  EXPECT_FALSE(stale_fired) << "timers from before the crash must not fire";
  EXPECT_TRUE(fresh_fired);
}

TEST(ProcessModel, JobOverflowingTheRingFromInsideRunsEveryJobOnceInOrder) {
  // A running job posts more jobs to its own thread than the job ring
  // holds, so the ring grows under it (several times). The running
  // callable must stay put, and the new jobs run once each, FIFO, with the
  // backlog counting exactly them.
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  constexpr int kJobs = 200;
  std::vector<int> order;
  std::uint64_t backlog_inside = 0;
  int moves = 0;
  int moves_while_running = -1;
  p.post(10, [&, spy = MoveSpy(&moves)] {
    const int before = *spy.moves;
    for (int i = 0; i < kJobs; ++i) {
      p.post(10, [&order, i] { order.push_back(i); });
    }
    backlog_inside = p.backlog();
    moves_while_running = *spy.moves - before;
  });
  sim.run();
  EXPECT_EQ(moves_while_running, 0)
      << "the running job's callable must not move";
  EXPECT_EQ(backlog_inside, static_cast<std::uint64_t>(kJobs));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(p.backlog(), 0u);
  EXPECT_EQ(p.stats().jobs, static_cast<std::uint64_t>(kJobs + 1));
}

TEST(ProcessModel, SuspendAndWakeAreAccounted) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  mp.poll_grace = 1000;  // 1 us
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  p.post(100, [] {});
  sim.run();  // job + poll grace + suspend
  EXPECT_EQ(p.stats().suspends, 1u);
  EXPECT_EQ(p.stats().polling, 1000u);  // grace burned at 1 cycle/ns
  // Second wake pays another wakeup.
  p.post(100, [] {});
  sim.run();
  EXPECT_EQ(p.stats().wakeups, 2u);
}

TEST(ProcessModel, ColocatedProcessesUseKernelWake) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc a(sim, "a"), b(sim, "b");
  a.pin(m.thread(0));
  b.pin(m.thread(0));

  SimTime done = 0;
  a.post(100, [&] { done = sim.now(); });
  sim.run();
  // Shared thread -> kernel-assisted wake: slower than MWAIT and burns
  // kernel cycles.
  EXPECT_GE(done, mp.wake_kernel_latency);
  EXPECT_GE(a.stats().kernel, mp.wake_kernel_cycles);
}

TEST(ProcessModel, FifoPreservedAcrossWakeup) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  std::vector<int> order;
  // Both posts land while the process is still waking: order must hold.
  p.post(10, [&] { order.push_back(1); });
  p.post(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ProcessModel, WokenJobsInterleaveWithOtherEventsInPostOrder) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 2;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc a(sim, "a"), b(sim, "b");
  a.pin(m.thread(0));
  b.pin(m.thread(1));

  // Both processes wake at the same deadline; each one's jobs must run in
  // its own post order however the two wakes interleave.
  std::vector<int> order;
  a.post(10, [&] { order.push_back(1); });
  b.post(10, [&] { order.push_back(10); });
  a.post(10, [&] { order.push_back(2); });
  b.post(10, [&] { order.push_back(20); });
  a.post(10, [&] { order.push_back(3); });
  sim.run();
  std::vector<int> a_order, b_order;
  for (const int v : order) (v < 10 ? a_order : b_order).push_back(v);
  EXPECT_EQ(a_order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(b_order, (std::vector<int>{10, 20}));
}

TEST(ProcessModel, CrashDuringWakeDropsWokenJobsButNotLaterOnes) {
  Simulator sim;
  MachineParams mp;
  mp.cores = 1;
  mp.freq = Frequency{1.0};
  Machine& m = sim.add_machine(mp);
  TestProc p(sim, "p");
  p.pin(m.thread(0));

  std::vector<int> ran;
  p.post(10, [&] { ran.push_back(1); });
  p.post(10, [&] { ran.push_back(2); });
  p.crash();  // both jobs still wait on the wake deadline
  p.restart();
  // A fresh wake in the new epoch: only this job may run, and the stale
  // wake events must not hand it one of the dead jobs.
  p.post(10, [&] { ran.push_back(3); });
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{3}));
}

// ---------------------------------------------------------------------------
// SmallFnOf inline budgets
// ---------------------------------------------------------------------------

/// Counts heap allocations of the callables below: SmallFnOf's fallback
/// allocates with `new Fn`, which picks up the class operator new.
struct HeapCounted {
  static inline int news = 0;
  static inline int deletes = 0;
  static void* operator new(std::size_t n) {
    ++news;
    return ::operator new(n);
  }
  static void operator delete(void* ptr) {
    ++deletes;
    ::operator delete(ptr);
  }
};

/// 16 B: one shared_ptr, the size of a socket callback's weak_ptr.
struct Capture16 : HeapCounted {
  std::shared_ptr<int> token;
  int operator()(int x) const { return x + *token; }
};

/// 48 B: the size of the largest in-tree test/bench callbacks.
struct Capture48 : HeapCounted {
  std::shared_ptr<int> token;
  std::array<std::uint64_t, 4> pad{1, 2, 3, 4};
  int operator()(int x) const {
    return x + *token + static_cast<int>(pad[3]);
  }
};

TEST(SmallFnOf, SixteenByteCaptureIsHeldInline) {
  using Fn16 = SmallFnOf<int(int), 16>;
  static_assert(sizeof(Fn16) == 24, "16 B inline + ops pointer, no padding");
  static_assert(sizeof(SmallFn) == 96);
  static_assert(sizeof(Capture16) == 16);
  HeapCounted::news = HeapCounted::deletes = 0;

  auto token = std::make_shared<int>(5);
  {
    Fn16 fn(Capture16{{}, token});
    Fn16 moved(std::move(fn));
    EXPECT_EQ(moved(1), 6);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(HeapCounted::news, 0);
  EXPECT_EQ(token.use_count(), 1);

  // The same budget holds one weak_ptr (what a socket's callbacks capture).
  std::weak_ptr<int> wp = token;
  int seen = 0;
  SmallFnOf<void(), 16> by_weak([wp, &seen] { seen = *wp.lock(); });
  by_weak();
  EXPECT_EQ(seen, 5);
}

TEST(SmallFnOf, FortyEightByteCaptureSpillsToHeapAndStaysCorrect) {
  using Fn16 = SmallFnOf<int(int), 16>;
  static_assert(sizeof(Capture48) == 48);
  HeapCounted::news = HeapCounted::deletes = 0;
  auto token = std::make_shared<int>(2);
  {
    Fn16 a(Capture48{{}, token});
    EXPECT_EQ(HeapCounted::news, 1);
    EXPECT_EQ(a(1), 1 + 2 + 4);

    // Moves relocate the pointer, not the callable: no new allocation.
    Fn16 b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b(10), 10 + 2 + 4);
    Fn16 c;
    c = std::move(b);
    EXPECT_EQ(c(0), 2 + 4);
    EXPECT_EQ(HeapCounted::news, 1);
    EXPECT_EQ(token.use_count(), 2);

    // Assigning over a heap-held callable destroys the old one.
    c = Fn16(Capture48{{}, token});
    EXPECT_EQ(HeapCounted::news, 2);
    EXPECT_EQ(HeapCounted::deletes, 1);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(HeapCounted::deletes, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFnOf, DifferentBudgetsNeverConvert) {
  // Wrapping one budget's SmallFnOf in another would hide a heap
  // allocation (and a second indirection): it is a compile error.
  using Fn16 = SmallFnOf<void(), 16>;
  static_assert(!std::is_constructible_v<Fn16, SmallFn&&>);
  static_assert(!std::is_constructible_v<SmallFn, Fn16&&>);
  static_assert(!std::is_assignable_v<Fn16&, SmallFn&&>);
  static_assert(!std::is_assignable_v<SmallFn&, Fn16&&>);
  static_assert(std::is_nothrow_move_constructible_v<Fn16>);
  static_assert(std::is_nothrow_move_assignable_v<Fn16>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Machines
// ---------------------------------------------------------------------------

TEST(MachineModel, PaperTestbedsHavePaperShapes) {
  const auto amd = amd_opteron_6168();
  EXPECT_EQ(amd.cores, 12);
  EXPECT_EQ(amd.threads_per_core, 1);
  EXPECT_DOUBLE_EQ(amd.freq.ghz, 1.9);

  const auto xeon = intel_xeon_e5520();
  EXPECT_EQ(xeon.cores, 8);
  EXPECT_EQ(xeon.threads_per_core, 2);
  EXPECT_DOUBLE_EQ(xeon.freq.ghz, 2.26);
}

TEST(MachineModel, HtSpeedupWithinPhysicalBounds) {
  const auto xeon = intel_xeon_e5520();
  // Two busy siblings must deliver more than one thread but less than two.
  EXPECT_GT(2 * xeon.ht_shared_speed, 1.0);
  EXPECT_LT(2 * xeon.ht_shared_speed, 2.0);
}

}  // namespace
}  // namespace neat::sim
