// The isolated-process abstraction.
//
// NEaT's first design principle is isolation: every component of the system
// is a single-threaded, event-driven process that owns its state and
// communicates only via message passing. A sim::Process models one such
// process: work is delivered to it as (cycle-cost, callback) jobs that
// execute serially on the hardware thread the process is pinned to.
//
// The model captures the behaviours the paper's evaluation depends on:
//  * sleep/wake — an idle process polls briefly, then suspends via MWAIT;
//    waking it costs latency (and kernel cycles when the wake must be
//    kernel-assisted because the process shares its hardware thread);
//  * crash/restart — a crashed process silently drops all queued and future
//    work until restarted, and stale timers from before the crash never
//    fire (epoch guard), which is what makes stateless recovery safe.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace neat::sim {

class Simulator;

/// Cumulative per-process accounting, in cycles of the owning thread.
/// Table 2 derives its CPU-usage breakdown from snapshots of these.
struct ProcStats {
  Cycles processing{0};  ///< useful work (job costs)
  Cycles polling{0};     ///< spinning on empty queues before suspending
  Cycles kernel{0};      ///< suspend/resume and kernel-assisted wakes
  std::uint64_t jobs{0};
  std::uint64_t wakeups{0};
  std::uint64_t suspends{0};

  [[nodiscard]] Cycles total_active() const {
    return processing + polling + kernel;
  }
};

class Process {
 public:
  Process(Simulator& sim, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Pin to a hardware thread. Must be called before any post(). Re-pinning
  /// while idle is allowed (used by the scale-down relocation strategy).
  void pin(HwThread& thread);

  [[nodiscard]] HwThread* thread() const { return thread_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& sim() const { return sim_; }
  [[nodiscard]] const ProcStats& stats() const { return stats_; }

  /// Deliver work: after `cost` cycles of CPU time on this process's
  /// thread, run `fn`. If the process is suspended this first pays the
  /// wake-up penalty. Work posted to a crashed process is silently dropped
  /// (messages to a dead process are lost, exactly as in the real system).
  /// `fn` is any void() callable; it is built directly in the thread's job
  /// ring (or, during a wake, in the wake FIFO — one move later).
  template <typename F>
  void post(Cycles cost, F&& fn) {
    assert(thread_ != nullptr &&
           "process must be pinned before receiving work");
    if (crashed_) return;
    ++backlog_;
    if (run_state_ == RunState::kSuspended ||
        run_state_ == RunState::kWaking) {
      post_waking(cost).emplace(std::forward<F>(fn));
      return;
    }
    run_state_ = RunState::kAwake;
    thread_->submit(*this, epoch_, cost, std::forward<F>(fn));
  }

  /// Schedule work `delay` ns in the future (timers). The job is dropped if
  /// the process crashes or restarts in the meantime — a restarted replica
  /// must never see timers from its previous life.
  ///
  /// Template so the epoch-guard wrapper captures the caller's callable
  /// directly: the combined closure stays within SmallFn's inline budget
  /// (a nested SmallFn never would), keeping timers allocation-free.
  template <typename F>
  EventHandle after(SimTime delay, Cycles cost, F fn) {
    const auto epoch = epoch_;
    return queue_.schedule(
        delay, [this, epoch, cost, fn = std::move(fn)]() mutable {
          if (crashed_ || epoch_ != epoch) return;
          post(cost, std::move(fn));
        });
  }

  /// Whether this process may spin-poll when idle (true for drivers and
  /// stack replicas with a dedicated hardware thread). Processes sharing a
  /// hardware thread always block instead — the paper's "slower
  /// communication channels" for colocated components.
  void set_can_poll(bool v) { can_poll_ = v; }
  [[nodiscard]] bool can_poll() const;

  // --- fault injection ----------------------------------------------------
  /// Kill the process: queued jobs and all future posts are dropped.
  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Bring the process back (fresh state). Invokes on_restart().
  void restart();
  /// Epoch increments on crash *and* restart; jobs carry the epoch they
  /// were created in and are dropped if it no longer matches.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Number of jobs delivered but not yet executed.
  [[nodiscard]] std::uint64_t backlog() const { return backlog_; }

 protected:
  virtual void on_crash() {}
  virtual void on_restart() {}

 private:
  friend class HwThread;

  enum class RunState { kAwake, kPolling, kSuspended, kWaking };

  /// The wake half of post(): pays or joins the wake, queues the event
  /// that submits the job at the wake deadline, and returns the empty
  /// callable slot of the job's wake-FIFO entry for post() to fill.
  SmallFn& post_waking(Cycles cost);

  void account_processing(Cycles c) {
    stats_.processing += c;
    ++stats_.jobs;
  }
  void account_polling(Cycles c) { stats_.polling += c; }
  void account_kernel(Cycles c) { stats_.kernel += c; }
  /// Called by HwThread when the process runs out of work.
  void became_idle();
  /// Called by HwThread when the poll grace expires.
  void suspend();

  Simulator& sim_;
  EventQueue& queue_;  // sim_.queue(), reachable here where sim_ is not
  std::string name_;
  HwThread* thread_{nullptr};
  ProcStats stats_;
  RunState run_state_{RunState::kSuspended};
  bool can_poll_{true};
  bool crashed_{false};
  std::uint64_t epoch_{0};
  std::uint64_t backlog_{0};
  SimTime wake_deadline_{0};  // valid while run_state_ == kWaking

  /// Jobs posted while the process wakes, in post order. Each such post
  /// schedules one small event at the wake deadline that submits the
  /// oldest entry, so the events stay exactly where a job-carrying event
  /// would have been (same time, same tie-break order) while the job's
  /// callable never has to fit inside another closure.
  struct WokenJob {
    Cycles cost;
    Cycles kernel_cost;
    SmallFn fn;
  };
  std::vector<WokenJob> woken_;
  std::size_t woken_head_{0};
};

}  // namespace neat::sim
