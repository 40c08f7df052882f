// Multicore machine model: cores, hardware threads, and their timing
// parameters.
//
// The paper evaluates on two testbeds — a 12-core AMD Opteron 6168 (1.9 GHz,
// no hyper-threading) and a dual-socket quad-core Intel Xeon E5520 (2.26 GHz,
// 2 hardware threads per core). A Machine captures exactly the properties the
// evaluation depends on: how many independent hardware contexts exist, how a
// hardware thread slows down when its sibling is active, and how fast a cycle
// of work executes.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace neat::sim {

class HwThread;
class Process;
class Simulator;

/// Tunable timing parameters of a machine. Defaults model a contemporary
/// x86 server; the harness overrides per testbed.
struct MachineParams {
  std::string name{"machine"};
  int cores{4};
  int threads_per_core{1};
  Frequency freq{2.0};

  /// Per-cycle efficiency multiplier: cost_in_cycles is multiplied by this
  /// before converting to time. Models per-architecture IPC differences
  /// (the Opteron 6168 retires fewer instructions per cycle than Nehalem).
  double work_scale{1.0};

  /// Speed factor of a hardware thread whose sibling is simultaneously
  /// active. Two busy siblings then deliver 2*0.655 = 1.31x the throughput of
  /// one core — the commonly observed hyper-threading benefit (~31%).
  double ht_shared_speed{0.655};

  /// How long an idle, alone-on-its-thread process keeps polling its queues
  /// before suspending (MWAIT). Table 2's "polling" bucket.
  SimTime poll_grace{14 * kMicrosecond};

  /// Cycles burned in the kernel to suspend (MWAIT is privileged) and to
  /// resume — a NewtOS suspend/resume round trips through the kernel and
  /// scheduler. Table 2's "active in kernel" bucket.
  Cycles suspend_cycles{5000};
  Cycles resume_cycles{5000};

  /// Latency for waking a suspended process on its own hardware thread via
  /// an MWAIT-monitored store. The store itself lands in nanoseconds, but
  /// the sleeper still resumes through its (user-space) scheduler context —
  /// NewtOS-style wakeups of idle components cost several microseconds,
  /// which is exactly the light-load latency effect of Figure 12.
  SimTime wake_fast_latency{25 * kMicrosecond};

  /// Latency and destination-side kernel cost for waking a process that
  /// shares its hardware thread with others (kernel-assisted wake: IPI +
  /// context switch + scheduling).
  SimTime wake_kernel_latency{25 * kMicrosecond};
  Cycles wake_kernel_cycles{2500};
};

/// One hardware thread (architectural context). Executes at most one job at
/// a time; jobs from all processes pinned to it are serialized FIFO.
class HwThread {
 public:
  HwThread(Simulator& sim, const MachineParams& params, int core_id,
           int thread_id);

  HwThread(const HwThread&) = delete;
  HwThread& operator=(const HwThread&) = delete;

  [[nodiscard]] int core_id() const { return core_id_; }
  [[nodiscard]] int thread_id() const { return thread_id_; }
  [[nodiscard]] const MachineParams& params() const { return params_; }

  /// True if the thread is executing a job or spinning in a poll loop —
  /// i.e. it contends with its sibling for core resources. A suspended
  /// (MWAIT'd) thread does not contend.
  [[nodiscard]] bool contending() const { return state_ != State::kIdle; }

  [[nodiscard]] std::size_t pinned_count() const {
    return pinned_procs_.size();
  }

  /// Queue a job: `cost` cycles of work on behalf of `proc` (queued in
  /// process epoch `epoch`), then `fn`, built directly in its ring slot.
  /// `kernel_cost` extends the occupancy (wake/resume overhead) without
  /// counting as useful processing.
  template <typename F>
  void submit(Process& proc, std::uint64_t epoch, Cycles cost, F&& fn,
              Cycles kernel_cost = 0) {
    if (count_ == capacity_) grow();
    Job& job = ring_[(head_ + count_) & (capacity_ - 1)];
    job.proc = &proc;
    job.cost = cost;
    job.kernel_cost = kernel_cost;
    job.epoch = epoch;
    job.fn.emplace(std::forward<F>(fn));
    ++count_;
    if (state_ == State::kPolling) preempt_poll();
    if (state_ == State::kIdle) start_next();
  }

 private:
  friend class Machine;
  friend class Process;

  enum class State { kIdle, kExecuting, kPolling };

  struct Job {
    Process* proc{nullptr};
    Cycles cost{0};         // useful work -> "processing" bucket
    Cycles kernel_cost{0};  // resume/wake overhead -> occupies time only
                            // (already accounted to the kernel bucket)
    std::uint64_t epoch{0};  // process epoch when the job was queued
    SmallFn fn;
  };

  void add_pinned(Process& p) { pinned_procs_.push_back(&p); }
  void remove_pinned(Process& p) {
    std::erase(pinned_procs_, &p);
  }

  /// Interrupt a poll loop (job arrived while polling): accounts the cycles
  /// spent spinning so far and returns to executing.
  void preempt_poll();

  /// Enter the poll-then-suspend sequence on behalf of `proc` (the sole
  /// process pinned here). After poll_grace with no work, `proc.suspend()`
  /// is invoked.
  void begin_poll(Process& proc);

  void start_next();
  /// Bring the next runnable job to head_ (dropping work queued to dead or
  /// restarted processes) and compute its duration. Returns false after
  /// transitioning to idle — no runnable work left.
  [[nodiscard]] bool pick_next(SimTime& dur);
  /// Account + run the finished job at head_, then pop it; leaves
  /// state_ = kIdle.
  void finish_current();
  /// Double the ring. While the head job's callable runs it stays where it
  /// is: the other jobs move and the old buffer is parked until it returns.
  void grow();
  void pop_front() {
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
  }
  /// Completion event: finish the in-flight job, then run as many queued
  /// jobs as the event queue will fuse (EventQueue::try_advance) before
  /// falling back to a scheduled completion for the remainder.
  void complete_current();
  [[nodiscard]] double speed_factor() const;

  Simulator& sim_;
  const MachineParams& params_;
  int core_id_;
  int thread_id_;
  HwThread* sibling_{nullptr};  // wired by Machine
  State state_{State::kIdle};
  /// FIFO of queued jobs: a power-of-two ring that only grows, so its size
  /// is bounded by the deepest backlog the thread ever held. The in-flight
  /// job (state_ == kExecuting) stays at head_ until it finishes, so the
  /// completion event captures only `this`.
  std::unique_ptr<Job[]> ring_;
  std::size_t capacity_{0};
  std::size_t head_{0};
  std::size_t count_{0};
  /// The buffer the running callable lives in, when grow() ran under it.
  std::unique_ptr<Job[]> parked_;
  bool in_callable_{false};
  std::vector<Process*> pinned_procs_;
  Process* polling_proc_{nullptr};
  SimTime poll_started_{0};
  std::uint64_t run_token_{0};  // guards stale poll-expiry events
};

/// A machine: `cores x threads_per_core` hardware threads sharing one set of
/// timing parameters. Thread (c, t) is returned by thread(c, t).
class Machine {
 public:
  Machine(Simulator& sim, MachineParams params);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] int cores() const { return params_.cores; }
  [[nodiscard]] int threads_per_core() const {
    return params_.threads_per_core;
  }

  [[nodiscard]] HwThread& thread(int core, int ht = 0) {
    assert(core >= 0 && core < params_.cores);
    assert(ht >= 0 && ht < params_.threads_per_core);
    return *threads_[static_cast<std::size_t>(core * params_.threads_per_core +
                                              ht)];
  }

 private:
  Simulator& sim_;
  MachineParams params_;
  std::vector<std::unique_ptr<HwThread>> threads_;
};

/// The paper's AMD testbed: 12-core Opteron 6168, 1.9 GHz, no HT.
[[nodiscard]] MachineParams amd_opteron_6168();

/// The paper's Intel testbed: dual quad-core Xeon E5520, 2.26 GHz, 2-way HT
/// (8 cores / 16 hardware threads total).
[[nodiscard]] MachineParams intel_xeon_e5520();

}  // namespace neat::sim
