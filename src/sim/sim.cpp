#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace neat::sim {

// ---------------------------------------------------------------------------
// HwThread
// ---------------------------------------------------------------------------

HwThread::HwThread(Simulator& sim, const MachineParams& params, int core_id,
                   int thread_id)
    : sim_(sim), params_(params), core_id_(core_id), thread_id_(thread_id) {}

double HwThread::speed_factor() const {
  if (sibling_ != nullptr && sibling_->contending()) {
    return params_.ht_shared_speed;
  }
  return 1.0;
}

void HwThread::grow() {
  constexpr std::size_t kInitialJobs = 16;
  const std::size_t capacity = capacity_ == 0 ? kInitialJobs : 2 * capacity_;
  auto next = std::make_unique<Job[]>(capacity);
  // A running callable cannot be moved out from under itself: leave it in
  // the old buffer (an empty placeholder holds its place at the new head)
  // and keep that buffer alive until finish_current() is done with it.
  const std::size_t first = in_callable_ ? 1 : 0;
  for (std::size_t i = first; i < count_; ++i) {
    next[i] = std::move(ring_[(head_ + i) & (capacity_ - 1)]);
  }
  if (in_callable_ && !parked_) parked_ = std::move(ring_);
  ring_ = std::move(next);
  capacity_ = capacity;
  head_ = 0;
}

void HwThread::preempt_poll() {
  assert(state_ == State::kPolling);
  assert(polling_proc_ != nullptr);
  // Account the cycles burned spinning until this instant.
  const SimTime spun = sim_.now() - poll_started_;
  polling_proc_->account_polling(params_.freq.cycles_in(spun));
  polling_proc_ = nullptr;
  ++run_token_;  // invalidate the pending poll-expiry event
  state_ = State::kIdle;
}

void HwThread::begin_poll(Process& proc) {
  assert(state_ == State::kIdle);
  state_ = State::kPolling;
  polling_proc_ = &proc;
  poll_started_ = sim_.now();
  const auto token = ++run_token_;
  sim_.queue().post(params_.poll_grace, [this, token, p = &proc] {
    if (run_token_ != token || state_ != State::kPolling) return;
    p->account_polling(params_.freq.cycles_in(params_.poll_grace));
    polling_proc_ = nullptr;
    state_ = State::kIdle;
    p->suspend();
  });
}

bool HwThread::pick_next(SimTime& dur) {
  while (true) {
    if (count_ == 0) {
      state_ = State::kIdle;
      // Everyone pinned here is out of work: poll (sole pollable process)
      // or suspend (colocated processes use blocking channels).
      for (auto* thread_proc : pinned_procs_) thread_proc->became_idle();
      return false;
    }
    Job& job = ring_[head_];
    Process& p = *job.proc;
    if (p.crashed() || p.epoch() != job.epoch) {
      // Work queued to a dead (or since-restarted) process evaporates.
      job.fn.reset();
      p.backlog_ = p.backlog_ > 0 ? p.backlog_ - 1 : 0;
      pop_front();
      continue;
    }
    state_ = State::kExecuting;
    const double factor = speed_factor();
    const auto scaled = static_cast<Cycles>(
        static_cast<double>(job.cost + job.kernel_cost) * params_.work_scale);
    dur = params_.freq.duration(scaled, factor);
    return true;
  }
}

void HwThread::start_next() {
  SimTime dur = 0;
  if (pick_next(dur)) {
    sim_.queue().post(dur, [this] { complete_current(); });
  }
}

void HwThread::finish_current() {
  // `job` stays valid across its callable even if the callable grows the
  // ring: grow() leaves it in place and parks its buffer.
  Job& job = ring_[head_];
  Process& p = *job.proc;
  if (!p.crashed() && p.epoch() == job.epoch) {
    p.account_processing(job.cost);
    if (p.backlog_ > 0) --p.backlog_;
    if (job.fn) {
      in_callable_ = true;
      job.fn();
      in_callable_ = false;
    }
  } else if (p.backlog_ > 0) {
    --p.backlog_;
  }
  job.fn.reset();
  parked_.reset();
  pop_front();
  state_ = State::kIdle;
}

void HwThread::complete_current() {
  // Fused completion: after finishing a job, if the event queue confirms
  // that nothing anywhere in the simulation is due at or before the next
  // job's completion time, run that job inline — virtual time jumps
  // straight to its end and the heap is never touched. Back-to-back jobs
  // on a busy thread (an RX burst worth of protocol work) then run as one
  // chain with a single heap pop total. Fusion only happens here, at the
  // tail of a completion event — never from submit()/start_next(), where
  // advancing now_ would warp time under an unrelated caller.
  for (;;) {
    finish_current();
    SimTime dur = 0;
    if (!pick_next(dur)) return;
    if (sim_.queue().try_advance(sim_.now() + dur)) continue;  // fused
    sim_.queue().post(dur, [this] { complete_current(); });
    return;
  }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(Simulator& sim, MachineParams params)
    : sim_(sim), params_(std::move(params)) {
  assert(params_.cores > 0);
  assert(params_.threads_per_core >= 1 && params_.threads_per_core <= 2);
  threads_.reserve(
      static_cast<std::size_t>(params_.cores * params_.threads_per_core));
  for (int c = 0; c < params_.cores; ++c) {
    for (int t = 0; t < params_.threads_per_core; ++t) {
      threads_.push_back(std::make_unique<HwThread>(sim_, params_, c, t));
    }
  }
  if (params_.threads_per_core == 2) {
    for (int c = 0; c < params_.cores; ++c) {
      HwThread& a = thread(c, 0);
      HwThread& b = thread(c, 1);
      a.sibling_ = &b;
      b.sibling_ = &a;
    }
  }
}

MachineParams amd_opteron_6168() {
  MachineParams p;
  p.name = "amd12";
  p.cores = 12;
  p.threads_per_core = 1;
  p.freq = Frequency{1.9};
  p.work_scale = 1.0;
  return p;
}

MachineParams intel_xeon_e5520() {
  MachineParams p;
  p.name = "xeon8";
  p.cores = 8;
  p.threads_per_core = 2;
  p.freq = Frequency{2.26};
  p.work_scale = 1.0;
  return p;
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Simulator& sim, std::string name)
    : sim_(sim), queue_(sim.queue()), name_(std::move(name)) {}

Process::~Process() {
  if (thread_ != nullptr) thread_->remove_pinned(*this);
}

void Process::pin(HwThread& thread) {
  if (thread_ != nullptr) thread_->remove_pinned(*this);
  thread_ = &thread;
  thread.add_pinned(*this);
}

bool Process::can_poll() const {
  // Only a process alone on its hardware thread may spin: colocated
  // processes fall back to blocking (kernel) channels automatically.
  return can_poll_ && thread_ != nullptr && thread_->pinned_count() == 1;
}

SmallFn& Process::post_waking(Cycles cost) {
  // Wake path. MWAIT wake when alone on the hardware thread, otherwise a
  // kernel-assisted wake (IPI + context switch), which is both slower and
  // burns destination-side kernel cycles. Messages arriving while the wake
  // is still in flight are delivered at the same deadline so that
  // per-process FIFO order is preserved (the event queue breaks ties in
  // schedule order).
  const MachineParams& mp = thread_->params();
  Cycles kernel_cost = 0;
  if (run_state_ == RunState::kSuspended) {
    ++stats_.wakeups;
    const bool alone = thread_->pinned_count() == 1;
    const SimTime latency =
        alone ? mp.wake_fast_latency : mp.wake_kernel_latency;
    kernel_cost = mp.resume_cycles + (alone ? 0 : mp.wake_kernel_cycles);
    account_kernel(kernel_cost);
    wake_deadline_ = sim_.now() + latency;
    run_state_ = RunState::kWaking;
  }
  const auto epoch = epoch_;
  queue_.post_at(wake_deadline_, [this, epoch] {
    // A crash empties woken_, and this epoch's events fire in post order,
    // so the oldest entry is this event's own job.
    if (crashed_ || epoch_ != epoch) return;
    assert(woken_head_ < woken_.size());
    WokenJob& job = woken_[woken_head_++];
    run_state_ = RunState::kAwake;
    thread_->submit(*this, epoch_, job.cost, std::move(job.fn),
                    job.kernel_cost);
    if (woken_head_ == woken_.size()) {
      woken_.clear();
      woken_head_ = 0;
    }
  });
  return woken_.emplace_back(WokenJob{cost, kernel_cost, {}}).fn;
}

void Process::became_idle() {
  if (crashed_ || backlog_ != 0 || run_state_ != RunState::kAwake) return;
  if (can_poll()) {
    run_state_ = RunState::kPolling;
    thread_->begin_poll(*this);
  } else {
    suspend();
  }
}

void Process::suspend() {
  if (run_state_ == RunState::kSuspended) return;
  run_state_ = RunState::kSuspended;
  ++stats_.suspends;
  account_kernel(thread_->params().suspend_cycles);
}

void Process::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  backlog_ = 0;
  woken_.clear();  // jobs still waiting on the wake die with the process
  woken_head_ = 0;
  run_state_ = RunState::kSuspended;
  on_crash();
}

void Process::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  backlog_ = 0;
  run_state_ = RunState::kSuspended;
  on_restart();
}

}  // namespace neat::sim
