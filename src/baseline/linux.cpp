#include "baseline/linux.hpp"

#include <algorithm>
#include <cassert>

#include "socklib/conn_events.hpp"

namespace neat::baseline {

// ---------------------------------------------------------------------------
// KernelLock
// ---------------------------------------------------------------------------

sim::Cycles KernelLock::acquire(sim::SimTime now, int core, sim::Cycles hold,
                                sim::Frequency freq,
                                const LinuxCosts& costs) {
  ++acquisitions_;
  sim::Cycles extra = costs.lock_uncontended;
  if (busy_until_ > now) {
    ++contended_;
    extra += freq.cycles_in(busy_until_ - now);  // spin while queued
  }
  const sim::SimTime start = std::max(now, busy_until_);
  busy_until_ = start + freq.duration(hold);
  if (last_core_ != core && last_core_ != -1) {
    extra += costs.cacheline_transfer;  // lock line moves between caches
  }
  last_core_ = core;
  return extra;
}

// ---------------------------------------------------------------------------
// SoftirqProcess
// ---------------------------------------------------------------------------

SoftirqProcess::SoftirqProcess(sim::Simulator& sim, LinuxHost& host,
                               int index)
    : sim::Process(sim, "softirq" + std::to_string(index)),
      host_(host),
      draining_(static_cast<std::size_t>(host.nic().params().num_queues),
                0) {}

void SoftirqProcess::kick(int queue) {
  auto& draining = draining_[static_cast<std::size_t>(queue)];
  if (draining) return;
  if (host_.nic().rx_depth(queue) == 0) return;
  draining = 1;
  const int core = thread() != nullptr ? thread()->core_id() : 0;
  const sim::Cycles cost =
      host_.config().costs.softirq_rx +
      host_.shared_state_cost(core,
                              host_.config().costs.shared_lines_per_packet);
  post(cost, [this, queue] { drain_one(queue); });
}

void SoftirqProcess::drain_one(int queue) {
  draining_[static_cast<std::size_t>(queue)] = 0;
  net::PacketPtr pkt = host_.nic().poll_rx(queue);
  if (pkt) host_.handle_frame_in_softirq(*this, std::move(pkt));
  if (host_.nic().rx_depth(queue) > 0) {
    draining_[static_cast<std::size_t>(queue)] = 1;
    const int core = thread() != nullptr ? thread()->core_id() : 0;
    const sim::Cycles cost =
        host_.config().costs.softirq_rx +
        host_.shared_state_cost(core,
                                host_.config().costs.shared_lines_per_packet);
    post(cost, [this, queue] { drain_one(queue); });
  }
}

// ---------------------------------------------------------------------------
// LinuxHost
// ---------------------------------------------------------------------------

LinuxHost::LinuxHost(sim::Simulator& sim, sim::Machine& machine,
                     nic::Nic& nic, Config config)
    : sim_(sim),
      machine_(machine),
      nic_(nic),
      config_(config),
      rng_(sim.rng().split(0x11u)),
      ip_(nic.mac(), nic.ip(),
          [this](net::PacketPtr f) { nic_.transmit(std::move(f)); }),
      tcp_(*this, nic.ip(), [&] {
        net::TcpConfig c = config.tcp;
        c.tso = config.tuning.tso;
        return c;
      }()) {
  const int cores = machine.cores();
  softirqs_.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    auto p = std::make_unique<SoftirqProcess>(sim, *this, c);
    p->pin(machine.thread(c, 0));
    p->set_can_poll(false);  // shares the core with the app scheduled there
    softirqs_.push_back(std::move(p));
  }

  // IRQ affinity: tuned = queue i -> core i; default = everything lands on
  // core 0 plus whatever irqbalance happens to spread (we model the
  // pre-tuning state as a lopsided spread over the first half of cores).
  const int queues = nic.params().num_queues;
  queue_to_softirq_.resize(static_cast<std::size_t>(queues));
  for (int q = 0; q < queues; ++q) {
    if (config_.tuning.irq_affinity) {
      queue_to_softirq_[static_cast<std::size_t>(q)] = q % cores;
    } else {
      queue_to_softirq_[static_cast<std::size_t>(q)] =
          (q % 2 == 0) ? 0 : (q / 2) % std::max(1, cores / 2);
    }
  }

  nic_.set_active_queues([&] {
    std::vector<int> qs;
    for (int q = 0; q < queues; ++q) qs.push_back(q);
    return qs;
  }());
  nic_.set_rx_notify([this](int queue) {
    softirqs_[static_cast<std::size_t>(
                  queue_to_softirq_[static_cast<std::size_t>(queue)])]
        ->kick(queue);
  });

  migration_timer_ = sim_.schedule(sim::kMillisecond, [this] {
    migration_tick();
  });
}

LinuxHost::~LinuxHost() { migration_timer_.cancel(); }

int LinuxHost::register_app(sim::Process& app, sim::HwThread& initial) {
  app.pin(initial);
  app.set_can_poll(false);  // Linux processes block in epoll_wait
  apps_.push_back(AppEntry{&app});
  return static_cast<int>(apps_.size()) - 1;
}

void LinuxHost::migration_tick() {
  // CFS moves unpinned processes between cores for balance; every move
  // costs cycles and destroys cache locality for a while. The balancer
  // targets lightly loaded threads (it is not random scatter), so steady
  // state stays roughly balanced — the damage is churn, not imbalance.
  if (!config_.tuning.pin_servers && !apps_.empty()) {
    const double per_tick =
        config_.costs.migration_rate_hz / 1000.0;  // ticks are 1 ms
    // Current occupancy per hardware thread.
    const int threads = machine_.cores() * machine_.threads_per_core();
    std::vector<int> load(static_cast<std::size_t>(threads), 0);
    auto slot_of = [&](const sim::Process* p) {
      return p->thread()->core_id() * machine_.threads_per_core() +
             p->thread()->thread_id();
    };
    for (const auto& a : apps_) ++load[static_cast<std::size_t>(slot_of(a.proc))];
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      auto& a = apps_[i];
      if (rng_.uniform() >= per_tick) continue;
      // Balance-preserving churn: either move to a strictly less loaded
      // thread, or swap places with another process (both happen in CFS
      // wakeup/idle balancing). Either way the mover(s) pay the migration
      // cost and lose cache locality for a while.
      const auto s1 = rng_.below(static_cast<std::uint64_t>(threads));
      const auto s2 = rng_.below(static_cast<std::uint64_t>(threads));
      const auto dst = load[s1] <= load[s2] ? s1 : s2;
      const auto src = static_cast<std::size_t>(slot_of(a.proc));
      if (dst != src && load[dst] < load[src]) {
        --load[src];
        ++load[dst];
        const int c = static_cast<int>(dst) / machine_.threads_per_core();
        const int t = static_cast<int>(dst) % machine_.threads_per_core();
        a.proc->pin(machine_.thread(c, t));
        a.proc->post(config_.costs.migration, [] {});
        continue;
      }
      const std::size_t j = rng_.below(apps_.size());
      if (j == i) continue;
      auto& b = apps_[j];
      sim::HwThread* ta = a.proc->thread();
      sim::HwThread* tb = b.proc->thread();
      if (ta == tb) continue;
      a.proc->pin(*tb);
      b.proc->pin(*ta);
      a.proc->post(config_.costs.migration, [] {});
      b.proc->post(config_.costs.migration, [] {});
    }
  }
  migration_timer_ = sim_.schedule(sim::kMillisecond, [this] {
    migration_tick();
  });
}

sim::Cycles LinuxHost::shared_state_cost(int core, int lines) {
  // Each contended line behaves like a tiny lock: serialized updates whose
  // cache line bounces between writing cores. The conn/timer locks model
  // the two hottest ones; remaining lines cost a transfer each.
  sim::Cycles extra = 0;
  const auto& freq = machine_.params().freq;
  extra += conn_lock_.acquire(sim_.now(), core, 60, freq, config_.costs);
  if (lines > 1) {
    extra += timer_lock_.acquire(sim_.now(), core, 40, freq, config_.costs);
  }
  for (int i = 2; i < lines; ++i) {
    extra += config_.costs.cacheline_transfer;
  }
  if (!config_.tuning.deadline_sched) extra += config_.costs.sched_noise;
  return extra;
}

sim::Cycles LinuxHost::locality_penalty() const {
  // With RSS spreading flows over queues, the softirq that processed a
  // packet usually ran on a different core than the server reading the
  // socket; the socket structures cross caches. Good affinity settings
  // shrink the penalty; rxAff without serv pinning *grows* it (the paper
  // observed exactly that regression). RFS brings nothing once everything
  // is pinned, matching the paper.
  const auto& t = config_.tuning;
  const auto& c = config_.costs;
  sim::Cycles p = c.locality_miss;
  if (!t.pin_servers) {
    p += c.unpinned_penalty;
    if (t.rx_affinity) p += c.rxaff_mismatch;
  } else if (t.rx_affinity) {
    p = c.locality_miss / 2;
  }
  return p;
}

sim::Cycles LinuxHost::syscall_cost(sim::Cycles base, int core, int lines) {
  return config_.costs.syscall_mode + base + shared_state_cost(core, lines);
}

sim::EventHandle LinuxHost::start_timer(sim::SimTime delay,
                                        std::function<void()> fn) {
  // Kernel timers fire in softirq context (timer wheel on CPU 0).
  return softirqs_[0]->after(delay, 800, std::move(fn));
}

void LinuxHost::tx(net::PacketPtr segment, net::Ipv4Addr src,
                   net::Ipv4Addr dst) {
  // Transmit work executes in whatever kernel context triggered it.
  sim::Process* ctx = current_ != nullptr ? current_ : softirqs_[0].get();
  const int core = ctx->thread() != nullptr ? ctx->thread()->core_id() : 0;
  sim::Cycles cost = config_.costs.kernel_tx +
                     config_.costs.per_16_bytes * (segment->size() / 16) +
                     shared_state_cost(core, 2);
  if (!config_.tuning.tso && segment->size() > net::kEthernetMtu) {
    cost += config_.costs.no_tso_per_mtu *
            (segment->size() / net::kEthernetMtu);
  }
  ctx->post(cost, [this, segment = std::move(segment), src, dst]() mutable {
    if (dst == ip()) {
      tcp_.rx(src, dst, std::move(segment));
      return;
    }
    ip_.send(std::move(segment), net::IpProto::kTcp, src, dst);
  });
}

void LinuxHost::handle_frame_in_softirq(SoftirqProcess& ctx,
                                        net::PacketPtr frame) {
  set_current(&ctx);
  auto decoded = ip_.rx_frame(frame);
  if (decoded) {
    if (decoded->hdr.proto == net::IpProto::kTcp) {
      tcp_.rx(decoded->hdr.src, decoded->hdr.dst,
              std::move(decoded->payload));
    }
    // (UDP/ICMP omitted in the baseline: the evaluation is TCP-only.)
  }
  set_current(nullptr);
}

// ---------------------------------------------------------------------------
// LinuxSockets
// ---------------------------------------------------------------------------

/// Kernel socket glue: the socket owns its TCB, whose events arrive in
/// softirq context and wake the app through its epoll doorbell.
struct LinuxSockets::LinuxSocket final
    : public std::enable_shared_from_this<LinuxSockets::LinuxSocket>,
      private net::TcpSocket::Owner {
  LinuxSocket(sim::Process& app, LinuxHost& host, net::TcpSocketPtr t,
              socklib::Fd fd, bool notify_connect)
      : tcp(std::move(t)),
        wake_cost(host.config().costs.epoll_wake),
        events(app, fd, notify_connect) {
    tcp->set_owner(this);
  }

  // The TCB may outlive the socket (TIME_WAIT).
  ~LinuxSocket() { tcp->set_owner(nullptr); }

  /// Point at the app's table, then deliver the edges that fired before
  /// it was installed: data (or a close) may have raced ahead of accept().
  void init(const socklib::ConnCallbacks* callbacks) {
    using socklib::ConnEvents;
    events.set_callbacks(callbacks);
    if (tcp->readable() > 0 || tcp->eof()) raise(ConnEvents::kReadable);
    if (tcp->state() == net::TcpState::kClosed) raise(ConnEvents::kClosed);
  }

  void on_tcp_event(net::TcpEvent ev, net::TcpCloseReason r) override {
    using socklib::ConnEvents;
    switch (ev) {
      case net::TcpEvent::kEstablished: raise(ConnEvents::kConnected); return;
      case net::TcpEvent::kReadable: raise(ConnEvents::kReadable); return;
      case net::TcpEvent::kWritable: raise(ConnEvents::kWritable); return;
      case net::TcpEvent::kClosed:
        events.set_close_reason(socklib::to_close_reason(r));
        raise(ConnEvents::kClosed);
        return;
    }
  }

  // The bell's handler may capture a bare `this`: a ring's delivery holds
  // this socket (its owner) for the handler's duration.
  void raise(std::uint8_t bits) {
    events.raise(bits, wake_cost, *this, [this] {
      if (events.run_pending()) events.deliver_close();
    });
  }

  net::TcpSocketPtr tcp;
  sim::Cycles wake_cost;
  socklib::ConnEvents events;
};

LinuxSockets::LinuxSockets(sim::Process& app, LinuxHost& host,
                           int /*app_core_hint*/)
    : app_(app), host_(host) {}

int LinuxSockets::core() const {
  return app_.thread() != nullptr ? app_.thread()->core_id() : 0;
}

void LinuxSockets::charge(sim::Cycles base, int lines) {
  app_.post(host_.syscall_cost(base, core(), lines), [] {});
}

socklib::Fd LinuxSockets::listen(std::uint16_t port, std::size_t backlog,
                                 std::function<void()> on_acceptable) {
  charge(host_.config().costs.sys_accept, 2);  // socket+bind+listen
  net::TcpListener* l = host_.tcp().listen(port, backlog);
  if (l == nullptr) return socklib::kBadFd;
  const socklib::Fd fd = next_fd_++;
  auto bell = std::make_shared<ipc::BoundDoorbell>(
      app_, host_.config().costs.epoll_wake, std::move(on_acceptable));
  l->set_accept_ready([bell] { bell->ring(); });
  listeners_.emplace(fd, ListenEntry{port, bell});
  return fd;
}

socklib::Fd LinuxSockets::accept(socklib::Fd listen_fd,
                                 const socklib::ConnCallbacks* cb) {
  auto it = listeners_.find(listen_fd);
  if (it == listeners_.end()) return socklib::kBadFd;
  net::TcpListener* l = host_.tcp().listener(it->second.port);
  if (l == nullptr) return socklib::kBadFd;
  // Accepting takes the listener lock — the contended path recent Linux
  // work (MegaPipe, affinity-accept) attacks; NEaT sidesteps it entirely.
  const sim::Cycles lock_extra = host_.accept_lock().acquire(
      host_.simulator().now(), core(), 150, host_.machine().params().freq,
      host_.config().costs);
  net::TcpSocketPtr tcp = l->accept();
  charge(host_.config().costs.sys_accept + lock_extra, 2);
  if (!tcp) return socklib::kBadFd;
  return wire(std::move(tcp), cb, false);
}

socklib::Fd LinuxSockets::connect(net::SockAddr remote,
                                  const socklib::ConnCallbacks* cb) {
  charge(host_.config().costs.sys_connect, 3);
  host_.set_current(&app_);
  net::TcpSocketPtr tcp = host_.tcp().connect(remote);
  host_.set_current(nullptr);
  if (!tcp) return socklib::kBadFd;
  return wire(std::move(tcp), cb, true);
}

socklib::Fd LinuxSockets::wire(net::TcpSocketPtr tcp,
                               const socklib::ConnCallbacks* cb,
                               bool notify_connect) {
  const socklib::Fd fd = next_fd_++;
  auto sock = std::make_shared<LinuxSocket>(app_, host_, std::move(tcp), fd,
                                            notify_connect);
  sock->init(cb);
  conns_.emplace(fd, std::move(sock));
  return fd;
}

std::size_t LinuxSockets::send(socklib::Fd fd,
                               std::span<const std::uint8_t> data) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return 0;
  // The write path carries the per-request shared-state contention bill:
  // every response touches globally shared kernel structures whose cache
  // lines bounce between all active cores (quadratic collapse — see
  // "Non-scalable locks are dangerous" [16]).
  const auto nc = static_cast<sim::Cycles>(host_.machine().cores() - 1);
  const sim::Cycles contention =
      host_.config().costs.contention_quad * nc * nc;
  charge(host_.config().costs.sys_write + contention +
             host_.config().costs.per_16_bytes * (data.size() / 16) +
             host_.locality_penalty(),
         2);
  host_.set_current(&app_);
  const std::size_t n = it->second->tcp->send(data);
  host_.set_current(nullptr);
  return n;
}

std::size_t LinuxSockets::recv(socklib::Fd fd, std::span<std::uint8_t> dst) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return 0;
  charge(host_.config().costs.sys_read +
             host_.config().costs.per_16_bytes * (dst.size() / 16),
         1);
  host_.set_current(&app_);
  const std::size_t n = it->second->tcp->recv(dst);
  host_.set_current(nullptr);
  return n;
}

std::size_t LinuxSockets::readable(socklib::Fd fd) const {
  auto it = conns_.find(fd);
  return it == conns_.end() ? 0 : it->second->tcp->readable();
}

bool LinuxSockets::eof(socklib::Fd fd) const {
  auto it = conns_.find(fd);
  return it == conns_.end() ? true : it->second->tcp->eof();
}

void LinuxSockets::close(socklib::Fd fd) {
  if (auto it = conns_.find(fd); it != conns_.end()) {
    charge(host_.config().costs.sys_close, 2);
    it->second->events.set_callbacks(nullptr);
    host_.set_current(&app_);
    it->second->tcp->close();
    host_.set_current(nullptr);
    conns_.erase(it);
    return;
  }
  if (auto it = listeners_.find(fd); it != listeners_.end()) {
    host_.tcp().close_listener(it->second.port);
    listeners_.erase(it);
  }
}

}  // namespace neat::baseline
