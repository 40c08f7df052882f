#include "neat/host.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace neat {

// ---------------------------------------------------------------------------
// SyscallServer
// ---------------------------------------------------------------------------

SyscallServer::SyscallServer(sim::Simulator& sim, StackCosts costs)
    : sim::Process(sim, "syscall"),
      ch_(*this, 4096, ipc::kDefaultChannelLatency, costs.syscall_server,
          [](sim::SmallFn&& op) { op(); }) {}

// ---------------------------------------------------------------------------
// NeatHost
// ---------------------------------------------------------------------------

namespace {
/// Cadence of the lazy-termination garbage collector (§3.4).
constexpr sim::SimTime kGcPeriod = 10 * sim::kMillisecond;

/// Placeholder for "all remaining operating system processes" sharing the
/// OS core (paper §6.3). It idles unless someone posts work at it.
class OsProcess final : public sim::Process {
 public:
  explicit OsProcess(sim::Simulator& sim) : sim::Process(sim, "os") {}
};
}  // namespace

NeatHost::NeatHost(sim::Simulator& sim, sim::Machine& machine, nic::Nic& nic,
                   Config config)
    : sim_(sim),
      machine_(machine),
      nic_(nic),
      config_(config),
      driver_(std::make_unique<drv::NicDriver>(sim, nic, config.costs)),
      syscall_(std::make_unique<SyscallServer>(sim, config.costs)),
      os_proc_(std::make_unique<OsProcess>(sim)),
      rng_(sim.rng().split(0x4057)) {
  if (config_.hub != nullptr) nic_.bind_hub(config_.hub);
  if (config_.smartnic_offload) driver_->set_hardware_offload(true);
  supervisor_ = std::make_unique<Supervisor>(*this);
  supervisor_->watch_driver();
  gc_timer_ = sim_.schedule(kGcPeriod, [this] { gc_tick(); });
}

NeatHost::~NeatHost() { gc_timer_.cancel(); }

StackReplica& NeatHost::add_replica(
    const std::vector<sim::HwThread*>& pins) {
  assert(!pins.empty());
  const int id = static_cast<int>(replicas_.size());
  const int queue = id;  // one NIC queue pair per replica
  std::unique_ptr<StackReplica> rep;
  if (config_.kind == Config::Kind::kSingle) {
    auto r = std::make_unique<SingleComponentReplica>(
        sim_, id, queue, *driver_, nic_.mac(), nic_.ip(), config_.costs,
        config_.tcp, hub());
    r->pin(*pins[0]);
    rep = std::move(r);
  } else {
    auto r = std::make_unique<MultiComponentReplica>(
        sim_, id, queue, *driver_, nic_.mac(), nic_.ip(), config_.costs,
        config_.tcp, hub());
    sim::HwThread* tcp_pin = pins[0];
    sim::HwThread* ip_pin = pins.size() > 1 ? pins[1] : pins[0];
    sim::HwThread* udp_pin = pins.size() > 2 ? pins[2] : ip_pin;
    sim::HwThread* pf_pin = pins.size() > 3 ? pins[3] : ip_pin;
    r->tcp_component().pin(*tcp_pin);
    r->ip_component().pin(*ip_pin);
    r->component(Component::kUdp)->pin(*udp_pin);
    r->component(Component::kFilter)->pin(*pf_pin);
    rep = std::move(r);
  }
  StackReplica& ref = *rep;
  replicas_.push_back(std::move(rep));
  replica_pins_.push_back(pins);
  checkpoints_.resize(replicas_.size());
  if (config_.checkpoint_interval > 0) {
    sim_.schedule(config_.checkpoint_interval,
                  [this, id] { checkpoint_tick(id); });
  }
  driver_->announce_endpoint(queue, &ref.rx_channel());
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "scale_up", 0, id,
                        "\"queue\":" + std::to_string(queue)});
  }
  update_steering();
  // Subsocket replication: every recorded listener appears on the new
  // replica too, so it immediately shares the accept load.
  replay_listens(ref);
  replay_udp_binds(ref);
  supervisor_->watch_replica(ref);
  return ref;
}

std::vector<StackReplica*> NeatHost::active_replicas() {
  std::vector<StackReplica*> out;
  for (auto& r : replicas_) {
    if (!r->terminating && !r->terminated && !r->quarantined &&
        !r->tcp_process().crashed()) {
      out.push_back(r.get());
    }
  }
  return out;
}

std::vector<StackReplica*> NeatHost::serving_replicas() {
  std::vector<StackReplica*> out;
  for (auto& r : replicas_) {
    if (!r->terminated && !r->quarantined) out.push_back(r.get());
  }
  return out;
}

StackReplica* NeatHost::pick_replica() {
  auto active = active_replicas();
  if (active.empty()) return nullptr;
  return active[rng_.below(active.size())];
}

void NeatHost::record_listen(ListenRecord rec) {
  listen_registry_.push_back(std::move(rec));
}

void NeatHost::remove_listen(std::uint16_t port) {
  std::erase_if(listen_registry_,
                [port](const ListenRecord& r) { return r.port == port; });
  for (auto* r : serving_replicas()) {
    r->tcp_process().post(config_.costs.replica_control, [r, port] {
      r->tcp().close_listener(port);
    });
  }
}

void NeatHost::replay_listens(StackReplica& replica) {
  for (const auto& rec : listen_registry_) {
    replica.tcp_process().post(
        config_.costs.replica_control, [&replica, rec] {
          net::TcpListener* l = replica.tcp().listen(rec.port, rec.backlog);
          if (l == nullptr) l = replica.tcp().listener(rec.port);
          if (l != nullptr && rec.wire) rec.wire(replica, *l);
        });
  }
}

void NeatHost::record_udp_bind(UdpBindRecord rec) {
  udp_bind_registry_.push_back(rec);
  for (auto* r : serving_replicas()) {
    r->component(Component::kUdp)->post(
        config_.costs.replica_control,
        [r, rec] {
          if (rec.wire) rec.wire(*r, r->udp());
        });
  }
}

void NeatHost::remove_udp_bind(std::uint16_t port) {
  std::erase_if(udp_bind_registry_,
                [port](const UdpBindRecord& r) { return r.port == port; });
  for (auto* r : serving_replicas()) {
    r->component(Component::kUdp)->post(
        config_.costs.replica_control,
        [r, port] { r->udp().unbind(port); });
  }
}

void NeatHost::replay_udp_binds(StackReplica& replica) {
  for (const auto& rec : udp_bind_registry_) {
    replica.component(Component::kUdp)->post(
        config_.costs.replica_control, [&replica, rec] {
          if (rec.wire) rec.wire(replica, replica.udp());
        });
  }
}

void NeatHost::update_steering() {
  std::vector<int> queues;
  for (auto* r : active_replicas()) queues.push_back(r->queue());
  if (queues.empty()) return;
  driver_->control([this, queues] { nic_.set_active_queues(queues); });
}

void NeatHost::begin_scale_down(StackReplica& replica) {
  if (replica.terminating || replica.terminated) return;
  // Draining leans entirely on the NIC's per-flow tracking filters: pulling
  // the replica's queue out of the RSS indirection re-shuffles every flow
  // that has no exact-match filter, so without filters the "drain" resets
  // the very connections it was meant to preserve. That is a configuration
  // bug, not a degraded mode — fail loudly.
  if (!nic_.params().tracking_filters &&
      replica.tcp().active_connection_count() > 0) {
    std::fprintf(stderr,
                 "neat: lazy termination requires tracking filters "
                 "(draining replica %d holds %zu connections)\n",
                 replica.id(), replica.tcp().active_connection_count());
    std::abort();
  }
  replica.terminating = true;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "scale_down", 0, replica.id(),
                        "\"conns_draining\":" + std::to_string(
                            replica.tcp().active_connection_count())});
  }
  // (ii) new connections bypass it; existing flows keep their path thanks
  // to the NIC's per-flow tracking filters.
  update_steering();
}

void NeatHost::migrate_connections(StackReplica& from, StackReplica& to,
                                   std::function<void(std::size_t)> on_done) {
  assert(&from != &to);
  // The repoint of per-flow exact-match filters IS the migration mechanism
  // on the RX side; without tracking filters the moved flows would hash
  // back to the source's queue and die there.
  if (!nic_.params().tracking_filters) {
    std::fprintf(stderr,
                 "neat: connection migration requires tracking filters\n");
    std::abort();
  }
  NeatHost* self = this;
  StackReplica* src = &from;
  StackReplica* dst = &to;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "migrate_begin", 0, from.id(),
                        "\"to\":" + std::to_string(to.id())});
  }
  // 1. Open the NIC capture window (driver/control context). Keys are read
  //    at the same instant the window opens so nothing slips past: every
  //    frame for a moving flow from here on is buffered, not delivered.
  driver_->control([self, src, dst, on_done = std::move(on_done)] {
    auto keys = std::make_shared<std::vector<net::FlowKey>>();
    src->tcp().for_each_connection(
        [&](net::TcpSocket& s) { keys->push_back(s.flow()); });
    self->nic_.begin_flow_capture(*keys);
    const sim::SimTime t0 = self->sim_.now();
    // 2. Freeze + extract in the source's TCP context, charged per conn.
    const sim::Cycles freeze = self->config_.costs.migrate_cost(keys->size());
    src->tcp_process().post(freeze, [self, src, dst, t0, on_done] {
      auto cp = std::make_shared<net::TcpCheckpoint>(
          src->tcp().extract_for_migration());
      // 3. Ship the image over IPC: the adopt cost lands in the target's
      //    TCP context and scales with the serialized bytes.
      const sim::Cycles thaw =
          self->config_.costs.migrate_cost(cp->conns.size(), cp->bytes());
      dst->tcp_process().post(thaw, [self, src, dst, cp, t0, on_done] {
        auto adopted = std::make_shared<std::vector<net::TcpSocketPtr>>(
            dst->tcp().adopt(*cp));
        // 4. Repoint the filters, then close the window and replay what it
        //    buffered — strictly in this order, and only now: a filter
        //    repointed before adopt would deliver frames to a stack that
        //    does not know the flow yet (instant RST), and a replay before
        //    the repoint would re-deliver to the drained source.
        self->driver_->control([self, src, dst, cp, adopted, t0, on_done] {
          for (const auto& c : cp->conns) {
            self->nic_.add_flow_filter(c.flow, dst->queue());
          }
          self->nic_.end_flow_capture();
          // 5. Socket libraries re-home their fd-attached sockets.
          for (auto* l : self->listeners_) {
            l->on_connections_migrated(*src, *dst, *adopted);
          }
          const sim::SimTime blackout = self->sim_.now() - t0;
          self->metrics()
              .histogram("neat.migration_blackout_ns")
              .record(blackout);
          self->metrics().counter("neat.migrations").inc();
          if (self->sim_.tracer().enabled()) {
            self->sim_.tracer().emit(
                {self->sim_.now(), 0, "neat", "migrate_done", 0, src->id(),
                 "\"to\":" + std::to_string(dst->id()) + ",\"conns\":" +
                     std::to_string(cp->conns.size()) + ",\"blackout_ns\":" +
                     std::to_string(blackout)});
          }
          if (on_done) on_done(cp->conns.size());
        });
      });
    });
  });
}

void NeatHost::retire_queue(int queue) {
  driver_->deactivate_endpoint(queue);
  // Purge tracking filters pinned to the dead queue: a reused 4-tuple
  // would otherwise steer its SYN into a queue nobody drains (a silent
  // connect blackhole). Fall back to RSS over the live replicas instead.
  driver_->control([this, queue] { nic_.remove_filters_for_queue(queue); });
}

void NeatHost::gc_tick() {
  for (auto& r : replicas_) {
    // A drainer that *crashed* is not collected here: its zero connection
    // count is the crash's doing, not a clean drain. The supervisor's
    // watchdog must detect the death and collect it (stamping the recovery
    // log), otherwise the event would vanish unaccounted.
    if (r->terminating && !r->terminated && !r->tcp_process().crashed() &&
        r->tcp().active_connection_count() == 0) {
      // (iii) connection count hit zero: collect the replica. Its cores
      // are now free for applications. Unwatch first — these crashes are
      // deliberate, not failures for the watchdog to recover.
      supervisor_->unwatch_replica(*r);
      r->terminated = true;
      retire_queue(r->queue());
      for (auto* p : r->processes()) p->crash();
      metrics().counter("neat.lazy_terminations").inc();
    }
  }
  gc_timer_ = sim_.schedule(kGcPeriod, [this] { gc_tick(); });
}

void NeatHost::checkpoint_tick(int replica_id) {
  StackReplica& rep = *replicas_[static_cast<std::size_t>(replica_id)];
  if (!rep.terminated) {
    // The checkpoint pass runs inside the TCP process and is charged per
    // connection — this is the run-time overhead stateful recovery costs.
    const auto conns = rep.tcp().connection_count();
    const sim::Cycles cost =
        config_.costs.checkpoint_base +
        config_.costs.checkpoint_per_conn * static_cast<sim::Cycles>(conns);
    rep.tcp_process().post(cost, [this, replica_id, &rep] {
      checkpoints_[static_cast<std::size_t>(replica_id)] =
          rep.tcp().snapshot();
    });
  }
  sim_.schedule(config_.checkpoint_interval,
                [this, replica_id] { checkpoint_tick(replica_id); });
}

void NeatHost::inject_crash(StackReplica& replica, Component component) {
  sim::Process* proc = replica.component(component);
  assert(proc != nullptr);
  if (proc->crashed()) return;

  const bool tcp_loss = replica.crash_loses_tcp_state(component);
  RecoveryEvent ev;
  ev.at = sim_.now();
  ev.replica_id = replica.id();
  ev.component = to_string(component);
  ev.tcp_state_lost = tcp_loss;
  ev.connections_lost = tcp_loss ? replica.tcp().connection_count() : 0;
  recovery_log_.push_back(ev);
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "crash", 0, replica.id(),
                        "\"component\":\"" + ev.component +
                            "\",\"conns_lost\":" +
                            std::to_string(ev.connections_lost)});
  }

  // The crash: state vanishes silently (on_crash hooks). That is ALL this
  // does — recovery belongs to the supervisor, whose watchdog must notice
  // the silence and schedule the restart (or quarantine). There is no
  // oracle restart path; a second inject while the component is already
  // down returns early above, so restarts cannot double-schedule.
  proc->crash();
  // The driver stops passing packets to the replica until it announces
  // itself again (§3.6) — only needed when the RX-facing component died.
  if (replica.crash_loses_rx_endpoint(component)) {
    driver_->deactivate_endpoint(replica.queue());
  }
}

void NeatHost::power_off() {
  if (powered_off_) return;
  powered_off_ = true;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "power_off", 0, -1,
                        "\"host\":" + std::to_string(config_.host_id)});
  }
  // Supervision first: with the watchdogs and pending restart timers gone,
  // nothing can resurrect any of the processes we are about to kill.
  supervisor_->shutdown();
  gc_timer_.cancel();
  for (auto& r : replicas_) {
    r->terminated = true;
    for (auto* p : r->processes()) {
      if (!p->crashed()) p->crash();
    }
  }
  if (!driver_->crashed()) driver_->crash();
  if (!syscall_->crashed()) syscall_->crash();
  if (!os_proc_->crashed()) os_proc_->crash();
}

void NeatHost::inject_driver_crash() {
  if (driver_->crashed()) return;
  RecoveryEvent ev;
  ev.at = sim_.now();
  ev.component = "nicdrv";
  ev.tcp_state_lost = false;
  recovery_log_.push_back(ev);
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "crash", 0, -1,
                        "\"component\":\"nicdrv\""});
  }
  // Crash only; the supervisor's driver watchdog detects and restarts.
  driver_->crash();
}

std::size_t NeatHost::recover_replica(StackReplica& replica,
                                      Component component) {
  sim::Process* proc = replica.component(component);
  assert(proc != nullptr);
  if (!proc->crashed()) return 0;
  proc->restart();
  replica.reset_after_restart(component);
  replica.rx_channel().rebind(replica.rx_channel().consumer());
  const bool tcp_loss = replica.crash_loses_tcp_state(component);
  std::size_t restored_count = 0;
  if (tcp_loss) {
    // Stateful recovery: restore whatever the last checkpoint captured
    // (empty vector under the default stateless strategy), then tell the
    // applications which sockets survived and which are gone.
    std::vector<net::TcpSocketPtr> restored;
    if (config_.checkpoint_interval > 0) {
      restored = replica.tcp().restore(
          checkpoints_[static_cast<std::size_t>(replica.id())]);
      restored_count = restored.size();
    }
    for (auto* l : listeners_) l->on_replica_tcp_recovery(replica, restored);
    // Re-create the listening subsockets: the TCP server is reachable
    // again right after recovery. A draining replica skips this — it must
    // not attract fresh connections (§3.4).
    if (!replica.terminating) replay_listens(replica);
  }
  // The UDP port mux died whenever its hosting process did (always, for a
  // single-component replica). Re-install the durable binds.
  if (replica.crash_loses_udp_mux(component)) {
    replay_udp_binds(replica);
  }
  // Replica announces itself; the driver resumes delivery.
  driver_->control([this, &replica] {
    driver_->announce_endpoint(replica.queue(), &replica.rx_channel());
  });
  return restored_count;
}

void NeatHost::recover_driver() {
  if (!driver_->crashed()) return;
  driver_->restart();
  // Replica TX channels into the driver forget in-flight frames.
  //
  // Re-announce every replica that should be receiving. A replica
  // recovered while the driver was down — or in the window before its
  // announce control op executed — lost that announce (work posted to a
  // crashed process is silently dropped), and nothing else would ever
  // repair the endpoint: the steering entry stays live while the driver
  // drops every frame for it. Crashed replicas are skipped; their own
  // recovery re-announces them. Announcing an already-active endpoint is
  // idempotent (it just re-kicks the ring scan).
  for (auto& r : replicas_) {
    if (r->terminated || r->rx_channel().consumer().crashed()) continue;
    StackReplica& replica = *r;
    driver_->control([this, &replica] {
      driver_->announce_endpoint(replica.queue(), &replica.rx_channel());
    });
  }
  update_steering();
}

void NeatHost::quarantine_replica(StackReplica& replica) {
  if (replica.quarantined) return;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit(
        {sim_.now(), 0, "neat", "quarantine", 0, replica.id(), ""});
  }
  awaiting_first_service_.erase(replica.id());
  supervisor_->unwatch_replica(replica);
  replica.quarantined = true;
  replica.terminated = true;  // GC, checkpointing and steering all skip it
  retire_queue(replica.queue());
  for (auto* p : replica.processes()) {
    if (!p->crashed()) p->crash();
  }
  // Apps learn every socket on this replica is gone for good.
  for (auto* l : listeners_) l->on_replica_tcp_recovery(replica, {});
  update_steering();
}

StackReplica* NeatHost::spawn_replacement(StackReplica& failed) {
  const int queue = static_cast<int>(replicas_.size());
  if (queue >= nic_.params().num_queues) return nullptr;
  const auto pins = replica_pins_[static_cast<std::size_t>(failed.id())];
  return &add_replica(pins);
}

void NeatHost::collect_replica(StackReplica& replica) {
  if (replica.terminated) return;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "collect", 0, replica.id(), ""});
  }
  awaiting_first_service_.erase(replica.id());
  supervisor_->unwatch_replica(replica);
  replica.terminated = true;
  retire_queue(replica.queue());
  for (auto* p : replica.processes()) {
    if (!p->crashed()) p->crash();
  }
  // Unlike the clean GC path this replica still had connections; the apps
  // must learn they are gone.
  for (auto* l : listeners_) l->on_replica_tcp_recovery(replica, {});
}

std::size_t NeatHost::note_detection(int replica_id,
                                     const std::string& component,
                                     sim::SimTime detected_at) {
  for (std::size_t i = recovery_log_.size(); i-- > 0;) {
    RecoveryEvent& ev = recovery_log_[i];
    if (ev.replica_id == replica_id && ev.component == component &&
        ev.detected_at == 0 && ev.recovered_at == 0) {
      ev.detected_at = detected_at;
      return i;
    }
  }
  // A death the injection log never saw (defensive; all current crash
  // paths log before crashing).
  RecoveryEvent ev;
  ev.at = detected_at;
  ev.replica_id = replica_id;
  ev.component = component;
  ev.detected_at = detected_at;
  recovery_log_.push_back(ev);
  return recovery_log_.size() - 1;
}

void NeatHost::await_first_service(int replica_id, std::size_t event_idx) {
  awaiting_first_service_[replica_id] = event_idx;
}

void NeatHost::note_first_service(StackReplica& replica) {
  auto it = awaiting_first_service_.find(replica.id());
  if (it == awaiting_first_service_.end()) return;
  RecoveryEvent& ev = recovery_log_[it->second];
  awaiting_first_service_.erase(it);
  ev.first_service_at = sim_.now();
  metrics()
      .histogram("recovery.crash_to_first_service_ns")
      .record(ev.first_service_latency());
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "neat", "first_service", 0,
                        replica.id(),
                        "\"since_crash_ns\":" +
                            std::to_string(ev.first_service_latency())});
  }
}

std::vector<std::uint16_t> NeatHost::listen_ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(listen_registry_.size());
  for (const auto& rec : listen_registry_) out.push_back(rec.port);
  return out;
}

}  // namespace neat
