#include "neat/supervisor.hpp"

#include <algorithm>
#include <cassert>

#include "neat/host.hpp"

namespace neat {

Supervisor::Supervisor(NeatHost& host) : host_(host) {}

Supervisor::~Supervisor() {
  for (auto& w : watches_) w->restart_timer.cancel();
}

void Supervisor::watch_replica(StackReplica& r) {
  auto add = [this, &r](Component c) {
    sim::Process* p = r.component(c);
    assert(p != nullptr);
    auto w = std::make_unique<Watch>();
    w->replica = &r;
    w->component = c;
    w->proc = p;
    w->dog = std::make_unique<sim::Watchdog>(
        host_.simulator(), kHeartbeatPeriod, kWatchdogTimeout);
    arm(*w);
    watches_.push_back(std::move(w));
  };
  if (r.processes().size() == 1) {
    add(Component::kWhole);
  } else {
    // One watchdog per isolated component process.
    add(Component::kTcp);
    add(Component::kIp);
    add(Component::kUdp);
    add(Component::kFilter);
  }
}

void Supervisor::unwatch_replica(StackReplica& r) {
  for (auto& w : watches_) {
    if (w->replica == &r) w->restart_timer.cancel();
  }
  std::erase_if(watches_, [&r](const std::unique_ptr<Watch>& w) {
    return w->replica == &r;
  });
}

void Supervisor::watch_driver() {
  auto w = std::make_unique<Watch>();
  w->replica = nullptr;
  w->proc = &host_.driver();
  w->dog = std::make_unique<sim::Watchdog>(
      host_.simulator(), kHeartbeatPeriod, kWatchdogTimeout);
  arm(*w);
  watches_.push_back(std::move(w));
}

void Supervisor::shutdown() {
  for (auto& w : watches_) {
    w->restart_timer.cancel();
    w->dog.reset();  // dtor cancels the probe timer
  }
  watches_.clear();
}

int Supervisor::consecutive_crashes(const StackReplica& r) const {
  auto it = replica_loop_.find(r.id());
  return it == replica_loop_.end() ? 0 : it->second.consecutive;
}

bool Supervisor::restart_pending(const StackReplica& r, Component c) const {
  sim::Process* p = const_cast<StackReplica&>(r).component(c);
  for (const auto& w : watches_) {
    if (w->replica == &r && w->proc == p) return w->restart_pending;
  }
  return false;
}

bool Supervisor::driver_restart_pending() const {
  for (const auto& w : watches_) {
    if (w->replica == nullptr) return w->restart_pending;
  }
  return false;
}

void Supervisor::arm(Watch& w) {
  sim::Process* proc = w.proc;
  Watch* wp = &w;
  w.dog->arm(
      // The probe: a heartbeat job posted into the monitored process. A
      // crashed process silently drops posts, so acks simply stop.
      [proc](std::function<void()> ack) {
        proc->post(kHeartbeatCost, [ack = std::move(ack)] { ack(); });
      },
      [this, wp](sim::SimTime silent) { on_silent(*wp, silent); });
}

void Supervisor::on_silent(Watch& w, sim::SimTime silent_for) {
  (void)silent_for;
  if (w.restart_pending) return;  // already being handled
  if (!w.proc->crashed()) {
    // Spurious: the target is alive (e.g. externally restarted before the
    // watchdog noticed the gap). Resume monitoring.
    arm(w);
    return;
  }
  const sim::SimTime now = host_.simulator().now();
  const int rid = w.replica == nullptr ? -1 : w.replica->id();
  const std::string comp =
      w.replica == nullptr ? "nicdrv" : to_string(w.component);
  const std::size_t idx = host_.note_detection(rid, comp, now);
  ++stats_.detections;
  const sim::SimTime lat = host_.event(idx).detection_latency();
  stats_.detection_latency_total += lat;
  stats_.detection_latency_max = std::max(stats_.detection_latency_max, lat);
  host_.metrics().histogram("recovery.crash_to_detect_ns").record(lat);
  if (w.replica == nullptr) {
    handle_driver_death(w, idx);
  } else {
    handle_replica_death(w, idx);
  }
  // `w` may have been destroyed (quarantine / scale-down collect): no
  // member access past this point.
}

void Supervisor::handle_replica_death(Watch& w, std::size_t event_idx) {
  StackReplica& rep = *w.replica;
  const sim::SimTime death_at = host_.event(event_idx).at;
  const bool tcp_loss = rep.crash_loses_tcp_state(w.component);

  // A replica that dies while draining under lazy termination never
  // rejoins steering. If its TCP state is gone there is nothing left to
  // drain: collect it now. Otherwise restart it (below) so the surviving
  // connections finish; the GC collects it as usual.
  if (rep.terminating && tcp_loss) {
    RecoveryEvent& ev = host_.event(event_idx);
    ev.action = "gc";
    ev.recovered_at = host_.simulator().now();
    ++stats_.scale_down_collects;
    host_.collect_replica(rep);  // destroys `w` — return immediately
    return;
  }

  // Crash-loop accounting: an uptime of at least stability_window since
  // the previous recovery resets the consecutive counter.
  LoopState& loop = replica_loop_[rep.id()];
  if (loop.last_recover == 0 ||
      death_at - loop.last_recover >= kStabilityWindow) {
    loop.consecutive = 1;
  } else {
    ++loop.consecutive;
  }

  if (!rep.terminating && loop.consecutive >= kQuarantineAfter) {
    RecoveryEvent& ev = host_.event(event_idx);
    ev.action = "quarantine";
    ev.backoff_level = loop.consecutive - 1;
    ev.recovered_at = host_.simulator().now();
    ++stats_.quarantines;
    host_.quarantine_replica(rep);  // destroys `w`
    if (host_.spawn_replacement(rep) != nullptr) {
      ++stats_.replacements;
      // The replacement's spawn is part of handling this failure.
      host_.event(event_idx).action = "replace";
    }
    return;
  }

  const int level = loop.consecutive - 1;
  stats_.max_backoff_level = std::max(stats_.max_backoff_level, level);
  host_.event(event_idx).backoff_level = level;
  w.restart_pending = true;
  Watch* wp = &w;
  w.restart_timer = host_.simulator().schedule(
      backoff_delay(level),
      [this, wp, event_idx] { complete_replica_restart(*wp, event_idx); });
}

void Supervisor::complete_replica_restart(Watch& w, std::size_t event_idx) {
  w.restart_pending = false;
  StackReplica& rep = *w.replica;
  const std::size_t restored = host_.recover_replica(rep, w.component);
  RecoveryEvent& ev = host_.event(event_idx);
  ev.recovered_at = host_.simulator().now();
  if (restored > 0) ev.connections_restored = restored;
  ++stats_.restarts;
  replica_loop_[rep.id()].last_recover = host_.simulator().now();
  sim::Simulator& sim = host_.simulator();
  host_.metrics().histogram("recovery.crash_to_recovered_ns")
      .record(ev.recovery_latency());
  sim.tracer().emit({sim.now(), 0, "neat", "restart", 0, rep.id(),
                     "\"since_crash_ns\":" +
                         std::to_string(ev.recovery_latency())});
  // The outage isn't over until the restarted replica serves again: the
  // next accept() on it closes the crash-to-first-service window.
  host_.await_first_service(rep.id(), event_idx);
  arm(w);  // monitor the fresh incarnation
}

void Supervisor::handle_driver_death(Watch& w, std::size_t event_idx) {
  const sim::SimTime death_at = host_.event(event_idx).at;
  if (driver_loop_.last_recover == 0 ||
      death_at - driver_loop_.last_recover >= kStabilityWindow) {
    driver_loop_.consecutive = 1;
  } else {
    ++driver_loop_.consecutive;
  }
  // The driver is the one component with no replacement (§3.5): backoff
  // grows but it is always restarted.
  const int level = driver_loop_.consecutive - 1;
  stats_.max_backoff_level = std::max(stats_.max_backoff_level, level);
  host_.event(event_idx).backoff_level = level;
  w.restart_pending = true;
  Watch* wp = &w;
  w.restart_timer = host_.simulator().schedule(
      backoff_delay(level),
      [this, wp, event_idx] { complete_driver_restart(*wp, event_idx); });
}

void Supervisor::complete_driver_restart(Watch& w, std::size_t event_idx) {
  w.restart_pending = false;
  host_.recover_driver();
  RecoveryEvent& ev = host_.event(event_idx);
  ev.recovered_at = host_.simulator().now();
  ++stats_.driver_restarts;
  driver_loop_.last_recover = host_.simulator().now();
  sim::Simulator& sim = host_.simulator();
  host_.metrics().histogram("recovery.crash_to_recovered_ns")
      .record(ev.recovery_latency());
  sim.tracer().emit({sim.now(), 0, "neat", "restart", 0, -1,
                     "\"component\":\"nicdrv\",\"since_crash_ns\":" +
                         std::to_string(ev.recovery_latency())});
  arm(w);
}

sim::SimTime Supervisor::backoff_delay(int level) const {
  double d = static_cast<double>(kRestartDelay);
  for (int i = 0; i < level; ++i) d *= kBackoffMultiplier;
  d = std::min(d, static_cast<double>(kBackoffCap));
  return std::max<sim::SimTime>(1, static_cast<sim::SimTime>(d));
}

}  // namespace neat
