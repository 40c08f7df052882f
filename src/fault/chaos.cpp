#include "fault/chaos.hpp"

#include <algorithm>
#include <array>

namespace neat::fault {

const char* to_string(ChaosKind k) {
  switch (k) {
    case ChaosKind::kReplicaCrash: return "replica_crash";
    case ChaosKind::kComponentCrash: return "component_crash";
    case ChaosKind::kDriverCrash: return "driver_crash";
    case ChaosKind::kConcurrent: return "concurrent";
    case ChaosKind::kCrashStorm: return "crash_storm";
    case ChaosKind::kHandshakeCrash: return "handshake_crash";
    case ChaosKind::kScaleDownCrash: return "scale_down_crash";
    case ChaosKind::kLinkBlip: return "link_blip";
  }
  return "?";
}

ChaosCampaign::ChaosCampaign(NeatHost& host, nic::Link& link, ChaosConfig cfg)
    : host_(host), link_(link), cfg_(cfg), rng_(cfg.seed) {}

void ChaosCampaign::start() {
  end_at_ = host_.simulator().now() + cfg_.duration;
  schedule_next();
}

void ChaosCampaign::schedule_next() {
  const auto gap = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(
             rng_.exponential(static_cast<double>(cfg_.mean_fault_gap))));
  const sim::SimTime at = host_.simulator().now() + gap;
  if (at >= end_at_) return;  // schedule exhausted; settle phase begins
  host_.simulator().schedule(gap, [this] {
    inject_one();
    schedule_next();
  });
}

ChaosKind ChaosCampaign::draw_kind() {
  const std::array<std::pair<ChaosKind, double>, 8> weighted{{
      {ChaosKind::kReplicaCrash, cfg_.w_replica_crash},
      {ChaosKind::kComponentCrash, cfg_.w_component_crash},
      {ChaosKind::kDriverCrash, cfg_.w_driver_crash},
      {ChaosKind::kConcurrent, cfg_.w_concurrent},
      {ChaosKind::kCrashStorm, cfg_.w_crash_storm},
      {ChaosKind::kHandshakeCrash, cfg_.w_handshake_crash},
      {ChaosKind::kScaleDownCrash, cfg_.w_scale_down_crash},
      {ChaosKind::kLinkBlip, cfg_.w_link_blip},
  }};
  double total = 0;
  for (const auto& [k, w] : weighted) total += w;
  double x = rng_.uniform() * total;
  for (const auto& [k, w] : weighted) {
    if (x < w) return k;
    x -= w;
  }
  return ChaosKind::kReplicaCrash;
}

StackReplica* ChaosCampaign::random_active() {
  auto active = host_.active_replicas();
  if (active.empty()) return nullptr;
  return active[rng_.below(active.size())];
}

void ChaosCampaign::inject_one() {
  ++report_.faults_injected;
  switch (draw_kind()) {
    case ChaosKind::kReplicaCrash: do_replica_crash(); break;
    case ChaosKind::kComponentCrash: do_component_crash(); break;
    case ChaosKind::kDriverCrash: do_driver_crash(); break;
    case ChaosKind::kConcurrent: do_concurrent(); break;
    case ChaosKind::kCrashStorm: do_crash_storm(); break;
    case ChaosKind::kHandshakeCrash: do_handshake_crash(); break;
    case ChaosKind::kScaleDownCrash: do_scale_down_crash(); break;
    case ChaosKind::kLinkBlip: do_link_blip(); break;
  }
}

void ChaosCampaign::do_replica_crash() {
  if (StackReplica* r = random_active()) {
    ++report_.replica_crashes;
    host_.inject_crash(*r, Component::kWhole);
  }
}

void ChaosCampaign::do_component_crash() {
  StackReplica* r = random_active();
  if (r == nullptr) return;
  ++report_.component_crashes;
  if (r->crash_loses_tcp_state(Component::kUdp)) {
    // No component isolation (one process): every crash is a whole crash.
    host_.inject_crash(*r, Component::kWhole);
    return;
  }
  static constexpr std::array<Component, 4> kComponents{
      Component::kTcp, Component::kIp, Component::kUdp, Component::kFilter};
  host_.inject_crash(*r, kComponents[rng_.below(kComponents.size())]);
}

void ChaosCampaign::do_driver_crash() {
  ++report_.driver_crashes;
  host_.inject_driver_crash();
}

void ChaosCampaign::do_concurrent() {
  ++report_.concurrent_faults;
  host_.inject_driver_crash();
  if (StackReplica* r = random_active()) {
    host_.inject_crash(*r, Component::kWhole);
  }
}

void ChaosCampaign::do_crash_storm() {
  auto active = host_.active_replicas();
  if (active.empty()) return;
  ++report_.crash_storms;
  // Fisher-Yates prefix: pick storm_size distinct victims.
  const std::size_t n = std::min(cfg_.storm_size, active.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + rng_.below(active.size() - i);
    std::swap(active[i], active[j]);
    host_.inject_crash(*active[i], Component::kWhole);
  }
}

void ChaosCampaign::do_handshake_crash() {
  // Prefer a replica with a handshake in flight — the hardest point to
  // lose state (the paper's SYN-replay discussion).
  auto active = host_.active_replicas();
  StackReplica* victim = nullptr;
  for (auto* r : active) {
    if (r->tcp().pending_handshake_count() > 0) {
      victim = r;
      break;
    }
  }
  if (victim == nullptr && !active.empty()) {
    victim = active[rng_.below(active.size())];
  }
  if (victim != nullptr) {
    ++report_.handshake_crashes;
    host_.inject_crash(*victim, Component::kWhole);
  }
}

void ChaosCampaign::do_scale_down_crash() {
  // Only meaningful with a survivor to take the load, and only legal with
  // tracking filters (draining a loaded replica without them is a hard
  // error — see NeatHost::begin_scale_down); fall back otherwise.
  auto active = host_.active_replicas();
  if (active.size() < 2 || !host_.nic().params().tracking_filters) {
    do_replica_crash();
    return;
  }
  ++report_.scale_down_crashes;
  StackReplica* r = active[rng_.below(active.size())];
  host_.begin_scale_down(*r);
  // Crash it mid-drain, shortly after the steering change lands.
  const auto delay = 1 + rng_.below(5 * sim::kMillisecond);
  host_.simulator().schedule(delay, [this, r] {
    if (!r->terminated) host_.inject_crash(*r, Component::kWhole);
  });
}

void ChaosCampaign::do_link_blip() {
  if (blip_active_) return;  // one blip at a time
  ++report_.link_blips;
  blip_active_ = true;
  pre_blip_ = link_.set_impairment(cfg_.blip);
  host_.simulator().schedule(cfg_.blip_duration, [this] {
    link_.set_impairment(pre_blip_);
    blip_active_ = false;
  });
}

const ChaosReport& ChaosCampaign::audit() {
  auto violation = [this](std::string msg) {
    report_.violations.push_back(std::move(msg));
  };

  // 1. Supervision completeness: every logged crash was watchdog-detected
  //    and resolved, within the configured detection bound.
  const sim::SimTime detect_bound =
      Supervisor::kWatchdogTimeout + 2 * Supervisor::kHeartbeatPeriod;
  for (std::size_t i = 0; i < host_.recovery_log().size(); ++i) {
    const auto& ev = host_.recovery_log()[i];
    if (ev.detected_at == 0) {
      violation("event " + std::to_string(i) + " (" + ev.component +
                ") was never detected by the watchdog");
      continue;
    }
    if (ev.detection_latency() > detect_bound) {
      violation("event " + std::to_string(i) + " detection latency " +
                std::to_string(ev.detection_latency()) + "ns exceeds bound " +
                std::to_string(detect_bound) + "ns");
    }
    if (ev.recovered_at == 0) {
      violation("event " + std::to_string(i) + " (" + ev.component +
                ") was detected but never resolved");
    }
  }

  // 2. The driver must be back up once the dust settles.
  if (host_.driver().crashed()) violation("driver still down after settle");

  // 3. Steering consistency: every indirection entry points to a serving,
  //    non-terminating, non-quarantined replica with a live endpoint.
  for (const int q : host_.nic().indirection()) {
    StackReplica* owner = nullptr;
    for (std::size_t i = 0; i < host_.replica_count(); ++i) {
      if (host_.replica(i).queue() == q) {
        owner = &host_.replica(i);
        break;
      }
    }
    if (owner == nullptr) {
      violation("steering entry -> queue " + std::to_string(q) +
                " has no replica");
      continue;
    }
    if (owner->terminating || owner->terminated || owner->quarantined) {
      violation("steering entry -> replica " + std::to_string(owner->id()) +
                " which is terminating/terminated/quarantined");
    } else if (!host_.driver().endpoint_active(q)) {
      violation("steering entry -> queue " + std::to_string(q) +
                " whose driver endpoint is inactive");
    }
  }

  // 4. Every active replica is actually alive and replays every durable
  //    listener (subsocket replication survived all restarts).
  const auto ports = host_.listen_ports();
  for (auto* r : host_.active_replicas()) {
    for (auto* p : r->processes()) {
      if (p->crashed()) {
        violation("active replica " + std::to_string(r->id()) +
                  " has a crashed component process");
      }
    }
    for (const auto port : ports) {
      if (r->tcp().listener(port) == nullptr) {
        violation("active replica " + std::to_string(r->id()) +
                  " lost listener on port " + std::to_string(port));
      }
    }
  }

  // 5. Quarantine hygiene: quarantined replicas stay fully down and out of
  //    the serving set.
  const auto serving = host_.serving_replicas();
  for (std::size_t i = 0; i < host_.replica_count(); ++i) {
    StackReplica& r = host_.replica(i);
    if (!r.quarantined) continue;
    for (auto* p : r.processes()) {
      if (!p->crashed()) {
        violation("quarantined replica " + std::to_string(r.id()) +
                  " has a running process");
      }
    }
    if (std::find(serving.begin(), serving.end(), &r) != serving.end()) {
      violation("quarantined replica " + std::to_string(r.id()) +
                " still in serving set");
    }
  }

  return report_;
}

}  // namespace neat::fault
