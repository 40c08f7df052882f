#include "fleet/cluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/tcp.hpp"

namespace neat::fleet {

namespace {

/// Cross-host drain: how long to let in-flight frames (already past the
/// tier when the capture window opened) reach the source stack before
/// freezing it. Covers link propagation + NIC + driver + replica hops.
constexpr sim::SimTime kDrainSettle = 20 * sim::kMicrosecond;

}  // namespace

FleetCluster::FleetCluster(FleetConfig config)
    : cfg(std::move(config)), sim(cfg.seed) {
  pool.bind(sim.obs());
  tier_ = std::make_unique<SteeringTier>(sim, cfg.steering);

  const int total_backends = cfg.backends + cfg.standbys;
  for (int i = 0; i < total_backends; ++i) {
    backends_.push_back(build_host(i, /*is_client=*/false));
  }
  for (int i = 0; i < cfg.backends; ++i) tier_->add_backend(i);
  for (int j = 0; j < cfg.clients; ++j) {
    clients_.push_back(build_host(j, /*is_client=*/true));
  }

  // Static neighbors, as an operator would configure on point-to-point
  // segments: each host resolves everything beyond its link to the MAC of
  // its tier port. Replicas spawned later (scale-up, replacement) resolve
  // the same answer dynamically via the tier's proxy ARP.
  for (auto& b : backends_) {
    for (std::size_t r = 0; r < b->host->replica_count(); ++r) {
      auto& arp = b->host->replica(r).ip_layer_ref().arp();
      arp.insert(cfg.steering.prober_ip, b->tier_port_mac);
      for (int j = 0; j < cfg.clients; ++j) {
        arp.insert(client_ip(j), b->tier_port_mac);
      }
    }
  }
  for (auto& c : clients_) {
    for (std::size_t r = 0; r < c->host->replica_count(); ++r) {
      c->host->replica(r).ip_layer_ref().arp().insert(cfg.steering.vip,
                                                      c->tier_port_mac);
    }
  }
}

FleetCluster::~FleetCluster() {
  tier_->stop_probing();
  // The obs hubs die with their hosts/sim before `pool`; packets released
  // during teardown must not bump freed counters.
  pool.unbind();
}

std::unique_ptr<FleetHost> FleetCluster::build_host(int id, bool is_client) {
  auto h = std::make_unique<FleetHost>();
  h->id = id;
  h->is_client = is_client;
  h->hub = std::make_unique<obs::Hub>();
  h->hub->tracer = &sim.tracer();  // one trace per simulation

  const int replicas =
      is_client ? cfg.replicas_per_client : cfg.replicas_per_backend;
  const int spares = is_client ? 0 : cfg.spare_replicas_per_backend;

  sim::MachineParams mp;
  mp.name = std::string(is_client ? "client" : "backend") + std::to_string(id);
  // OS + SYSCALL + driver, one core per (current or spare) replica, and
  // the application core last (FleetHost::app_thread).
  mp.cores = 3 + replicas + spares + 1;
  mp.threads_per_core = 1;
  h->machine = &sim.add_machine(mp);

  nic::NicParams np;
  np.num_queues = replicas + spares;
  const net::MacAddr mac =
      net::MacAddr::local(static_cast<std::uint32_t>(is_client ? 40 + id
                                                               : 10 + id));
  const net::Ipv4Addr ip = is_client ? client_ip(id) : cfg.steering.vip;
  h->nic = std::make_unique<nic::Nic>(sim, mac, ip, np);
  h->nic->bind_hub(h->hub.get());

  NeatHost::Config hc;
  hc.host_id = is_client ? 100 + id : id;
  hc.costs = cfg.costs;
  hc.tcp = is_client ? cfg.client_tcp : cfg.backend_tcp;
  hc.hub = h->hub.get();
  h->host = std::make_unique<NeatHost>(sim, *h->machine, *h->nic, hc);
  h->host->os_process().pin(h->machine->thread(0));
  h->host->syscall().pin(h->machine->thread(1));
  h->host->driver().pin(h->machine->thread(2));
  for (int r = 0; r < replicas; ++r) {
    h->host->add_replica({&h->machine->thread(3 + r)});
  }

  nic::Nic& port = is_client ? tier_->add_client_port(ip, mac)
                             : tier_->add_backend_port(id, mac);
  h->tier_port_mac = port.mac();
  h->link = std::make_unique<nic::Link>(sim, *h->nic, port, cfg.link);
  return h;
}

std::vector<const obs::Hub*> FleetCluster::backend_hubs() const {
  std::vector<const obs::Hub*> hubs;
  for (const auto& b : backends_) {
    if (tier_->has_backend(b->id)) hubs.push_back(b->hub.get());
  }
  return hubs;
}

std::vector<std::vector<sim::HwThread*>> FleetCluster::spare_pins(
    std::size_t i) const {
  std::vector<std::vector<sim::HwThread*>> pins;
  FleetHost& b = *backends_[i];
  for (int s = 0; s < cfg.spare_replicas_per_backend; ++s) {
    pins.push_back({&b.machine->thread(3 + cfg.replicas_per_backend + s)});
  }
  return pins;
}

void FleetCluster::enable_trace() {
  sim.tracer().set_enabled(true);
  for (auto& b : backends_) b->host->trace_replicas();
  tier_->trace_backends();
  for (auto& c : clients_) c->host->trace_replicas();
}

void FleetCluster::start_health_probing(std::function<void(int id)> on_down) {
  tier_->start_probing([this, on_down = std::move(on_down)](int id) {
    tier_->remove_backend(id);
    if (on_down) on_down(id);
  });
}

std::size_t FleetCluster::backend_connections(std::size_t i) {
  std::size_t n = 0;
  for (auto* r : backends_[i]->host->serving_replicas()) {
    n += r->tcp().connection_count();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Cross-host drain
// ---------------------------------------------------------------------------

struct FleetCluster::DrainState {
  FleetHost* src{nullptr};
  FleetHost* dst{nullptr};
  sim::SimTime t0{0};
  /// Source replicas not yet extracted / adoption posts not yet landed.
  std::size_t pending_extracts{0};
  std::size_t pending_adopts{0};
  /// Flows actually extracted (ESTABLISHED at freeze time): these are the
  /// ones repointed to dst; closing stragglers keep their old pin.
  std::vector<net::FlowKey> moved;
  std::size_t moved_count{0};
  /// Per source replica: the flows that left it (departure notifications).
  std::vector<std::pair<StackReplica*, std::vector<net::FlowKey>>> departed;
  sim::SmallFnOf<void(std::size_t)> on_done;
};

void FleetCluster::drain_host(std::size_t from, std::size_t to,
                              sim::SmallFnOf<void(std::size_t)> on_done) {
  assert(from != to);
  assert(!draining_ && "one cross-host drain at a time");
  draining_ = true;

  auto st = std::make_shared<DrainState>();
  st->src = backends_[from].get();
  st->dst = backends_[to].get();
  st->on_done = std::move(on_done);
  st->t0 = sim.now();

  // 1. Collect the source host's flows and open the tier capture window
  //    for them, then pull the source out of the table so no new SYNs land
  //    on it. remove_backend purges ALL of the source's tracked flows —
  //    re-pin the pre-existing set right back, so flows that turn out not
  //    to be ESTABLISHED at freeze time (half-closed stragglers) keep
  //    flowing to the source host, which finishes closing them.
  std::vector<net::FlowKey> all;
  struct SrcRep {
    StackReplica* rep;
    std::size_t flows;
  };
  std::vector<SrcRep> srcs;
  for (auto* r : st->src->host->serving_replicas()) {
    std::size_t before = all.size();
    r->tcp().for_each_connection(
        [&](net::TcpSocket& s) { all.push_back(s.flow()); });
    srcs.push_back({r, all.size() - before});
  }
  const std::vector<net::FlowKey> pinned =
      tier_->tracked_flows_for(st->src->id);
  tier_->begin_capture(all);
  tier_->remove_backend(st->src->id);
  tier_->repoint_flows(pinned, st->src->id);

  if (sim.tracer().enabled()) {
    sim.tracer().emit({sim.now(), 0, "fleet", "drain_begin", 0, st->src->id,
                       "\"flows\":" + std::to_string(all.size()) +
                           ",\"to\":" + std::to_string(st->dst->id)});
  }

  // 2. Let frames already past the tier settle into the still-live source
  //    stack, then 3. freeze + extract each source replica in its own TCP
  //    context (charged like an intra-host migration freeze).
  st->pending_extracts = srcs.size();
  FleetCluster* self = this;
  sim.queue().post(kDrainSettle, [self, st, srcs = std::move(srcs)] {
    if (srcs.empty()) {
      self->maybe_finish_drain(st);
      return;
    }
    for (const auto& s : srcs) self->extract_and_ship(st, *s.rep, s.flows);
  });
}

void FleetCluster::extract_and_ship(const std::shared_ptr<DrainState>& st,
                                    StackReplica& rep,
                                    std::size_t flow_count) {
  FleetCluster* self = this;
  StackReplica* src_rep = &rep;
  const sim::Cycles freeze = cfg.costs.migrate_cost(flow_count);
  src_rep->tcp_process().post(freeze, [self, st, src_rep] {
    auto cp = src_rep->tcp().extract_for_migration();

    st->departed.emplace_back(src_rep, std::vector<net::FlowKey>{});
    auto& dep = st->departed.back().second;

    // 4. Split the checkpoint by the TARGET NIC's RSS verdict, so every
    //    adopted flow's frames already steer to the replica adopting it
    //    (the first active replica takes a flow whose queue has none).
    //    Sub-images and their thaw jobs go in active_replicas() order.
    struct Sub {
      StackReplica* target;
      std::shared_ptr<net::TcpCheckpoint> image;
    };
    std::vector<Sub> subs;
    for (auto* t : st->dst->host->active_replicas()) {
      subs.push_back({t, nullptr});
    }
    for (auto& c : cp.conns) {
      dep.push_back(c.flow);
      st->moved.push_back(c.flow);
      const int q = st->dst->nic->rss_queue(c.flow.remote_ip,
                                            c.flow.remote_port,
                                            c.flow.local_ip,
                                            c.flow.local_port);
      auto it = std::find_if(subs.begin(), subs.end(), [q](const Sub& sub) {
        return sub.target->queue() == q;
      });
      auto& image = (it != subs.end() ? *it : subs.front()).image;
      if (!image) {
        image = std::make_shared<net::TcpCheckpoint>();
        image->taken_at = cp.taken_at;
      }
      image->conns.push_back(std::move(c));
    }

    for (const auto& [t, sub] : subs) {
      if (!sub) continue;
      ++st->pending_adopts;
      const sim::Cycles thaw =
          self->cfg.costs.migrate_cost(sub->conns.size(), sub->bytes());
      t->tcp_process().post(thaw, [self, st, t, sub] {
        auto adopted = std::make_shared<std::vector<net::TcpSocketPtr>>(
            t->tcp().adopt(*sub));
        st->moved_count += adopted->size();
        // Filters (when the target tracks flows) + app-side fd adoption
        // run in the target's driver control context, like the repoint
        // step of an intra-host migration.
        st->dst->host->driver().control([self, st, t, sub, adopted] {
          if (st->dst->nic->params().tracking_filters) {
            for (const auto& c : sub->conns) {
              st->dst->nic->add_flow_filter(c.flow, t->queue());
            }
          }
          if (self->on_adopted_) self->on_adopted_(*st->dst, *t, *adopted);
          --st->pending_adopts;
          self->maybe_finish_drain(st);
        });
      });
    }

    --st->pending_extracts;
    self->maybe_finish_drain(st);
  });
}

void FleetCluster::maybe_finish_drain(const std::shared_ptr<DrainState>& st) {
  if (st->pending_extracts != 0 || st->pending_adopts != 0) return;

  // 5. Everything adopted: tell the source host's socket libraries the
  //    flows departed (apps drop their husk fds), repoint the tier's
  //    conntrack at the target, and close the capture window — the replay
  //    delivers the buffered client frames to the adopting replicas.
  for (auto& [rep, flows] : st->departed) {
    if (!flows.empty()) {
      st->src->host->notify_connections_departed(*rep, flows);
    }
  }
  tier_->repoint_flows(st->moved, st->dst->id);
  tier_->end_capture();
  draining_ = false;

  const sim::SimTime blackout = sim.now() - st->t0;
  sim.obs().metrics.histogram("fleet.drain_blackout_ns")
      .record(static_cast<std::uint64_t>(blackout));
  if (sim.tracer().enabled()) {
    sim.tracer().emit({sim.now(), 0, "fleet", "drain_done", 0, st->src->id,
                       "\"moved\":" + std::to_string(st->moved_count) +
                           ",\"blackout_ns\":" + std::to_string(blackout)});
  }
  if (st->on_done) st->on_done(st->moved_count);
}

}  // namespace neat::fleet
