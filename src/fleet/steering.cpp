#include "fleet/steering.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/wire.hpp"

namespace neat::fleet {

namespace {

/// One-hop forwarding latency through the tier (per direction).
constexpr sim::SimTime kForwardLatency = 2 * sim::kMicrosecond;
/// Tracked-flow retirement after a FIN (covers the rest of the close
/// handshake + TIME_WAIT; an RST drops the entry immediately).
constexpr sim::SimTime kFinLinger = 1 * sim::kSecond;
/// Health prober cadence and the consecutive misses that declare a backend
/// dead (3 × 50ms tolerates a replica-0 restart blip, which silences echo
/// briefly, without false-positives).
constexpr sim::SimTime kProbeInterval = 50 * sim::kMillisecond;
constexpr int kProbeMissThreshold = 3;
/// Per-port RX ring depth (frames queue here for one kForwardLatency).
constexpr std::size_t kPortQueueDepth = 65536;

/// In-place Ethernet rewrite — the tier's entire data-plane transformation.
void rewrite_macs(net::Packet& frame, net::MacAddr dst, net::MacAddr src) {
  auto b = frame.bytes();
  std::copy(dst.bytes.begin(), dst.bytes.end(), b.begin());
  std::copy(src.bytes.begin(), src.bytes.end(), b.begin() + 6);
}

[[nodiscard]] bool is_arp(const net::Packet& frame) {
  const auto b = frame.bytes();
  return b.size() >= net::EthernetHeader::kSize &&
         net::get_u16(b, 12) ==
             static_cast<std::uint16_t>(net::EtherType::kArp);
}

[[nodiscard]] bool is_icmp(const net::Packet& frame) {
  const auto b = frame.bytes();
  constexpr std::size_t kEth = net::EthernetHeader::kSize;
  return b.size() >= kEth + net::Ipv4Header::kSize &&
         net::get_u16(b, 12) ==
             static_cast<std::uint16_t>(net::EtherType::kIpv4) &&
         static_cast<net::IpProto>(b[kEth + 9]) == net::IpProto::kIcmp;
}

[[nodiscard]] net::Ipv4Addr frame_dst_ip(const net::Packet& frame) {
  constexpr std::size_t kEth = net::EthernetHeader::kSize;
  return net::Ipv4Addr{net::get_u32(frame.bytes(), kEth + 16)};
}

}  // namespace

SteeringTier::SteeringTier(sim::Simulator& sim, SteeringConfig cfg,
                           obs::Hub* hub)
    : sim_(sim), cfg_(cfg), hub_(hub), table_(cfg.table_size) {}

SteeringTier::~SteeringTier() { probe_timer_.cancel(); }

SteeringTier::Port& SteeringTier::new_port() {
  nic::NicParams params;
  params.num_queues = 1;
  params.queue_depth = kPortQueueDepth;
  params.tracking_filters = false;
  auto port = std::make_unique<Port>();
  const auto idx = ports_.size();
  // Backend ports carry the prober IP (so echo replies terminate here);
  // client ports carry the VIP (the address clients believe they talk to).
  port->nic = std::make_unique<nic::Nic>(
      sim_, net::MacAddr::local(cfg_.mac_base + static_cast<std::uint32_t>(idx)),
      cfg_.prober_ip, params);
  if (hub_ != nullptr) port->nic->bind_hub(hub_);
  port->nic->set_rx_notify([this, idx](int) { schedule_drain(idx); });
  ports_.push_back(std::move(port));
  return *ports_.back();
}

nic::Nic& SteeringTier::add_backend_port(int id, net::MacAddr peer_mac) {
  assert(!backend_ports_.contains(id));
  Port& p = new_port();
  p.is_backend = true;
  p.backend_id = id;
  p.peer_mac = peer_mac;
  backend_ports_.emplace(id, ports_.size() - 1);
  return *p.nic;
}

nic::Nic& SteeringTier::add_client_port(net::Ipv4Addr ip,
                                        net::MacAddr peer_mac) {
  assert(!client_ports_.contains(ip.value));
  Port& p = new_port();
  p.is_backend = false;
  p.client_ip = ip;
  p.peer_mac = peer_mac;
  client_ports_.emplace(ip.value, ports_.size() - 1);
  return *p.nic;
}

nic::Nic* SteeringTier::backend_port(int id) {
  auto it = backend_ports_.find(id);
  return it == backend_ports_.end() ? nullptr : ports_[it->second]->nic.get();
}

void SteeringTier::add_backend(int id) {
  assert(backend_ports_.contains(id) && "link the backend's port first");
  table_.add_backend(id);
  probes_.emplace(id, ProbeState{});
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit(
        {sim_.now(), 0, "fleet", "backend_add", 0, id,
         "\"backends\":" + std::to_string(table_.backend_count())});
  }
}

void SteeringTier::remove_backend(int id) {
  if (!table_.has_backend(id)) return;
  table_.remove_backend(id);
  probes_.erase(id);
  // Purge the dead backend's tracked flows: later client frames re-hash to
  // a survivor, whose TCP stack answers the unknown segments with RSTs.
  const std::size_t purged =
      flows_.erase_if([id](const auto& kv) { return kv.second == id; });
  stats_.flows_removed += purged;
  if (sim_.tracer().enabled()) {
    sim_.tracer().emit({sim_.now(), 0, "fleet", "backend_remove", 0, id,
                        "\"flows_purged\":" + std::to_string(purged)});
  }
}

std::optional<int> SteeringTier::tracked_backend(
    const net::FlowKey& flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return std::nullopt;
  return it->second;
}

std::vector<net::FlowKey> SteeringTier::tracked_flows_for(int id) const {
  // Key order: callers replay the list into capture windows and repoints.
  std::vector<net::FlowKey> out;
  for (const auto* e :
       flows_.sorted_if([id](const auto& kv) { return kv.second == id; })) {
    out.push_back(e->first);
  }
  return out;
}

void SteeringTier::repoint_flows(const std::vector<net::FlowKey>& flows,
                                 int id) {
  for (const auto& f : flows) flows_[f] = id;
}

int SteeringTier::steer(const net::FlowKey& flow) const {
  if (auto it = flows_.find(flow); it != flows_.end()) return it->second;
  return table_.lookup(flow);
}

void SteeringTier::begin_capture(const std::vector<net::FlowKey>& flows) {
  for (auto& p : ports_) {
    if (!p->is_backend) p->nic->begin_flow_capture(flows);
  }
}

void SteeringTier::end_capture() {
  for (auto& p : ports_) {
    if (!p->is_backend) p->nic->end_flow_capture();
  }
}

void SteeringTier::schedule_drain(std::size_t port_idx) {
  Port& p = *ports_[port_idx];
  if (p.drain_pending) return;
  p.drain_pending = true;
  // One drain event per port per kForwardLatency window: frames arriving
  // inside the window ride the same event, preserving per-port FIFO (the
  // event heap is not FIFO-stable at equal timestamps).
  sim_.queue().post(kForwardLatency,
                    [this, port_idx] { drain(port_idx); });
}

void SteeringTier::drain(std::size_t port_idx) {
  Port& p = *ports_[port_idx];
  p.drain_pending = false;
  while (net::PacketPtr frame = p.nic->poll_rx(0)) {
    if (is_arp(*frame)) {
      proxy_arp(p, std::move(frame));
      continue;
    }
    if (p.is_backend) {
      handle_backend_frame(p, std::move(frame));
    } else {
      handle_client_frame(std::move(frame));
    }
  }
}

void SteeringTier::proxy_arp(Port& port, net::PacketPtr frame) {
  // The tier answers every ARP request with the receiving port's own MAC:
  // to each machine, "everything else" lives behind the tier (proxy ARP on
  // a point-to-point segment). Replies are never seen — neighbours resolve
  // us, not each other.
  auto eth = net::EthernetHeader::decode(*frame);
  if (!eth) return;
  auto msg = net::ArpMessage::decode(*frame);
  if (!msg || msg->op != net::ArpMessage::Op::kRequest) return;
  net::ArpMessage reply;
  reply.op = net::ArpMessage::Op::kReply;
  reply.sender_mac = port.nic->mac();
  reply.sender_ip = msg->target_ip;
  reply.target_mac = msg->sender_mac;
  reply.target_ip = msg->sender_ip;
  auto pkt = reply.encode();
  net::EthernetHeader reth;
  reth.src = port.nic->mac();
  reth.dst = msg->sender_mac;
  reth.type = net::EtherType::kArp;
  reth.encode(*pkt);
  ++stats_.arp_proxied;
  port.nic->transmit(std::move(pkt));
}

void SteeringTier::forward(Port& out, net::PacketPtr frame) {
  rewrite_macs(*frame, out.peer_mac, out.nic->mac());
  out.nic->transmit(std::move(frame));
}

void SteeringTier::note_flow_flags(const net::FlowKey& canonical, bool rst,
                                   bool fin) {
  if (rst) {
    if (flows_.erase(canonical) > 0) ++stats_.flows_removed;
    return;
  }
  if (fin) {
    // Let the rest of the close handshake (and TIME_WAIT stragglers) keep
    // their pinned path, then retire the entry. A reused 4-tuple's SYN
    // re-installs before the linger fires; erasing then is fine — the next
    // frame re-pins via the table, which is where a fresh flow goes anyway.
    sim_.queue().post(kFinLinger, [this, canonical] {
      if (flows_.erase(canonical) > 0) ++stats_.flows_removed;
    });
  }
}

void SteeringTier::handle_client_frame(net::PacketPtr frame) {
  const auto flow = nic::Nic::peek_flow(*frame, cfg_.vip);
  if (!flow || frame_dst_ip(*frame) != cfg_.vip) {
    ++stats_.unknown_dst_drops;
    return;
  }
  // peek_flow keys by the frame's destination side, so a client→VIP frame
  // is already in canonical orientation: local = VIP:port, remote = client.
  const net::FlowKey& key = flow->key;
  int backend = -1;
  if (auto it = flows_.find(key); it != flows_.end()) {
    backend = it->second;
  } else {
    backend = table_.lookup(key);
    if (backend >= 0 && flow->is_tcp && flow->syn) {
      // Pin on SYN only: mid-flow frames with no entry belong to purged
      // (dead-host) flows — steer them to a survivor for the RST, but do
      // not resurrect the pin.
      flows_.try_emplace(key, backend);
      ++stats_.flows_installed;
    }
  }
  if (backend < 0) {
    ++stats_.no_backend_drops;
    return;
  }
  auto pit = backend_ports_.find(backend);
  if (pit == backend_ports_.end()) {
    ++stats_.no_backend_drops;
    return;
  }
  if (flow->is_tcp) note_flow_flags(key, flow->rst, flow->fin);
  ++stats_.to_backend;
  forward(*ports_[pit->second], std::move(frame));
}

void SteeringTier::handle_backend_frame(Port& in, net::PacketPtr frame) {
  if (is_icmp(*frame) && frame_dst_ip(*frame) == cfg_.prober_ip) {
    // A health-probe echo reply; attribution is by arrival port.
    if (!net::EthernetHeader::decode(*frame) ||
        !net::Ipv4Header::decode(*frame)) {
      return;
    }
    auto icmp = net::IcmpMessage::decode(*frame);
    if (icmp && icmp->type == net::IcmpMessage::Type::kEchoReply) {
      ++stats_.probe_replies;
      if (auto it = probes_.find(in.backend_id); it != probes_.end()) {
        it->second.awaiting = false;
        it->second.misses = 0;
      }
    }
    return;
  }
  const auto flow = nic::Nic::peek_flow(*frame, cfg_.vip);
  if (!flow) {
    ++stats_.unknown_dst_drops;
    return;
  }
  const net::Ipv4Addr dst = frame_dst_ip(*frame);
  auto cit = client_ports_.find(dst.value);
  if (cit == client_ports_.end()) {
    ++stats_.unknown_dst_drops;
    return;
  }
  if (flow->is_tcp) {
    // Backend→client frames arrive keyed by the client side; flip into the
    // canonical VIP-local orientation before conntrack updates.
    net::FlowKey canonical;
    canonical.local_ip = flow->key.remote_ip;
    canonical.local_port = flow->key.remote_port;
    canonical.remote_ip = flow->key.local_ip;
    canonical.remote_port = flow->key.local_port;
    note_flow_flags(canonical, flow->rst, flow->fin);
  }
  ++stats_.to_client;
  forward(*ports_[cit->second], std::move(frame));
}

void SteeringTier::start_probing(std::function<void(int id)> on_down) {
  on_down_ = std::move(on_down);
  if (probing_) return;
  probing_ = true;
  probe_timer_ = sim_.schedule(kProbeInterval, [this] { probe_tick(); });
}

void SteeringTier::stop_probing() {
  probing_ = false;
  probe_timer_.cancel();
}

void SteeringTier::probe_tick() {
  if (!probing_) return;
  // Score the previous round first: an unanswered probe is a miss.
  std::vector<int> down;
  for (auto& [id, st] : probes_) {
    if (st.declared_down) continue;
    if (st.awaiting) {
      st.awaiting = false;
      if (++st.misses >= kProbeMissThreshold) {
        st.declared_down = true;
        ++stats_.backends_declared_down;
        down.push_back(id);
      }
    }
  }
  for (int id : down) {
    if (sim_.tracer().enabled()) {
      sim_.tracer().emit({sim_.now(), 0, "fleet", "backend_down", 0, id, ""});
    }
    if (on_down_) on_down_(id);  // may erase probes_[id] via remove_backend
  }
  // Send this round's probes to every backend still in the table.
  for (auto& [id, st] : probes_) {
    if (st.declared_down) continue;
    auto pit = backend_ports_.find(id);
    if (pit == backend_ports_.end()) continue;
    Port& port = *ports_[pit->second];
    auto pkt = net::Packet::make(0);
    net::IcmpMessage echo;
    echo.type = net::IcmpMessage::Type::kEchoRequest;
    echo.ident = static_cast<std::uint16_t>(id);
    echo.seq = ++st.seq;
    echo.encode(*pkt);
    net::Ipv4Header ip;
    ip.src = cfg_.prober_ip;
    ip.dst = cfg_.vip;
    ip.proto = net::IpProto::kIcmp;
    ip.encode(*pkt);
    net::EthernetHeader eth;
    eth.dst = port.peer_mac;
    eth.src = port.nic->mac();
    eth.type = net::EtherType::kIpv4;
    eth.encode(*pkt);
    st.awaiting = true;
    ++stats_.probes_sent;
    port.nic->transmit(std::move(pkt));
  }
  probe_timer_ = sim_.schedule(kProbeInterval, [this] { probe_tick(); });
}

}  // namespace neat::fleet
