#include "neat/replica.hpp"

#include <utility>

namespace neat {

namespace {

/// Shared TcpEnv::on_flow_established body: with handshake-deferred
/// tracking filters, a passively established flow earns its exact-match
/// steering entry now — installed in driver context, pinned to the
/// replica's queue (where RSS delivered the whole handshake).
void deferred_filter_install(drv::NicDriver* driver, const net::FlowKey& key,
                             int queue) {
  if (driver == nullptr) return;
  const nic::NicParams& p = driver->nic().params();
  if (!p.tracking_filters || !p.defer_syn_filters) return;
  driver->control(
      [driver, key, queue] { driver->nic().add_flow_filter(key, queue); });
}

/// Packet-filter consultation, free when no rules are installed. Both
/// compositions apply it to every datagram the IP layer hands up.
bool pf_pass(const net::PacketFilter& pf, const net::Ipv4Header& hdr,
             const net::Packet& payload) {
  if (pf.rule_count() == 0) return true;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  const auto b = payload.bytes();
  if ((hdr.proto == net::IpProto::kTcp || hdr.proto == net::IpProto::kUdp) &&
      b.size() >= 4) {
    sport = static_cast<std::uint16_t>(b[0] << 8 | b[1]);
    dport = static_cast<std::uint16_t>(b[2] << 8 | b[3]);
  }
  return pf.accept(hdr.proto, hdr.src, hdr.dst, sport, dport);
}

}  // namespace

const char* to_string(Component c) {
  switch (c) {
    case Component::kIp: return "ip";
    case Component::kTcp: return "tcp";
    case Component::kUdp: return "udp";
    case Component::kFilter: return "pf";
    case Component::kWhole: return "stack";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// IpLayer
// ---------------------------------------------------------------------------

IpLayer::IpLayer(net::MacAddr mac, net::Ipv4Addr ip, FrameTx tx_frame)
    : mac_(mac),
      ip_(ip),
      tx_frame_(std::move(tx_frame)),
      arp_(make_arp()) {}

net::ArpResolver IpLayer::make_arp() {
  return net::ArpResolver(
      mac_, ip_, [this](const net::ArpMessage& m, net::MacAddr dst) {
        auto pkt = m.encode();
        net::EthernetHeader eth;
        eth.src = mac_;
        eth.dst = dst;
        eth.type = net::EtherType::kArp;
        eth.encode(*pkt);
        tx_frame_(std::move(pkt));
      });
}

void IpLayer::send(net::PacketPtr payload, net::IpProto proto,
                   net::Ipv4Addr src, net::Ipv4Addr dst) {
  net::Ipv4Header hdr;
  hdr.src = src;
  hdr.dst = dst;
  hdr.proto = proto;
  hdr.ident = ident_++;
  // TSO super-segments bypass the MTU check: the NIC slices them.
  const bool needs_frag =
      !payload->tso &&
      payload->size() + net::Ipv4Header::kSize > net::kEthernetMtu;

  const auto frame = [this](net::PacketPtr ip_pkt, net::MacAddr dst_mac) {
    net::EthernetHeader eth;
    eth.src = mac_;
    eth.dst = dst_mac;
    eth.type = net::EtherType::kIpv4;
    eth.encode(*ip_pkt);
    tx_frame_(std::move(ip_pkt));
  };
  auto emit = [hdr, needs_frag, frame](net::PacketPtr pkt,
                                       net::MacAddr mac) mutable {
    if (needs_frag) {
      for (auto& frag : net::ipv4_fragment(hdr, *pkt, net::kEthernetMtu)) {
        frame(std::move(frag), mac);
      }
    } else {
      const bool tso = pkt->tso;
      hdr.encode(*pkt);
      pkt->tso = tso;
      frame(std::move(pkt), mac);
    }
  };

  // Cache hit (every packet after the first to a peer): emit directly.
  // Only a miss builds the resolver's heap-allocated callback.
  if (const auto mac = arp_.lookup(dst)) {
    emit(std::move(payload), *mac);
    return;
  }
  arp_.resolve(dst, [emit, payload = std::move(payload)](
                        net::MacAddr mac) mutable {
    emit(std::move(payload), mac);
  });
}

std::optional<IpLayer::Decoded> IpLayer::rx_frame(
    const net::PacketPtr& frame) {
  auto eth = net::EthernetHeader::decode(*frame);
  if (!eth) return std::nullopt;
  if (eth->type == net::EtherType::kArp) {
    if (auto msg = net::ArpMessage::decode(*frame)) arp_.handle(*msg);
    return std::nullopt;
  }
  auto hdr = net::Ipv4Header::decode(*frame);
  if (!hdr) return std::nullopt;
  if (hdr->dst != ip_) return std::nullopt;  // not ours
  auto complete = reasm_.add(*hdr, frame);
  if (!complete) return std::nullopt;
  return Decoded{complete->header, complete->payload};
}

void IpLayer::answer_echo(const net::Ipv4Header& hdr, net::Packet& payload) {
  auto icmp = net::IcmpMessage::decode(payload);
  if (!icmp || icmp->type != net::IcmpMessage::Type::kEchoRequest) return;
  auto reply = net::Packet::of(payload.bytes());
  net::IcmpMessage r = *icmp;
  r.type = net::IcmpMessage::Type::kEchoReply;
  r.encode(*reply);
  send(std::move(reply), net::IpProto::kIcmp, hdr.dst, hdr.src);
}

void IpLayer::reset() {
  arp_ = make_arp();
  reasm_.expire_all();
  ident_ = 1;
}

// ---------------------------------------------------------------------------
// TxStage
// ---------------------------------------------------------------------------

void TxStage::add(StagedTx tx, sim::Cycles cost) {
  if (proc_.crashed()) return;
  stage_.push_back(std::move(tx));
  if (armed_) {
    rest_cost_ += cost;
  } else {
    armed_ = true;
    proc_.post(cost, [this] { flush(); });
  }
}

void TxStage::flush() {
  armed_ = false;
  if (const sim::Cycles rest = std::exchange(rest_cost_, sim::Cycles{0});
      rest > 0) {
    proc_.post(rest, [] {});  // CPU time for packets 2..N of the burst
  }
  if (stage_.empty()) return;
  // Stage into the spare buffer while this burst drains (emit may stage
  // again), then keep the drained one as the next spare: neither
  // reallocates across bursts.
  auto stage = std::exchange(stage_, std::move(spare_));
  for (auto& s : stage) {
    if (s.proto == net::IpProto::kUdp) {
      net::UdpHeader uh;
      uh.src_port = s.src_port;
      uh.dst_port = s.dst_port;
      uh.encode(*s.pkt, s.src, s.dst);
    }
    emit_(std::move(s));
  }
  stage.clear();
  spare_ = std::move(stage);
}

void TxStage::clear() {
  stage_.clear();
  rest_cost_ = 0;
  armed_ = false;
}

// ---------------------------------------------------------------------------
// SingleComponentReplica
// ---------------------------------------------------------------------------

SingleComponentReplica::SingleComponentReplica(
    sim::Simulator& sim, int id, int queue, drv::NicDriver& driver,
    net::MacAddr mac, net::Ipv4Addr ip, StackCosts costs,
    net::TcpConfig tcp_cfg, obs::Hub& hub)
    : sim::Process(sim, "neat" + std::to_string(id)),
      StackReplica(id, queue, /*one_process=*/true,
                   sim.rng().split(0xa5172 + static_cast<std::uint64_t>(id))()),
      costs_(costs),
      rng_(sim.rng().split(0x5e9 + static_cast<std::uint64_t>(id))),
      hub_(hub),
      driver_(&driver),
      tx_port_(driver.make_tx_port()),
      // Burst mode: one channel delivery job hands the whole frame batch
      // over; TCP segments are regrouped and consumed by
      // TcpStack::rx_batch with per-burst (not per-frame) bookkeeping.
      rx_ch_(
          *this, 2048, ipc::kDefaultChannelLatency,
          [this](const net::PacketPtr& p) {
            return costs_.single_rx_base + costs_.bytes_cost(p->size());
          },
          [this](std::vector<net::PacketPtr>&& frames) {
            handle_frame_batch(std::move(frames));
          }),
      ip_(mac, ip, [this](net::PacketPtr f) { tx_port_(std::move(f)); }),
      tcp_stack_(*this, ip, tcp_cfg),
      tx_(*this, [this](StagedTx&& s) {
        if (s.proto == net::IpProto::kTcp && s.dst == ip_.ip()) {
          // Loopback: each replica implements its own loopback device
          // (§3.3).
          handle_ip(net::Ipv4Header{s.src, s.dst, net::IpProto::kTcp},
                    std::move(s.pkt));
          return;
        }
        ip_.send(std::move(s.pkt), s.proto, s.src, s.dst);
      }) {}

sim::EventHandle SingleComponentReplica::start_timer(
    sim::SimTime delay, std::function<void()> fn) {
  return after(delay, 600, std::move(fn));
}

void SingleComponentReplica::tx(net::PacketPtr segment, net::Ipv4Addr src,
                                net::Ipv4Addr dst) {
  // Segment construction is charged in our own context (see TxStage).
  const sim::Cycles c =
      costs_.single_tx_base + costs_.bytes_cost(segment->size());
  tx_.add({std::move(segment), src, dst, net::IpProto::kTcp, 0, 0}, c);
}

void SingleComponentReplica::handle_frame_batch(
    std::vector<net::PacketPtr>&& frames) {
  // Decode the whole burst, then hand every TCP segment to the stack in one
  // rx_batch call. Non-TCP traffic (UDP/ICMP, a rarity on the data path) is
  // dispatched inline; cross-protocol ordering within one delivery job has
  // no observable effect since virtual time is frozen for the whole burst.
  // The staging vector is a member, taken for the call and put back
  // empty, so its capacity survives from burst to burst.
  auto segs = std::exchange(rx_segs_, {});
  segs.reserve(frames.size());
  for (auto& f : frames) {
    auto decoded = ip_.rx_frame(f);
    if (!decoded) continue;
    if (decoded->hdr.proto == net::IpProto::kTcp) {
      if (!pf_pass(pf_, decoded->hdr, *decoded->payload)) continue;
      segs.push_back({decoded->hdr.src, decoded->hdr.dst,
                      std::move(decoded->payload)});
    } else {
      handle_ip(decoded->hdr, std::move(decoded->payload));
    }
  }
  const auto ep = epoch();
  tcp_stack_.rx_batch(std::move(segs), [this, ep] {
    return !crashed() && epoch() == ep;
  });
  // rx_batch took the segments, not the vector: keep its capacity.
  segs.clear();
  rx_segs_ = std::move(segs);
}

void SingleComponentReplica::handle_ip(const net::Ipv4Header& hdr,
                                       net::PacketPtr payload) {
  if (!pf_pass(pf_, hdr, *payload)) return;
  switch (hdr.proto) {
    case net::IpProto::kTcp:
      tcp_stack_.rx(hdr.src, hdr.dst, std::move(payload));
      break;
    case net::IpProto::kUdp: {
      auto uh = net::UdpHeader::decode(*payload, hdr.src, hdr.dst);
      if (uh) udp_.deliver(*uh, hdr.src, hdr.dst, std::move(payload));
      break;
    }
    case net::IpProto::kIcmp:
      ip_.answer_echo(hdr, *payload);
      break;
  }
}

void SingleComponentReplica::udp_tx(net::PacketPtr payload,
                                    std::uint16_t src_port, net::SockAddr to) {
  const sim::Cycles c =
      costs_.udp_per_packet + costs_.bytes_cost(payload->size());
  tx_.add({std::move(payload), ip_.ip(), to.ip, net::IpProto::kUdp, src_port,
           to.port},
          c);
}

void SingleComponentReplica::on_flow_established(const net::FlowKey& key) {
  deferred_filter_install(driver_, key, queue());
}

void SingleComponentReplica::on_crash() {
  // All state dies with the process — silently, as seen from the wire.
  tcp_stack_.destroy_all_state();
  ip_.reset();
  udp_.clear();
  tx_.clear();  // staged egress dies with the process
}

void SingleComponentReplica::reset_after_restart(Component) {
  tcp_stack_.destroy_all_state();
  ip_.reset();
  udp_.clear();
  pf_.clear();
  rerandomize_layout();  // a fresh process image -> fresh ASLR layout
}

// ---------------------------------------------------------------------------
// Multi-component replica
// ---------------------------------------------------------------------------

TcpComponent::TcpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
                           std::string name, net::Ipv4Addr ip,
                           StackCosts costs, net::TcpConfig cfg)
    : sim::Process(sim, std::move(name)),
      owner_(owner),
      costs_(costs),
      rng_(sim.rng().split(0x7c9 + static_cast<std::uint64_t>(owner.id()))),
      tcp_stack_(*this, ip, cfg),
      tx_(*this, [this](StagedTx&& s) {
        if (s.dst == tcp_stack_.local_ip()) {
          // Loopback short-circuits inside the TCP component.
          post(costs_.tcp_rx_base + costs_.bytes_cost(s.pkt->size()),
               [this, seg = std::move(s.pkt), src = s.src,
                dst = s.dst]() mutable {
                 tcp_stack_.rx(src, dst, std::move(seg));
               });
          return;
        }
        owner_.tcp_to_ip_->send(MultiComponentReplica::TcpToIp{
            std::move(s.pkt), s.src, s.dst, net::IpProto::kTcp});
      }) {}

sim::EventHandle TcpComponent::start_timer(sim::SimTime delay,
                                           std::function<void()> fn) {
  return after(delay, 600, std::move(fn));
}

void TcpComponent::tx(net::PacketPtr segment, net::Ipv4Addr src,
                      net::Ipv4Addr dst) {
  const sim::Cycles c = costs_.tcp_tx_base + costs_.bytes_cost(segment->size());
  tx_.add({std::move(segment), src, dst, net::IpProto::kTcp, 0, 0}, c);
}

void TcpComponent::on_flow_established(const net::FlowKey& key) {
  deferred_filter_install(owner_.driver_, key, owner_.queue());
}

obs::Hub* TcpComponent::obs_hub() { return &owner_.hub_; }

void TcpComponent::on_crash() {
  tcp_stack_.destroy_all_state();
  tx_.clear();  // staged egress dies with the process
}

IpComponent::IpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
                         std::string name, net::MacAddr mac, net::Ipv4Addr ip,
                         StackCosts costs, IpLayer::FrameTx tx_frame)
    : sim::Process(sim, std::move(name)),
      owner_(owner),
      costs_(costs),
      rx_ch_(
          *this, 2048, ipc::kDefaultChannelLatency,
          [this](const net::PacketPtr& p) {
            return costs_.ip_rx_base + costs_.bytes_cost(p->size());
          },
          [this](net::PacketPtr&& p) { handle_frame(std::move(p)); }),
      ip_(mac, ip, std::move(tx_frame)) {}

void IpComponent::handle_frame(net::PacketPtr frame) {
  auto decoded = ip_.rx_frame(frame);
  if (!decoded) return;
  const auto& hdr = decoded->hdr;
  if (!pf_pass(owner_.pf_proc_->filter(), hdr, *decoded->payload)) return;
  switch (hdr.proto) {
    case net::IpProto::kTcp:
      owner_.ip_to_tcp_->send(MultiComponentReplica::IpToTcp{
          hdr.src, hdr.dst, std::move(decoded->payload)});
      break;
    case net::IpProto::kUdp:
      owner_.ip_to_udp_->send(MultiComponentReplica::IpToTcp{
          hdr.src, hdr.dst, std::move(decoded->payload)});
      break;
    case net::IpProto::kIcmp:
      ip_.answer_echo(hdr, *decoded->payload);
      break;
  }
}

void IpComponent::on_crash() { ip_.reset(); }
void IpComponent::on_restart() { ip_.reset(); }

UdpComponent::UdpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
                           std::string name)
    : sim::Process(sim, std::move(name)),
      // Reuses the transport→IP channel; the IP component pays its usual
      // TX cost and encapsulates in its own context.
      tx_(*this, [&owner](StagedTx&& s) {
        owner.tcp_to_ip_->send(MultiComponentReplica::TcpToIp{
            std::move(s.pkt), s.src, s.dst, net::IpProto::kUdp});
      }) {}

FilterComponent::FilterComponent(sim::Simulator& sim, std::string name)
    : sim::Process(sim, std::move(name)) {}

MultiComponentReplica::MultiComponentReplica(
    sim::Simulator& sim, int id, int queue, drv::NicDriver& driver,
    net::MacAddr mac, net::Ipv4Addr ip, StackCosts costs,
    net::TcpConfig tcp_cfg, obs::Hub& hub)
    : StackReplica(id, queue, /*one_process=*/false,
                   sim.rng().split(0xa5173 + static_cast<std::uint64_t>(id))()),
      costs_(costs),
      hub_(hub),
      driver_(&driver) {
  const std::string base = "multi" + std::to_string(id);
  drv_tx_ = driver.make_tx_port();
  tcp_proc_ = std::make_unique<TcpComponent>(sim, *this, base + ".tcp", ip,
                                             costs, tcp_cfg);
  ip_proc_ = std::make_unique<IpComponent>(
      sim, *this, base + ".ip", mac, ip, costs,
      [tx = drv_tx_](net::PacketPtr f) { tx(std::move(f)); });
  udp_proc_ = std::make_unique<UdpComponent>(sim, *this, base + ".udp");
  pf_proc_ = std::make_unique<FilterComponent>(sim, base + ".pf");

  ip_to_tcp_ = std::make_unique<ipc::Channel<IpToTcp>>(
      *tcp_proc_, 2048, ipc::kDefaultChannelLatency,
      [this](const IpToTcp& m) {
        return costs_.tcp_rx_base + costs_.bytes_cost(m.seg->size());
      },
      // Burst mode: the IP→TCP crossing delivers a whole batch per
      // consumer job; the stack consumes it with per-burst bookkeeping. The
      // messages already ARE SegmentArrivals, so the batch moves without
      // repacking.
      [this](std::vector<IpToTcp>&& batch) {
        const auto ep = tcp_proc_->epoch();
        tcp_proc_->stack().rx_batch(std::move(batch), [this, ep] {
          return !tcp_proc_->crashed() && tcp_proc_->epoch() == ep;
        });
      });

  ip_to_udp_ = std::make_unique<ipc::Channel<IpToTcp>>(
      *udp_proc_, 512, ipc::kDefaultChannelLatency,
      [this](const IpToTcp& m) {
        return costs_.udp_per_packet + costs_.bytes_cost(m.seg->size());
      },
      [this](IpToTcp&& m) {
        auto uh = net::UdpHeader::decode(*m.seg, m.src, m.dst);
        if (uh) udp_proc_->mux().deliver(*uh, m.src, m.dst, std::move(m.seg));
      });

  tcp_to_ip_ = std::make_unique<ipc::Channel<TcpToIp>>(
      *ip_proc_, 2048, ipc::kDefaultChannelLatency,
      [this](const TcpToIp& m) {
        return costs_.ip_tx_base + costs_.bytes_cost(m.payload->size());
      },
      [this](TcpToIp&& m) {
        ip_proc_->ip_send(std::move(m.payload), m.proto, m.src, m.dst);
      });
}

void MultiComponentReplica::udp_tx(net::PacketPtr payload,
                                   std::uint16_t src_port, net::SockAddr to) {
  const sim::Cycles c =
      costs_.udp_per_packet + costs_.bytes_cost(payload->size());
  udp_proc_->tx().add({std::move(payload), ip_proc_->layer().ip(), to.ip,
                       net::IpProto::kUdp, src_port, to.port},
                      c);
}

std::vector<sim::Process*> MultiComponentReplica::processes() {
  return {tcp_proc_.get(), ip_proc_.get(), udp_proc_.get(), pf_proc_.get()};
}

sim::Process* MultiComponentReplica::component(Component c) {
  switch (c) {
    case Component::kTcp: return tcp_proc_.get();
    case Component::kIp: return ip_proc_.get();
    case Component::kUdp: return udp_proc_.get();
    case Component::kFilter: return pf_proc_.get();
    case Component::kWhole: return tcp_proc_.get();
  }
  return nullptr;
}

void MultiComponentReplica::reset_after_restart(Component which) {
  switch (which) {
    case Component::kTcp:
    case Component::kWhole:
      tcp_proc_->stack().destroy_all_state();
      ip_to_tcp_->rebind(*tcp_proc_);
      rerandomize_layout();
      break;
    case Component::kIp:
      ip_proc_->layer().reset();
      // In-flight messages towards TCP died with the old incarnation.
      ip_to_tcp_->rebind(*tcp_proc_);
      tcp_to_ip_->rebind(*ip_proc_);
      break;
    case Component::kUdp:
      udp_proc_->mux().clear();
      ip_to_udp_->rebind(*udp_proc_);
      break;
    case Component::kFilter:
      pf_proc_->filter().clear();
      break;
  }
}

}  // namespace neat
