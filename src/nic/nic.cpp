#include "nic/nic.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/wire.hpp"

namespace neat::nic {

namespace {

/// RSS indirection table size (82599: 128 entries).
constexpr std::size_t kIndirectionEntries = 128;
/// How long after FIN-retirement a flow key is remembered as dead so
/// straggler-driven refault is suppressed. Covers the peer's TIME_WAIT and
/// final retransmissions.
constexpr sim::SimTime kDeadFlowMemory = 1 * sim::kSecond;

}  // namespace

// ---------------------------------------------------------------------------
// Nic
// ---------------------------------------------------------------------------

Nic::Nic(sim::Simulator& sim, net::MacAddr mac, net::Ipv4Addr ip,
         NicParams params)
    : sim_(sim),
      mac_(mac),
      ip_(ip),
      params_(params),
      indirection_(kIndirectionEntries, 0),
      rx_queues_(static_cast<std::size_t>(params.num_queues)),
      rx_heads_(static_cast<std::size_t>(params.num_queues), 0),
      rx_irq_armed_(static_cast<std::size_t>(params.num_queues), 0) {}

void Nic::set_active_queues(const std::vector<int>& queues) {
  assert(!queues.empty());
  for (std::size_t i = 0; i < indirection_.size(); ++i) {
    indirection_[i] = queues[i % queues.size()];
  }
}

void Nic::set_indirection(std::vector<int> table) {
  assert(table.size() == indirection_.size());
  indirection_ = std::move(table);
}

void Nic::add_flow_filter(const net::FlowKey& key, int queue) {
  // An explicit install means the 4-tuple is live again (fresh SYN, or the
  // stack re-announcing after a handshake): any dead-flow memory for it is
  // stale.
  fin_retired_.erase(key);
  if (auto it = flows_.find(key); it != flows_.end()) {
    it->second.queue = queue;
    // Re-announce of a live entry: refresh the generation and forget any
    // FIN progress, so a linger-delayed retirement scheduled against the
    // PREVIOUS incarnation (a closed connection whose 4-tuple was reused
    // while its filter still lingered) no-ops instead of removing the new
    // flow's filter out from under it.
    it->second.gen = ++filter_gen_;
    it->second.fin_seen = false;
    touch_lru(it->second);
    return;
  }
  if (flows_.size() >= params_.flow_table_capacity) evict_one_filter();
  lru_.push_front(key);
  FlowEntry e;
  e.queue = queue;
  e.lru_it = lru_.begin();
  e.gen = ++filter_gen_;
  e.last_hit = sim_.now();
  flows_.try_emplace(key, e);
  ++stats_.filters_installed;
}

void Nic::evict_one_filter() {
  // Sample the K least-recently-used entries and pick the lowest-scoring
  // one: entries that never steered a post-install packet ("embryonic" —
  // exactly what a spoofed SYN leaves behind) lose to any active flow;
  // among equals the stalest last activity goes. Sampling keeps eviction
  // O(K) under an install storm, which is when it runs hottest.
  constexpr int kSample = 16;
  auto victim = lru_.end();
  bool victim_embryonic = false;
  sim::SimTime victim_last = 0;
  int scanned = 0;
  for (auto it = std::prev(lru_.end());; --it) {
    const FlowEntry& e = flows_.find(*it)->second;
    const bool embryonic = e.hits == 0;
    const bool better =
        victim == lru_.end() || (embryonic && !victim_embryonic) ||
        (embryonic == victim_embryonic && e.last_hit < victim_last);
    if (better) {
      victim = it;
      victim_embryonic = embryonic;
      victim_last = e.last_hit;
    }
    if (++scanned >= kSample || it == lru_.begin()) break;
  }
  flows_.erase(*victim);
  lru_.erase(victim);
  ++stats_.filters_evicted;
  if (evict_counter_ == nullptr) {
    evict_counter_ = &metrics_registry().counter("nic.filter_evictions");
  }
  evict_counter_->inc();
}

void Nic::retire_flow_on_fin(const net::FlowKey& key) {
  auto it = flows_.find(key);
  if (it == flows_.end() || it->second.fin_seen) return;
  it->second.fin_seen = true;
  // Hardware ages the entry out once the close handshake and TIME_WAIT have
  // had time to complete. The generation stamp makes the delayed removal a
  // no-op if the 4-tuple was reused (fresh install) in the meantime.
  const std::uint64_t gen = it->second.gen;
  sim_.queue().schedule(params_.fin_retire_linger, [this, key, gen] {
    auto it2 = flows_.find(key);
    if (it2 == flows_.end() || it2->second.gen != gen) return;
    remove_flow_filter(key);
    ++stats_.filters_retired;
    // Remember the flow as dead for a grace window: close-handshake
    // stragglers still in flight (FIN retransmits, the final ACK — always
    // present when fin_retire_linger < TIME_WAIT) must not re-fault the
    // filter back in, or it leaks forever. A scheduled sweep erases the
    // memory; an earlier sweep for a refreshed entry no-ops on expiry.
    fin_retired_[key] = sim_.now() + kDeadFlowMemory;
    sim_.queue().post(kDeadFlowMemory, [this, key] {
      auto d = fin_retired_.find(key);
      if (d != fin_retired_.end() && sim_.now() >= d->second) {
        fin_retired_.erase(d);
      }
    });
  });
}

void Nic::remove_flow_filter(const net::FlowKey& key) {
  if (auto it = flows_.find(key); it != flows_.end()) {
    lru_.erase(it->second.lru_it);
    flows_.erase(it);
  }
}

std::size_t Nic::remove_filters_for_queue(int queue) {
  return flows_.erase_if([&](const auto& kv) {
    if (kv.second.queue != queue) return false;
    lru_.erase(kv.second.lru_it);
    return true;
  });
}

std::optional<int> Nic::flow_filter(const net::FlowKey& key) const {
  if (auto it = flows_.find(key); it != flows_.end()) return it->second.queue;
  return std::nullopt;
}

std::optional<ParsedFlow> Nic::peek_flow(const net::Packet& frame,
                                         net::Ipv4Addr local_ip) {
  const auto b = frame.bytes();
  if (b.size() < net::EthernetHeader::kSize + net::Ipv4Header::kSize) {
    return std::nullopt;
  }
  std::size_t off = net::EthernetHeader::kSize;
  const std::uint16_t ethertype = net::get_u16(b, 12);
  if (ethertype != static_cast<std::uint16_t>(net::EtherType::kIpv4)) {
    return std::nullopt;
  }
  const std::uint8_t vihl = b[off];
  if (vihl >> 4 != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(vihl & 0x0f) * 4;
  const auto proto = static_cast<net::IpProto>(b[off + 9]);
  const net::Ipv4Addr src{net::get_u32(b, off + 12)};
  const net::Ipv4Addr dst{net::get_u32(b, off + 16)};
  const std::uint16_t frag = net::get_u16(b, off + 6);
  ParsedFlow flow;
  flow.key.local_ip = dst;
  flow.key.remote_ip = src;
  (void)local_ip;
  if ((proto == net::IpProto::kTcp || proto == net::IpProto::kUdp) &&
      (frag & 0x1fff) == 0) {  // ports only in the first fragment
    const std::size_t t = off + ihl;
    if (b.size() >= t + 4) {
      flow.key.remote_port = net::get_u16(b, t);
      flow.key.local_port = net::get_u16(b, t + 2);
    }
    if (proto == net::IpProto::kTcp && b.size() >= t + 14) {
      flow.is_tcp = true;
      const std::uint8_t flags = b[t + 13];
      flow.fin = flags & 0x01;
      flow.syn = flags & 0x02;
      flow.rst = flags & 0x04;
    }
  }
  return flow;
}

int Nic::rss_queue(net::Ipv4Addr remote_ip, std::uint16_t remote_port,
                   net::Ipv4Addr local_ip, std::uint16_t local_port) const {
  // RSS hashes (src, dst) as seen in the received packet: remote is source.
  const std::uint32_t h =
      hasher_.hash_tuple(remote_ip, local_ip, remote_port, local_port);
  return indirection_[h % indirection_.size()];
}

int Nic::classify(const net::Packet& frame) const {
  auto flow = peek_flow(frame, ip_);
  if (!flow) return 0;  // ARP and friends: default queue
  if (auto it = flows_.find(flow->key); it != flows_.end()) {
    return it->second.queue;
  }
  if (flow->key.local_port == 0 && flow->key.remote_port == 0) return 0;
  return rss_queue(flow->key.remote_ip, flow->key.remote_port,
                   flow->key.local_ip, flow->key.local_port);
}

void Nic::transmit(net::PacketPtr frame) {
  ++stats_.tx_frames;
  stats_.tx_bytes += frame->size();
  if (link_ != nullptr) link_->send(*this, std::move(frame));
}

void Nic::receive(net::PacketPtr frame) {
  // MAC filtering.
  if (frame->size() < net::EthernetHeader::kSize) return;
  const auto b = frame->bytes();
  net::MacAddr dst;
  std::copy(b.begin(), b.begin() + 6, dst.bytes.begin());
  if (dst != mac_ && !dst.is_broadcast()) {
    ++stats_.rx_dropped_no_match;
    return;
  }
  ++stats_.rx_frames;
  stats_.rx_bytes += frame->size();

  int queue = 0;
  const auto flow = peek_flow(*frame, ip_);
  if (capturing_ && flow && capture_set_.contains(flow->key)) {
    // Migration window: the flow's state is in transit between replicas.
    // Park the frame; end_flow_capture() replays it through classification
    // once the filter points at the new owner.
    ++stats_.capture_buffered;
    capture_buf_.push_back(std::move(frame));
    return;
  }
  if (flow && (flow->key.local_port != 0 || flow->key.remote_port != 0)) {
    if (auto it = flows_.find(flow->key); it != flows_.end()) {
      queue = it->second.queue;
      ++stats_.rx_steered_filter;
      ++it->second.hits;
      it->second.last_hit = sim_.now();
      touch_lru(it->second);
      if (params_.tracking_filters && flow->rst) {
        remove_flow_filter(flow->key);  // flow is gone; free the entry
        ++stats_.filters_retired;
      } else if (params_.tracking_filters && flow->fin) {
        retire_flow_on_fin(flow->key);
      } else if (params_.tracking_filters && flow->syn) {
        // A SYN steered by an existing entry is the 4-tuple being REUSED
        // while the predecessor's filter still lingers post-FIN. Treat it
        // as a fresh installation: refresh the generation and forget FIN
        // progress so the predecessor's linger-delayed retirement no-ops
        // instead of removing the new connection's filter mid-flow.
        it->second.gen = ++filter_gen_;
        it->second.fin_seen = false;
        fin_retired_.erase(flow->key);
      }
      note_steering(/*filter_hit=*/true, *flow, queue);
    } else {
      queue = rss_queue(flow->key.remote_ip, flow->key.remote_port,
                        flow->key.local_ip, flow->key.local_port);
      ++stats_.rx_steered_rss;
      if (params_.tracking_filters && flow->is_tcp && flow->syn) {
        if (!params_.defer_syn_filters) {
          // The paper's proposed hardware extension: remember where this
          // flow's first packet went so later indirection changes (scale
          // up/down) never move it. In defer mode the stack installs the
          // filter itself once the handshake completes.
          add_flow_filter(flow->key, queue);
        }
      } else if (params_.tracking_filters && !params_.defer_syn_filters &&
                 flow->is_tcp && !flow->rst) {
        // Mid-flow packet with no filter: the entry was evicted under
        // pressure. Re-fault it back in at the RSS-chosen queue (in defer
        // mode re-install is the stack's job, and a handshake ACK arriving
        // filterless is normal there, not a fault) — unless the flow was
        // just FIN-retired: a straggler steers fine by RSS, but installing
        // a dead flow's filter leaks it (no second FIN ever retires it).
        if (fin_retired_.contains(flow->key)) {
          ++stats_.refaults_suppressed_dead;
        } else {
          ++stats_.filters_refaulted;
          if (refault_counter_ == nullptr) {
            refault_counter_ =
                &metrics_registry().counter("nic.filter_refaults");
          }
          refault_counter_->inc();
          add_flow_filter(flow->key, queue);
        }
      }
      note_steering(/*filter_hit=*/false, *flow, queue);
    }
  }

  auto& q = rx_queues_[static_cast<std::size_t>(queue)];
  auto& head = rx_heads_[static_cast<std::size_t>(queue)];
  if (q.size() - head >= params_.queue_depth) {
    ++stats_.rx_dropped_queue_full;
    return;
  }
  frame->rx_queue = queue;
  frame->nic_rx_time = sim_.now();
  q.push_back(std::move(frame));
  if (!rx_notify_) return;
  if (params_.rx_coalesce_usecs == 0) {
    rx_notify_(queue);
    return;
  }
  // Interrupt moderation: the first frame on an idle queue arms one
  // doorbell a window in the future; frames landing before it fires share
  // it, so the driver sees them as a burst.
  auto& armed = rx_irq_armed_[static_cast<std::size_t>(queue)];
  if (armed) return;
  armed = 1;
  sim_.queue().post(params_.rx_coalesce_usecs, [this, queue] {
    rx_irq_armed_[static_cast<std::size_t>(queue)] = 0;
    const auto qi = static_cast<std::size_t>(queue);
    if (rx_notify_ && rx_heads_[qi] < rx_queues_[qi].size()) {
      rx_notify_(queue);
    }
  });
}

void Nic::note_steering(bool filter_hit, const ParsedFlow& flow, int queue) {
  if (steer_filter_counter_ == nullptr) {
    auto& m = metrics_registry();
    steer_filter_counter_ = &m.counter("nic.steer_filter_hit");
    steer_rss_counter_ = &m.counter("nic.steer_rss");
  }
  (filter_hit ? steer_filter_counter_ : steer_rss_counter_)->inc();
  if (flow.is_tcp && flow.syn) {
    auto& tracer = sim_.tracer();
    std::string args = "\"queue\":" + std::to_string(queue);
    args += filter_hit ? ",\"via\":\"filter\"" : ",\"via\":\"rss\"";
    tracer.emit({sim_.now(), 0, "nic", "syn_received", 0, queue, args});
    tracer.emit({sim_.now(), 0, "nic", "replica_steered", 0, queue,
                 std::move(args)});
  }
}

void Nic::begin_flow_capture(const std::vector<net::FlowKey>& keys) {
  for (const auto& k : keys) capture_set_.try_emplace(k, true);
  capturing_ = true;
}

void Nic::end_flow_capture() {
  capturing_ = false;
  capture_set_.clear();
  std::vector<net::PacketPtr> buf = std::move(capture_buf_);
  capture_buf_.clear();
  for (auto& frame : buf) {
    ++stats_.capture_replayed;
    receive(std::move(frame));  // full re-classification, repointed filters
  }
}

net::PacketPtr Nic::poll_rx(int queue) {
  auto& q = rx_queues_[static_cast<std::size_t>(queue)];
  auto& head = rx_heads_[static_cast<std::size_t>(queue)];
  if (head >= q.size()) {
    q.clear();
    head = 0;
    return nullptr;
  }
  net::PacketPtr p = std::move(q[head++]);
  if (head == q.size()) {
    q.clear();
    head = 0;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

Link::Link(sim::Simulator& sim, Nic& a, Nic& b, Params params)
    : sim_(sim),
      ends_{&a, &b},
      params_(params),
      impairment_(params.impairment),
      rng_(sim.rng().split(0x11eb)) {
  // The flat Params knobs predate LinkImpairment; fold them in.
  if (params.drop_probability > 0) {
    impairment_.drop_probability = params.drop_probability;
  }
  if (params.corrupt_probability > 0) {
    impairment_.corrupt_probability = params.corrupt_probability;
  }
  a.attach_link(this);
  b.attach_link(this);
}

sim::SimTime Link::wire_time(const net::Packet& frame) const {
  // A TSO super-segment goes out as ceil(size/MTU) MTU-sized frames, each
  // paying preamble + header + FCS + IFG. We bill the aggregate wire time.
  const std::size_t size = frame.size();
  std::size_t frames = 1;
  if (frame.tso && size > net::kEthernetMtu + net::EthernetHeader::kSize) {
    frames = (size + net::kEthernetMtu - 1) / net::kEthernetMtu;
  }
  const std::size_t wire_bytes =
      std::max(size, net::kEthernetMinPayload + net::EthernetHeader::kSize) +
      frames * net::kEthernetWireOverhead;
  const double ns =
      static_cast<double>(wire_bytes) * 8.0 / params_.bandwidth_gbps;
  return std::max<sim::SimTime>(1, static_cast<sim::SimTime>(ns));
}

void Link::deliver_at(Nic* to, net::PacketPtr frame, sim::SimTime arrival) {
  // Nothing cancels a frame on the wire: no handle.
  sim_.queue().post_at(arrival, [this, to, frame = std::move(frame)] {
    ++delivered_;
    to->receive(frame);
  });
}

void Link::send(Nic& from, net::PacketPtr frame) {
  const int d = &from == ends_[0] ? 0 : 1;
  Nic* to = ends_[1 - d];
  Direction& dir = dir_[d];
  const LinkImpairment& imp = impairment_;

  if (imp.drop_probability > 0 && rng_.chance(imp.drop_probability)) {
    ++dropped_;
    return;
  }
  if (imp.corrupt_probability > 0 && rng_.chance(imp.corrupt_probability)) {
    // Flip a byte somewhere in the frame; checksums must catch this.
    auto b = frame->bytes();
    if (!b.empty()) {
      b[rng_.below(b.size())] ^= 0xff;
      ++corrupted_;
    }
  }

  if (tap_) tap_(from, *frame);

  const sim::SimTime wt = wire_time(*frame);
  const sim::SimTime start = std::max(sim_.now(), dir.busy_until);
  dir.busy_until = start + wt;
  dir.busy_accum += wt;
  sim::SimTime arrival = dir.busy_until + params_.propagation;
  if (imp.jitter > 0) arrival += rng_.below(imp.jitter);
  if (imp.reorder_probability > 0 && imp.reorder_window > 0 &&
      rng_.chance(imp.reorder_probability)) {
    // Hold the frame back so later frames overtake it on delivery.
    arrival += 1 + rng_.below(imp.reorder_window);
    ++reordered_;
  }
  if (imp.duplicate_probability > 0 &&
      rng_.chance(imp.duplicate_probability)) {
    ++duplicated_;
    deliver_at(to, frame->clone(), arrival + 1 + rng_.below(
        std::max<sim::SimTime>(1, params_.propagation)));
  }
  deliver_at(to, std::move(frame), arrival);
}

double Link::utilization(sim::SimTime window_start, sim::SimTime now,
                         int d) const {
  if (now <= window_start) return 0.0;
  (void)window_start;
  return static_cast<double>(dir_[d].busy_accum) / static_cast<double>(now);
}

}  // namespace neat::nic
