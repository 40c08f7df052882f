// Multi-queue NIC model in the style of the Intel 82599 (i82599) the paper
// used: RSS with an indirection table, an exact-match flow-director table
// (up to 8K filters), TSO, and per-queue bounded RX rings.
//
// Classification and steering run "in hardware": they consume no simulated
// CPU cycles. The driver process is told which queue a packet landed on and
// charges its own per-packet cost — that separation is what lets NEaT treat
// the NIC as "an additional processing core that runs certain parts of the
// stack very efficiently" (paper §4).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "nic/toeplitz.hpp"
#include "sim/flat_map.hpp"
#include "sim/simulator.hpp"

namespace neat::nic {

class Link;

struct NicParams {
  int num_queues{16};
  std::size_t queue_depth{1024};
  /// Exact-match flow steering table capacity ("Intel 10G cards can hold up
  /// to 8 thousand filters").
  std::size_t flow_table_capacity{8192};
  /// RSS indirection table size (82599: 128 entries).
  std::size_t indirection_entries{128};
  /// Emulate the paper's proposed NIC extension: hardware-installed
  /// "tracking" filters that pin each flow to the queue its SYN was steered
  /// to, so reconfiguring the indirection table (scale up/down) never moves
  /// an existing connection.
  bool tracking_filters{false};
  /// Defense mode for tracking filters: do NOT install a filter when a SYN
  /// is steered by RSS — the stack installs it (via the driver) only once
  /// the handshake completes. A spoofed SYN then never consumes a flow
  /// table entry. Meaningful only with tracking_filters.
  bool defer_syn_filters{false};
  /// How long a tracking filter outlives the first FIN seen on its flow.
  /// The filter must survive the rest of the close handshake (the peer's
  /// FIN/ACK still needs to reach the same queue) and the local TIME_WAIT,
  /// after which the entry is dead weight the hardware should reclaim.
  /// A linger shorter than TIME_WAIT is safe: for dead_flow_memory after
  /// retirement, close-handshake stragglers are steered by RSS without
  /// re-faulting the dead flow's filter back in (which would leak it —
  /// nothing ever FINs a dead flow a second time).
  sim::SimTime fin_retire_linger{1 * sim::kSecond};
  /// How long after FIN-retirement a flow key is remembered as dead so
  /// straggler-driven refault is suppressed. Covers the peer's TIME_WAIT
  /// and final retransmissions.
  sim::SimTime dead_flow_memory{1 * sim::kSecond};
  bool tso{true};
  /// RX interrupt moderation (ethtool rx-usecs): the first frame landing on
  /// a queue with no doorbell pending schedules the driver notification this
  /// far in the future; frames arriving inside the window ride the same
  /// doorbell, so the driver drains them as one burst. 0 = interrupt per
  /// frame. Trades microseconds of RX latency for fewer wake-ups.
  sim::SimTime rx_coalesce_usecs{0};
};

struct NicStats {
  std::uint64_t rx_frames{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t tx_frames{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_dropped_queue_full{0};
  std::uint64_t rx_dropped_no_match{0};  // wrong MAC
  std::uint64_t filters_installed{0};
  std::uint64_t filters_evicted{0};
  /// Filters reclaimed because the flow ended (RST, or FIN + linger) —
  /// distinct from capacity evictions above. Churn workloads must see this
  /// track filters_installed or the table leaks.
  std::uint64_t filters_retired{0};
  /// Steering decisions by mechanism: exact-match filter hit vs RSS hash.
  std::uint64_t rx_steered_filter{0};
  std::uint64_t rx_steered_rss{0};
  /// Non-SYN TCP packets of a tracked flow that arrived without a filter —
  /// the flow's entry was evicted under pressure and the packet fell back
  /// to RSS (SYN-install mode re-installs the filter on the spot).
  std::uint64_t filters_refaulted{0};
  /// Refaults suppressed because the flow was recently FIN-retired: a
  /// close-handshake straggler must not re-install a dead flow's filter
  /// (with fin_retire_linger < TIME_WAIT that leak would be permanent).
  std::uint64_t refaults_suppressed_dead{0};
  /// Frames held in / replayed from the migration capture buffer.
  std::uint64_t capture_buffered{0};
  std::uint64_t capture_replayed{0};
};

/// Per-flow observation parsed by the classifier (also exposed to tests).
struct ParsedFlow {
  net::FlowKey key;  // local = this host's side
  bool is_tcp{false};
  bool syn{false};
  bool fin{false};
  bool rst{false};
};

class Nic {
 public:
  /// `rx_notify(queue)` is the doorbell to the driver: called (in zero
  /// simulated time) whenever a packet is appended to an RX queue.
  Nic(sim::Simulator& sim, net::MacAddr mac, net::Ipv4Addr ip,
      NicParams params);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] net::MacAddr mac() const { return mac_; }
  [[nodiscard]] net::Ipv4Addr ip() const { return ip_; }
  [[nodiscard]] const NicParams& params() const { return params_; }

  /// Enable/disable per-flow tracking filters after construction (the
  /// harness forwards NeatServerOptions::tracking_filters through here).
  void set_tracking_filters(bool on) { params_.tracking_filters = on; }

  /// Tune the FIN-to-reclaim linger after construction (workload scenarios
  /// shorten it so retirement is observable within a sub-second run).
  void set_fin_retire_linger(sim::SimTime t) { params_.fin_retire_linger = t; }

  /// Toggle handshake-deferred filter installation (see NicParams).
  void set_defer_syn_filters(bool on) { params_.defer_syn_filters = on; }

  /// Tune RX interrupt moderation after construction (see NicParams).
  void set_rx_coalesce(sim::SimTime window) {
    params_.rx_coalesce_usecs = window;
  }

  /// Record this NIC's counters on `hub` instead of the simulator-global
  /// registry (per-host observability: fleet clusters give every host its
  /// own hub). Must be called before the first packet is received — the
  /// counter handles are cached lazily on first use and never re-resolved.
  void bind_hub(obs::Hub* hub) { hub_ = hub; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  void set_rx_notify(std::function<void(int queue)> cb) {
    rx_notify_ = std::move(cb);
  }

  // --- control plane (driver) ---------------------------------------------

  /// Spread RSS buckets evenly over `queues` (the active-replica set).
  void set_active_queues(const std::vector<int>& queues);

  /// Raw indirection table (bucket -> queue).
  void set_indirection(std::vector<int> table);
  [[nodiscard]] const std::vector<int>& indirection() const {
    return indirection_;
  }

  /// Install an exact-match steering filter. Evicts LRU when full.
  void add_flow_filter(const net::FlowKey& key, int queue);
  void remove_flow_filter(const net::FlowKey& key);
  /// Drop every filter steering to `queue` (the endpoint died for good:
  /// quarantine/collection). Stale pins to a dead queue would otherwise
  /// blackhole reused 4-tuples — their SYNs steer to a queue nobody
  /// drains. Returns how many filters were removed.
  std::size_t remove_filters_for_queue(int queue);
  [[nodiscard]] std::optional<int> flow_filter(const net::FlowKey& key) const;
  [[nodiscard]] std::size_t flow_filter_count() const { return flows_.size(); }

  /// Live-migration capture window: frames whose flow is in `keys` are
  /// buffered instead of delivered, from this call until
  /// end_flow_capture() re-injects them through normal classification.
  /// Opened BEFORE the source stack snapshots, closed AFTER the filters
  /// are repointed, so no packet is processed against half-moved state.
  void begin_flow_capture(const std::vector<net::FlowKey>& keys);
  void end_flow_capture();
  [[nodiscard]] std::size_t captured_frame_count() const {
    return capture_buf_.size();
  }

  // --- data plane -----------------------------------------------------------

  /// TX entry (from the driver): frame goes out on the attached link.
  void transmit(net::PacketPtr frame);

  /// RX entry (from the link): classify, steer, enqueue, notify driver.
  void receive(net::PacketPtr frame);

  /// Driver-side dequeue; nullptr when the queue is empty.
  [[nodiscard]] net::PacketPtr poll_rx(int queue);
  [[nodiscard]] std::size_t rx_depth(int queue) const {
    return rx_queues_[static_cast<std::size_t>(queue)].size();
  }

  /// Which queue would this frame be steered to? (exposed for tests and for
  /// RSS-aware source-port selection in the client library).
  [[nodiscard]] int classify(const net::Packet& frame) const;

  /// Queue the RSS indirection currently assigns to this 4-tuple.
  [[nodiscard]] int rss_queue(net::Ipv4Addr remote_ip,
                              std::uint16_t remote_port,
                              net::Ipv4Addr local_ip,
                              std::uint16_t local_port) const;

  /// Parse a frame's flow information without consuming it.
  [[nodiscard]] static std::optional<ParsedFlow> peek_flow(
      const net::Packet& frame, net::Ipv4Addr local_ip);

  // Link wiring (used by Link).
  void attach_link(Link* link) { link_ = link; }
  [[nodiscard]] Link* link() const { return link_; }

 private:
  struct FlowEntry {
    int queue{0};
    bool fin_seen{false};
    std::list<net::FlowKey>::iterator lru_it;
    /// Generation stamp: a linger-delayed FIN retirement only fires if the
    /// entry it targeted is still the same installation (a reused 4-tuple
    /// re-installs with a fresh generation and must keep its filter).
    std::uint64_t gen{0};
    sim::SimTime last_hit{0};
    std::uint64_t hits{0};  ///< post-install packets steered by this entry
  };

  /// Move `e` to the LRU front: a splice, no list-node allocation.
  void touch_lru(const FlowEntry& e) {
    lru_.splice(lru_.begin(), lru_, e.lru_it);
  }
  /// Scored eviction under table pressure: sample the LRU tail, preferring
  /// "embryonic" entries (never steered a post-install packet — what a
  /// spoofed SYN leaves behind) and breaking ties by stalest activity.
  void evict_one_filter();
  /// First FIN observed on a tracked flow: mark it and schedule the entry's
  /// reclamation after fin_retire_linger (generation-guarded).
  void retire_flow_on_fin(const net::FlowKey& key);
  /// Record one steering decision in the metrics registry, and trace SYNs
  /// (the per-flow steering event; tracing every frame would drown the
  /// ring).
  void note_steering(bool filter_hit, const ParsedFlow& flow, int queue);
  /// Registry the lazily-cached counters resolve against (hub override or
  /// the simulator-global one).
  [[nodiscard]] obs::Registry& metrics_registry() {
    return hub_ != nullptr ? hub_->metrics : sim_.metrics();
  }

  sim::Simulator& sim_;
  net::MacAddr mac_;
  net::Ipv4Addr ip_;
  NicParams params_;
  NicStats stats_;
  ToeplitzHasher hasher_;
  std::vector<int> indirection_;
  std::vector<std::vector<net::PacketPtr>> rx_queues_;  // FIFO per queue
  std::vector<std::size_t> rx_heads_;
  /// Per-queue flag: a moderated doorbell event is already scheduled.
  std::vector<std::uint8_t> rx_irq_armed_;
  std::function<void(int)> rx_notify_;
  Link* link_{nullptr};
  obs::Hub* hub_{nullptr};  ///< per-host metric hub override (fleet)

  /// Exact-match filter table, flat (see sim/flat_map.hpp): entries move
  /// on insert/erase, so never hold a FlowEntry& across either.
  sim::FlatMap<net::FlowKey, FlowEntry, net::FlowKeyHash> flows_;
  /// Flows whose filter was FIN-retired, remembered until the stored
  /// expiry time so straggler refault is suppressed (see NicParams::
  /// dead_flow_memory). Entries are erased by a scheduled sweep event; a
  /// fresh install for the key (4-tuple reuse) erases eagerly.
  sim::FlatMap<net::FlowKey, sim::SimTime, net::FlowKeyHash> fin_retired_;
  std::list<net::FlowKey> lru_;  // front = most recent
  std::uint64_t filter_gen_{0};
  sim::FlatMap<net::FlowKey, bool, net::FlowKeyHash> capture_set_;
  std::vector<net::PacketPtr> capture_buf_;
  bool capturing_{false};
  obs::Counter* steer_filter_counter_{nullptr};
  obs::Counter* steer_rss_counter_{nullptr};
  obs::Counter* evict_counter_{nullptr};
  obs::Counter* refault_counter_{nullptr};
};

/// Wire impairment knobs — the adversarial packet dynamics a robustness
/// claim must survive. Every decision is drawn from the link's own
/// deterministic sub-Rng, so a (seed, schedule) pair replays bit-for-bit.
struct LinkImpairment {
  /// Frame is silently discarded.
  double drop_probability{0.0};
  /// One byte of the frame is flipped; checksums must catch it.
  double corrupt_probability{0.0};
  /// Frame is delivered twice (the second copy after a short extra delay).
  double duplicate_probability{0.0};
  /// Frame is held back an extra uniform [0, reorder_window) so frames
  /// serialized after it can overtake it.
  double reorder_probability{0.0};
  sim::SimTime reorder_window{200 * sim::kMicrosecond};
  /// Uniform [0, jitter) added to every delivery (latency variation).
  sim::SimTime jitter{0};

  [[nodiscard]] bool any() const {
    return drop_probability > 0 || corrupt_probability > 0 ||
           duplicate_probability > 0 || reorder_probability > 0 || jitter > 0;
  }
};

/// Full-duplex point-to-point 10GbE link (the SFP+ DAC cable between the two
/// testbed machines). Each direction serializes frames FIFO at the
/// configured bandwidth; optional impairment injection (drop, corruption,
/// duplication, reordering, jitter) for robustness tests.
class Link {
 public:
  struct Params {
    double bandwidth_gbps{10.0};
    sim::SimTime propagation{500 * sim::kNanosecond};
    double drop_probability{0.0};     // convenience: folded into impairment
    double corrupt_probability{0.0};  // convenience: folded into impairment
    LinkImpairment impairment{};
  };

  Link(sim::Simulator& sim, Nic& a, Nic& b, Params params);
  Link(sim::Simulator& sim, Nic& a, Nic& b) : Link(sim, a, b, Params{}) {}

  void set_drop_probability(double p) { impairment_.drop_probability = p; }
  void set_corrupt_probability(double p) { impairment_.corrupt_probability = p; }

  /// Swap the whole impairment profile at once (chaos campaigns toggle
  /// between a baseline profile and a degraded blip). Returns the previous
  /// profile so callers can restore it.
  LinkImpairment set_impairment(const LinkImpairment& imp) {
    LinkImpairment old = impairment_;
    impairment_ = imp;
    return old;
  }
  [[nodiscard]] const LinkImpairment& impairment() const { return impairment_; }

  /// Observation tap: called for every frame put on the wire (after
  /// drop/corrupt injection), with the sending NIC. For tracing tools.
  using Tap = std::function<void(const Nic& from, const net::Packet& frame)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Called by a NIC to put a frame on the wire.
  void send(Nic& from, net::PacketPtr frame);

  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return corrupted_; }
  [[nodiscard]] std::uint64_t frames_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t frames_reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }
  [[nodiscard]] double utilization(sim::SimTime window_start,
                                   sim::SimTime now, int dir) const;

 private:
  struct Direction {
    sim::SimTime busy_until{0};
    std::uint64_t busy_accum{0};  // ns of wire time ever scheduled
  };

  /// Wire time for a frame, TSO-aware (per-MTU-frame overhead).
  [[nodiscard]] sim::SimTime wire_time(const net::Packet& frame) const;

  void deliver_at(Nic* to, net::PacketPtr frame, sim::SimTime arrival);

  sim::Simulator& sim_;
  Nic* ends_[2];
  Params params_;
  LinkImpairment impairment_;
  Tap tap_;
  Direction dir_[2];
  std::uint64_t dropped_{0};
  std::uint64_t corrupted_{0};
  std::uint64_t duplicated_{0};
  std::uint64_t reordered_{0};
  std::uint64_t delivered_{0};
  sim::Rng rng_;
};

}  // namespace neat::nic
