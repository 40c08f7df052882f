// TCP: wire codec and a complete connection state machine.
//
// This is the stateful heart of every NEaT replica — the component whose
// failures are the only ones that lose visible state (Table 3). The
// implementation is a compact but real TCP:
//
//  * three-way handshake (active + passive open) with MSS negotiation,
//  * sliding-window byte-stream transfer with flow control,
//  * retransmission: RFC 6298 RTO estimation + Karn's algorithm, exponential
//    backoff, and 3-dupACK fast retransmit,
//  * Reno congestion control (slow start / congestion avoidance / fast
//    recovery),
//  * out-of-order reassembly, checksum verification, RST generation and
//    handling, the full close dance incl. TIME_WAIT (paper §4 calls the
//    TIME_WAIT timeout out as a control-plane knob),
//  * optional TSO-sized segments (the NIC cuts them into MTU frames).
//
// The protocol logic is pure: all timing/transmission is delegated to a
// TcpEnv supplied by the containing component, so the same class runs inside
// a single-component NEaT replica, the TCP process of a multi-component
// replica, the Linux-baseline kernel model, and the unit tests.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ipc/byte_ring.hpp"
#include "obs/obs.hpp"
#include "net/addr.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "sim/time.hpp"

namespace neat::net {

// --------------------------------------------------------------------------
// Wire format
// --------------------------------------------------------------------------

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint32_t seq{0};
  std::uint32_t ack{0};
  bool syn{false};
  bool ack_flag{false};
  bool fin{false};
  bool rst{false};
  bool psh{false};
  std::uint16_t window{0};
  std::optional<std::uint16_t> mss_option;  // only meaningful on SYN

  /// Prepend the header to `pkt` (payload present) and fill the checksum.
  void encode(Packet& pkt, Ipv4Addr src, Ipv4Addr dst) const;

  /// Parse + consume; verifies the pseudo-header checksum.
  [[nodiscard]] static std::optional<TcpHeader> decode(Packet& pkt,
                                                       Ipv4Addr src,
                                                       Ipv4Addr dst);
};

// Sequence-number arithmetic (mod 2^32).
[[nodiscard]] inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
[[nodiscard]] inline bool seq_gt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
[[nodiscard]] inline bool seq_ge(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) >= 0;
}

// --------------------------------------------------------------------------
// Configuration & environment
// --------------------------------------------------------------------------

struct TcpConfig {
  std::size_t mss{1460};
  std::size_t send_buf{98304};
  std::size_t recv_buf{98304};
  std::uint32_t initial_cwnd_segments{10};
  sim::SimTime rto_initial{200 * sim::kMillisecond};
  sim::SimTime rto_min{50 * sim::kMillisecond};
  sim::SimTime rto_max{8 * sim::kSecond};
  /// Delayed-ACK timeout (Linux uses 40-200 ms); 0 = ACK immediately.
  sim::SimTime delayed_ack{40 * sim::kMillisecond};
  int ack_every{2};  ///< with delayed_ack: immediate ACK every 2*MSS bytes
  /// TIME_WAIT hold time; a pure control-plane setting in NEaT (§4). The
  /// default is far below 2MSL to bound simulation state, as documented in
  /// DESIGN.md.
  sim::SimTime time_wait{500 * sim::kMillisecond};
  int syn_retries{5};
  int data_retries{8};
  bool tso{true};
  std::size_t tso_limit{65535 - 120};  ///< max bytes per emitted segment
  /// SYN-cookie mode (RFC 4987 shape): a listener under cookies answers
  /// every SYN with a stateless SYN|ACK whose ISN encodes the connection
  /// parameters — no TCB exists until the final ACK validates. Spoofed
  /// SYNs therefore allocate nothing.
  bool syn_cookies{false};
  /// Cookie secret rotation period; a cookie is accepted for the current
  /// and the previous period (so the handshake RTT may straddle a
  /// rotation), then expires.
  sim::SimTime syn_cookie_rotate{500 * sim::kMillisecond};
  /// Coalesce socket notifications during rx_batch: readable/writable
  /// callbacks raised while a burst is being consumed are deferred and
  /// flushed once per socket per batch instead of once per segment. EOF
  /// and close edges keep their ordering (readable-before-closed). Off =
  /// per-segment wakeups (the reference model the equivalence test in
  /// test_fastpath.cpp compares against).
  bool coalesce_wakeups{true};
};

// --------------------------------------------------------------------------
// SYN cookies
// --------------------------------------------------------------------------
//
// Cookie ISN layout (32 bits):   [31:29] counter mod 8
//                                [28:26] MSS table index
//                                [25:0]  26-bit MAC over
//                                        (secret, 4-tuple, client ISN,
//                                         counter, MSS index)
// The functions are pure so tests can pin golden vectors.

/// MSS values encodable in a cookie (3 bits). Offered MSS is rounded down.
inline constexpr std::array<std::uint16_t, 8> kSynCookieMss{
    536, 1220, 1440, 1460, 2960, 4380, 8760, 9000};

/// Largest kSynCookieMss index whose value is <= mss.
[[nodiscard]] unsigned syn_cookie_mss_index(std::uint16_t mss);

/// Build the cookie ISN for a SYN from `flow` (as seen locally) carrying
/// `client_isn`, at rotation-counter `count`.
[[nodiscard]] std::uint32_t syn_cookie_make(std::uint64_t secret,
                                            const FlowKey& flow,
                                            std::uint32_t client_isn,
                                            std::uint32_t count,
                                            unsigned mss_idx);

/// Validate a cookie echoed back in an ACK. Returns the negotiated MSS, or
/// nullopt if the MAC fails or the cookie is older than one rotation.
[[nodiscard]] std::optional<std::uint16_t> syn_cookie_check(
    std::uint64_t secret, const FlowKey& flow, std::uint32_t client_isn,
    std::uint32_t cookie, std::uint32_t now_count);

/// Host environment a TcpStack runs in; implemented by each containing
/// component (replica process, kernel model, test fixture).
class TcpEnv {
 public:
  virtual ~TcpEnv() = default;
  [[nodiscard]] virtual sim::SimTime now() = 0;
  /// Start a cancellable timer in the component's context.
  virtual sim::EventHandle start_timer(sim::SimTime delay,
                                       std::function<void()> fn) = 0;
  /// Transmit a finished TCP segment towards IP.
  virtual void tx(PacketPtr segment, Ipv4Addr src, Ipv4Addr dst) = 0;
  /// Randomness for ISS and ephemeral ports.
  virtual std::uint32_t random_u32() = 0;
  /// Observability hub of the enclosing simulation; nullptr disables all
  /// metric/trace recording (bare unit-test environments).
  [[nodiscard]] virtual obs::Hub* obs_hub() { return nullptr; }
  /// A passive connection reached ESTABLISHED. NEaT replicas use this to
  /// install the NIC exact-match steering filter only once the peer has
  /// proven liveness (deferred filter install — spoofed SYNs never get
  /// one). Default: nothing.
  virtual void on_flow_established(const FlowKey&) {}
};

// --------------------------------------------------------------------------
// Sockets
// --------------------------------------------------------------------------

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

[[nodiscard]] const char* to_string(TcpState s);

enum class TcpCloseReason {
  kNormal,       ///< orderly FIN exchange completed
  kReset,        ///< peer sent RST
  kTimeout,      ///< retransmission limit exceeded
  kRefused,      ///< SYN answered by RST
  kStackFailure  ///< replica crashed; set by recovery logic
};

/// What a connection reports to its owner.
enum class TcpEvent : std::uint8_t {
  kEstablished,  ///< the handshake completed
  kReadable,     ///< data or EOF available
  kWritable,     ///< send space freed
  kClosed,       ///< the connection is gone; the reason comes with it
};

class TcpStack;

/// One TCP connection. Obtain via TcpStack::connect() or a listener's
/// accept queue. All app-facing calls are non-blocking.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  /// The one object a connection notifies: the socket library's socket
  /// (DESIGN.md §5n), or the Callbacks adapter below. A TCB holds a bare
  /// pointer to it, not four closures, so the owner must detach
  /// (set_owner(nullptr)) before it dies — the TCB may outlive it
  /// (TIME_WAIT, a closing socket the stack still drains). Events arrive
  /// in the stack's context; an owner whose last reference can drop inside
  /// on_tcp_event must keep itself alive to the end of that call.
  class Owner {
   public:
    /// `reason` is meaningful for TcpEvent::kClosed only.
    virtual void on_tcp_event(TcpEvent ev, TcpCloseReason reason) = 0;

   protected:
    ~Owner() = default;
  };

  /// Per-connection event closures, for code that has no owner object
  /// (tests, benchmarks). set_callbacks() stores them in a heap-allocated
  /// Owner, so only a socket that uses them pays for them; an empty
  /// callback is an event the socket does not want.
  struct Callbacks {
    sim::Callback<void()> on_established;
    sim::Callback<void()> on_readable;  ///< data or EOF available
    sim::Callback<void()> on_writable;  ///< send space freed
    sim::Callback<void(TcpCloseReason)> on_closed;
  };

  TcpSocket(TcpStack& stack, FlowKey flow, const TcpConfig& cfg);
  ~TcpSocket();

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const FlowKey& flow() const { return flow_; }

  /// Notify `owner` of every event; nullptr detaches. Replaces (and
  /// frees) any set_callbacks() adapter.
  void set_owner(Owner* owner);
  [[nodiscard]] Owner* owner() const { return owner_; }
  /// Notify closures instead of an owner object. Called again, it swaps
  /// the closures in place.
  void set_callbacks(Callbacks cb);

  /// Queue bytes for transmission; returns how many were accepted
  /// (bounded by send-buffer space).
  std::size_t send(std::span<const std::uint8_t> data);

  /// Read received bytes; returns bytes read (0 = nothing available —
  /// check eof() to distinguish from EOF).
  std::size_t recv(std::span<std::uint8_t> dst);

  [[nodiscard]] std::size_t readable() const { return recv_ring_.readable(); }
  [[nodiscard]] std::size_t send_space() const;
  [[nodiscard]] bool eof() const {
    return fin_received_ && recv_ring_.empty();
  }

  /// Orderly close: FIN after all queued data drains.
  void close();

  /// Abortive close: RST immediately.
  void abort();

  /// Bytes in flight (unacknowledged).
  [[nodiscard]] std::size_t inflight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmit_count_; }
  [[nodiscard]] std::size_t cwnd() const { return cwnd_; }
  [[nodiscard]] sim::SimTime srtt() const { return srtt_; }

 private:
  friend class TcpStack;

  void start_active_open();
  void start_passive_open(const TcpHeader& syn);
  /// Single choke point for state transitions: records the dwell time of
  /// the state being left into the per-state histograms.
  void set_state(TcpState next);
  void on_segment(const TcpHeader& h, PacketPtr payload);
  /// `prev_wnd` is the send window before this segment's update.
  void on_ack(const TcpHeader& h, std::uint32_t prev_wnd);
  void accept_data(const TcpHeader& h, const PacketPtr& payload);
  void deliver_in_order();
  void try_output();
  void emit_segment(std::uint32_t seq, std::size_t len, bool fin, bool syn,
                    bool force_ack);
  void send_ack_now();
  void schedule_ack(std::size_t new_bytes);
  void arm_rto();
  void disarm_rto();
  void rto_tick();
  void time_wait_expired() { enter_closed(TcpCloseReason::kNormal); }
  /// The job a timer of this TCB runs: calls `Fire` if the TCB is still
  /// alive when the timer fires (defined in tcp.cpp).
  template <void (TcpSocket::*Fire)()>
  [[nodiscard]] auto timer_job();
  void on_rto();
  void update_rtt(sim::SimTime measured);
  void enter_time_wait();
  void enter_closed(TcpCloseReason reason);
  void fail(TcpCloseReason reason);
  /// Notification choke points: immediate outside an rx_batch, deferred
  /// (one flush per socket per batch) inside one.
  void notify_readable();
  void notify_writable();
  /// Fire the deferred notification bits. Also called by enter_closed so
  /// a batched EOF still delivers readable before closed.
  void flush_notifications();
  [[nodiscard]] static constexpr std::uint8_t event_bit(TcpEvent ev) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(ev));
  }
  static constexpr std::uint8_t kAllEvents = 0xf;
  [[nodiscard]] bool wants(TcpEvent ev) const {
    return (wants_ & event_bit(ev)) != 0;
  }
  /// Tell the owner; callers check wants() first.
  void emit(TcpEvent ev, TcpCloseReason reason = TcpCloseReason::kNormal) {
    owner_->on_tcp_event(ev, reason);
  }
  /// Free the set_callbacks() adapter, if the owner is one.
  void drop_callback_owner();
  [[nodiscard]] std::uint16_t advertised_window() const;
  [[nodiscard]] std::size_t effective_mss() const;

  TcpStack& stack_;
  FlowKey flow_;
  const TcpConfig& cfg_;
  TcpState state_{TcpState::kClosed};
  sim::SimTime state_entered_{0};
  Owner* owner_{nullptr};

  // Send side. send_ring_ holds [snd_una_, snd_una_ + size) of the stream.
  ipc::ByteRing send_ring_;
  std::uint32_t iss_{0};
  std::uint32_t snd_una_{0};
  std::uint32_t snd_nxt_{0};
  std::uint32_t snd_wnd_{0};
  bool fin_queued_{false};
  bool fin_sent_{false};
  std::uint32_t fin_seq_{0};

  // Congestion control (Reno), in bytes.
  std::size_t cwnd_{0};
  std::size_t ssthresh_{};
  int dupacks_{0};
  std::uint32_t recover_{0};  // NewReno recovery point
  bool in_recovery_{false};

  // RTT estimation (RFC 6298).
  sim::SimTime srtt_{0};
  sim::SimTime rttvar_{0};
  sim::SimTime rto_;
  std::optional<std::pair<std::uint32_t, sim::SimTime>> rtt_sample_;

  // Receive side.
  ipc::ByteRing recv_ring_;
  std::uint32_t irs_{0};
  std::uint32_t rcv_nxt_{0};
  bool fin_received_{false};
  bool fin_seen_{false};  // peer's FIN observed but maybe not yet in order
  std::uint32_t fin_rcv_seq_{0};
  /// Out-of-order segments, sorted by raw sequence number (the same order
  /// the std::map this replaces iterated in). Reordering windows hold a
  /// handful of segments, so a sorted vector beats a node-based map: no
  /// per-segment node allocation and linear scans stay in cache.
  struct OooSeg {
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<OooSeg> ooo_;
  std::size_t ooo_bytes_{0};
  bool delivering_{false};  // reentrancy guard for deliver_in_order()

  // Timers. The RTO is lazily re-armed: every ACK just moves
  // rto_deadline_ forward; the scheduled event re-checks the deadline when
  // it fires and sleeps the remainder, so the common path (ACK per
  // round-trip) is two stores instead of a cancel + reschedule.
  sim::EventHandle rto_timer_;
  sim::SimTime rto_deadline_{0};  // 0 = disarmed
  sim::SimTime rto_fire_at_{0};   // when the pending event fires
  sim::EventHandle ack_timer_;
  sim::EventHandle time_wait_timer_;
  int retries_{0};
  /// This TCB's entry in the liveness table its timer jobs check (tcp.cpp).
  std::uint32_t live_slot_;
  std::size_t delack_bytes_{0};  // data bytes received since last ACK sent
  std::uint64_t retransmit_count_{0};
  std::uint16_t peer_mss_{536};
  bool app_released_{false};

  // Wakeup coalescing: notification bits deferred during an rx_batch.
  static constexpr std::uint8_t kNotifyReadable = 1;
  static constexpr std::uint8_t kNotifyWritable = 2;
  std::uint8_t pending_notify_{0};
  std::uint8_t wants_{0};              // event_bit()s the owner takes
  bool owner_is_callbacks_{false};     // owner_ is set_callbacks()'s adapter
};

using TcpSocketPtr = std::shared_ptr<TcpSocket>;

/// A listening socket: SYN queue + accept queue.
class TcpListener {
 public:
  using AcceptReady = std::function<void()>;

  TcpListener(std::uint16_t port, std::size_t backlog)
      : port_(port), backlog_(backlog) {}

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t pending() const { return accept_q_.size(); }

  /// Pop one fully established connection (nullptr if none).
  [[nodiscard]] TcpSocketPtr accept();

  /// Invoked whenever a connection becomes acceptable.
  void set_accept_ready(AcceptReady cb) { on_ready_ = std::move(cb); }

 private:
  friend class TcpStack;
  std::uint16_t port_;
  std::size_t backlog_;
  std::deque<TcpSocketPtr> accept_q_;
  AcceptReady on_ready_;
};

// --------------------------------------------------------------------------
// Stack (per-replica TCP instance)
// --------------------------------------------------------------------------

struct TcpStats {
  std::uint64_t segments_in{0};
  std::uint64_t segments_out{0};
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
  std::uint64_t checksum_drops{0};
  std::uint64_t retransmits{0};
  std::uint64_t rsts_out{0};
  std::uint64_t rsts_in{0};
  std::uint64_t conns_accepted{0};
  std::uint64_t conns_initiated{0};
  std::uint64_t conns_failed{0};
  std::uint64_t ooo_segments{0};
  std::uint64_t syns_dropped_backlog{0};
  std::uint64_t pure_acks_out{0};
  std::uint64_t data_segments_out{0};
  std::uint64_t syn_cookies_sent{0};
  std::uint64_t syn_cookies_accepted{0};
  std::uint64_t syn_cookies_rejected{0};
};

/// Serialized state of one established connection, for checkpoint-based
/// stateful recovery (the alternative recovery strategy the paper discusses
/// in §6.6: "rely on checkpointing techniques to support a stateful
/// recovery strategy allowing existing connections to survive failures").
struct TcpConnSnapshot {
  FlowKey flow;
  std::uint32_t iss{0};
  std::uint32_t irs{0};
  std::uint32_t snd_una{0};
  std::uint32_t rcv_nxt{0};
  std::uint32_t snd_wnd{0};
  std::uint16_t peer_mss{536};
  std::vector<std::uint8_t> send_buf;  ///< unacked + unsent stream bytes
  std::vector<std::uint8_t> recv_buf;  ///< received, not yet read by app
  /// Migration resumes output here; checkpoint restore retransmits from
  /// snd_una instead (see restore()).
  std::uint32_t snd_nxt{0};
  // Extra fidelity only live migration captures (checkpoint restore
  // deliberately goes without it).
  struct OooChunk {
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<OooChunk> ooo;  ///< out-of-order reassembly segments
  bool fin_seen{false};       ///< peer FIN observed beyond a reassembly hole
  std::uint32_t fin_rcv_seq{0};
  bool unaccepted{false};  ///< established but still in the listener queue
};

/// A point-in-time checkpoint of a stack's established connections.
struct TcpCheckpoint {
  sim::SimTime taken_at{0};
  std::vector<TcpConnSnapshot> conns;

  /// Serialized size (what a checkpointing engine would copy out).
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const auto& c : conns) {
      n += sizeof(TcpConnSnapshot) + c.send_buf.size() + c.recv_buf.size();
    }
    return n;
  }
};

class TcpStack {
 public:
  TcpStack(TcpEnv& env, Ipv4Addr local_ip, TcpConfig cfg = {});

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  [[nodiscard]] Ipv4Addr local_ip() const { return local_ip_; }
  [[nodiscard]] const TcpConfig& config() const { return cfg_; }
  [[nodiscard]] TcpEnv& env() { return env_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }

  /// Open a listener. Returns nullptr if the port is already bound.
  TcpListener* listen(std::uint16_t port, std::size_t backlog = 128);
  void close_listener(std::uint16_t port);
  [[nodiscard]] TcpListener* listener(std::uint16_t port) {
    auto it = listeners_.find(port);
    return it == listeners_.end() ? nullptr : it->second.get();
  }

  /// Active open. Picks an ephemeral port if local_port == 0.
  TcpSocketPtr connect(SockAddr remote, std::uint16_t local_port = 0);

  /// Entry point for TCP segments from IP (pkt starts at the TCP header).
  void rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt);

  /// One arrival from IP, as staged by a burst-mode RX channel.
  struct SegmentArrival {
    Ipv4Addr src;
    Ipv4Addr dst;
    PacketPtr seg;
  };

  /// Burst entry point: consume a whole RX batch in one consumer job with
  /// one obs-timestamp/histogram record per burst instead of per-segment
  /// bookkeeping. `alive` (optional) is consulted between segments so a
  /// handler that crashes its own process mid-burst stops the loop — the
  /// rest of the burst died inside that process's memory.
  void rx_batch(std::vector<SegmentArrival>&& batch,
                const std::function<bool()>& alive = {});

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

  /// Connections currently mid-handshake (SYN seen, not yet established).
  /// The chaos campaign uses this to time crashes into the handshake
  /// window, the paper's hardest recovery case.
  [[nodiscard]] std::size_t pending_handshake_count() const {
    return pending_handshakes_;
  }

  /// Number of connections in "active" states (not TIME_WAIT/CLOSED) —
  /// what the lazy-termination garbage collector watches.
  [[nodiscard]] std::size_t active_connection_count() const;

  /// Enumerate live connections (harness/recovery bookkeeping).
  void for_each_connection(const std::function<void(TcpSocket&)>& fn);

  /// Drop all state instantly and silently — what a crash does. Peers see
  /// nothing until their own timers fire or a RST answers a later segment.
  void destroy_all_state();

  /// Capture all ESTABLISHED connections (connections mid-handshake or
  /// mid-teardown are not worth preserving and are left out, as a real
  /// checkpointing engine would).
  [[nodiscard]] TcpCheckpoint snapshot() const;

  /// Recreate connections from a checkpoint into this (empty) stack.
  /// Restored connections resume from the checkpointed sequence state:
  /// anything in flight at the crash is retransmitted; connections that
  /// made irrecoverable progress since the checkpoint (data acked to the
  /// peer after the snapshot) stall and die by the normal TCP timeout —
  /// exactly the divergence problem that makes checkpointing imperfect.
  /// Returns the restored sockets (for the library to re-attach).
  std::vector<TcpSocketPtr> restore(const TcpCheckpoint& cp);

  /// Live migration, source side: snapshot every ESTABLISHED connection at
  /// full fidelity (snd_nxt, reassembly buffer, accept-queue membership)
  /// and remove them from this stack silently — no FIN, no RST, timers
  /// cancelled. The connections now live only in the returned checkpoint.
  [[nodiscard]] TcpCheckpoint extract_for_migration();

  /// Live migration, target side: recreate the extracted connections in
  /// this stack byte-exactly. Connections never accepted by the app are
  /// re-enqueued into this stack's listener for the same port (dropped
  /// with a RST if none exists). Returns the adopted sockets, in snapshot
  /// order, for the socket library to re-home (excludes re-enqueued ones).
  std::vector<TcpSocketPtr> adopt(const TcpCheckpoint& cp);

 private:
  friend class TcpSocket;

  void send_rst_for(const TcpHeader& h, Ipv4Addr src, Ipv4Addr dst,
                    std::size_t payload_len);
  void send_cookie_synack(const TcpHeader& syn, const FlowKey& key);
  /// Try to complete a cookie handshake from an un-matched ACK. Returns
  /// true if the segment was consumed (socket created or cookie judged
  /// stale), false to fall through to the RST path.
  bool try_cookie_accept(const TcpHeader& h, const FlowKey& key,
                         PacketPtr& pkt);
  [[nodiscard]] std::uint32_t cookie_count() const;
  void socket_closed(TcpSocket& s);  // remove from table when fully done
  // The connection image codec: checkpoint restore and live migration
  // differ only in what they add around these three steps.
  /// The fields every image carries: flow, sequence state, both rings.
  [[nodiscard]] static TcpConnSnapshot capture(const TcpSocket& sock);
  /// A fresh ESTABLISHED socket from `s`'s shared fields, inserted into the
  /// demux table, with output resuming at `resume_at` (snd_una for
  /// checkpoint restore, snd_nxt for migration).
  TcpSocketPtr rebuild(const TcpConnSnapshot& s, std::uint32_t resume_at);
  /// Stop a TCB without a word to the peer (crash, extraction).
  static void silence(TcpSocket& sock);
  /// Handles of the ESTABLISHED connections, in key order.
  [[nodiscard]] std::vector<TcpSocketPtr> established() const;
  void handshake_complete(TcpSocket& s);
  // Observability (all no-ops when env reports no hub). Metric handles are
  // cached per stack so the hot paths pay one pointer test per event.
  void record_rtt(sim::SimTime rtt);
  void count_retransmit();
  void count_wakeup_coalesced();
  void record_dwell(TcpState s, sim::SimTime dwell);
  /// True while an rx_batch is consuming segments and coalescing is on:
  /// socket notifications defer until the batch flush.
  [[nodiscard]] bool defer_notifications() const { return in_batch_; }
  /// Remember `s` as needing a notification flush at the end of the
  /// current batch. `first_bit` = the socket had no bits pending yet.
  void mark_dirty(TcpSocket& s, bool first_bit);
  void handshake_dropped() {
    if (pending_handshakes_ > 0) --pending_handshakes_;
  }
  std::uint16_t ephemeral_port();
  /// All conns_ insert/erase goes through these so port_use_ stays exact.
  void insert_conn(const FlowKey& key, TcpSocketPtr sock) {
    // A new incarnation of the 4-tuple supersedes any migrated-away
    // memory: without this, a reused port whose packets fall back to this
    // replica (filter eviction, steering change) would be dropped as a
    // stale straggler of the OLD flow — a permanent blackhole.
    migrated_out_.erase(key);
    conns_[key] = std::move(sock);
    if (key.local_port >= kEphemeralLo) {
      if (port_use_.empty()) port_use_.resize(kEphemeralPorts, 0);
      ++port_use_[key.local_port - kEphemeralLo];
    }
  }
  void erase_conn(const FlowKey& key) {
    if (conns_.erase(key) > 0 && key.local_port >= kEphemeralLo) {
      --port_use_[key.local_port - kEphemeralLo];
    }
  }

  TcpEnv& env_;
  Ipv4Addr local_ip_;
  TcpConfig cfg_;
  TcpStats stats_;
  /// Demux table. Flat (see sim/flat_map.hpp): no reference stability, and
  /// any iteration whose order reaches the simulation goes through
  /// sorted_if()/sorted(), i.e. ascending FlowKey order.
  sim::FlatMap<FlowKey, TcpSocketPtr, FlowKeyHash> conns_;
  /// Connections per local port in the ephemeral range (index: port -
  /// kEphemeralLo), the only ports ephemeral_port() picks from. Makes
  /// ephemeral allocation O(1) — the old scan over conns_ was O(n) per
  /// connect, quadratic over a ramp, which melts at fleet scale (hundreds
  /// of thousands of client flows). Allocated by the first connection
  /// with an ephemeral local port, so a server-only stack holds none.
  static constexpr std::uint16_t kEphemeralLo = 49152;
  static constexpr std::size_t kEphemeralPorts = 65536 - kEphemeralLo;
  std::vector<std::uint32_t> port_use_;
  /// Flows extracted for migration: stale frames still in this replica's
  /// RX channel must be dropped, not RST'd (erased if the flow returns).
  sim::FlatMap<FlowKey, bool, FlowKeyHash> migrated_out_;
  std::unordered_map<std::uint16_t, std::unique_ptr<TcpListener>> listeners_;
  std::uint16_t next_ephemeral_{0};
  std::size_t pending_handshakes_{0};
  std::uint64_t cookie_secret_{0};
  /// True while rx_batch is consuming segments (and coalescing is on).
  bool in_batch_{false};
  /// Sockets with deferred notification bits, in first-dirty order (the
  /// flush order — deterministic). Strong refs: a socket may be closed by
  /// an earlier flush callback and must stay safe to visit.
  std::vector<TcpSocketPtr> dirty_socks_;
  obs::Histogram* rtt_hist_{nullptr};
  obs::Histogram* rx_batch_hist_{nullptr};
  obs::Counter* retx_counter_{nullptr};
  obs::Counter* handshake_counter_{nullptr};
  obs::Counter* checksum_drop_counter_{nullptr};
  obs::Counter* wakeups_coalesced_counter_{nullptr};
  std::array<obs::Histogram*, 11> dwell_hist_{};
};

}  // namespace neat::net
