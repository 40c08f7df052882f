// Shared-memory byte ring: the data plane of a NEaT socket.
//
// The socket design (Hruby et al., TRIOS'14, cited as [35]) maps a pair of
// byte rings between the application and its network stack replica, so that
// send()/recv() are plain memory copies plus an occasional doorbell —
// "resolving the vast majority of system calls within the application
// itself". This class is that ring.
//
// Logical capacity vs physical bytes (DESIGN.md §5m): capacity() is the
// ring's contract — what writable(), full() and the TCP advertised window
// see — but the ring pays only for what it holds. The bytes live in one
// uninitialised buffer sized by the first write that needs it: the next
// power of two at or above that write, at least kMinBytes, at most the
// capacity. From there it doubles up to the capacity. Below the capacity
// the live bytes stay contiguous at
// [off_, off_ + size_), so every copy in or out is a single memcpy: when the
// tail runs out but the consumed head has room, the live bytes are compacted
// to offset 0, and when the ring drains the offset resets to 0 for free.
// A ring that only ever carries 16-byte pings holds 64 bytes, and a
// request/response stream a few KiB of a 96 KiB ring. Once the buffer
// reaches the capacity it is the fixed ring (physical
// head == logical head, copies wrap), because a ring held near full would
// otherwise compact almost all of its bytes on every small write.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

namespace neat::ipc {

class ByteRing {
 public:
  /// Floor of the first allocation (itself clamped to the capacity).
  static constexpr std::size_t kMinBytes = 64;
  /// Largest capacity: offsets, size and allocation are 32-bit fields, so a
  /// ring is 32 B (DESIGN.md §5m). Index sums are formed in std::size_t.
  static constexpr std::size_t kMaxCapacity = UINT32_MAX;

  /// Backing memory is allocated lazily on first write and can be released
  /// with release() — connection teardown states (TIME_WAIT) must not pin
  /// buffer memory, or high connection churn exhausts RAM. Throws
  /// std::length_error for a capacity of 0 or above kMaxCapacity, in every
  /// build.
  explicit ByteRing(std::size_t capacity)
      : capacity_(checked_capacity(capacity)) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t readable() const { return size_; }
  [[nodiscard]] std::size_t writable() const { return capacity_ - size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }
  /// Physical bytes currently allocated (0 before the first write and after
  /// release(); never more than capacity()).
  [[nodiscard]] std::size_t allocated() const { return alloc_; }

  /// Copy as much of `src` in as fits; returns bytes written.
  std::size_t write(std::span<const std::uint8_t> src) {
    const std::size_t n = std::min(src.size(), writable());
    if (n == 0) return 0;
    if (alloc_ < capacity_) make_room(std::size_t{size_} + n);
    const std::size_t tail = wrap(std::size_t{off_} + size_);
    const std::size_t first = std::min<std::size_t>(n, alloc_ - tail);
    std::memcpy(buf_.get() + tail, src.data(), first);
    if (n > first) std::memcpy(buf_.get(), src.data() + first, n - first);
    size_ += static_cast<std::uint32_t>(n);
    high_water_ = std::max(high_water_, size_);
    return n;
  }

  /// Drop content AND free the backing memory (lazily re-allocated if the
  /// ring is written again).
  void release() {
    clear();
    buf_.reset();
    alloc_ = 0;
  }

  /// Copy up to dst.size() bytes out; returns bytes read.
  std::size_t read(std::span<std::uint8_t> dst) {
    return consume(copy_out(0, dst));
  }

  /// Copy bytes starting `offset` into the readable region, without
  /// consuming (TCP retransmission reads unacked data at an offset).
  std::size_t peek_at(std::size_t offset, std::span<std::uint8_t> dst) const {
    return copy_out(offset, dst);
  }

  /// Copy up to `n` bytes without consuming them.
  std::size_t peek(std::span<std::uint8_t> dst) const {
    return copy_out(0, dst);
  }

  /// Zero-copy view of the readable region in ring order, split where a
  /// fixed ring of capacity() bytes would wrap: the first span holds
  /// min(size, capacity - logical head) bytes, the second the rest (empty
  /// when the content does not cross the logical wrap point). Below the
  /// capacity the two spans are physically adjacent; the split is kept
  /// because callers emit one segment per span, so it shapes the simulated
  /// wire traffic. Invalidated by any mutating call.
  [[nodiscard]] std::array<std::span<const std::uint8_t>, 2> readable_spans()
      const {
    if (size_ == 0) return {};
    const std::size_t first =
        std::min<std::size_t>(size_, capacity_ - logical_head_);
    return {std::span<const std::uint8_t>{buf_.get() + off_, first},
            std::span<const std::uint8_t>{buf_.get() + wrap(off_ + first),
                                          size_ - first}};
  }

  /// Drop up to n bytes; returns bytes dropped.
  std::size_t discard(std::size_t n) {
    return consume(std::min(n, readable()));
  }

  /// Remove all content (socket teardown / replica restart). Keeps the
  /// allocation; release() frees it.
  void clear() {
    logical_head_ = 0;
    off_ = 0;
    size_ = 0;
  }

  /// Largest occupancy ever reached (queue-pressure diagnostics).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  [[nodiscard]] static std::uint32_t checked_capacity(std::size_t capacity) {
    if (capacity == 0 || capacity > kMaxCapacity) {
      throw std::length_error("ByteRing capacity must be in [1, 2^32)");
    }
    return static_cast<std::uint32_t>(capacity);
  }

  /// Physical index of position `i` < 2 * alloc_ in the buffer.
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= alloc_ ? i - alloc_ : i;
  }

  /// Shared tail of read/peek/peek_at: copy up to dst.size() bytes starting
  /// `offset` into the readable region (one memcpy unless the fixed ring
  /// wraps).
  std::size_t copy_out(std::size_t offset,
                       std::span<std::uint8_t> dst) const {
    if (offset >= size_) return 0;
    const std::size_t n = std::min(dst.size(), size_ - offset);
    if (n == 0) return 0;
    const std::size_t pos = wrap(off_ + offset);
    const std::size_t first = std::min(n, alloc_ - pos);
    std::memcpy(dst.data(), buf_.get() + pos, first);
    if (n > first) std::memcpy(dst.data() + first, buf_.get(), n - first);
    return n;
  }

  /// Advance the head past n (<= size_) bytes. Below the capacity a
  /// drained ring restarts at offset 0, so the next write needs no
  /// compaction; at the capacity the physical head is the logical one.
  std::size_t consume(std::size_t n) {
    logical_head_ =
        static_cast<std::uint32_t>((logical_head_ + n) % capacity_);
    size_ -= static_cast<std::uint32_t>(n);
    if (alloc_ == capacity_) {
      off_ = logical_head_;
    } else {
      off_ = size_ == 0 ? 0 : off_ + static_cast<std::uint32_t>(n);
    }
    return n;
  }

  /// Below the capacity: make [off_, off_ + need) fit without wrapping. An
  /// empty ring allocates bit_ceil(max(need, kMinBytes)), capped at the
  /// capacity. A short tail compacts the live bytes to offset 0 when they
  /// fit the allocation; otherwise the buffer doubles (capped at the
  /// capacity). On reaching the capacity the live bytes move to the
  /// logical head, which makes the buffer the fixed ring from then on.
  void make_room(std::size_t need) {
    if (off_ + need <= alloc_) return;
    if (need <= alloc_) {
      std::memmove(buf_.get(), buf_.get() + off_, size_);
      off_ = 0;
      return;
    }
    const std::size_t cap = capacity_;
    std::size_t grown =
        alloc_ == 0 ? std::min(std::bit_ceil(std::max(need, kMinBytes)), cap)
                    : alloc_;
    while (grown < need) grown = std::min(grown * 2, cap);
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(grown);
    const std::size_t at = grown == cap ? logical_head_ : 0;
    const std::size_t first = std::min<std::size_t>(size_, grown - at);
    if (first > 0) std::memcpy(bigger.get() + at, buf_.get() + off_, first);
    if (size_ > first) {
      std::memcpy(bigger.get(), buf_.get() + off_ + first, size_ - first);
    }
    buf_ = std::move(bigger);
    alloc_ = static_cast<std::uint32_t>(grown);
    off_ = static_cast<std::uint32_t>(at);
  }

  // All 32-bit (capacity < 2^32) around the one pointer: 32 B per ring.
  std::unique_ptr<std::uint8_t[]> buf_;  // null until first write
  std::uint32_t capacity_;
  std::uint32_t alloc_{0};               // physical bytes behind buf_
  std::uint32_t off_{0};                 // physical index of the head
  std::uint32_t logical_head_{0};        // head in a fixed ring of capacity_
  std::uint32_t size_{0};
  std::uint32_t high_water_{0};
};

}  // namespace neat::ipc
