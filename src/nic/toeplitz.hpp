// Toeplitz RSS hash (Microsoft RSS specification), as implemented by the
// Intel 82599 the paper's testbed used. The NIC steers each incoming flow to
// a queue — and therefore to a NEaT replica — based on this hash of the
// 5-tuple, which is what gives NEaT random, replica-affine connection
// placement without any software coordination.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>

#include "net/addr.hpp"

namespace neat::nic {

/// The de-facto standard 40-byte key (from the MS RSS verification suite).
inline constexpr std::array<std::uint8_t, 40> kDefaultRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

class ToeplitzHasher {
 public:
  /// Key length in bytes; a shorter key is zero-padded, a longer one cut.
  static constexpr std::size_t kKeyBytes = 40;

  /// Hashing is table-driven: one 256-entry table per input byte position
  /// (the key is cyclic, so byte p uses table p mod kKeyBytes), then one
  /// lookup and one XOR per input byte. The default key's tables (40 KiB)
  /// are built once per process and shared by every hasher.
  explicit ToeplitzHasher(std::span<const std::uint8_t> key = kDefaultRssKey)
      : tables_(tables_for(key)) {}

  /// Hash an arbitrary input byte string.
  [[nodiscard]] std::uint32_t hash(std::span<const std::uint8_t> input) const {
    std::uint32_t result = 0;
    std::size_t pos = 0;
    for (const std::uint8_t byte : input) {
      result ^= (*tables_)[pos][byte];
      if (++pos == kKeyBytes) pos = 0;
    }
    return result;
  }

  /// TCP/UDP IPv4 4-tuple hash: src ip, dst ip, src port, dst port — the
  /// order defined by the RSS spec.
  [[nodiscard]] std::uint32_t hash_tuple(net::Ipv4Addr src, net::Ipv4Addr dst,
                                         std::uint16_t src_port,
                                         std::uint16_t dst_port) const {
    std::array<std::uint8_t, 12> in{};
    in[0] = static_cast<std::uint8_t>(src.value >> 24);
    in[1] = static_cast<std::uint8_t>(src.value >> 16);
    in[2] = static_cast<std::uint8_t>(src.value >> 8);
    in[3] = static_cast<std::uint8_t>(src.value);
    in[4] = static_cast<std::uint8_t>(dst.value >> 24);
    in[5] = static_cast<std::uint8_t>(dst.value >> 16);
    in[6] = static_cast<std::uint8_t>(dst.value >> 8);
    in[7] = static_cast<std::uint8_t>(dst.value);
    in[8] = static_cast<std::uint8_t>(src_port >> 8);
    in[9] = static_cast<std::uint8_t>(src_port);
    in[10] = static_cast<std::uint8_t>(dst_port >> 8);
    in[11] = static_cast<std::uint8_t>(dst_port);
    return hash(in);
  }

  /// IPv4-only 2-tuple hash: src ip, dst ip — used for protocols without
  /// ports (and the "IPv4 only" rows of the RSS verification vectors).
  [[nodiscard]] std::uint32_t hash_ip_pair(net::Ipv4Addr src,
                                           net::Ipv4Addr dst) const {
    std::array<std::uint8_t, 8> in{};
    in[0] = static_cast<std::uint8_t>(src.value >> 24);
    in[1] = static_cast<std::uint8_t>(src.value >> 16);
    in[2] = static_cast<std::uint8_t>(src.value >> 8);
    in[3] = static_cast<std::uint8_t>(src.value);
    in[4] = static_cast<std::uint8_t>(dst.value >> 24);
    in[5] = static_cast<std::uint8_t>(dst.value >> 16);
    in[6] = static_cast<std::uint8_t>(dst.value >> 8);
    in[7] = static_cast<std::uint8_t>(dst.value);
    return hash(in);
  }

 private:
  using Tables = std::array<std::array<std::uint32_t, 256>, kKeyBytes>;

  [[nodiscard]] static std::shared_ptr<const Tables> tables_for(
      std::span<const std::uint8_t> key) {
    if (std::ranges::equal(key, kDefaultRssKey)) {
      static const std::shared_ptr<const Tables> shared = build(key);
      return shared;
    }
    return build(key);
  }

  [[nodiscard]] static std::shared_ptr<const Tables> build(
      std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, kKeyBytes> k{};
    for (std::size_t i = 0; i < k.size() && i < key.size(); ++i) k[i] = key[i];
    auto tables = std::make_shared<Tables>();
    for (std::size_t pos = 0; pos < kKeyBytes; ++pos) {
      // window[j]: the 32 key bits from bit 8 * pos + j on, XORed in when
      // bit j (0 = MSB) of the input byte at `pos` is set.
      std::array<std::uint32_t, 8> window{};
      window[0] = static_cast<std::uint32_t>(k[pos]) << 24 |
                  static_cast<std::uint32_t>(k[(pos + 1) % kKeyBytes]) << 16 |
                  static_cast<std::uint32_t>(k[(pos + 2) % kKeyBytes]) << 8 |
                  static_cast<std::uint32_t>(k[(pos + 3) % kKeyBytes]);
      const std::uint8_t next = k[(pos + 4) % kKeyBytes];
      for (std::size_t j = 1; j < 8; ++j) {
        window[j] = window[j - 1] << 1 | (next >> (8 - j) & 1u);
      }
      // Each value is a smaller one plus its lowest set bit.
      auto& row = (*tables)[pos];
      row[0] = 0;
      for (unsigned v = 1; v < 256; ++v) {
        row[v] = row[v & (v - 1)] ^ window[7 - std::countr_zero(v)];
      }
    }
    return tables;
  }

  std::shared_ptr<const Tables> tables_;
};

}  // namespace neat::nic
