#include "fleet/maglev.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace neat::fleet {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

[[nodiscard]] bool is_prime(std::size_t n) {
  if (n < 2) return false;
  for (std::size_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

}  // namespace

MaglevTable::MaglevTable(std::size_t table_size)
    : table_(table_size, -1) {
  if (!is_prime(table_size)) {
    throw std::invalid_argument(
        "maglev table size must be prime (skip must be coprime with M)");
  }
}

void MaglevTable::add_backend(int id) {
  assert(!has_backend(id));
  const std::size_t m = table_.size();
  const std::uint64_t h1 = splitmix64(static_cast<std::uint64_t>(id));
  const std::uint64_t h2 = splitmix64(h1);
  Backend b;
  b.id = id;
  b.offset = static_cast<std::size_t>(h1 % m);
  b.skip = static_cast<std::size_t>(h2 % (m - 1)) + 1;
  backends_.insert(
      std::upper_bound(backends_.begin(), backends_.end(), b,
                       [](const Backend& x, const Backend& y) {
                         return x.id < y.id;
                       }),
      b);
  // Standard maglev: a join rebuilds from scratch so the newcomer's share
  // comes evenly from every incumbent (disruption ~M/N, spread out).
  std::fill(table_.begin(), table_.end(), -1);
  fill_unassigned();
}

void MaglevTable::remove_backend(int id) {
  const auto it = std::find_if(backends_.begin(), backends_.end(),
                               [id](const Backend& b) { return b.id == id; });
  if (it == backends_.end()) return;
  backends_.erase(it);
  // Constrained fill: survivors' entries stay exactly where they are; only
  // the departed backend's slots are orphaned and re-filled by the same
  // preference walk. Changed entries == the removed backend's old share.
  for (auto& e : table_) {
    if (e == id) e = -1;
  }
  fill_unassigned();
}

void MaglevTable::fill_unassigned() {
  if (backends_.empty()) return;
  const std::size_t m = table_.size();
  std::size_t unfilled = 0;
  for (const int e : table_) unfilled += e == -1 ? 1 : 0;
  std::vector<std::size_t> next(backends_.size(), 0);
  // Round-robin preference walk (the NSDI'16 population loop). Each
  // backend's permutation covers all M slots (skip coprime with prime M),
  // so the walk terminates once every slot is assigned.
  while (unfilled > 0) {
    for (std::size_t i = 0; i < backends_.size() && unfilled > 0; ++i) {
      const Backend& b = backends_[i];
      std::size_t slot;
      do {
        slot = (b.offset + next[i] * b.skip) % m;
        ++next[i];
      } while (table_[slot] != -1);
      table_[slot] = b.id;
      --unfilled;
    }
  }
}

bool MaglevTable::has_backend(int id) const {
  return std::any_of(backends_.begin(), backends_.end(),
                     [id](const Backend& b) { return b.id == id; });
}

std::vector<int> MaglevTable::backends() const {
  std::vector<int> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.id);
  return out;
}

std::uint64_t MaglevTable::flow_hash(const net::FlowKey& flow) {
  // Hash the 4-tuple symmetric-free (direction matters: the tier always
  // sees the client->VIP orientation for steering decisions).
  std::uint64_t h = splitmix64(
      (static_cast<std::uint64_t>(flow.remote_ip.value) << 32) |
      flow.local_ip.value);
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(flow.remote_port) << 16) |
                      flow.local_port));
  return h;
}

int MaglevTable::lookup(const net::FlowKey& flow) const {
  return lookup_hash(flow_hash(flow));
}

int MaglevTable::lookup_hash(std::uint64_t hash) const {
  if (backends_.empty()) return -1;
  return table_[static_cast<std::size_t>(hash % table_.size())];
}

}  // namespace neat::fleet
