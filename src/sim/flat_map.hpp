// Open-addressing hash map for the per-flow and per-fd tables.
//
// Every packet is steered by a chain of per-flow lookups: the NIC's
// exact-match filter table, the steering tier's conntrack, then a replica's
// TCP demux. A node-based std::unordered_map pays a bucket-array miss plus a
// node miss per lookup and one malloc/free per insert/erase. FlatMap keeps
// the entries themselves in one power-of-two array:
//
//   * linear probing from home = hash & (capacity - 1);
//   * each slot stores a 32-bit tag next to its entry: bit 31 marks the slot
//     occupied, bits 0..30 are the low hash bits. A probe compares tags
//     before keys, and growth/deletion recompute homes without rehashing;
//   * a fixed maximum load factor of 3/4 (not a knob); the table doubles
//     before an insert would exceed it and never shrinks;
//   * backward-shift deletion: no tombstones, so insert/erase churn cannot
//     lengthen probe chains.
//
// Rules for callers:
//
//   * NO REFERENCE STABILITY. An insert may rehash and an erase shifts later
//     entries of the same cluster back by one, so any iterator, pointer or
//     reference into the map is invalid after the next insert or erase —
//     including ones made indirectly by a callback. Copy the value out (a
//     shared_ptr, an int) or look it up again after such a call.
//   * ITERATION ORDER IS SLOT ORDER, which depends on hashes and history.
//     Use it only where the order cannot reach the simulation (counting,
//     erase_if, cancelling timers). Wherever it can, iterate sorted_if(),
//     which yields entries in ascending key order.
//   * Do not insert or erase while iterating; erase_if() is the one safe way
//     to remove entries during a pass.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace neat::sim {

/// Hash for small integer keys (socket fds are handed out sequentially):
/// the splitmix64 finalizer, so the low bits FlatMap probes with are mixed.
struct IntHash {
  std::size_t operator()(std::int64_t v) const noexcept {
    auto x = static_cast<std::uint64_t>(v);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  /// Mutable key: never assign through `first` of a stored entry.
  using value_type = std::pair<K, V>;

 private:
  static constexpr std::uint32_t kOccupied = 1u << 31;
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint32_t tag{0};  ///< 0 = empty; else kOccupied | low hash bits
    value_type kv{};
  };

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    /// Positioned at the first occupied slot at or after `p`.
    Iter(SlotPtr p, SlotPtr end) : p_(p), end_(end) { skip_empty(); }

    reference operator*() const { return p_->kv; }
    pointer operator->() const { return &p_->kv; }
    Iter& operator++() {
      ++p_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iter& o) const { return p_ == o.p_; }

   private:
    friend class FlatMap;
    void skip_empty() {
      while (p_ != end_ && p_->tag == 0) ++p_;
    }
    SlotPtr p_{nullptr};
    SlotPtr end_{nullptr};
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  /// A moved-from map is empty.
  FlatMap(FlatMap&& o) noexcept
      : slots_(std::move(o.slots_)), size_(std::exchange(o.size_, 0)) {
    o.slots_.clear();
  }
  FlatMap& operator=(FlatMap&& o) noexcept {
    slots_ = std::move(o.slots_);
    size_ = std::exchange(o.size_, 0);
    o.slots_.clear();
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slot count (a power of two, or 0 before the first insert).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  iterator begin() { return at(0); }
  iterator end() { return at(slots_.size()); }
  const_iterator begin() const { return at(0); }
  const_iterator end() const { return at(slots_.size()); }

  iterator find(const K& key) { return at(index_of(key)); }
  const_iterator find(const K& key) const { return at(index_of(key)); }
  [[nodiscard]] bool contains(const K& key) const {
    return index_of(key) != slots_.size();
  }

  /// Insert {key, V(args...)} unless `key` is present. Returns the entry and
  /// whether it was inserted. Invalidates every iterator on insert.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const std::uint32_t tag = tag_of(key);
    std::size_t i = probe(key, tag);
    if (i != slots_.size() && slots_[i].tag != 0) return {at(i), false};
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = probe(key, tag);
    }
    Slot& s = slots_[i];
    s.tag = tag;
    s.kv.first = key;
    s.kv.second = V(std::forward<Args>(args)...);
    ++size_;
    return {at(i), true};
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Erase `key` if present; returns the number of entries removed (0/1).
  std::size_t erase(const K& key) {
    const std::size_t i = index_of(key);
    if (i == slots_.size()) return 0;
    erase_at(i);
    return 1;
  }
  void erase(iterator it) {
    erase_at(static_cast<std::size_t>(it.p_ - slots_.data()));
  }

  /// Erase every entry for which pred(const value_type&) holds; returns how
  /// many. Each entry is offered to `pred` exactly once, even when backward
  /// shifts move entries across the end of the table.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start the pass right after an empty slot (one always exists below
    // the load limit): no cluster then straddles the pass's start, so a
    // backward shift only moves a not-yet-visited entry into the slot
    // being visited or a later one. Re-examining the slot after an erase
    // therefore visits every entry exactly once.
    const std::size_t cap = slots_.size();
    std::size_t start = 0;
    while (slots_[start].tag != 0) ++start;
    std::size_t removed = 0;
    for (std::size_t n = 1; n < cap;) {
      const std::size_t i = (start + n) & mask();
      if (slots_[i].tag != 0 && pred(std::as_const(slots_[i].kv))) {
        erase_at(i);
        ++removed;
      } else {
        ++n;
      }
    }
    return removed;
  }

  /// Remove every entry, keeping the capacity.
  void clear() {
    for (Slot& s : slots_) {
      if (s.tag != 0) s = Slot{};
    }
    size_ = 0;
  }

  /// The entries satisfying pred(const value_type&), in ascending key order
  /// — the iteration to use wherever the order can reach the simulation.
  /// The pointers are invalidated by the next insert or erase.
  template <typename Pred>
  [[nodiscard]] std::vector<const value_type*> sorted_if(Pred pred) const {
    std::vector<const value_type*> out;
    for (const Slot& s : slots_) {
      if (s.tag != 0 && pred(s.kv)) out.push_back(&s.kv);
    }
    std::sort(out.begin(), out.end(),
              [](const value_type* a, const value_type* b) {
                return a->first < b->first;
              });
    return out;
  }
  [[nodiscard]] std::vector<const value_type*> sorted() const {
    return sorted_if([](const value_type&) { return true; });
  }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::uint32_t tag_of(const K& key) const {
    return kOccupied | (static_cast<std::uint32_t>(hash_(key)) & ~kOccupied);
  }
  iterator at(std::size_t i) {
    return {slots_.data() + i, slots_.data() + slots_.size()};
  }
  const_iterator at(std::size_t i) const {
    return {slots_.data() + i, slots_.data() + slots_.size()};
  }

  /// Slot holding `key`, or the empty slot ending its probe sequence (where
  /// an insert goes); capacity() if the table has no slots.
  [[nodiscard]] std::size_t probe(const K& key, std::uint32_t tag) const {
    if (slots_.empty()) return 0;
    for (std::size_t i = tag & mask();; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.tag == 0 || (s.tag == tag && s.kv.first == key)) return i;
    }
  }
  [[nodiscard]] std::size_t index_of(const K& key) const {
    // Tables that are usually empty (capture sets, dead-flow memory, NIC
    // filters in RSS-only configurations) skip the hash entirely.
    if (size_ == 0) return slots_.size();
    const std::size_t i = probe(key, tag_of(key));
    return i < slots_.size() && slots_[i].tag != 0 ? i : slots_.size();
  }

  void erase_at(std::size_t i) {
    // Backward shift: walk the rest of the cluster and pull back every
    // entry whose home is not cyclically inside (hole, j] — it may legally
    // sit in the hole, which then moves to j.
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask(); slots_[j].tag != 0;
         j = (j + 1) & mask()) {
      const std::size_t home = slots_[j].tag & mask();
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(std::max(kMinCapacity, old.size() * 2));
    for (Slot& s : old) {
      if (s.tag == 0) continue;
      std::size_t i = s.tag & mask();
      while (slots_[i].tag != 0) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_{0};
  [[no_unique_address]] Hash hash_{};
};

}  // namespace neat::sim
