// Open-addressing hash containers for the engine's hot paths.
//
// The node-based std::unordered_{map,set} pay one heap allocation per
// insert and a pointer chase per lookup; on id-keyed engine state that
// churn dominates. The users: DCRD's per-message responsibility sets and
// its message-id index of them (dcrd_router.h), the transport's ACK
// tombstones (hop_transport.h) and the invariant checker's last hand-up
// per copy (invariant_checker.h). These containers keep everything in two
// flat arrays (control bytes + slots), probe linearly, and erase by
// backward-shift, so there are no tombstones to accumulate and no
// per-element allocations — after the table reaches its steady-state
// capacity, insert/erase cycles allocate nothing. clear() keeps capacity
// for the same reason.
//
// Keys are the engine's 64-bit ids (copy ids, message ids, packed
// responsibility keys), mixed through a finalizer so sequential ids spread
// across the table. Not a general
// replacement for unordered_map: keys are value types, iteration order is
// unspecified, and pointers into the table are invalidated by rehash AND
// by erase (backward-shift moves elements).
//
// DenseIndexMap is the degenerate-but-fastest case: keys that are already
// dense small integers (LinkId, NodeId underlyings) index a flat array
// directly — no hashing at all (the RTO estimator's per-link state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace dcrd {

// Mixes a 64-bit id so consecutive ids probe independent buckets
// (splitmix64 finalizer; full avalanche).
inline std::uint64_t MixId(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace internal {

// Shared open-addressing core over Slot{key, ...} records. Linear probing,
// power-of-two capacity, max load factor 7/8, backward-shift deletion.
template <typename Slot>
class DenseTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  void clear() {
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow until n fits under the 7/8 load bound.
    while (cap - cap / 8 < n) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  // Index of `key`'s slot, or capacity() when absent / table empty.
  [[nodiscard]] std::size_t FindIndex(std::uint64_t key) const {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(MixId(key)) & mask;
    while (used_[i]) {
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask;
    }
    return slots_.size();
  }

  [[nodiscard]] bool Contains(std::uint64_t key) const {
    const std::size_t i = FindIndex(key);
    return i < slots_.size() && used_[i];
  }

  // Finds or creates the slot for `key`; second is true when inserted.
  std::pair<std::size_t, bool> InsertIndex(std::uint64_t key) {
    if (slots_.empty() || size_ + 1 > slots_.size() - slots_.size() / 8) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(MixId(key)) & mask;
    while (used_[i]) {
      if (slots_[i].key == key) return {i, false};
      i = (i + 1) & mask;
    }
    used_[i] = 1;
    slots_[i].key = key;
    ++size_;
    return {i, true};
  }

  // Removes `key` if present (backward-shift: subsequent probe-chain
  // entries move toward their home buckets, so no tombstones exist).
  bool Erase(std::uint64_t key) {
    std::size_t i = FindIndex(key);
    if (i >= slots_.size() || !used_[i]) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = i;
    std::size_t probe = (hole + 1) & mask;
    while (used_[probe]) {
      const std::size_t home =
          static_cast<std::size_t>(MixId(slots_[probe].key)) & mask;
      // Move probe's entry into the hole when the hole lies on the cyclic
      // path from its home bucket to its current position (cyclic distance
      // home->probe covers hole->probe).
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        slots_[hole] = std::move(slots_[probe]);
        hole = probe;
      }
      probe = (probe + 1) & mask;
    }
    used_[hole] = 0;
    --size_;
    return true;
  }

  Slot& slot(std::size_t i) { return slots_[i]; }
  const Slot& slot(std::size_t i) const { return slots_[i]; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void Rehash(std::size_t new_capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(new_capacity, Slot{});
    used_.assign(new_capacity, 0);
    size_ = 0;
    const std::size_t mask = new_capacity - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j =
          static_cast<std::size_t>(MixId(old_slots[i].key)) & mask;
      while (used_[j]) j = (j + 1) & mask;
      slots_[j] = std::move(old_slots[i]);
      used_[j] = 1;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace internal

// Set of 64-bit ids.
class DenseIdSet {
 public:
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }
  void reserve(std::size_t n) { table_.reserve(n); }

  // Returns true when newly inserted (unordered_set::insert().second).
  bool Insert(std::uint64_t key) { return table_.InsertIndex(key).second; }
  [[nodiscard]] bool Contains(std::uint64_t key) const {
    return table_.Contains(key);
  }
  bool Erase(std::uint64_t key) { return table_.Erase(key); }

  friend void swap(DenseIdSet& a, DenseIdSet& b) noexcept {
    std::swap(a.table_, b.table_);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
  };
  internal::DenseTable<Slot> table_;
};

// Map from 64-bit ids to V. V must be default-constructible and movable.
template <typename V>
class DenseIdMap {
 public:
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }
  void reserve(std::size_t n) { table_.reserve(n); }

  // Finds or default-creates; second is true when inserted. The returned
  // pointer is invalidated by any later insert or erase.
  std::pair<V*, bool> TryEmplace(std::uint64_t key) {
    const auto [i, inserted] = table_.InsertIndex(key);
    if (inserted) table_.slot(i).value = V{};
    return {&table_.slot(i).value, inserted};
  }

  [[nodiscard]] V* Find(std::uint64_t key) {
    const std::size_t i = table_.FindIndex(key);
    return i < table_.capacity() ? &table_.slot(i).value : nullptr;
  }
  [[nodiscard]] const V* Find(std::uint64_t key) const {
    return const_cast<DenseIdMap*>(this)->Find(key);
  }
  [[nodiscard]] bool Contains(std::uint64_t key) const {
    return table_.Contains(key);
  }
  bool Erase(std::uint64_t key) { return table_.Erase(key); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };
  internal::DenseTable<Slot> table_;
};

// Flat array keyed by an already-dense small-integer id (link ids, node
// ids). Grows to the largest index touched; presence is tracked per entry
// so "no state yet for this id" stays distinguishable from a default value.
template <typename V>
class DenseIndexMap {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void reserve(std::size_t n) {
    values_.reserve(n);
    present_.reserve(n);
  }

  std::pair<V*, bool> TryEmplace(std::size_t index) {
    if (index >= values_.size()) {
      values_.resize(index + 1);
      present_.resize(index + 1, 0);
    }
    const bool inserted = present_[index] == 0;
    if (inserted) {
      present_[index] = 1;
      values_[index] = V{};
      ++size_;
    }
    return {&values_[index], inserted};
  }

  [[nodiscard]] V* Find(std::size_t index) {
    if (index >= values_.size() || present_[index] == 0) return nullptr;
    return &values_[index];
  }
  [[nodiscard]] const V* Find(std::size_t index) const {
    return const_cast<DenseIndexMap*>(this)->Find(index);
  }
  [[nodiscard]] bool Contains(std::size_t index) const {
    return Find(index) != nullptr;
  }

 private:
  std::vector<V> values_;
  std::vector<std::uint8_t> present_;
  std::size_t size_ = 0;
};

}  // namespace dcrd
