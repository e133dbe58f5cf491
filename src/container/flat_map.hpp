// Flat open-addressing hash containers for integer keys (DESIGN.md §1).
//
// FlatHashMap<K, V> stores slots in one contiguous array with linear probing
// and backward-shift deletion (no tombstones, so lookup cost never degrades
// under churn). One heap allocation per table regardless of entry count —
// this is what lets the hot batch-dynamic paths (DynamicGraph's position
// index, the cluster spanner's contribution refcounts and InterCluster
// groups) stop paying a node allocation + pointer chase per entry, which is
// where the std::unordered_map versions spent most of their time.
//
// Keys are unsigned integers; the all-ones value of K is reserved as the
// empty sentinel (it is already the kNoVertex / kNoEdge sentinel of
// util/types.hpp, so no valid vertex or edge key collides with it).
//
// Not thread-safe: a parallel phase touches a table only from the one task
// that owns it (e.g. the per-vertex InterCluster tables).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace parspan {

template <typename K, typename V>
class FlatHashMap {
  static_assert(sizeof(K) <= sizeof(uint64_t));

 public:
  /// Reserved key marking an empty slot.
  static constexpr K kEmptyKey = static_cast<K>(~static_cast<K>(0));

  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Ensures capacity for `n` entries without rehashing.
  void reserve(size_t n) {
    size_t cap = required_capacity(n);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Returns slots to the allocator once a quarter of them would do:
  /// rehashes to the smallest capacity that holds size() entries, or frees
  /// the array of an empty table. A small table under churn (one per
  /// vertex) so stays within 4x of its size rather than at its peak.
  void shrink() {
    if (size_ == 0) {
      *this = FlatHashMap();
    } else if (4 * required_capacity(size_) <= slots_.size()) {
      rehash(required_capacity(size_));
      scan_cursor_ = 0;
    }
  }

  /// Removes all entries (keeps the slot array).
  void clear() {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        s.key = kEmptyKey;
        s.value = V{};
      }
    }
    size_ = 0;
  }

  /// Pointer to the value under `key`, or nullptr. The sentinel key is
  /// never stored, so looking it up is answered (absent) rather than
  /// matching an empty slot.
  V* find(K key) {
    if (key == kEmptyKey || size_ == 0) return nullptr;
    size_t i = bucket(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  const V* find(K key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  bool contains(K key) const { return find(key) != nullptr; }

  /// Value under `key`, default-constructed and inserted if absent.
  V& operator[](K key) {
    assert(key != kEmptyKey);
    if (size_ + 1 > max_load()) rehash(grow_capacity());
    size_t i = bucket(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == kEmptyKey) {
        s.key = key;
        ++size_;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Removes `key`; returns true if it was present. Backward-shift deletion:
  /// subsequent probe-chain entries whose home bucket precedes the freed slot
  /// are moved back, so no tombstones accumulate.
  bool erase(K key) {
    if (key == kEmptyKey || size_ == 0) return false;
    size_t i = bucket(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmptyKey) return false;
      if (s.key == key) break;
      i = (i + 1) & mask_;
    }
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmptyKey) break;
      size_t home = bucket(slots_[j].key);
      // slots_[j] may move into the hole at i iff its home bucket does not
      // lie strictly inside the cyclic interval (i, j].
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].key = kEmptyKey;
    slots_[i].value = V{};
    --size_;
    return true;
  }

  /// Some occupied slot's key (any element). Requires !empty(). Scans from
  /// a remembered cursor with wrap-around, so repeatedly draining "any"
  /// elements (the group-representative re-election pattern) does not
  /// rescan the already-emptied prefix on every call.
  K first_key() const {
    assert(size_ > 0);
    size_t cap = slots_.size();
    for (size_t probe = 0; probe < cap; ++probe) {
      size_t i = (scan_cursor_ + probe) & mask_;
      if (slots_[i].key != kEmptyKey) {
        scan_cursor_ = i;
        return slots_[i].key;
      }
    }
    return kEmptyKey;  // unreachable: size_ > 0
  }

  /// Visits all entries as fn(key, value&). Mutation of the table during
  /// iteration is not allowed; value mutation is.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_)
      if (s.key != kEmptyKey) fn(s.key, s.value);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) fn(s.key, s.value);
  }

  /// All keys, sorted ascending. Materialization APIs built on flat tables
  /// use this so their output is a function of the key *set*, never of the
  /// table's probe-layout history (DESIGN.md §7 determinism contract).
  std::vector<K> sorted_keys() const {
    std::vector<K> out;
    out.reserve(size_);
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) out.push_back(s.key);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Slot {
    K key = kEmptyKey;
    V value{};
  };

  size_t bucket(K key) const {
    return static_cast<size_t>(splitmix64(static_cast<uint64_t>(key))) &
           mask_;
  }
  size_t max_load() const { return slots_.size() - slots_.size() / 4; }
  size_t grow_capacity() const {
    return slots_.empty() ? 8 : slots_.size() * 2;
  }
  static size_t required_capacity(size_t n) {
    size_t cap = 8;
    while (cap - cap / 4 < n) cap <<= 1;
    return cap;
  }

  void rehash(size_t cap) {
    assert((cap & (cap - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      size_t i = bucket(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  mutable size_t scan_cursor_ = 0;  // first_key start hint; always in range
};

namespace detail {
struct Empty {};
}  // namespace detail

/// Flat open-addressing set over integer keys; same layout and deletion
/// strategy as FlatHashMap.
template <typename K>
class FlatHashSet {
 public:
  static constexpr K kEmptyKey = FlatHashMap<K, detail::Empty>::kEmptyKey;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void reserve(size_t n) { map_.reserve(n); }
  void clear() { map_.clear(); }

  /// Inserts `key`; returns true if it was newly inserted.
  bool insert(K key) {
    size_t before = map_.size();
    map_[key];
    return map_.size() != before;
  }

  bool erase(K key) { return map_.erase(key); }
  bool contains(K key) const { return map_.contains(key); }

  /// An arbitrary element (first occupied slot). Requires !empty().
  K any() const { return map_.first_key(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&](K k, const detail::Empty&) { fn(k); });
  }

  /// All elements, sorted ascending (see FlatHashMap::sorted_keys).
  std::vector<K> sorted_keys() const { return map_.sorted_keys(); }

 private:
  FlatHashMap<K, detail::Empty> map_;
};

}  // namespace parspan
