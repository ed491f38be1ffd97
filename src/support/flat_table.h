// Open-addressed hash table from a u64 key to a small POD value.
//
// Linear probing with backward-shift deletion (no tombstones). The
// table is sized once by init() to 2x the caller's capacity bound and
// never rehashes, so it stays at most half full, probe chains are
// short, and every chain terminates at an empty bucket. Keys must be
// < 2^64-1 (~0 is reserved as the empty marker) — line tags are word
// addresses / line_words <= 2^40.
//
// A key's home bucket is the top log2(buckets) bits of key * 2^64/phi
// (multiply-shift, "Fibonacci" hashing): one multiply, and consecutive
// or strided tags spread over the whole table. No caller may depend on
// the layout this produces — iteration order included — so the hash
// can change without changing any result (docs/DESIGN.md §6).
//
// Shared by the per-PE cache tag index and the coherence sharing
// directory (docs/DESIGN.md §6), which is exactly why it exists: the
// backward-shift wrap-around logic is the subtlest code in the cache
// layer and must not be maintained twice.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "support/common.h"

namespace rapwam {

template <typename Value>
class FlatTagMap {
 public:
  static constexpr u64 kEmptyKey = ~u64(0);

  /// A default-constructed table is a valid empty table (minimum
  /// bucket count), so queries before a sizing init() are safe.
  FlatTagMap() { init(0); }

  /// `capacity_hint`: upper bound on keys simultaneously present.
  void init(u64 capacity_hint) {
    u64 buckets =
        std::max<u64>(16, std::bit_ceil(2 * std::max<u64>(1, capacity_hint)));
    keys_.assign(buckets, kEmptyKey);
    values_.assign(buckets, Value{});
    mask_ = buckets - 1;
    shift_ = static_cast<unsigned>(64 - std::countr_zero(buckets));
    size_ = 0;
  }

  Value* find(u64 key) {
    u64 i = home(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* find(u64 key) const {
    return const_cast<FlatTagMap*>(this)->find(key);
  }

  /// Returns the value for `key`, value-initialising a fresh slot if
  /// absent. Pointers are invalidated by erase() (entries may shift).
  Value& upsert(u64 key) {
    u64 i = home(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = Value{};
    ++size_;
    return values_[i];
  }

  void erase(u64 key) {
    u64 i = home(key);
    while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == kEmptyKey) return;
    --size_;
    // Backward-shift deletion: pull cluster members whose probe path
    // crosses the hole back into it, so lookups never need tombstones.
    u64 j = i;
    for (;;) {
      keys_[i] = kEmptyKey;
      for (;;) {
        j = (j + 1) & mask_;
        if (keys_[j] == kEmptyKey) return;
        u64 k = home(keys_[j]);  // ideal bucket of the occupant
        // Move it iff its ideal bucket is cyclically outside (i, j].
        if (i <= j ? (k <= i || k > j) : (k <= i && k > j)) break;
      }
      keys_[i] = keys_[j];
      values_[i] = values_[j];
      i = j;
    }
  }

  std::size_t size() const { return size_; }

  /// The bucket `key`'s probe chain starts at (tests use it to build
  /// chains that wrap past the table's end).
  u64 home(u64 key) const { return (key * 0x9E3779B97F4A7C15ull) >> shift_; }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kEmptyKey) f(keys_[i], values_[i]);
  }

 private:
  std::vector<u64> keys_;
  std::vector<Value> values_;
  u64 mask_ = 0;
  unsigned shift_ = 0;  ///< 64 - log2(bucket count)
  std::size_t size_ = 0;
};

}  // namespace rapwam
