// PE-id bit sets for the sharing directory (docs/DESIGN.md §11).
//
// The directory keeps three per-line PE masks (holders / dirty owners /
// exclusive owners). Up to PR 6 those were raw u64 words, hard-capping
// every simulator at 64 PEs — far short of the "highly parallel
// machines" the paper projects onto. This header breaks the cap with
// two interchangeable mask representations behind one operation set:
//
//   * the retained flat fast path: a raw u64, exactly the pre-PR-7
//     representation, selected whenever the simulator is built with
//     <= 64 PEs (so the common regime pays nothing for the new one);
//   * PeSet: a growable multi-word bit set with an inline single-word
//     fast path — one word stored in place, a heap word array only
//     once a PE id >= 64 is actually set.
//
// The simulator's directory code is templated over the entry type and
// calls only the pe_* operations below, so both representations run
// the identical protocol logic; tests/test_widepe_diff.cpp pins them
// bit-identical in the <= 64-PE regime and pins the wide path against
// the naive broadcast reference simulator above it.
#pragma once

#include <bit>
#include <cstring>

#include "support/common.h"

namespace rapwam {

/// Guarded single-PE mask for the flat u64 representation. The shift
/// would be undefined for pe >= 64; structurally that cannot happen
/// (the flat path is only selected for <= 64-PE simulators and every
/// reference's PE id is bounds-checked against the PE count first),
/// and the debug assert turns any future bypass of those checks into
/// an immediate failure instead of a silently wrapped mask.
inline u64 pe_bit(unsigned pe) {
  RW_DCHECK(pe < 64, "flat directory mask indexed with PE id >= 64");
  return u64(1) << pe;
}

/// Growable PE-id bit set with an inline single-word representation.
///
/// A default-constructed set is empty and heap-free: the single word
/// lives inside the object. set() of a PE id beyond the current
/// capacity grows to a zero-extended heap word array sized for that
/// id, so a directory entry only ever pays for the highest PE that
/// actually touched the line. All observers treat bits beyond the
/// stored words as zero, and equality is semantic (trailing zero
/// words are ignored), so sets of different capacities compare by
/// membership.
class PeSet {
 public:
  PeSet() noexcept { rep_.bits = 0; }
  /// Pre-sizes for `num_pes` PEs (forces the multi-word representation
  /// when num_pes > 64; used by tests to pin growth behaviour).
  explicit PeSet(unsigned num_pes) {
    rep_.bits = 0;
    reserve_pes(num_pes);
  }
  ~PeSet() { destroy(); }

  PeSet(const PeSet& o) { copy_from(o); }
  PeSet(PeSet&& o) noexcept : nwords_(o.nwords_), rep_(o.rep_) {
    o.nwords_ = 1;
    o.rep_.bits = 0;
  }
  PeSet& operator=(const PeSet& o) {
    if (this != &o) {
      destroy();
      copy_from(o);
    }
    return *this;
  }
  PeSet& operator=(PeSet&& o) noexcept {
    if (this != &o) {
      destroy();
      nwords_ = o.nwords_;
      rep_ = o.rep_;
      o.nwords_ = 1;
      o.rep_.bits = 0;
    }
    return *this;
  }

  bool test(unsigned pe) const {
    unsigned w = pe >> 6;
    return w < nwords_ && ((words()[w] >> (pe & 63)) & 1) != 0;
  }
  void set(unsigned pe) {
    unsigned w = pe >> 6;
    if (w >= nwords_) grow(w + 1);
    mut_words()[w] |= u64(1) << (pe & 63);
  }
  void reset(unsigned pe) {
    unsigned w = pe >> 6;
    if (w < nwords_) mut_words()[w] &= ~(u64(1) << (pe & 63));
  }
  void assign(unsigned pe, bool v) {
    if (v) set(pe);
    else reset(pe);
  }

  bool any() const {
    const u64* w = words();
    for (unsigned i = 0; i < nwords_; ++i)
      if (w[i]) return true;
    return false;
  }
  bool none() const { return !any(); }

  /// Any member other than `pe`?
  bool any_other(unsigned pe) const {
    const u64* w = words();
    unsigned pw = pe >> 6;
    for (unsigned i = 0; i < nwords_; ++i) {
      u64 m = w[i];
      if (i == pw) m &= ~(u64(1) << (pe & 63));
      if (m) return true;
    }
    return false;
  }

  /// Lowest member, or -1 if empty.
  int first() const {
    const u64* w = words();
    for (unsigned i = 0; i < nwords_; ++i)
      if (w[i]) return static_cast<int>(i * 64 + std::countr_zero(w[i]));
    return -1;
  }

  /// Lowest member other than `pe`, or -1 if none.
  int first_other(unsigned pe) const {
    const u64* w = words();
    unsigned pw = pe >> 6;
    for (unsigned i = 0; i < nwords_; ++i) {
      u64 m = w[i];
      if (i == pw) m &= ~(u64(1) << (pe & 63));
      if (m) return static_cast<int>(i * 64 + std::countr_zero(m));
    }
    return -1;
  }

  /// The only member, or -1 when the set is empty or has two or more.
  int sole() const {
    const u64* w = words();
    int found = -1;
    for (unsigned i = 0; i < nwords_; ++i) {
      if (!w[i]) continue;
      if (found >= 0 || !std::has_single_bit(w[i])) return -1;
      found = static_cast<int>(i * 64 + std::countr_zero(w[i]));
    }
    return found;
  }

  /// Intersects with {pe}: drops every member except (possibly) `pe`.
  void retain_only(unsigned pe) {
    bool had = test(pe);
    clear();
    if (had) set(pe);
  }

  void clear() {
    u64* w = mut_words();
    for (unsigned i = 0; i < nwords_; ++i) w[i] = 0;
  }

  unsigned count() const {
    const u64* w = words();
    unsigned n = 0;
    for (unsigned i = 0; i < nwords_; ++i)
      n += static_cast<unsigned>(std::popcount(w[i]));
    return n;
  }

  /// Bits the current representation can hold without growing.
  unsigned capacity() const { return nwords_ * 64; }
  /// Words currently stored (checkpoint serialization reads the raw
  /// words; bits beyond num_words() are zero by definition).
  unsigned num_words() const { return nwords_; }
  /// Raw word `i`, zero beyond the stored range.
  u64 word(unsigned i) const { return i < nwords_ ? words()[i] : 0; }
  /// True once the heap multi-word representation is engaged.
  bool wide() const { return nwords_ > 1; }

  void reserve_pes(unsigned num_pes) {
    unsigned nw = (num_pes + 63) >> 6;
    if (nw > nwords_) grow(nw);
  }

  /// Calls f(pe) for every member, in increasing PE order.
  template <typename F>
  void for_each(F&& f) const {
    const u64* w = words();
    for (unsigned i = 0; i < nwords_; ++i) {
      u64 m = w[i];
      while (m) {
        f(static_cast<unsigned>(i * 64 + std::countr_zero(m)));
        m &= m - 1;
      }
    }
  }

  /// Calls f(member) for every member except `pe`.
  template <typename F>
  void for_each_other(unsigned pe, F&& f) const {
    const u64* w = words();
    unsigned pw = pe >> 6;
    for (unsigned i = 0; i < nwords_; ++i) {
      u64 m = w[i];
      if (i == pw) m &= ~(u64(1) << (pe & 63));
      while (m) {
        f(static_cast<unsigned>(i * 64 + std::countr_zero(m)));
        m &= m - 1;
      }
    }
  }

  /// Semantic equality: same membership, capacities ignored.
  friend bool operator==(const PeSet& a, const PeSet& b) {
    const u64* wa = a.words();
    const u64* wb = b.words();
    unsigned common = a.nwords_ < b.nwords_ ? a.nwords_ : b.nwords_;
    for (unsigned i = 0; i < common; ++i)
      if (wa[i] != wb[i]) return false;
    for (unsigned i = common; i < a.nwords_; ++i)
      if (wa[i]) return false;
    for (unsigned i = common; i < b.nwords_; ++i)
      if (wb[i]) return false;
    return true;
  }

 private:
  const u64* words() const { return nwords_ == 1 ? &rep_.bits : rep_.words; }
  u64* mut_words() { return nwords_ == 1 ? &rep_.bits : rep_.words; }

  void grow(unsigned nw) {
    u64* w = new u64[nw]();
    std::memcpy(w, words(), nwords_ * sizeof(u64));
    destroy();
    rep_.words = w;
    nwords_ = nw;
  }
  void destroy() {
    if (nwords_ > 1) delete[] rep_.words;
  }
  void copy_from(const PeSet& o) {
    nwords_ = o.nwords_;
    if (nwords_ == 1) {
      rep_.bits = o.rep_.bits;
    } else {
      rep_.words = new u64[nwords_];
      std::memcpy(rep_.words, o.rep_.words, nwords_ * sizeof(u64));
    }
  }

  u32 nwords_ = 1;  ///< 1 => inline single word, else heap array size
  union {
    u64 bits;    ///< inline representation (nwords_ == 1)
    u64* words;  ///< heap representation (nwords_ > 1)
  } rep_;
};

// --- shared mask operations -------------------------------------------------
//
// One overload set over both representations, so the templated
// directory code in cache/multisim.cpp reads identically for the flat
// u64 fast path and the wide PeSet path. The u64 overloads compile to
// exactly the pre-PR-7 bit operations.

inline bool pe_test(u64 m, unsigned pe) { return (m & pe_bit(pe)) != 0; }
inline void pe_set(u64& m, unsigned pe) { m |= pe_bit(pe); }
inline void pe_reset(u64& m, unsigned pe) { m &= ~pe_bit(pe); }
inline void pe_assign(u64& m, unsigned pe, bool v) {
  m = v ? (m | pe_bit(pe)) : (m & ~pe_bit(pe));
}
inline bool pe_any(u64 m) { return m != 0; }
inline bool pe_any_other(u64 m, unsigned pe) { return (m & ~pe_bit(pe)) != 0; }
inline int pe_first_other(u64 m, unsigned pe) {
  u64 x = m & ~pe_bit(pe);
  return x ? std::countr_zero(x) : -1;
}
inline int pe_sole(u64 m) { return std::has_single_bit(m) ? std::countr_zero(m) : -1; }
inline void pe_retain_only(u64& m, unsigned pe) { m &= pe_bit(pe); }
inline void pe_clear(u64& m) { m = 0; }
template <typename F>
inline void pe_for_each(u64 m, F&& f) {
  while (m) {
    f(static_cast<unsigned>(std::countr_zero(m)));
    m &= m - 1;
  }
}
template <typename F>
inline void pe_for_each_other(u64 m, unsigned pe, F&& f) {
  pe_for_each(m & ~pe_bit(pe), static_cast<F&&>(f));
}

inline bool pe_test(const PeSet& m, unsigned pe) { return m.test(pe); }
inline void pe_set(PeSet& m, unsigned pe) { m.set(pe); }
inline void pe_reset(PeSet& m, unsigned pe) { m.reset(pe); }
inline void pe_assign(PeSet& m, unsigned pe, bool v) { m.assign(pe, v); }
inline bool pe_any(const PeSet& m) { return m.any(); }
inline bool pe_any_other(const PeSet& m, unsigned pe) { return m.any_other(pe); }
inline int pe_first_other(const PeSet& m, unsigned pe) { return m.first_other(pe); }
inline int pe_sole(const PeSet& m) { return m.sole(); }
inline void pe_retain_only(PeSet& m, unsigned pe) { m.retain_only(pe); }
inline void pe_clear(PeSet& m) { m.clear(); }
template <typename F>
inline void pe_for_each(const PeSet& m, F&& f) {
  m.for_each(static_cast<F&&>(f));
}
template <typename F>
inline void pe_for_each_other(const PeSet& m, unsigned pe, F&& f) {
  m.for_each_other(pe, static_cast<F&&>(f));
}

}  // namespace rapwam
