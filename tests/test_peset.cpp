// PeSet unit and property tests (cache/peset.h): the multi-word PE
// bit set must behave exactly like a reference std::set<unsigned>
// model through growth, copies, moves, and every mask operation the
// directory uses — plus the pe_bit() shift guard that keeps the flat
// u64 path out of undefined behaviour.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "cache/peset.h"
#include "test_rand.h"

namespace rapwam {
namespace {

TEST(PeSet, DefaultIsEmptyAndInline) {
  PeSet s;
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.first(), -1);
  EXPECT_FALSE(s.wide());
  EXPECT_EQ(s.capacity(), 64u);
  EXPECT_FALSE(s.test(0));
  EXPECT_FALSE(s.test(63));
  EXPECT_FALSE(s.test(1000));  // beyond capacity: absent, not UB
}

TEST(PeSet, SetBeyondCapacityGrows) {
  PeSet s;
  s.set(3);
  EXPECT_FALSE(s.wide());
  s.set(200);
  EXPECT_TRUE(s.wide());
  EXPECT_GE(s.capacity(), 201u);
  // Growth zero-extends and preserves the existing members.
  EXPECT_TRUE(s.test(3));
  EXPECT_TRUE(s.test(200));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.first(), 3);
}

TEST(PeSet, PreSizedConstructorForcesWide) {
  PeSet narrow(64);
  EXPECT_FALSE(narrow.wide());
  PeSet wide(65);
  EXPECT_TRUE(wide.wide());
  EXPECT_TRUE(wide.none());
  EXPECT_GE(wide.capacity(), 65u);
}

TEST(PeSet, ResetBeyondCapacityIsNoop) {
  PeSet s;
  s.set(5);
  s.reset(500);  // must not grow or disturb anything
  EXPECT_FALSE(s.wide());
  EXPECT_TRUE(s.test(5));
  EXPECT_EQ(s.count(), 1u);
}

TEST(PeSet, EqualityIsSemanticAcrossCapacities) {
  PeSet narrow;
  narrow.set(7);
  PeSet wide(256);
  wide.set(7);
  EXPECT_TRUE(narrow == wide);  // trailing zero words ignored
  wide.set(70);
  EXPECT_FALSE(narrow == wide);
  wide.reset(70);
  EXPECT_TRUE(narrow == wide);
}

TEST(PeSet, CopyAndMoveRoundTrip) {
  PeSet s(128);
  s.set(1);
  s.set(100);

  PeSet copy(s);
  EXPECT_TRUE(copy == s);
  copy.set(2);
  EXPECT_FALSE(copy == s);  // deep copy: original unchanged
  EXPECT_FALSE(s.test(2));

  PeSet assigned;
  assigned.set(60);
  assigned = s;
  EXPECT_TRUE(assigned == s);

  PeSet moved(std::move(copy));
  EXPECT_TRUE(moved.test(100));
  EXPECT_TRUE(moved.test(2));
  EXPECT_TRUE(copy.none());  // moved-from: valid, empty, inline

  PeSet move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(move_assigned.test(100));
  EXPECT_TRUE(moved.none());

  // Self-assignment must be harmless in both flavours.
  PeSet& alias = move_assigned;
  move_assigned = alias;
  EXPECT_TRUE(move_assigned.test(100));
}

TEST(PeSet, OtherVariantsExcludeExactlyThePe) {
  PeSet s(200);
  s.set(64);
  EXPECT_TRUE(s.any_other(0));
  EXPECT_FALSE(s.any_other(64));
  EXPECT_EQ(s.first_other(64), -1);
  s.set(130);
  EXPECT_TRUE(s.any_other(64));
  EXPECT_EQ(s.first_other(64), 130);
  EXPECT_EQ(s.first_other(130), 64);
  EXPECT_EQ(s.first_other(0), 64);

  s.retain_only(130);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.test(130));
  s.retain_only(7);  // not a member: retains nothing
  EXPECT_TRUE(s.none());
}

TEST(PeSet, ForEachVisitsInOrder) {
  PeSet s(300);
  for (unsigned pe : {299u, 0u, 63u, 64u, 127u, 128u}) s.set(pe);
  std::vector<unsigned> seen;
  s.for_each([&](unsigned pe) { seen.push_back(pe); });
  EXPECT_EQ(seen, (std::vector<unsigned>{0u, 63u, 64u, 127u, 128u, 299u}));

  seen.clear();
  s.for_each_other(64, [&](unsigned pe) { seen.push_back(pe); });
  EXPECT_EQ(seen, (std::vector<unsigned>{0u, 63u, 127u, 128u, 299u}));
}

/// Property test against a std::set<unsigned> reference model:
/// randomized set/reset/retain_only/clear sequences over PE ids up to
/// 320 (five words, forcing several growth steps) must keep every
/// observer in exact agreement.
TEST(PeSet, RandomOpsMatchSetModel) {
  for (u64 seed : {1ull, 2ull, 3ull, 4ull}) {
    Lcg rng(seed);
    PeSet s;
    std::set<unsigned> model;
    for (int step = 0; step < 4000; ++step) {
      unsigned pe = static_cast<unsigned>(rng.next(320));
      switch (rng.next(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          s.set(pe);
          model.insert(pe);
          break;
        case 4:
        case 5:
          s.reset(pe);
          model.erase(pe);
          break;
        case 6:
          s.retain_only(pe);
          if (model.count(pe)) model = {pe};
          else model.clear();
          break;
        default:
          if (rng.next(16) == 0) {
            s.clear();
            model.clear();
          }
          break;
      }
      unsigned probe = static_cast<unsigned>(rng.next(320));
      ASSERT_EQ(s.test(probe), model.count(probe) != 0) << "seed " << seed;
      ASSERT_EQ(s.count(), static_cast<unsigned>(model.size()));
      ASSERT_EQ(s.any(), !model.empty());
      ASSERT_EQ(s.first(), model.empty() ? -1 : static_cast<int>(*model.begin()));
      ASSERT_EQ(s.sole(), model.size() == 1 ? static_cast<int>(*model.begin()) : -1);
      std::vector<unsigned> seen;
      s.for_each([&](unsigned p) { seen.push_back(p); });
      ASSERT_EQ(seen, std::vector<unsigned>(model.begin(), model.end()));
    }
    // The final set equals an independently built copy of the model.
    PeSet rebuilt;
    for (unsigned pe : model) rebuilt.set(pe);
    EXPECT_TRUE(s == rebuilt);
  }
}

TEST(PeSet, U64OverloadsMatchPeSetOverloads) {
  // The two overload sets implement one semantics; drive both with the
  // same operation stream over PE ids < 64 and compare every observer.
  Lcg rng(0xD1FFull);
  u64 flat = 0;
  PeSet wide;
  for (int step = 0; step < 2000; ++step) {
    unsigned pe = static_cast<unsigned>(rng.next(64));
    switch (rng.next(6)) {
      case 0:
      case 1:
      case 2:
        pe_set(flat, pe);
        pe_set(wide, pe);
        break;
      case 3:
        pe_reset(flat, pe);
        pe_reset(wide, pe);
        break;
      case 4:
        pe_assign(flat, pe, (step & 1) != 0);
        pe_assign(wide, pe, (step & 1) != 0);
        break;
      default:
        pe_retain_only(flat, pe);
        pe_retain_only(wide, pe);
        break;
    }
    unsigned probe = static_cast<unsigned>(rng.next(64));
    ASSERT_EQ(pe_test(flat, probe), pe_test(wide, probe));
    ASSERT_EQ(pe_any(flat), pe_any(wide));
    ASSERT_EQ(pe_any_other(flat, probe), pe_any_other(wide, probe));
    ASSERT_EQ(pe_first_other(flat, probe), pe_first_other(wide, probe));
    ASSERT_EQ(pe_sole(flat), pe_sole(wide));
    std::vector<unsigned> a, b;
    pe_for_each(flat, [&](unsigned p) { a.push_back(p); });
    pe_for_each(wide, [&](unsigned p) { b.push_back(p); });
    ASSERT_EQ(a, b);
    a.clear();
    b.clear();
    pe_for_each_other(flat, probe, [&](unsigned p) { a.push_back(p); });
    pe_for_each_other(wide, probe, [&](unsigned p) { b.push_back(p); });
    ASSERT_EQ(a, b);
  }
}

// The flat-path shift guard (ISSUE 7 satellite: `u64(1) << pe` was
// undefined for pe >= 64). In Debug/sanitizer builds RW_DCHECK turns
// an out-of-range PE id into an Error before the shift executes —
// UBSan never sees a wrapped shift. Release compiles the guard out,
// so the contract there is "callers pre-check" (they all do: the flat
// representation is only selected for <= 64-PE simulators).
TEST(PeSetGuard, FlatBitGuardedInDebug) {
  EXPECT_EQ(pe_bit(0), 1ull);
  EXPECT_EQ(pe_bit(63), 1ull << 63);
#ifndef NDEBUG
  EXPECT_THROW(pe_bit(64), Error);
  EXPECT_THROW(pe_bit(200), Error);
#endif
}

}  // namespace
}  // namespace rapwam
