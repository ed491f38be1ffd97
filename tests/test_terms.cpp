// TermStore tests: construction, equality, variable collection,
// printing; plus the Table-1 storage map and packed MemRef codec.
#include <gtest/gtest.h>

#include "prolog/term.h"
#include "trace/memref.h"

namespace rapwam {
namespace {

TEST(TermStore, BasicConstruction) {
  Interner in;
  TermStore st(in);
  const Term* a = st.mk_atom("a");
  const Term* n = st.mk_int(5);
  const Term* f = st.mk_struct("f", {a, n});
  EXPECT_TRUE(a->is_atom());
  EXPECT_TRUE(n->is_int());
  EXPECT_TRUE(f->is_struct());
  EXPECT_EQ(f->arity(), 2u);
  EXPECT_EQ(st.to_string(f), "f(a,5)");
}

TEST(TermStore, ListsPrintWithSugar) {
  Interner in;
  TermStore st(in);
  const Term* l = st.mk_list({st.mk_int(1), st.mk_int(2)});
  EXPECT_EQ(st.to_string(l), "[1,2]");
  const Term* p = st.mk_list({st.mk_int(1)}, st.mk_var("T"));
  EXPECT_EQ(st.to_string(p), "[1|_T]");
}

TEST(TermStore, StructuralEquality) {
  Interner in;
  TermStore st(in);
  const Term* a1 = st.mk_struct("f", {st.mk_int(1), st.mk_atom("x")});
  const Term* a2 = st.mk_struct("f", {st.mk_int(1), st.mk_atom("x")});
  const Term* b = st.mk_struct("f", {st.mk_int(2), st.mk_atom("x")});
  EXPECT_TRUE(TermStore::equal(a1, a2));
  EXPECT_FALSE(TermStore::equal(a1, b));
  // Distinct var nodes are distinct variables.
  EXPECT_FALSE(TermStore::equal(st.mk_var("X"), st.mk_var("X")));
}

TEST(TermStore, CollectVarsFirstOccurrenceOrder) {
  Interner in;
  TermStore st(in);
  const Term* x = st.mk_var("X");
  const Term* y = st.mk_var("Y");
  const Term* t = st.mk_struct("f", {x, st.mk_struct("g", {y, x})});
  std::vector<const Term*> vars;
  TermStore::collect_vars(t, vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], x);
  EXPECT_EQ(vars[1], y);
}

TEST(StorageTable, MatchesPaperTable1) {
  // Spot-check the rows the protocols depend on.
  EXPECT_EQ(traits_of(ObjClass::HeapTerm).locality, Locality::Global);
  EXPECT_EQ(traits_of(ObjClass::TrailEntry).locality, Locality::Local);
  EXPECT_EQ(traits_of(ObjClass::ChoicePoint).locality, Locality::Local);
  EXPECT_EQ(traits_of(ObjClass::EnvPermVar).locality, Locality::Global);
  EXPECT_EQ(traits_of(ObjClass::EnvControl).locality, Locality::Local);
  EXPECT_EQ(traits_of(ObjClass::GoalFrame).locality, Locality::Global);
  // Locked objects per Table 1.
  EXPECT_TRUE(traits_of(ObjClass::ParcallCount).locked);
  EXPECT_TRUE(traits_of(ObjClass::GoalFrame).locked);
  EXPECT_TRUE(traits_of(ObjClass::Message).locked);
  EXPECT_FALSE(traits_of(ObjClass::HeapTerm).locked);
  // WAM-heritage flags.
  EXPECT_TRUE(traits_of(ObjClass::HeapTerm).in_wam);
  EXPECT_FALSE(traits_of(ObjClass::Marker).in_wam);
  EXPECT_FALSE(traits_of(ObjClass::ParcallLocal).in_wam);
}

TEST(StorageTable, EveryClassMapsToItsArea) {
  for (const StorageTraits& s : kStorageTable) {
    EXPECT_EQ(traits_of(s.cls).area, s.area);
    EXPECT_FALSE(obj_class_name(s.cls).empty());
  }
}

TEST(MemRef, PackUnpackRoundTrip) {
  MemRef r;
  r.addr = 0x12345678ABull;
  r.pe = 17;
  r.cls = ObjClass::GoalFrame;
  r.write = true;
  r.busy = false;
  MemRef q = MemRef::unpack(r.pack());
  EXPECT_EQ(q.addr, r.addr);
  EXPECT_EQ(q.pe, r.pe);
  EXPECT_EQ(q.cls, r.cls);
  EXPECT_EQ(q.write, r.write);
  EXPECT_EQ(q.busy, r.busy);
}

TEST(MemRef, CountsAggregate) {
  RefCounts c;
  MemRef r;
  r.cls = ObjClass::HeapTerm;
  r.write = false;
  r.busy = true;
  c.add(r);
  r.write = true;
  r.busy = false;
  c.add(r);
  EXPECT_EQ(c.total, 2u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.busy, 1u);
  EXPECT_EQ(c.by_area[static_cast<size_t>(Area::Heap)], 2u);

  // add(r, n) is n calls of add(r), for every field: the engine counts
  // quiet idle steps this way.
  for (ObjClass cls : {ObjClass::GoalFrame, ObjClass::EnvPermVar, ObjClass::Message}) {
    for (bool write : {false, true}) {
      for (bool busy : {false, true}) {
        MemRef q;
        q.addr = 77;
        q.pe = 5;
        q.cls = cls;
        q.write = write;
        q.busy = busy;
        RefCounts bulk = c, one_by_one = c;
        bulk.add(q, 3);
        for (int i = 0; i < 3; ++i) one_by_one.add(q);
        EXPECT_EQ(bulk, one_by_one);
        EXPECT_EQ(bulk.by_pe[5], 3u);
      }
    }
  }
}

}  // namespace
}  // namespace rapwam
