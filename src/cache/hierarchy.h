// Two-level cache hierarchy: with cfg.l2 enabled, the per-PE coherent
// caches of MultiCacheSim become private L1s, and a single shared
// set-associative L2 sits between the snooping bus and memory
// (docs/DESIGN.md §9). The L2 is an optional member of the one
// simulator, and its model (hierarchy.cpp) runs in the one replay loop.
//
// The layering is strictly memory-side: every reference first runs the
// unchanged flat-protocol handler (L1 lookup, snoop, bus accounting),
// and the L2 model then routes whatever that transaction did on the
// memory side of the bus — as the handler's StepOutcome reports it —
// through the L2 instead of memory:
//
//   * a line fill that the flat model fetched from memory probes the
//     L2 first (l2_hits / l2_misses; only misses cost mem_fetch_words);
//   * a cache-to-cache flush updates/deposits the line in the L2, just
//     as it updates memory in the flat model;
//   * a dirty L1 eviction lands in the L2 (write-back); memory is only
//     written when the L2 itself evicts a dirty line;
//   * write-through and update words are absorbed by an L2 hit (the L2
//     is write-back) and only reach memory on an L2 miss (no-allocate
//     for word writes).
//
// Because the L1/bus side is the flat simulator, the degenerate
// configuration (cfg.l2.size_words == 0) is the flat model, and a
// NON-inclusive L2 — which never touches L1 state — leaves every
// bus-side TrafficStats field bit-identical too, populating only the
// l2_*/mem_* counters. An INCLUSIVE L2 back-invalidates L1 copies when
// it evicts a line (the only way the hierarchy feeds back into L1
// behaviour); the victim's holder set comes straight from the sharing
// directory, so back-invalidation is directory-precise: one O(1) entry
// lookup, then only actual holders are touched. Both pinned by
// tests/test_hierarchy_diff.cpp.
#pragma once

#include "cache/multisim.h"

namespace rapwam {

/// The simulator under the name its hierarchy callers use.
using HierCacheSim = MultiCacheSim;

}  // namespace rapwam
