// Shared deterministic randomness for the test suites. One copy of
// the generator so every differential suite draws from the same
// stream shape — a change here changes all of their coverage at once,
// never one suite silently.
#pragma once

#include <memory>
#include <vector>

#include "trace/chunks.h"

namespace rapwam {

// Deterministic 64-bit LCG (MMIX constants); tests must not depend on
// libc rand.
struct Lcg {
  u64 s;
  explicit Lcg(u64 seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  u64 next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 24;
  }
  u64 next(u64 bound) { return next() % bound; }
};

/// Random busy-reference trace mixing a shared hot region (cross-PE
/// traffic: misses, invalidations, cache-to-cache flushes) with per-PE
/// private regions (capacity evictions), over all Table-1 object
/// classes so the hybrid protocol sees both localities. Deterministic
/// in `seed`.
inline std::vector<u64> random_trace(u64 seed, unsigned pes, std::size_t n) {
  Lcg rng(seed);
  std::vector<u64> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MemRef r;
    r.pe = static_cast<u8>(rng.next(pes));
    if (rng.next(3) == 0) {
      r.addr = rng.next(96);  // shared hot lines
    } else {
      r.addr = 4096 + r.pe * 8192 + rng.next(2048);  // private working set
    }
    r.cls = static_cast<ObjClass>(rng.next(kObjClassCount));
    r.write = rng.next(5) < 2;
    r.busy = true;
    out.push_back(r.pack());
  }
  return out;
}

/// `packed` as shared chunk storage with every reference kept — the
/// trace form run_sweep and replay jobs take.
inline std::shared_ptr<const ChunkedTrace> chunked(const std::vector<u64>& packed) {
  ChunkingSink sink(/*busy_only=*/false);
  sink.on_chunk(packed.data(), packed.size());
  return sink.take();
}

}  // namespace rapwam
