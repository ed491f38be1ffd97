#include "server/faults.h"

#include <chrono>
#include <new>
#include <thread>

namespace rapwam {

FaultPlan FaultPlan::from_json(const JsonValue& v) {
  if (!v.is_object()) fail("fault: must be an object");
  FaultPlan p;
  for (const auto& [key, val] : v.members()) {
    i64 n = val.as_int();
    if (n < 0 || n > 1'000'000) fail("fault: " + key + " out of range");
    if (key == "fail_alloc") p.fail_alloc_n = static_cast<u32>(n);
    else if (key == "throw_chunk") p.throw_chunk_n = static_cast<u32>(n);
    else if (key == "stall_ms") p.stall_ms = static_cast<u32>(n);
    else if (key == "gen_fail_heap") p.gen_fail_heap_n = static_cast<u32>(n);
    else if (key == "gen_stall_every") p.gen_stall_every = static_cast<u32>(n);
    else if (key == "gen_stall_ms") p.gen_stall_ms = static_cast<u32>(n);
    else fail("fault: unknown member \"" + key + "\"");
  }
  return p;
}

void FaultInjector::on_alloc() {
  if (!plan_.fail_alloc_n) return;
  if (allocs_.fetch_add(1, std::memory_order_relaxed) + 1 == plan_.fail_alloc_n) {
    fired_.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
}

void FaultInjector::on_chunk(std::size_t index) {
  if (plan_.stall_ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.stall_ms));
  if (plan_.throw_chunk_n && index + 1 == plan_.throw_chunk_n) {
    fired_.fetch_add(1, std::memory_order_relaxed);
    fail("injected chunk fault at chunk " + std::to_string(index));
  }
}

}  // namespace rapwam
