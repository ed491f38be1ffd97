#include "server/protocol.h"

#include <algorithm>

namespace rapwam {

std::string op_name(ReqOp op) {
  switch (op) {
    case ReqOp::Ping: return "ping";
    case ReqOp::Stats: return "stats";
    case ReqOp::Replay: return "replay";
    case ReqOp::Time: return "time";
    case ReqOp::Sweep: return "sweep";
    case ReqOp::Golden: return "golden";
    case ReqOp::Shutdown: return "shutdown";
  }
  return "?";
}

std::string err_code_name(ErrCode c) {
  switch (c) {
    case ErrCode::BadRequest: return "bad_request";
    case ErrCode::Failed: return "failed";
    case ErrCode::ResourceExhausted: return "resource_exhausted";
    case ErrCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrCode::Cancelled: return "cancelled";
    case ErrCode::Overloaded: return "overloaded";
    case ErrCode::ShuttingDown: return "shutting_down";
    case ErrCode::Internal: return "internal";
  }
  return "?";
}

namespace {

ReqOp op_from_name(const std::string& s) {
  if (s == "ping") return ReqOp::Ping;
  if (s == "stats") return ReqOp::Stats;
  if (s == "replay") return ReqOp::Replay;
  if (s == "time") return ReqOp::Time;
  if (s == "sweep") return ReqOp::Sweep;
  if (s == "golden") return ReqOp::Golden;
  if (s == "shutdown") return ReqOp::Shutdown;
  fail("unknown op \"" + s +
       "\" (expected ping, stats, replay, time, sweep, golden, shutdown)");
}

i64 int_in(const JsonValue& v, const std::string& key, i64 lo, i64 hi) {
  if (!v.is_number()) fail("member \"" + key + "\" must be a number");
  i64 n = v.as_int();
  if (n < lo || n > hi)
    fail("member \"" + key + "\" out of range [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  return n;
}

const std::string& string_of(const JsonValue& v, const std::string& key) {
  if (!v.is_string()) fail("member \"" + key + "\" must be a string");
  return v.as_string();
}

std::string check_bench(const std::string& name) {
  std::vector<std::string> known = small_bench_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::string list;
    for (const std::string& b : known) list += (list.empty() ? "" : ", ") + b;
    fail("unknown bench \"" + name + "\" (expected " + list + ")");
  }
  return name;
}

/// Is `key` meaningful for `op`? Unknown-for-this-op members are
/// rejected rather than ignored: a typoed "protcol" silently running
/// the default point is worse than an error.
bool key_allowed(ReqOp op, const std::string& key) {
  static const char* kCommon[] = {"op", "id", "deadline_ms", "fault"};
  for (const char* k : kCommon)
    if (key == k) return true;
  auto any_of = [&key](std::initializer_list<const char*> ks) {
    for (const char* k : ks)
      if (key == k) return true;
    return false;
  };
  switch (op) {
    case ReqOp::Ping:
    case ReqOp::Stats:
    case ReqOp::Shutdown:
      return false;
    case ReqOp::Replay:
      return any_of({"bench", "trace", "scale", "pes", "protocol", "size",
                     "line", "ways", "no_allocate", "max_solutions", "l2",
                     "l2_ways", "l2_noninclusive", "l2_hit"});
    case ReqOp::Time:
      return any_of({"bench", "trace", "scale", "pes", "protocol", "size",
                     "line", "ways", "no_allocate", "max_solutions", "l2",
                     "l2_ways", "l2_noninclusive", "l2_hit", "service",
                     "interleave", "wbuf", "cpr", "mem_extra"});
    case ReqOp::Sweep:
      return any_of({"bench", "scale", "pes", "protocols", "sizes", "line"});
    case ReqOp::Golden:
      return any_of({"bench"});
  }
  return false;
}

}  // namespace

Request parse_request(const std::string& line, const RequestLimits& lim) {
  JsonValue v = json_parse(line);
  if (!v.is_object()) fail("request must be a JSON object");
  const JsonValue* opv = v.find("op");
  if (!opv) fail("request has no \"op\" member");
  Request r;
  r.op = op_from_name(string_of(*opv, "op"));

  bool explicit_allocate = false;
  for (const auto& [key, val] : v.members()) {
    if (!key_allowed(r.op, key))
      fail("member \"" + key + "\" not valid for op \"" + op_name(r.op) + "\"");
    if (key == "op") continue;
    if (key == "id") {
      if (!val.is_int() && !val.is_string())
        fail("member \"id\" must be an integer or string");
      r.id = val;
    } else if (key == "deadline_ms") {
      r.deadline_ms = static_cast<u32>(int_in(val, key, 1, lim.max_deadline_ms));
    } else if (key == "fault") {
      r.fault = FaultPlan::from_json(val);
    } else if (key == "bench") {
      r.bench = check_bench(string_of(val, key));
    } else if (key == "trace") {
      r.trace_path = string_of(val, key);
      if (r.trace_path.empty()) fail("member \"trace\" must be a non-empty path");
    } else if (key == "scale") {
      r.scale = scale_from_name(string_of(val, key));
    } else if (key == "pes") {
      // Single source of truth for the bound: the simulator's own cap
      // (check_pes re-validates; the range here makes int_in produce
      // the precise out-of-range message).
      r.pes = check_pes(
          static_cast<unsigned>(int_in(val, key, 1, static_cast<i64>(kMaxPes))));
      r.explicit_pes = true;
    } else if (key == "protocol") {
      r.cfg.protocol = protocol_from_name(string_of(val, key));
    } else if (key == "size") {
      r.cfg.size_words = static_cast<u32>(int_in(val, key, 16, lim.max_size_words));
    } else if (key == "line") {
      r.cfg.line_words = static_cast<u32>(int_in(val, key, 1, 64));
    } else if (key == "ways") {
      r.cfg.ways = static_cast<u32>(int_in(val, key, 0, 1024));
    } else if (key == "no_allocate") {
      if (!val.is_bool()) fail("member \"no_allocate\" must be a boolean");
      if (val.as_bool()) {
        r.cfg.write_allocate = false;
        explicit_allocate = true;
      }
    } else if (key == "max_solutions") {
      r.max_solutions = static_cast<unsigned>(int_in(val, key, 1, lim.max_solutions));
    } else if (key == "l2") {
      r.cfg.l2.size_words = static_cast<u32>(int_in(val, key, 0, lim.max_size_words));
    } else if (key == "l2_ways") {
      r.cfg.l2.ways = static_cast<u32>(int_in(val, key, 0, 1024));
    } else if (key == "l2_noninclusive") {
      if (!val.is_bool()) fail("member \"l2_noninclusive\" must be a boolean");
      if (val.as_bool()) r.cfg.l2.inclusion = L2Config::Inclusion::NonInclusive;
    } else if (key == "l2_hit") {
      r.cfg.l2.hit_extra_cycles = static_cast<u32>(int_in(val, key, 0, 1 << 20));
    } else if (key == "service") {
      r.timing.bus_service_cycles = static_cast<u32>(int_in(val, key, 0, 1 << 20));
    } else if (key == "interleave") {
      r.timing.interleave = static_cast<u32>(int_in(val, key, 1, 1 << 10));
    } else if (key == "wbuf") {
      r.timing.write_buffer_depth = static_cast<u32>(int_in(val, key, 0, 1 << 10));
    } else if (key == "cpr") {
      r.timing.cycles_per_ref = static_cast<u32>(int_in(val, key, 1, 1 << 20));
    } else if (key == "mem_extra") {
      r.timing.mem_extra_cycles = static_cast<u32>(int_in(val, key, 0, 1 << 20));
    } else if (key == "protocols") {
      if (!val.is_array()) fail("member \"protocols\" must be an array");
      for (const JsonValue& p : val.items())
        r.sweep_protocols.push_back(protocol_from_name(string_of(p, key)));
    } else if (key == "sizes") {
      if (!val.is_array()) fail("member \"sizes\" must be an array");
      for (const JsonValue& s : val.items())
        r.sweep_sizes.push_back(
            static_cast<u32>(int_in(s, key, 16, lim.max_size_words)));
    } else {
      fail("member \"" + key + "\" unhandled");  // keep key_allowed in sync
    }
  }

  // Cross-member checks.
  if (r.op == ReqOp::Replay || r.op == ReqOp::Time || r.op == ReqOp::Sweep) {
    // A bench-sourced trace is *generated* at r.pes, and the emulator
    // is bounded by the trace format's PE-id field — reject up front
    // rather than failing mid-generation. (A trace-file replay may
    // still size the simulator up to kMaxPes.)
    if (r.explicit_pes && r.trace_path.empty() && r.pes > kMaxTracePes)
      fail("\"pes\" > " + std::to_string(kMaxTracePes) +
           " requires a pre-recorded \"trace\" (bench traces are capped by "
           "the packed trace format's 8-bit PE id)");
  }
  if (r.op == ReqOp::Replay || r.op == ReqOp::Time) {
    if (!r.bench.empty() && !r.trace_path.empty())
      fail("\"bench\" and \"trace\" are mutually exclusive");
    if (r.bench.empty() && r.trace_path.empty()) r.bench = "qsort";
    // Before any trace is generated: the simulator could not build it.
    r.cfg.check_geometry();
    // Unless the client pinned the policy, follow the paper's
    // size-dependent allocation rule, like the CLI tools do.
    if (!explicit_allocate)
      r.cfg.write_allocate =
          paper_write_allocate(r.cfg.protocol, r.cfg.size_words);
  }
  if (r.op == ReqOp::Sweep) {
    if (r.bench.empty()) r.bench = "qsort";
    if (r.sweep_protocols.empty())
      r.sweep_protocols = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                           Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                           Protocol::Copyback};
    if (r.sweep_sizes.empty()) r.sweep_sizes = {256, 512, 1024, 2048};
    // Each point's geometry, as run_sweep_op builds it; the protocol
    // does not enter into it.
    for (u32 size : r.sweep_sizes) {
      CacheConfig point = paper_cache_config(r.sweep_protocols.front(), size);
      point.line_words = r.cfg.line_words;
      point.check_geometry();
    }
    std::size_t n = r.sweep_protocols.size() * r.sweep_sizes.size();
    if (n > lim.max_sweep_points)
      fail("oversized sweep: " + std::to_string(n) + " points > " +
           std::to_string(lim.max_sweep_points));
  }
  if (r.op == ReqOp::Golden && r.bench.empty()) r.bench = "qsort";
  return r;
}

std::string ok_response(const JsonValue& id, JsonValue result) {
  JsonValue v = JsonValue::object();
  v.set("id", id);
  v.set("ok", JsonValue::boolean(true));
  v.set("result", std::move(result));
  return json_write(v);
}

std::string error_response(const JsonValue& id, ErrCode code,
                           const std::string& message, i64 retry_after_ms) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(err_code_name(code)));
  err.set("message", JsonValue::string(message));
  JsonValue v = JsonValue::object();
  v.set("id", id);
  v.set("ok", JsonValue::boolean(false));
  v.set("error", std::move(err));
  if (retry_after_ms >= 0)
    v.set("retry_after_ms", JsonValue::integer(retry_after_ms));
  return json_write(v);
}

Response Response::parse(const std::string& line) {
  JsonValue v = json_parse(line);
  if (!v.is_object()) fail("response must be a JSON object");
  Response r;
  if (const JsonValue* id = v.find("id")) r.id = *id;
  const JsonValue* ok = v.find("ok");
  if (!ok || !ok->is_bool()) fail("response has no boolean \"ok\"");
  r.ok = ok->as_bool();
  if (r.ok) {
    if (const JsonValue* res = v.find("result")) r.result = *res;
  } else {
    const JsonValue* err = v.find("error");
    if (!err || !err->is_object()) fail("error response has no \"error\" object");
    if (const JsonValue* c = err->find("code")) r.code = c->as_string();
    if (const JsonValue* m = err->find("message")) r.message = m->as_string();
    if (const JsonValue* ra = v.find("retry_after_ms")) r.retry_after_ms = ra->as_int();
  }
  return r;
}

}  // namespace rapwam
