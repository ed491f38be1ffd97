#include "server/protocol.h"

#include <span>

namespace rapwam {

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
  for (int i = 0; i <= static_cast<int>(ReqOp::Shutdown); ++i)
    if (op_name(static_cast<ReqOp>(i)) == s) return static_cast<ReqOp>(i);
  fail("unknown op \"" + s +
       "\" (expected ping, stats, replay, time, sweep, golden, shutdown)");
}

const std::string& string_of(const JsonValue& v, const std::string& key) {
  if (!v.is_string()) fail("member \"" + key + "\" must be a string");
  return v.as_string();
}

/// Stores member `v` into `e` through field `f`; a list field's member
/// is an array of items.
void put_json(Experiment& e, const ExperimentField& f, const JsonValue& v) {
  const std::string key(f.name), what = "member \"" + key + "\"";
  const bool list = f.kind == FieldKind::Names || f.kind == FieldKind::Uints;
  if (list && !v.is_array()) fail(what + " must be an array");
  for (const JsonValue& item : list ? std::span(v.items()) : std::span(&v, 1)) {
    if (f.kind == FieldKind::Bool) {
      if (!item.is_bool()) fail(what + " must be a boolean");
      if (item.as_bool()) f.put(e, 0, {});
    } else if (f.kind == FieldKind::Name || f.kind == FieldKind::Names) {
      f.put(e, 0, string_of(item, key));
    } else {
      if (!item.is_number()) fail(what + " must be a number");
      f.put(e, static_cast<u32>(check_range(item.as_int(), f.lo, f.hi, what)), {});
    }
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  JsonValue v = json_parse(line);
  if (!v.is_object()) fail("request must be a JSON object");
  const JsonValue* opv = v.find("op");
  if (!opv) fail("request has no \"op\" member");
  Request r;
  r.op = op_from_name(string_of(*opv, "op"));

  // Unknown-for-this-op members are rejected rather than ignored: a
  // typoed "protcol" silently running the default point is worse than
  // an error.
  for (const auto& [key, val] : v.members()) {
    if (key == "op") continue;
    if (key == "id") {
      if (!val.is_int() && !val.is_string())
        fail("member \"id\" must be an integer or string");
      r.id = val;
    } else if (key == "deadline_ms") {
      if (!val.is_number()) fail("member \"deadline_ms\" must be a number");
      r.deadline_ms = static_cast<u32>(
          check_range(val.as_int(), 1, kMaxDeadlineMs, "member \"deadline_ms\""));
    } else if (key == "fault") {
      r.fault = FaultPlan::from_json(val);
    } else if (const ExperimentField* f = find_experiment_field(key);
               f && f->applies_to(r.op)) {
      put_json(r, *f, val);
    } else {
      fail("member \"" + key + "\" not valid for op \"" + op_name(r.op) + "\"");
    }
  }
  if (r.op == ReqOp::Replay || r.op == ReqOp::Time || r.op == ReqOp::Sweep ||
      r.op == ReqOp::Golden)
    finish_experiment(r, r.op);
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
