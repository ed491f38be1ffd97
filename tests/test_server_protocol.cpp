// Server request-protocol hardening (docs/DESIGN.md §10): the strict
// JSON parser and parse_request() against malformed, truncated and
// hostile input. Invariant under fuzz: every input either yields a
// valid value/Request or throws rapwam::Error — no crash, no hang, no
// state mutation. The fuzz streams are LCG-driven and deterministic,
// so any failure replays.
#include <gtest/gtest.h>

#include "harness/trace_lib.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/service.h"

namespace rapwam {
namespace {

// --- JSON parser: accepts real JSON ----------------------------------------

TEST(JsonParse, Values) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(json_parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(json_parse("\"hi\\n\\u0041\"").as_string(), "hi\nA");
  EXPECT_EQ(json_parse("[1,2,3]").items().size(), 3u);
  JsonValue v = json_parse(R"({"a":1,"b":{"c":[true,null]}})");
  ASSERT_TRUE(v.find("b"));
  EXPECT_EQ(v.find("b")->find("c")->items().size(), 2u);
  EXPECT_TRUE(json_parse("  {\"x\": 0}  ").is_object());  // outer whitespace ok
}

TEST(JsonParse, SurrogatePairs) {
  // U+1F600 as \uD83D\uDE00 -> 4-byte UTF-8.
  EXPECT_EQ(json_parse("\"\\uD83D\\uDE00\"").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(json_parse("\"\\uD83D\""), Error);        // lone high surrogate
  EXPECT_THROW(json_parse("\"\\uDE00\""), Error);        // lone low surrogate
  EXPECT_THROW(json_parse("\"\\uD83D\\u0041\""), Error);  // broken pair
}

TEST(JsonParse, RoundTripsThroughWriter) {
  const char* docs[] = {
      R"({"op":"replay","pes":4,"id":"x","nested":{"a":[1,2.5,true,null]}})",
      R"([{"k":"\"quoted\" and \\ and \u0007"},[],{},-0.125,9223372036854775807])",
  };
  for (const char* d : docs) {
    JsonValue v = json_parse(d);
    JsonValue again = json_parse(json_write(v));
    EXPECT_EQ(json_write(v), json_write(again)) << d;
  }
}

// --- JSON parser: rejects everything else ----------------------------------

TEST(JsonParse, RejectsMalformed) {
  const char* bad[] = {
      "",            "   ",         "{",       "}",          "[1,2",
      "{\"a\":}",    "{\"a\" 1}",   "{'a':1}", "[1,]",       "{\"a\":1,}",
      "nul",         "tru",         "+1",      "01",         "1.",
      ".5",          "1e",          "--1",     "\"abc",      "\"\\x\"",
      "\"\\u12\"",   "{\"a\":1}x",  "1 2",     "[1] []",     "\x01",
      "{\"a\":1,\"a\":2}",  // duplicate key
  };
  for (const char* b : bad) EXPECT_THROW(json_parse(b), Error) << '"' << b << '"';
}

TEST(JsonParse, RejectsRawControlCharInString) {
  std::string s = "\"a\nb\"";  // literal newline must be escaped
  EXPECT_THROW(json_parse(s), Error);
}

TEST(JsonParse, EnforcesResourceLimits) {
  // Depth bomb: one past the limit throws, at the limit parses.
  JsonLimits lim;
  std::string nested(lim.max_depth + 1, '[');
  nested += std::string(lim.max_depth + 1, ']');
  EXPECT_THROW(json_parse(nested, lim), Error);
  std::string ok(lim.max_depth, '[');
  ok += std::string(lim.max_depth, ']');
  EXPECT_NO_THROW(json_parse(ok, lim));

  // Size cap.
  JsonLimits tiny;
  tiny.max_bytes = 16;
  EXPECT_THROW(json_parse(std::string(17, ' ') + "1", tiny), Error);

  // Member-count cap.
  JsonLimits few;
  few.max_members = 3;
  EXPECT_THROW(json_parse("[1,2,3,4]", few), Error);
  EXPECT_NO_THROW(json_parse("[1,2,3]", few));
}

TEST(JsonParse, TruncationsOfAValidDocAllThrow) {
  std::string doc =
      R"({"op":"sweep","bench":"qsort","protocols":["wt","hybrid"],"sizes":[256,1024],"id":17})";
  EXPECT_NO_THROW(json_parse(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    std::string prefix = doc.substr(0, n);
    try {
      json_parse(prefix);
      // A strict prefix of this doc is never complete JSON.
      FAIL() << "accepted truncated prefix of length " << n;
    } catch (const Error&) {
    }
  }
}

TEST(JsonParse, FuzzNeverCrashes) {
  u64 lcg = 0x9e3779b97f4a7c15ull;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  // Random byte soup, biased toward JSON punctuation so it gets past
  // the first character often enough to stress the deep paths.
  const char alphabet[] = "{}[]\":,0123456789.eE+-truefalsnl \\u\x01\xff";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s;
    std::size_t len = next() % 64;
    for (std::size_t i = 0; i < len; ++i)
      s += alphabet[next() % (sizeof alphabet - 1)];
    try {
      (void)json_parse(s);
    } catch (const Error&) {
    }  // either outcome is fine; crashing is not
  }
}

// --- parse_request: validation before any state ----------------------------

TEST(ParseRequest, AcceptsTheDocumentedShape) {
  Request r = parse_request(
      R"({"op":"replay","bench":"qsort","pes":4,"protocol":"broadcast","size":1024,"deadline_ms":2000,"id":7})");
  EXPECT_EQ(r.op, ReqOp::Replay);
  EXPECT_EQ(r.bench, "qsort");
  EXPECT_EQ(r.pes, 4u);
  EXPECT_EQ(r.cfg.size_words, 1024u);
  EXPECT_EQ(r.deadline_ms, 2000u);
  EXPECT_EQ(r.id.as_int(), 7);
  // Figure-4 allocation policy applied when not pinned explicitly.
  EXPECT_EQ(r.cfg.write_allocate,
            paper_write_allocate(r.cfg.protocol, r.cfg.size_words));
}

TEST(ParseRequest, SweepDefaultsAndCaps) {
  Request r = parse_request(R"({"op":"sweep"})");
  EXPECT_EQ(r.bench, "qsort");
  EXPECT_EQ(r.sweep_protocols.size(), 5u);  // all five paper protocols
  EXPECT_EQ(r.sweep_sizes.size(), 4u);

  RequestLimits lim;
  lim.max_sweep_points = 4;
  EXPECT_THROW(
      parse_request(R"({"op":"sweep","sizes":[16,32,48,64,80]})", lim), Error);
}

TEST(ParseRequest, RejectsInvalid) {
  const char* bad[] = {
      R"("just a string")",
      R"({"no_op":1})",
      R"({"op":"warp"})",
      R"({"op":"replay","pes":0})",
      R"({"op":"replay","pes":1025})",             // > kMaxPes (simulator cap)
      R"({"op":"replay","pes":257})",              // bench trace: > kMaxTracePes
      R"({"op":"time","bench":"qsort","pes":300})",
      R"({"op":"sweep","pes":512})",               // sweeps generate traces too
      R"({"op":"replay","size":0})",
      R"({"op":"replay","size":1030})",           // not a line multiple
      R"({"op":"replay","ways":3})",               // 256 lines in 3-way sets
      R"({"op":"time","size":1024,"ways":100})",
      R"({"op":"replay","l2":4096,"l2_ways":3})",  // 1024 L2 lines
      R"({"op":"replay","bench":"unknown"})",
      R"({"op":"replay","bench":"qsort","trace":"x.trc"})",  // exclusive
      R"({"op":"replay","deadline_ms":0})",
      R"({"op":"replay","deadline_ms":99999999999})",
      R"({"op":"ping","bench":"qsort"})",          // member not valid for op
      R"({"op":"sweep","wbuf":4})",                // timing knob on a sweep
      R"({"op":"replay","protcol":"wt"})",         // typo must not pass silently
      R"({"op":"replay","id":[1]})",               // id must be int or string
      R"({"op":"replay","fault":{"bogus":1}})",
      R"({"op":"replay","fault":{"fail_alloc":-1}})",
      R"({"op":"golden","pes":4})",                // golden pins its own grid
  };
  for (const char* b : bad) EXPECT_THROW(parse_request(b), Error) << b;
}

TEST(ParseRequest, SweepSizesMustBeLineMultiples) {
  EXPECT_THROW(parse_request(R"({"op":"sweep","sizes":[18]})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"sweep","sizes":[256,18]})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"sweep","line":8,"sizes":[260]})"), Error);
  Request r = parse_request(R"({"op":"sweep","line":8,"sizes":[256,1024]})");
  EXPECT_EQ(r.sweep_sizes, (std::vector<u32>{256, 1024}));
}

TEST(ParseRequest, MisalignedSweepIsRejectedBeforeAnyGeneration) {
  // The size check belongs to validation: a malformed sweep must cost
  // no trace generation and count as rejected, not failed.
  ServiceConfig cfg;
  cfg.workers = 1;
  Service svc(cfg);
  const std::size_t entries = TraceLibrary::instance().size();
  Response r = Response::parse(svc.handle_line(
      R"({"op":"sweep","bench":"tak","scale":"paper","pes":8,"sizes":[18]})"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "bad_request");
  EXPECT_EQ(TraceLibrary::instance().size(), entries);
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(ParseRequest, BadCacheGeometryIsRejectedBeforeAnyGeneration) {
  // "ways" that do not divide the line count used to replay a smaller
  // cache than reported (L1) or fail after generating the trace (L2).
  ServiceConfig cfg;
  cfg.workers = 1;
  Service svc(cfg);
  const std::size_t entries = TraceLibrary::instance().size();
  for (const char* req :
       {R"({"op":"replay","bench":"tak","scale":"paper","pes":8,"ways":3})",
        R"({"op":"time","bench":"tak","scale":"paper","pes":8,"l2":4096,"l2_ways":3})"}) {
    Response r = Response::parse(svc.handle_line(req));
    EXPECT_FALSE(r.ok) << req;
    EXPECT_EQ(r.code, "bad_request") << req;
  }
  EXPECT_EQ(TraceLibrary::instance().size(), entries);
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.rejected, 2u);
  EXPECT_EQ(c.failed, 0u);
  // Divisors, 0 and "at least the line count" all stay valid.
  for (const char* ok : {R"({"op":"replay","ways":4})", R"({"op":"replay","ways":0})",
                         R"({"op":"replay","ways":1024})",
                         R"({"op":"replay","l2":4096,"l2_ways":8})"})
    EXPECT_NO_THROW(parse_request(ok)) << ok;
}

TEST(ParseRequest, FaultPlanParses) {
  Request r = parse_request(
      R"({"op":"replay","fault":{"fail_alloc":2,"throw_chunk":1,"stall_ms":5}})");
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_EQ(r.fault->fail_alloc_n, 2u);
  EXPECT_EQ(r.fault->throw_chunk_n, 1u);
  EXPECT_EQ(r.fault->stall_ms, 5u);
  EXPECT_TRUE(r.fault->any());
}

TEST(ParseRequest, FuzzMutatedRequestsNeverCrash) {
  const std::string seed =
      R"({"op":"time","bench":"qsort","pes":8,"service":1,"interleave":2,"wbuf":4,"deadline_ms":1000,"id":"t"})";
  u64 lcg = 42;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s = seed;
    // 1-4 random single-byte mutations: overwrite, delete or insert.
    int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits && !s.empty(); ++e) {
      std::size_t pos = next() % s.size();
      switch (next() % 3) {
        case 0: s[pos] = static_cast<char>(next() % 256); break;
        case 1: s.erase(pos, 1); break;
        default: s.insert(pos, 1, static_cast<char>(next() % 256)); break;
      }
    }
    try {
      (void)parse_request(s);
    } catch (const Error&) {
    }
  }
}

// --- response framing -------------------------------------------------------

TEST(ResponseFraming, OkRoundTrip) {
  JsonValue result = JsonValue::object();
  result.set("refs", JsonValue::unsigned_int(6612));
  std::string line = ok_response(JsonValue::integer(9), std::move(result));
  Response r = Response::parse(line);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.id.as_int(), 9);
  EXPECT_EQ(r.result.find("refs")->as_int(), 6612);
}

TEST(ResponseFraming, ErrorRoundTripWithRetryAfter) {
  std::string line = error_response(JsonValue::string("req-3"),
                                    ErrCode::Overloaded,
                                    "admission queue full", 25);
  Response r = Response::parse(line);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.id.as_string(), "req-3");
  EXPECT_EQ(r.code, "overloaded");
  EXPECT_EQ(r.retry_after_ms, 25);
}

TEST(ResponseFraming, UnsignedGuardRejectsHugeCounters) {
  EXPECT_NO_THROW(JsonValue::unsigned_int(u64(1) << 62));
  EXPECT_THROW(JsonValue::unsigned_int(~u64(0)), Error);
}

}  // namespace
}  // namespace rapwam
