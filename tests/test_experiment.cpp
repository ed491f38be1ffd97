// One experiment description for both front ends (harness/experiment.h):
// every field of the table parses to the same Experiment from its
// rapwam_trace flag and from its server JSON member, the defaults
// agree, a field outside an op is refused by both, and `rapwam_trace
// time T` is the server's `time` on T, field for field.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "harness/experiment.h"
#include "harness/golden.h"
#include "harness/runner.h"
#include "server/protocol.h"
#include "server/service.h"
#include "test_service.h"
#include "timing/replay_job.h"

namespace rapwam {
namespace {

const ReqOp kCliOps[] = {ReqOp::Replay, ReqOp::Time, ReqOp::Sweep};

std::string flag_of(std::string_view name) {
  std::string flag(name);
  for (char& c : flag)
    if (c == '_') c = '-';
  return flag;
}

/// Parses `args` (after the program name) as rapwam_trace's `op`
/// command line would.
Experiment from_argv(ReqOp op, std::vector<std::string> args) {
  args.insert(args.begin(), {"rapwam_trace", op_name(op)});
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  Cli cli(static_cast<int>(argv.size()), argv.data(), experiment_flags(op));
  EXPECT_EQ(cli.usage_error(), "");
  return experiment_from_cli(cli, op);
}

Experiment from_json(ReqOp op, const std::string& members) {
  return parse_request(R"({"op":")" + op_name(op) + "\"" + members + "}");
}

/// A value for each field that differs from its default and passes the
/// finishing step: a Name's sample, or a number's upper bound.
const std::map<std::string_view, std::string> kNameSamples = {
    {"bench", "tak"},      {"trace", "x.trc"},      {"scale", "paper"},
    {"protocol", "hybrid"}, {"protocols", "hybrid"},
};

TEST(ExperimentParity, EveryFieldParsesEqualFromItsFlagAndItsMember) {
  for (ReqOp op : kCliOps) {
    const Experiment defaults = from_argv(op, {});
    EXPECT_TRUE(defaults == from_json(op, "")) << op_name(op) << ": defaults differ";
    for (const ExperimentField& f : experiment_fields()) {
      if (!f.applies_to(op)) continue;
      std::string value = std::to_string(f.hi), json = value;
      if (f.kind == FieldKind::Name || f.kind == FieldKind::Names) {
        ASSERT_TRUE(kNameSamples.count(f.name)) << "no sample for " << f.name;
        value = kNameSamples.at(f.name);
        json = "\"" + value + "\"";
      }
      if (f.kind == FieldKind::Bool) json = "true";
      if (f.kind == FieldKind::Names || f.kind == FieldKind::Uints) json = "[" + json + "]";

      std::vector<std::string> args;
      if (f.name == "trace") args = {value};  // the TRACE positional argument
      else if (f.kind == FieldKind::Bool) args = {"--" + flag_of(f.name)};
      else args = {"--" + flag_of(f.name), value};
      Experiment cli = from_argv(op, args);
      Experiment server = from_json(op, ",\"" + std::string(f.name) + "\":" + json);
      EXPECT_TRUE(cli == server) << op_name(op) << " " << f.name;
      EXPECT_FALSE(cli == defaults) << op_name(op) << " " << f.name << " kept the default";
    }
  }
}

TEST(ExperimentParity, AFieldOutsideAnOpIsRefusedByBothFrontEnds) {
  for (ReqOp op : kCliOps) {
    std::vector<Flag> flags = experiment_flags(op);
    for (const ExperimentField& f : experiment_fields()) {
      if (f.applies_to(op)) continue;
      std::string flag = "--" + flag_of(f.name);
      const char* argv[] = {"rapwam_trace", "x", flag.c_str(), "1"};
      EXPECT_EQ(Cli(4, argv, flags).usage_error(), "unknown flag " + flag)
          << op_name(op);
      EXPECT_THROW(from_json(op, ",\"" + std::string(f.name) + "\":1"), Error)
          << op_name(op) << " " << f.name;
    }
  }
  ServiceConfig cfg;
  cfg.workers = 1;
  BoundedService svc(cfg);
  Response r = Response::parse(svc.handle_line(R"({"op":"sweep","wbuf":4})"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "bad_request");
}

TEST(ExperimentParity, RangeErrorsNameTheFlagOrTheMember) {
  try {
    from_argv(ReqOp::Time, {"x.trc", "--interleave", "0"});
    ADD_FAILURE() << "--interleave 0 parsed";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "--interleave must be at least 1");
  }
  try {
    from_json(ReqOp::Replay, R"(,"size":8388608)");
    ADD_FAILURE() << "size 2^23 parsed";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "member \"size\" must be at most 4194304");
  }
}

TEST(ExperimentParity, LineSlotCapIsOneErrorForBothFrontEnds) {
  // 8 PEs of 2^20 four-word lines are twice kMaxLineSlots: refused by
  // the finishing step, before any trace is read, with one message.
  const std::string want =
      "cache line slots 8388608 (8 PEs x 1048576 lines) are above the cap of 4194304";
  auto error_of = [](auto&& parse) -> std::string {
    try {
      parse();
    } catch (const Error& e) {
      return e.what();
    }
    return "parsed";
  };
  for (ReqOp op : {ReqOp::Replay, ReqOp::Time}) {
    EXPECT_EQ(error_of([&] { from_argv(op, {"--pes", "8", "--size", "4194304"}); }), want);
    EXPECT_EQ(error_of([&] { from_json(op, R"(,"pes":8,"size":4194304)"); }), want);
  }
  EXPECT_EQ(error_of([&] { from_argv(ReqOp::Sweep, {"--pes", "8", "--sizes", "4194304"}); }),
            want);
  EXPECT_EQ(error_of([&] { from_json(ReqOp::Sweep, R"(,"pes":8,"sizes":[4194304])"); }),
            want);
  // The L2's lines count too; exactly the cap is allowed.
  EXPECT_EQ(error_of([&] { from_json(ReqOp::Replay, R"(,"size":4194304,"l2":4096)"); }),
            "cache line slots 4195328 (4 PEs x 1048576 lines + 1024 L2 lines) are above "
            "the cap of 4194304");
  EXPECT_NO_THROW(from_json(ReqOp::Replay, R"(,"size":4194304)"));
  // A trace file names its PE count only when read: the simulator
  // refuses the same geometry before it allocates anything.
  EXPECT_NO_THROW(from_json(ReqOp::Replay, R"(,"trace":"x.trc","size":4194304)"));
  CacheConfig cfg;
  cfg.size_words = 4194304;
  EXPECT_EQ(error_of([&] { MultiCacheSim sim(cfg, 8); }), want);
}

TEST(ExperimentParity, CliTimeOfATraceFileIsTheServersTime) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("rapwam_exp_" + std::to_string(::getpid()) + "_q4.trc"))
                         .string();
  {
    FileTraceSink sink(path);
    run_into(bench_program("qsort", BenchScale::Small), 4, /*strip=*/false, &sink);
    sink.close();
  }
  const std::string line = R"({"op":"time","trace":")" + path + "\"}";
  Experiment cli = from_argv(ReqOp::Time, {path});
  ASSERT_TRUE(cli == parse_request(line));

  ExperimentSource src = resolve_source(cli);
  ReplayJob job(*src.trace, cli.cfg, src.pes, &cli.timing);
  job.run();

  ServiceConfig cfg;
  cfg.workers = 1;
  BoundedService svc(cfg);
  Response r = Response::parse(svc.handle_line(line));
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.result.find("pes")->as_int(), 4);
  for (const auto& [name, value] : timing_fields(job.timing()))
    EXPECT_EQ(r.result.find(name)->as_uint(), value) << name;
  for (const auto& [name, value] : traffic_fields(job.traffic()))
    EXPECT_EQ(r.result.find("traffic")->find(name)->as_uint(), value) << name;
  std::filesystem::remove(path);
}

TEST(ExperimentParity, TraceFileAboveTheCapIsRefusedBeforeItIsRead) {
  // One record over kMaxTraceFileRefs, as a sparse file: it takes no
  // disk, and reading it would take 128 MiB. Both front ends refuse it
  // in the finishing step with one message, the server as a bad
  // request; the loader refuses it for its other callers.
  std::string path = (std::filesystem::temp_directory_path() /
                      ("rapwam_exp_" + std::to_string(::getpid()) + "_big.trc"))
                         .string();
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>((kMaxTraceFileRefs + 1) * 8)), 0);
  ::close(fd);
  const std::string want = "trace file " + path +
                           " holds 16777217 records, above the cap of 16777216 (128 MiB)";

  ServiceConfig cfg;
  cfg.workers = 1;
  BoundedService svc(cfg);
  for (ReqOp op : kCliOps) {
    SCOPED_TRACE(op_name(op));
    try {
      from_argv(op, {path});
      ADD_FAILURE() << "parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.what(), want);
    }
    Response r = Response::parse(svc.handle_line(R"({"op":")" + op_name(op) +
                                                 R"(","trace":")" + path + "\"}"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "bad_request");
    EXPECT_EQ(r.message, want);
  }
  ServiceCounters c = svc.counters();
  EXPECT_EQ(c.rejected, 3u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_THROW(load_chunked_trace(path), Error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rapwam
