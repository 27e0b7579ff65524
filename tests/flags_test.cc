#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/flags.h"
#include "core/async/async_options.h"
#include "graph/mutation.h"

namespace gum {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, KeyValueForm) {
  const auto flags = Parse({"--algo=bfs", "--devices=8"});
  EXPECT_EQ(flags.GetString("algo", "x"), "bfs");
  EXPECT_EQ(flags.GetInt("devices", 0), 8);
}

TEST(FlagsTest, SeparatedValueForm) {
  const auto flags = Parse({"--algo", "sssp", "--scale", "12"});
  EXPECT_EQ(flags.GetString("algo", ""), "sssp");
  EXPECT_EQ(flags.GetInt("scale", 0), 12);
}

TEST(FlagsTest, BareBooleans) {
  const auto flags = Parse({"--timeline", "--weighted"});
  EXPECT_TRUE(flags.GetBool("timeline", false));
  EXPECT_TRUE(flags.GetBool("weighted", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  const auto flags = Parse({"--a=true", "--b=0", "--c=off", "--d=garbage"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_FALSE(flags.GetBool("c", true));
  EXPECT_TRUE(flags.GetBool("d", true)) << "garbage falls back to default";
}

TEST(FlagsTest, Doubles) {
  const auto flags = Parse({"--epsilon=1e-9", "--factor=2.5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0), 1e-9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("factor", 0), 2.5);
}

TEST(FlagsTest, MalformedNumbersFallBack) {
  const auto flags = Parse({"--n=12x", "--f=abc"});
  EXPECT_EQ(flags.GetInt("n", -1), -1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("f", -2.0), -2.0);
}

TEST(FlagsTest, Positional) {
  const auto flags = Parse({"input.txt", "--algo=bfs", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, DoubleDashEndsFlags) {
  const auto flags = Parse({"--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(flags.Has("a"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, KnownFlagsOnlyValidation) {
  const auto flags = Parse({"--good=1", "--bad=2"});
  EXPECT_TRUE(flags.KnownFlagsOnly({"good", "bad"}).ok());
  const Status s = flags.KnownFlagsOnly({"good"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--bad"), std::string::npos);
}

TEST(FlagsTest, GetEnumAcceptsAllowedValues) {
  const auto flags = Parse({"--algo=sssp"});
  const auto v = flags.GetEnum("algo", "bfs", {"bfs", "sssp", "wcc"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "sssp");
}

TEST(FlagsTest, GetEnumDefaultsWhenAbsent) {
  const auto flags = Parse({});
  const auto v = flags.GetEnum("algo", "bfs", {"bfs", "sssp"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "bfs");
}

TEST(FlagsTest, GetEnumRejectsUnknownValueLoudly) {
  // The CLI's silent-fallback bug: "--algo=bsf" must fail, naming the
  // flag, the offending value, and the allowed set.
  const auto flags = Parse({"--algo=bsf"});
  const auto v = flags.GetEnum("algo", "bfs", {"bfs", "sssp", "wcc"});
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  EXPECT_NE(msg.find("bsf"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--algo"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bfs|sssp|wcc"), std::string::npos) << msg;
}

TEST(FlagsTest, GetEnumRejectsEmptyBareFlag) {
  // A bare "--contention" parses as the empty string, which is not an
  // allowed value either.
  const auto flags = Parse({"--contention"});
  EXPECT_FALSE(flags.GetEnum("contention", "off", {"off", "fair"}).ok());
}

TEST(FlagsTest, SeparatedNegativeNumberValue) {
  // "--x -5": -5 does not start with "--", so it is consumed as the value.
  const auto flags = Parse({"--x", "-5"});
  EXPECT_EQ(flags.GetInt("x", 0), -5);
}

TEST(FlagsTest, GetIntListParsesCommaSeparatedValues) {
  const auto flags = Parse({"--sources=3,0,17,-2"});
  const auto v = flags.GetIntList("sources", {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<int64_t>{3, 0, 17, -2}));
}

TEST(FlagsTest, GetIntListSingleValue) {
  const auto flags = Parse({"--sources=42"});
  const auto v = flags.GetIntList("sources", {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<int64_t>{42}));
}

TEST(FlagsTest, GetIntListDefaultsWhenAbsent) {
  const auto flags = Parse({});
  const auto v = flags.GetIntList("bench-widths", {1, 8, 64});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<int64_t>{1, 8, 64}));
}

TEST(FlagsTest, GetIntListRejectsMalformedTokenLoudly) {
  // Like GetEnum: a typo must fail naming the flag and the bad token, not
  // silently fall back.
  const auto flags = Parse({"--sources=3,x,7"});
  const auto v = flags.GetIntList("sources", {});
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  EXPECT_NE(msg.find("'x'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--sources"), std::string::npos) << msg;
}

TEST(FlagsTest, GetIntListRejectsPartialInteger) {
  const auto flags = Parse({"--sources=1,2x3"});
  EXPECT_FALSE(flags.GetIntList("sources", {}).ok());
}

TEST(FlagsTest, GetIntListRejectsEmptyTokens) {
  EXPECT_FALSE(Parse({"--sources=1,,2"}).GetIntList("sources", {}).ok());
  EXPECT_FALSE(Parse({"--sources=1,2,"}).GetIntList("sources", {}).ok());
  EXPECT_FALSE(Parse({"--sources=,1"}).GetIntList("sources", {}).ok());
}

TEST(FlagsTest, GetIntListRejectsBareFlag) {
  // Bare "--sources" parses as the empty string: one empty token, invalid.
  EXPECT_FALSE(Parse({"--sources"}).GetIntList("sources", {}).ok());
}

TEST(FlagsTest, GetIntInRangeAcceptsBoundsAndDefaultsWhenAbsent) {
  const auto flags = Parse({"--devices=1", "--scale=30", "--pr-rounds=0"});
  EXPECT_EQ(*flags.GetIntInRange("devices", 8, 1, 8), 1);
  EXPECT_EQ(*flags.GetIntInRange("scale", 14, 1, 30), 30);
  EXPECT_EQ(*flags.GetIntInRange("pr-rounds", 20, 0, 1000), 0);
  EXPECT_EQ(*flags.GetIntInRange("missing", 8, 1, 8), 8);
}

TEST(FlagsTest, GetIntInRangeRejectsGarbageLoudly) {
  // The CLI's silent-default bug: "--devices=abc" used to run with 8.
  const auto v = Parse({"--devices=abc"}).GetIntInRange("devices", 8, 1, 8);
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--devices"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[1, 8]"), std::string::npos) << msg;
  EXPECT_FALSE(Parse({"--devices=4x"}).GetIntInRange("devices", 8, 1, 8).ok());
  EXPECT_FALSE(Parse({"--devices=2.5"}).GetIntInRange("devices", 8, 1, 8).ok());
}

TEST(FlagsTest, GetIntInRangeRejectsOutOfRangeValues) {
  // "--scale=-3" used to abort on a generator CHECK and "--pr-rounds=-1"
  // turned fixed-round PageRank data-driven and spun.
  EXPECT_FALSE(Parse({"--scale=-3"}).GetIntInRange("scale", 14, 1, 30).ok());
  EXPECT_FALSE(Parse({"--scale=31"}).GetIntInRange("scale", 14, 1, 30).ok());
  EXPECT_FALSE(
      Parse({"--pr-rounds=-1"}).GetIntInRange("pr-rounds", 20, 0, 1000).ok());
  EXPECT_FALSE(Parse({"--devices=99999999999999999999"})
                   .GetIntInRange("devices", 8, 1, 8)
                   .ok());
}

TEST(FlagsTest, GetIntInRangeRejectsBareFlag) {
  EXPECT_FALSE(Parse({"--devices"}).GetIntInRange("devices", 8, 1, 8).ok());
}

TEST(FlagsTest, GetDoubleInRangeDefaultsWhenAbsent) {
  EXPECT_EQ(*Parse({}).GetDoubleInRange("steal-prob", 0.25, 0.0, 1.0), 0.25);
}

TEST(FlagsTest, GetDoubleInRangeAcceptsBoundsAndInteriorValues) {
  const auto flags =
      Parse({"--lo=0", "--hi=1", "--mid=2.5e-1", "--exp=1e-9"});
  EXPECT_EQ(*flags.GetDoubleInRange("lo", 0.5, 0.0, 1.0), 0.0);
  EXPECT_EQ(*flags.GetDoubleInRange("hi", 0.5, 0.0, 1.0), 1.0);
  EXPECT_EQ(*flags.GetDoubleInRange("mid", 0.5, 0.0, 1.0), 0.25);
  EXPECT_EQ(*flags.GetDoubleInRange("exp", 0.5, 1e-9, 1.0), 1e-9);
}

TEST(FlagsTest, GetDoubleInRangeRejectsJustOutsideEachBound) {
  EXPECT_FALSE(
      Parse({"--p=-0.001"}).GetDoubleInRange("p", 0.5, 0.0, 1.0).ok());
  EXPECT_FALSE(
      Parse({"--p=1.001"}).GetDoubleInRange("p", 0.5, 0.0, 1.0).ok());
  EXPECT_FALSE(
      Parse({"--edge-factor=-2"}).GetDoubleInRange("edge-factor", 16, 0, 1024)
          .ok());
}

TEST(FlagsTest, GetDoubleInRangeRejectsGarbageLoudly) {
  // The CLI's silent-default bug: "--steal-prob=abc" used to run with the
  // default probability.
  const auto v =
      Parse({"--steal-prob=abc"}).GetDoubleInRange("steal-prob", 0.5, 0, 1);
  ASSERT_FALSE(v.ok());
  const std::string msg = v.status().ToString();
  EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--steal-prob"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[0, 1]"), std::string::npos) << msg;
  for (const char* bad : {"--x=1e", "--x=0.5x", "--x=0.5 ", "--x=.", "--x="}) {
    EXPECT_FALSE(Parse({bad}).GetDoubleInRange("x", 0.5, 0, 1).ok()) << bad;
  }
  EXPECT_FALSE(Parse({"--x"}).GetDoubleInRange("x", 0.5, 0, 1).ok());
}

TEST(FlagsTest, GetDoubleInRangeRejectsNonFiniteValues) {
  // nan compares false against both bounds, so it needs its own check.
  const double lo = -std::numeric_limits<double>::max();
  const double hi = std::numeric_limits<double>::max();
  for (const char* bad : {"--x=nan", "--x=NaN", "--x=inf", "--x=-inf",
                          "--x=infinity", "--x=1e999"}) {
    EXPECT_FALSE(Parse({bad}).GetDoubleInRange("x", 0, lo, hi).ok()) << bad;
  }
}

// --mutations values flow verbatim into MutationPlan::Parse; like the
// fault-plan grammar, unknown tokens must be loud InvalidArguments the
// CLIs turn into non-zero exits — never a silently empty plan.
TEST(FlagsTest, MutationPlanGrammarRejectsUnknownTokensLoudly) {
  const auto flags = Parse({"--mutations=frob:1-2@3"});
  const auto plan =
      graph::MutationPlan::Parse(flags.GetString("mutations", "none"));
  ASSERT_FALSE(plan.ok());
  const std::string msg = plan.status().ToString();
  EXPECT_NE(msg.find("unknown event kind"), std::string::npos) << msg;
  EXPECT_NE(msg.find("frob"), std::string::npos) << msg;
}

TEST(FlagsTest, MutationPlanGrammarRejectsMalformedEvents) {
  for (const char* spec :
       {"ins:1-2", "ins:x-2@1", "del:1-2@1x2.0", "rand:0x4", "rand:2"}) {
    const auto flags = Parse({(std::string("--mutations=") + spec).c_str()});
    EXPECT_FALSE(
        graph::MutationPlan::Parse(flags.GetString("mutations", "none")).ok())
        << "spec accepted: " << spec;
  }
}

TEST(FlagsTest, MutationPlanDefaultIsEmpty) {
  const auto flags = Parse({});
  const auto plan =
      graph::MutationPlan::Parse(flags.GetString("mutations", "none"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

// --mode / --worklist values flow verbatim into the async-option parsers;
// like every other CLI enum they must reject loudly, naming the bad value
// and the allowed set.
TEST(FlagsTest, EngineModeParsesBothModes) {
  const auto flags = Parse({"--mode=async"});
  const auto mode = core::ParseEngineMode(flags.GetString("mode", "bsp"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, core::EngineMode::kAsync);
  EXPECT_EQ(*core::ParseEngineMode("bsp"), core::EngineMode::kBsp);
  EXPECT_STREQ(core::EngineModeName(core::EngineMode::kAsync), "async");
}

TEST(FlagsTest, EngineModeRejectsUnknownValueLoudly) {
  const auto flags = Parse({"--mode=turbo"});
  const auto mode = core::ParseEngineMode(flags.GetString("mode", "bsp"));
  ASSERT_FALSE(mode.ok());
  const std::string msg = mode.status().ToString();
  EXPECT_NE(msg.find("turbo"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bsp|async"), std::string::npos) << msg;
}

TEST(FlagsTest, AsyncWorklistKindParsesAndRejectsLoudly) {
  const auto flags = Parse({"--worklist=smq"});
  const auto kind =
      core::ParseAsyncWorklistKind(flags.GetString("worklist", "buckets"));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, core::AsyncWorklistKind::kSmq);
  EXPECT_EQ(*core::ParseAsyncWorklistKind("buckets"),
            core::AsyncWorklistKind::kBuckets);

  const auto bad = core::ParseAsyncWorklistKind("deque");
  ASSERT_FALSE(bad.ok());
  const std::string msg = bad.status().ToString();
  EXPECT_NE(msg.find("deque"), std::string::npos) << msg;
  EXPECT_NE(msg.find("buckets|smq"), std::string::npos) << msg;
}

// --delta / --steal-prob / --steal-batch range checks (the CLI turns each
// of these into a non-zero exit before anything runs).
TEST(FlagsTest, AsyncConfigDefaultsValidate) {
  EXPECT_TRUE(core::ValidateAsyncConfig(core::AsyncConfig{}).ok());
}

TEST(FlagsTest, AsyncConfigRejectsOutOfRangeKnobsLoudly) {
  const auto reject = [](auto mutate, const char* needle) {
    core::AsyncConfig cfg;
    mutate(cfg);
    const Status s = core::ValidateAsyncConfig(cfg);
    ASSERT_FALSE(s.ok()) << needle;
    EXPECT_NE(s.ToString().find(needle), std::string::npos) << s.ToString();
  };
  reject([](core::AsyncConfig& c) { c.delta = -0.5; }, "--delta");
  reject([](core::AsyncConfig& c) { c.steal_prob = 1.5; }, "--steal-prob");
  reject([](core::AsyncConfig& c) { c.steal_prob = -0.1; }, "--steal-prob");
  reject([](core::AsyncConfig& c) { c.steal_batch_size = 0; },
         "--steal-batch");
  reject([](core::AsyncConfig& c) { c.smq_queues = 0; }, "smq_queues");
  reject([](core::AsyncConfig& c) { c.range_steal_min_victim = -1; },
         "range_steal_min_victim");
  reject([](core::AsyncConfig& c) { c.range_steal_fraction = 0.0; },
         "range_steal_fraction");
  reject([](core::AsyncConfig& c) { c.range_steal_fraction = 1.5; },
         "range_steal_fraction");
  reject([](core::AsyncConfig& c) { c.max_batch = 0; }, "max_batch");
}

// A parsed flag set maps onto AsyncConfig exactly the way gum_cli binds it.
TEST(FlagsTest, AsyncFlagsBindToConfig) {
  const auto flags = Parse({"--mode=async", "--delta=2.5",
                            "--worklist=smq", "--steal-prob=0.25",
                            "--steal-batch=16", "--async-seed=99"});
  using dbl = std::numeric_limits<double>;
  core::AsyncConfig cfg;
  cfg.delta = *flags.GetDoubleInRange("delta", 0.0, dbl::min(), dbl::max());
  cfg.worklist =
      *core::ParseAsyncWorklistKind(flags.GetString("worklist", "buckets"));
  cfg.steal_prob = *flags.GetDoubleInRange("steal-prob", cfg.steal_prob, 0, 1);
  cfg.steal_batch_size = static_cast<int>(*flags.GetIntInRange(
      "steal-batch", cfg.steal_batch_size, 1, std::numeric_limits<int>::max()));
  cfg.seed = static_cast<uint64_t>(*flags.GetIntInRange(
      "async-seed", 1, 0, std::numeric_limits<int64_t>::max()));
  EXPECT_TRUE(core::ValidateAsyncConfig(cfg).ok());
  EXPECT_EQ(cfg.delta, 2.5);
  EXPECT_EQ(cfg.worklist, core::AsyncWorklistKind::kSmq);
  EXPECT_EQ(cfg.steal_prob, 0.25);
  EXPECT_EQ(cfg.steal_batch_size, 16);
  EXPECT_EQ(cfg.seed, 99u);
}

}  // namespace
}  // namespace gum
