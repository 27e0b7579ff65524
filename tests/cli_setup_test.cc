#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/cli_setup.h"

namespace gum::cli {
namespace {

Result<SetupFlags> ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return ParseSetupFlags(
      FlagParser(static_cast<int>(args.size()), args.data()));
}

TEST(CliSetupTest, DefaultsWhenOnlyTheGeneratorIsGiven) {
  const auto s = ParseArgs({"--gen=rmat"});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->scale, 14);
  EXPECT_EQ(s->edge_factor, 16.0);
  EXPECT_EQ(s->seed, 1u);
  EXPECT_EQ(s->rows, 128u);
  EXPECT_EQ(s->cols, 128u);
  EXPECT_EQ(s->devices, 8);
  EXPECT_EQ(s->partition.kind, graph::PartitionerKind::kRandom);
  EXPECT_EQ(s->options.num_host_threads, 0);
  EXPECT_EQ(s->options.checkpoint.every, 0);
  EXPECT_TRUE(s->options.enable_fsteal);
  EXPECT_FALSE(s->fault_plane.active());
  EXPECT_TRUE(s->mutation_plan.empty());
  EXPECT_EQ(ParseArgs({"--gen=web"})->edge_factor, 12.0);
}

TEST(CliSetupTest, NeedsAGraphSource) {
  EXPECT_FALSE(ParseArgs({}).ok());
  EXPECT_FALSE(ParseArgs({"--gen=grid"}).ok());
  EXPECT_FALSE(ParseArgs({"--graph"}).ok());
}

// Each of these used to CHECK-abort, throw, or run with a silent default.
TEST(CliSetupTest, RejectsBadNumericValuesNamingTheFlag) {
  const std::vector<std::vector<const char*>> cases = {
      {"--gen=road", "--rows=0"},
      {"--gen=road", "--rows=abc"},
      {"--gen=road", "--rows=100000", "--cols=100000"},
      {"--gen=er", "--edge-factor=-2"},
      {"--gen=rmat", "--edge-factor=nan"},
      {"--gen=rmat", "--scale=31"},
      {"--gen=rmat", "--seed=abc"},
      {"--gen=rmat", "--devices=9"},
      {"--gen=rmat", "--host-threads=-5"},
      {"--gen=rmat", "--ckpt-every=-3"},
      {"--gen=rmat", "--fault-seed=-1"},
      {"--gen=rmat", "--mutation-seed=x"},
      {"--gen=rmat", "--compact-every=-1"},
  };
  for (const auto& args : cases) {
    const std::string last = args.back();
    const std::string flag = last.substr(0, last.find('='));
    const auto s = ParseArgs(args);
    ASSERT_FALSE(s.ok()) << last;
    EXPECT_NE(s.status().ToString().find(flag), std::string::npos)
        << s.status().ToString();
  }
}

TEST(CliSetupTest, BuildSetupPlacesTheGraphAndBindsMutations) {
  const auto flags = ParseArgs({"--gen=road", "--rows=8", "--cols=8",
                                "--devices=4", "--mutations=rand:2x4"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  const auto setup = BuildSetup(*flags, /*symmetrize=*/false);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  EXPECT_EQ(setup->graph.num_vertices(), 64u);
  EXPECT_EQ(setup->partition.num_parts, 4);
  EXPECT_EQ(setup->topology.num_devices(), 4);
  EXPECT_TRUE(setup->mutations.active());
  EXPECT_EQ(setup->mutations.num_epochs(), 2);
}

}  // namespace
}  // namespace gum::cli
