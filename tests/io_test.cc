#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "graph/generators.h"
#include "graph/io.h"
#include "algos/apps.h"
#include "algos/reference.h"
#include "core/engine.h"

namespace gum::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  // One directory per test and process: ctest runs every case as its own
  // process, in parallel, so a shared directory would be removed by one
  // case's TearDown while another still writes to it.
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gum_io_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string TempPath(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1, 1.0f}, {1, 2, 2.5f}, {4, 0, 1.0f}};
  const std::string path = TempPath("g.txt");
  ASSERT_TRUE(SaveEdgeListText(list, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, 5u);
  ASSERT_EQ(loaded->edges.size(), 3u);
  EXPECT_EQ(loaded->edges[1].src, 1u);
  EXPECT_EQ(loaded->edges[1].dst, 2u);
  EXPECT_FLOAT_EQ(loaded->edges[1].weight, 2.5f);
}

TEST_F(IoTest, TextCommentsAndImplicitVertexCount) {
  const std::string path = TempPath("c.txt");
  std::ofstream(path) << "# a comment\n% another\n3 7\n7 3 2.0\n";
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, 8u);  // max id + 1
  EXPECT_EQ(loaded->edges.size(), 2u);
}

TEST_F(IoTest, TextMalformedLineFails) {
  const std::string path = TempPath("bad.txt");
  std::ofstream(path) << "1 2\nnot an edge\n";
  auto loaded = LoadEdgeListText(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, MissingFileFails) {
  auto loaded = LoadEdgeListText(TempPath("nope.txt"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IoTest, BinaryRoundTripLargeGraph) {
  const EdgeList original = Rmat({.scale = 10, .edge_factor = 4,
                                  .weighted = true, .seed = 6});
  const std::string path = TempPath("g.bin");
  ASSERT_TRUE(SaveEdgeListBinary(original, path).ok());
  auto loaded = LoadEdgeListBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->edges.size(), original.edges.size());
  EXPECT_EQ(loaded->num_vertices, original.num_vertices);
  for (size_t i = 0; i < original.edges.size(); i += 97) {
    EXPECT_EQ(loaded->edges[i].src, original.edges[i].src);
    EXPECT_EQ(loaded->edges[i].dst, original.edges[i].dst);
    EXPECT_EQ(loaded->edges[i].weight, original.edges[i].weight);
  }
}

TEST_F(IoTest, BinaryBadMagicFails) {
  const std::string path = TempPath("junk.bin");
  std::ofstream(path, std::ios::binary) << "THISISNOTAGUMFILE";
  auto loaded = LoadEdgeListBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, BinaryTruncatedFails) {
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 1.0f}, {1, 2, 1.0f}};
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveEdgeListBinary(list, path).ok());
  // Chop the last 6 bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 6);
  auto loaded = LoadEdgeListBinary(path);
  EXPECT_FALSE(loaded.ok());
}


TEST_F(IoTest, LoadedGraphRunsThroughTheEngine) {
  // Full pipeline: generate -> save -> load -> partition -> GUM BFS.
  const EdgeList original = Rmat({.scale = 9, .edge_factor = 6, .seed = 46});
  const std::string path = TempPath("pipeline.txt");
  ASSERT_TRUE(SaveEdgeListText(original, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  auto g = CsrGraph::FromEdgeList(*loaded);
  ASSERT_TRUE(g.ok());
  auto partition = PartitionGraph(*g, 4, {});
  ASSERT_TRUE(partition.ok());
  auto topology = gum::sim::Topology::HybridCubeMeshSubset(4);
  ASSERT_TRUE(topology.ok());
  gum::core::GumEngine<gum::algos::BfsApp> engine(&*g, *partition,
                                                  *topology, {});
  gum::algos::BfsApp app;
  app.source = 0;
  std::vector<uint32_t> depths;
  const auto result = engine.Run(app, &depths);
  EXPECT_EQ(depths, gum::algos::ref::Bfs(*g, 0));
  EXPECT_GT(result.total_ms, 0.0);
}

}  // namespace
}  // namespace gum::graph
