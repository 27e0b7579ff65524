#include <gtest/gtest.h>

#include <vector>

#include "sim/topology.h"

namespace gum::sim {
namespace {

TEST(TopologyTest, HybridCubeMeshDegrees) {
  const Topology t = Topology::HybridCubeMesh8();
  ASSERT_EQ(t.num_devices(), 8);
  // Every V100 has exactly six NVLink lanes.
  for (int i = 0; i < 8; ++i) {
    double lanes = 0;
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      lanes += t.DirectBandwidth(i, j) / Topology::kNvlinkLaneGBps;
    }
    EXPECT_DOUBLE_EQ(lanes, 6.0) << "GPU " << i;
  }
}

TEST(TopologyTest, HybridCubeMeshSymmetric) {
  const Topology t = Topology::HybridCubeMesh8();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(t.DirectBandwidth(i, j), t.DirectBandwidth(j, i));
    }
  }
}

TEST(TopologyTest, AsymmetricLinkClasses) {
  const Topology t = Topology::HybridCubeMesh8();
  // Paper Fig. 2: some pairs have two lanes, some one, some none.
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(0, 3), 50.0);
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(0, 7), 0.0);
}

TEST(TopologyTest, LocalBandwidthIsHbm) {
  const Topology t = Topology::HybridCubeMesh8();
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(3, 3), Topology::kLocalMemoryGBps);
  EXPECT_DOUBLE_EQ(t.EffectiveBandwidth(3, 3), Topology::kLocalMemoryGBps);
}

TEST(TopologyTest, TransitRoutingBeatsPcie) {
  const Topology t = Topology::HybridCubeMesh8();
  // 0 and 7 are not directly connected; 0-3 (50) and 3-7 (50) route at
  // 50 * kTransitEfficiency = 25 > PCIe 10.
  EXPECT_GT(t.EffectiveBandwidth(0, 7), Topology::kPcieGBps);
  EXPECT_DOUBLE_EQ(t.EffectiveBandwidth(0, 7),
                   50.0 * Topology::kTransitEfficiency);
  EXPECT_GE(t.BestTransit(0, 7), 0);
}

TEST(TopologyTest, DirectLinkPreferredOverTransit) {
  const Topology t = Topology::HybridCubeMesh8();
  EXPECT_DOUBLE_EQ(t.EffectiveBandwidth(0, 3), 50.0);
  EXPECT_EQ(t.BestTransit(0, 3), -1);
}

TEST(TopologyTest, SingleLaneUpgradedByDoubleTransit) {
  const Topology t = Topology::HybridCubeMesh8();
  // 0-1 direct is 25; transit 0-3(50)+3-1(25)? => min 25 * 0.5 = 12.5 worse.
  // Direct stays.
  EXPECT_DOUBLE_EQ(t.EffectiveBandwidth(0, 1), 25.0);
}

TEST(TopologyTest, SubsetPreservesLinks) {
  auto t = Topology::HybridCubeMeshSubset(4);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_devices(), 4);
  const Topology full = Topology::HybridCubeMesh8();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(t->DirectBandwidth(i, j), full.DirectBandwidth(i, j));
    }
  }
}

TEST(TopologyTest, SubsetRangeChecked) {
  EXPECT_FALSE(Topology::HybridCubeMeshSubset(0).ok());
  EXPECT_FALSE(Topology::HybridCubeMeshSubset(9).ok());
  EXPECT_TRUE(Topology::HybridCubeMeshSubset(1).ok());
}

TEST(TopologyTest, RingIsDirected) {
  const Topology t = Topology::Ring(4);
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(0, 1), Topology::kNvlinkLaneGBps);
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.DirectBandwidth(3, 0), Topology::kNvlinkLaneGBps);
}

TEST(TopologyTest, FullyConnectedAllPairs) {
  const Topology t = Topology::FullyConnected(5, 30.0);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(t.DirectBandwidth(i, j), 30.0);
      }
    }
  }
}

TEST(TopologyTest, FromMatrixValidation) {
  EXPECT_FALSE(Topology::FromMatrix({}).ok());
  EXPECT_FALSE(Topology::FromMatrix({{0.0, 1.0}}).ok());  // not square
  auto t = Topology::FromMatrix({{0.0, 20.0}, {20.0, 0.0}});
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->DirectBandwidth(0, 1), 20.0);
}

// A topology rebuilt from its own direct-link matrix is the same fabric:
// every link, effective bandwidth and transit choice round-trips, for the
// asymmetric cube mesh and a directed ring alike.
TEST(TopologyTest, FromMatrixRoundTrips) {
  for (const Topology& original :
       {Topology::HybridCubeMesh8(), Topology::Ring(5, 25.0)}) {
    const int n = original.num_devices();
    std::vector<std::vector<double>> gbps(n, std::vector<double>(n, 0.0));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) gbps[i][j] = original.DirectBandwidth(i, j);
      }
    }
    auto rebuilt = Topology::FromMatrix(gbps);
    ASSERT_TRUE(rebuilt.ok());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(rebuilt->DirectBandwidth(i, j),
                  original.DirectBandwidth(i, j)) << i << "->" << j;
        EXPECT_EQ(rebuilt->EffectiveBandwidth(i, j),
                  original.EffectiveBandwidth(i, j)) << i << "->" << j;
        EXPECT_EQ(rebuilt->BestTransit(i, j), original.BestTransit(i, j))
            << i << "->" << j;
      }
    }
  }
}

TEST(TopologyTest, EffectiveBandwidthNeverBelowPcie) {
  const Topology t = Topology::HybridCubeMesh8();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_GE(t.EffectiveBandwidth(i, j), Topology::kPcieGBps);
      }
    }
  }
}

TEST(TopologyTest, AggregateBandwidthMonotoneInSubset) {
  const Topology t = Topology::HybridCubeMesh8();
  const double all = t.AggregateBandwidth({0, 1, 2, 3, 4, 5, 6, 7});
  const double half = t.AggregateBandwidth({0, 1, 2, 3});
  EXPECT_GT(all, half);
  // Total NVLink bandwidth of a DGX-1V: 24 lanes * 25 GB/s.
  EXPECT_DOUBLE_EQ(all, 600.0);
}

}  // namespace
}  // namespace gum::sim
