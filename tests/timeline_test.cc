#include <gtest/gtest.h>

#include <sstream>

#include "sim/timeline.h"

namespace gum::sim {
namespace {

TEST(TimelineTest, AddAndGet) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 5.0);
  tl.Add(0, 0, TimeCategory::kCompute, 2.0);
  tl.Add(0, 1, TimeCategory::kCommunication, 3.0);
  EXPECT_DOUBLE_EQ(tl.Get(0, 0, TimeCategory::kCompute), 7.0);
  EXPECT_DOUBLE_EQ(tl.Get(0, 1, TimeCategory::kCommunication), 3.0);
  EXPECT_DOUBLE_EQ(tl.Get(0, 1, TimeCategory::kCompute), 0.0);
}

TEST(TimelineTest, IterationWallIsDeviceMax) {
  Timeline tl(3);
  tl.Add(0, 0, TimeCategory::kCompute, 4.0);
  tl.Add(0, 1, TimeCategory::kCompute, 9.0);
  tl.Add(0, 2, TimeCategory::kOverhead, 1.0);
  EXPECT_DOUBLE_EQ(tl.IterationWall(0), 9.0);
}

TEST(TimelineTest, TotalsAcrossIterations) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 1.0);
  tl.Add(1, 0, TimeCategory::kCompute, 2.0);
  tl.Add(1, 1, TimeCategory::kSerialization, 3.0);
  EXPECT_EQ(tl.num_iterations(), 2);
  EXPECT_DOUBLE_EQ(tl.TotalByCategory(TimeCategory::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(tl.TotalByCategory(TimeCategory::kSerialization), 3.0);
  EXPECT_DOUBLE_EQ(tl.TotalWall(), 1.0 + 3.0);
}

TEST(TimelineTest, StallFractionBalancedIsZero) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 5.0);
  tl.Add(0, 1, TimeCategory::kCompute, 5.0);
  EXPECT_DOUBLE_EQ(tl.StallFraction(), 0.0);
}

TEST(TimelineTest, StallFractionSkewed) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 10.0);
  tl.Add(0, 1, TimeCategory::kCompute, 5.0);
  // busy = 15, capacity = 10 * 2 => stall 25%.
  EXPECT_NEAR(tl.StallFraction(), 0.25, 1e-12);
}

TEST(TimelineTest, IdleDevicesNotCountedInStall) {
  Timeline tl(4);
  tl.Add(0, 0, TimeCategory::kCompute, 10.0);
  // Devices 1-3 completely idle: treated as not participating.
  EXPECT_DOUBLE_EQ(tl.StallFraction(), 0.0);
  EXPECT_EQ(tl.ActiveDevices(0), 1);
}

TEST(TimelineTest, SparseIterationGrowth) {
  Timeline tl(1);
  tl.Add(5, 0, TimeCategory::kOverhead, 1.0);
  EXPECT_EQ(tl.num_iterations(), 6);
  EXPECT_DOUBLE_EQ(tl.IterationWall(2), 0.0);
}

TEST(TimelineTest, ReadsPastTheLastChargedIterationAreIdle) {
  // A superstep that charges no device leaves its iteration ungrown; its
  // reads see no busy time, as Add's lazy growth implies.
  Timeline tl(2);
  tl.Add(1, 0, TimeCategory::kCompute, 2.0);
  ASSERT_EQ(tl.num_iterations(), 2);
  for (const int iter : {2, 3, 1000}) {
    EXPECT_EQ(tl.Get(iter, 1, TimeCategory::kCompute), 0.0);
    EXPECT_EQ(tl.DeviceIterationTotal(iter, 0), 0.0);
    EXPECT_EQ(tl.IterationWall(iter), 0.0);
    EXPECT_EQ(tl.ActiveDevices(iter), 0);
  }
  EXPECT_EQ(tl.num_iterations(), 2) << "reads never grow the timeline";
  EXPECT_EQ(tl.IterationWall(1), 2.0);
  EXPECT_EQ(tl.ActiveDevices(1), 1);
  const Timeline empty(3);
  EXPECT_EQ(empty.IterationWall(0), 0.0);
  EXPECT_EQ(empty.ActiveDevices(0), 0);
  EXPECT_EQ(empty.Get(0, 2, TimeCategory::kOverhead), 0.0);
}

TEST(TimelineDeathTest, NegativeIterationOrBadDeviceFailsCheck) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 1.0);
  EXPECT_DEATH(tl.Get(-1, 0, TimeCategory::kCompute), "Check failed");
  EXPECT_DEATH(tl.Get(0, 2, TimeCategory::kCompute), "Check failed");
  // Past the last iteration the device is still checked.
  EXPECT_DEATH(tl.Get(7, -1, TimeCategory::kCompute), "Check failed");
  EXPECT_DEATH(tl.DeviceIterationTotal(0, 2), "Check failed");
  EXPECT_DEATH(tl.DeviceIterationTotal(-1, 0), "Check failed");
  EXPECT_DEATH(tl.IterationWall(-1), "Check failed");
  EXPECT_DEATH(tl.ActiveDevices(-1), "Check failed");
}

TEST(TimelineTest, RenderAsciiShowsDevices) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 10.0);
  tl.Add(0, 1, TimeCategory::kCompute, 1.0);
  const std::string art = tl.RenderAscii();
  EXPECT_NE(art.find("GPU0"), std::string::npos);
  EXPECT_NE(art.find("GPU1"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}


TEST(TimelineTest, WriteCsvRoundTrips) {
  Timeline tl(2);
  tl.Add(0, 0, TimeCategory::kCompute, 1.5);
  tl.Add(0, 0, TimeCategory::kOverhead, 0.5);
  tl.Add(1, 1, TimeCategory::kCommunication, 2.0);
  std::ostringstream os;
  tl.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("iteration,device,compute_ms"), std::string::npos);
  EXPECT_NE(csv.find("0,0,1.5,0,0,0.5"), std::string::npos);
  EXPECT_NE(csv.find("1,1,0,2,0,0"), std::string::npos);
  // Idle (iteration, device) cells are omitted.
  EXPECT_EQ(csv.find("0,1,"), std::string::npos);
}

TEST(TimelineTest, CategoryNames) {
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kCompute), "computation");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kCommunication),
               "communication");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kSerialization),
               "serialization");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kOverhead), "overhead");
}

}  // namespace
}  // namespace gum::sim
