#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bitmap.h"
#include "common/random.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace gum {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad n");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::Infeasible("no solution");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kInfeasible);
  EXPECT_EQ(t.message(), "no solution");
  EXPECT_EQ(s.message(), "no solution");  // source intact
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnbounded); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  GUM_ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(77);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ---------- Bitmap ----------

TEST(BitmapTest, SetTestReset) {
  Bitmap bm(200);
  EXPECT_FALSE(bm.Test(63));
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_EQ(bm.Count(), 3u);
  bm.Reset(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.Count(), 2u);
}

TEST(BitmapTest, TestAndSetReportsFirstSet) {
  Bitmap bm(10);
  EXPECT_TRUE(bm.TestAndSet(3));
  EXPECT_FALSE(bm.TestAndSet(3));
  EXPECT_TRUE(bm.Test(3));
}

TEST(BitmapTest, ForEachSetAscendingOrder) {
  Bitmap bm(300);
  const std::set<size_t> expected = {0, 1, 63, 64, 65, 128, 299};
  for (size_t i : expected) bm.Set(i);
  std::vector<size_t> seen;
  bm.ForEachSet([&](size_t i) { seen.push_back(i); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::set<size_t>(seen.begin(), seen.end()), expected);
}

TEST(BitmapTest, ForEachSetInRangeMatchesFilteredFullScan) {
  Bitmap bm(300);
  for (size_t i : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u, 200u, 299u}) {
    bm.Set(i);
  }
  // Aligned and mid-word boundaries, empty and past-the-end ranges.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {0, 64}, {64, 128}, {1, 63}, {63, 65},
      {65, 200}, {128, 1000}, {10, 10}, {299, 300}};
  for (const auto& [begin, end] : ranges) {
    std::vector<size_t> expected;
    bm.ForEachSet([&](size_t i) {
      if (i >= begin && i < end) expected.push_back(i);
    });
    std::vector<size_t> seen;
    bm.ForEachSetInRange(begin, end, [&](size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, expected) << "range [" << begin << ", " << end << ")";
  }
}

TEST(BitmapTest, ClearAndAny) {
  Bitmap bm(100);
  EXPECT_FALSE(bm.Any());
  bm.Set(42);
  EXPECT_TRUE(bm.Any());
  bm.Clear();
  EXPECT_FALSE(bm.Any());
  EXPECT_EQ(bm.Count(), 0u);
}

// ---------- table printer ----------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"x", "1"});
  tp.AddRow({"longer", "2.5"});
  std::ostringstream os;
  tp.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2.5   |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(10.0, 0), "10");
}

}  // namespace
}  // namespace gum
