// Unit tests for the item/utility model: itemset helpers, noise laws,
// utility configurations (validation, derived quantities), the per-world
// adoption solver, and allocations.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/allocation.h"
#include "model/items.h"
#include "model/noise.h"
#include "model/utility.h"

namespace cwm {
namespace {

TEST(ItemsTest, SingletonAndContains) {
  EXPECT_EQ(SingletonSet(0), 1u);
  EXPECT_EQ(SingletonSet(3), 8u);
  EXPECT_TRUE(Contains(0b1010, 1));
  EXPECT_FALSE(Contains(0b1010, 0));
}

TEST(ItemsTest, SetSize) {
  EXPECT_EQ(SetSize(0), 0);
  EXPECT_EQ(SetSize(0b1011), 3);
}

TEST(ItemsTest, ForEachItemAscending) {
  std::vector<ItemId> seen;
  ForEachItem(0b1101, [&](ItemId i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<ItemId>{0, 2, 3}));
}

TEST(ItemsTest, ForEachSubsetCount) {
  int count = 0;
  ForEachSubset(0b111, [&](ItemSet) { ++count; });
  EXPECT_EQ(count, 8);
}

TEST(ItemsTest, ForEachSubsetAllAreSubsets) {
  ForEachSubset(0b1010, [&](ItemSet s) {
    EXPECT_EQ(s & ~0b1010, 0);
  });
}

TEST(NoiseTest, ZeroIsPointMass) {
  auto noise = NoiseDistribution::Zero();
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(noise.Sample(rng), 0.0);
  EXPECT_TRUE(noise.IsBounded());
  EXPECT_EQ(noise.MinSupport(), 0.0);
  EXPECT_EQ(noise.MaxSupport(), 0.0);
  EXPECT_DOUBLE_EQ(noise.ExpectedPositivePart(2.5), 2.5);
  EXPECT_DOUBLE_EQ(noise.ExpectedPositivePart(-2.5), 0.0);
}

TEST(NoiseTest, NormalMomentsAndUnbounded) {
  auto noise = NoiseDistribution::Normal(2.0);
  EXPECT_FALSE(noise.IsBounded());
  Rng rng(5);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = noise.Sample(rng);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 4.0, 0.1);
}

TEST(NoiseTest, ClampedNormalStaysInBounds) {
  auto noise = NoiseDistribution::ClampedNormal(1.0, 0.5);
  EXPECT_TRUE(noise.IsBounded());
  EXPECT_EQ(noise.MinSupport(), -0.5);
  EXPECT_EQ(noise.MaxSupport(), 0.5);
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = noise.Sample(rng);
    EXPECT_LE(std::abs(x), 0.5);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000, 0.0, 0.01);  // symmetric clamp keeps zero mean
}

TEST(NoiseTest, ClampedNormalExpectedPositivePartVsMonteCarlo) {
  auto noise = NoiseDistribution::ClampedNormal(0.4, 0.6);
  Rng rng(11);
  for (const double mu : {-0.5, -0.1, 0.0, 0.3, 1.0}) {
    double acc = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) acc += std::max(0.0, mu + noise.Sample(rng));
    EXPECT_NEAR(acc / n, noise.ExpectedPositivePart(mu), 0.01) << mu;
  }
}

TEST(NoiseTest, UniformSupportAndMean) {
  auto noise = NoiseDistribution::Uniform(0.7);
  EXPECT_TRUE(noise.IsBounded());
  EXPECT_EQ(noise.MinSupport(), -0.7);
  EXPECT_EQ(noise.MaxSupport(), 0.7);
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = noise.Sample(rng);
    EXPECT_LE(std::abs(x), 0.7);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000, 0.0, 0.01);
}

UtilityConfig TwoItems(double vi, double vj, double vij, double pi,
                       double pj) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, vi).SetItemValue(1, vj).SetItemPrice(0, pi).SetItemPrice(
      1, pj);
  b.SetBundleValue(0x3, vij);
  StatusOr<UtilityConfig> config = std::move(b).Build();
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

TEST(UtilityConfigTest, DetUtilityAndAdditivePrices) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 7.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(c.DetUtility(0x1), 1.0);
  EXPECT_NEAR(c.DetUtility(0x2), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(c.Price(0x3), 7.0);
  EXPECT_DOUBLE_EQ(c.DetUtility(0x3), 0.0);
  EXPECT_DOUBLE_EQ(c.DetUtility(kEmptyItemSet), 0.0);
}

TEST(UtilityConfigTest, RejectsNonMonotoneValue) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 5.0).SetItemValue(1, 3.0);
  b.SetBundleValue(0x3, 4.0);  // below V({0}) = 5: not monotone
  StatusOr<UtilityConfig> config = std::move(b).Build();
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), Status::Code::kInvalidArgument);
}

TEST(UtilityConfigTest, RejectsNonSubmodularValue) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 2.0).SetItemValue(1, 2.0);
  b.SetBundleValue(0x3, 5.0);  // 5 > 2 + 2: supermodular pair
  StatusOr<UtilityConfig> config = std::move(b).Build();
  ASSERT_FALSE(config.ok());
}

TEST(UtilityConfigTest, RejectsNonSubmodularTriple) {
  UtilityConfigBuilder b(3);
  b.SetItemValue(0, 3.0).SetItemValue(1, 3.0).SetItemValue(2, 3.0);
  b.SetBundleValue(0x3, 4.0);
  b.SetBundleValue(0x5, 4.0);
  b.SetBundleValue(0x6, 4.0);
  // marg(2 | {0,1}) = 3 > marg(2 | {0}) = 1: violates submodularity.
  b.SetBundleValue(0x7, 7.0);
  StatusOr<UtilityConfig> config = std::move(b).Build();
  ASSERT_FALSE(config.ok());
}

TEST(UtilityConfigTest, DefaultBundleCompletionIsMaxSingleton) {
  UtilityConfigBuilder b(3);
  b.SetItemValue(0, 1.0).SetItemValue(1, 5.0).SetItemValue(2, 3.0);
  StatusOr<UtilityConfig> config = std::move(b).Build();
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config.value().Value(0x7), 5.0);
  EXPECT_DOUBLE_EQ(config.value().Value(0x5), 3.0);
}

TEST(UtilityConfigTest, ExpectedTruncatedUtilityZeroNoise) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 7.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(c.ExpectedTruncatedUtility(0), 1.0);
  EXPECT_NEAR(c.ExpectedTruncatedUtility(1), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(c.UMin(), 0.9);
}

TEST(UtilityConfigTest, ExpectedTruncatedUtilityNormalNoise) {
  UtilityConfigBuilder b(1);
  b.SetItemValue(0, 1.0).SetItemPrice(0, 0.0);
  b.SetNoise(0, NoiseDistribution::Normal(1.0));
  const UtilityConfig c = std::move(b).Build().value();
  // E[max(0, 1 + Z)] = Phi(1) + phi(1) ~= 1.08332.
  EXPECT_NEAR(c.ExpectedTruncatedUtility(0), 1.08332, 1e-4);
}

TEST(UtilityConfigTest, UMaxDeterministicIsBestBundle) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 8.7, 3.0, 4.0);  // C3-like
  EXPECT_NEAR(c.UMax(), 1.7, 1e-12);
}

TEST(UtilityConfigTest, UMaxWithNoiseAtLeastDeterministicMax) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::Normal(1.0));
  const UtilityConfig c = std::move(b).Build().value();
  // E[max_I U+(I)] >= max(0, E[max single]) and noise adds mass; C1's
  // umax is around 1.5-1.7.
  const double umax = c.UMax(7, 40000);
  EXPECT_GT(umax, 1.0);
  EXPECT_LT(umax, 3.0);
}

TEST(UtilityConfigTest, SuperiorItemNeedsBoundedNoise) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::Normal(1.0));
  const UtilityConfig c = std::move(b).Build().value();
  EXPECT_FALSE(c.SuperiorItem().has_value());
}

TEST(UtilityConfigTest, SuperiorItemDetectedWithClampedNoise) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::ClampedNormal(0.01, 0.04));
  const UtilityConfig c = std::move(b).Build().value();
  // U(i)=1 +- 0.04 vs U(j)=0.9 +- 0.04: item 0 is superior.
  ASSERT_TRUE(c.SuperiorItem().has_value());
  EXPECT_EQ(*c.SuperiorItem(), 0);
}

TEST(UtilityConfigTest, NoSuperiorItemWhenGapTooSmall) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::ClampedNormal(0.1, 0.2));  // overlap
  const UtilityConfig c = std::move(b).Build().value();
  EXPECT_FALSE(c.SuperiorItem().has_value());
}

TEST(UtilityConfigTest, PureCompetitionDetection) {
  // C1-like: bundle utility negative -> pure.
  EXPECT_TRUE(TwoItems(4.0, 4.9, 4.9, 3.0, 4.0).IsPureCompetition());
  // C3-like: bundle utility 1.7 > max single -> soft.
  EXPECT_FALSE(TwoItems(4.0, 4.9, 8.7, 3.0, 4.0).IsPureCompetition());
}

TEST(UtilityConfigTest, PureCompetitionRequiresBoundedNoise) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::Normal(1.0));
  const UtilityConfig c = std::move(b).Build().value();
  // Normal noise can always make adding an item look good.
  EXPECT_FALSE(c.IsPureCompetition());
}

TEST(UtilityConfigTest, ItemsByTruncatedUtilityDesc) {
  UtilityConfigBuilder b(3);
  b.SetItemValue(0, 1.0).SetItemValue(1, 3.0).SetItemValue(2, 2.0);
  const UtilityConfig c = std::move(b).Build().value();
  EXPECT_EQ(c.ItemsByTruncatedUtilityDesc(), (std::vector<ItemId>{1, 2, 0}));
}

TEST(WorldUtilityTableTest, UtilitiesIncludeNoise) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 7.0, 3.0, 4.0);
  const WorldUtilityTable table(c, {0.5, -0.2});
  EXPECT_DOUBLE_EQ(table.Utility(0x1), 1.5);
  EXPECT_NEAR(table.Utility(0x2), 0.7, 1e-12);
  EXPECT_NEAR(table.Utility(0x3), 0.3, 1e-12);  // 0 + 0.5 - 0.2
}

TEST(WorldUtilityTableTest, BestAdoptionPicksMaxUtility) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 7.0, 3.0, 4.0);
  const WorldUtilityTable table(c, {0.0, 0.0});
  EXPECT_EQ(table.BestAdoption(/*desired=*/0x3, /*adopted=*/0), 0x1);
}

TEST(WorldUtilityTableTest, BestAdoptionRespectsProgressiveConstraint) {
  const UtilityConfig c = TwoItems(4.0, 4.9, 7.0, 3.0, 4.0);
  const WorldUtilityTable table(c, {0.0, 0.0});
  // Having adopted item 1 (utility 0.9), the node cannot drop it; adding
  // item 0 gives the bundle utility 0 < 0.9, so it stays at {1}.
  EXPECT_EQ(table.BestAdoption(0x3, 0x2), 0x2);
}

TEST(WorldUtilityTableTest, BestAdoptionRejectsNegative) {
  const UtilityConfig c = TwoItems(2.0, 2.0, 2.0, 3.0, 3.0);  // all U < 0
  const WorldUtilityTable table(c, {0.0, 0.0});
  EXPECT_EQ(table.BestAdoption(0x3, 0), kEmptyItemSet);
}

TEST(WorldUtilityTableTest, BestAdoptionTiePrefersFewerItems) {
  // Bundle ties the best singleton: prefer the singleton.
  const UtilityConfig c = TwoItems(4.0, 3.0, 5.0, 1.0, 2.0);
  // U({0}) = 3, U({1}) = 1, U({0,1}) = 5 - 3 = 2 < 3: stays {0}.
  const WorldUtilityTable table(c, {0.0, 0.0});
  EXPECT_EQ(table.BestAdoption(0x3, 0), 0x1);
}

TEST(WorldUtilityTableTest, BestAdoptionGrowsWhenBeneficial) {
  // Soft competition: bundle strictly better than either item.
  const UtilityConfig c = TwoItems(4.0, 4.9, 8.7, 3.0, 4.0);
  const WorldUtilityTable table(c, {0.0, 0.0});
  EXPECT_EQ(table.BestAdoption(0x3, 0x1), 0x3);
  EXPECT_EQ(table.BestAdoption(0x3, 0), 0x3);
}

TEST(WorldUtilityTableTest, SamplingConstructorMatchesManualNoise) {
  UtilityConfigBuilder b(2);
  b.SetItemValue(0, 4.0).SetItemValue(1, 4.9);
  b.SetItemPrice(0, 3.0).SetItemPrice(1, 4.0);
  b.SetBundleValue(0x3, 4.9);
  b.SetAllNoise(NoiseDistribution::Normal(1.0));
  const UtilityConfig c = std::move(b).Build().value();
  Rng rng1(99), rng2(99);
  const WorldUtilityTable sampled(c, rng1);
  const double n0 = c.Noise(0).Sample(rng2);
  const double n1 = c.Noise(1).Sample(rng2);
  const WorldUtilityTable manual(c, {n0, n1});
  for (ItemSet s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(sampled.Utility(s), manual.Utility(s));
  }
}

TEST(AllocationTest, AddAndDeduplicate) {
  Allocation a(2);
  a.Add(5, 0);
  a.Add(5, 0);
  a.Add(7, 0);
  a.Add(5, 1);
  EXPECT_EQ(a.SeedsOf(0).size(), 2u);
  EXPECT_EQ(a.SeedsOf(1).size(), 1u);
  EXPECT_EQ(a.TotalPairs(), 3u);
}

TEST(AllocationTest, SeedNodesSortedUnique) {
  Allocation a(2);
  a.Add(9, 0);
  a.Add(3, 1);
  a.Add(9, 1);
  EXPECT_EQ(a.SeedNodes(), (std::vector<NodeId>{3, 9}));
}

TEST(AllocationTest, SeededItemsets) {
  Allocation a(3);
  a.Add(4, 0);
  a.Add(4, 2);
  a.Add(6, 1);
  const auto seeded = a.SeededItemsets();
  ASSERT_EQ(seeded.size(), 2u);
  EXPECT_EQ(seeded[0].first, 4u);
  EXPECT_EQ(seeded[0].second, 0b101);
  EXPECT_EQ(seeded[1].first, 6u);
  EXPECT_EQ(seeded[1].second, 0b010);
}

TEST(AllocationTest, UnionMergesAndDedups) {
  Allocation a(2), b(2);
  a.Add(1, 0);
  b.Add(1, 0);
  b.Add(2, 1);
  const Allocation u = Allocation::Union(a, b);
  EXPECT_EQ(u.SeedsOf(0).size(), 1u);
  EXPECT_EQ(u.SeedsOf(1).size(), 1u);
}

TEST(AllocationTest, RespectsBudgets) {
  Allocation a(2);
  a.Add(1, 0);
  a.Add(2, 0);
  a.Add(3, 1);
  EXPECT_TRUE(a.RespectsBudgets({2, 1}));
  EXPECT_FALSE(a.RespectsBudgets({1, 1}));
}

TEST(AllocationTest, EmptyAndToString) {
  Allocation a(2);
  EXPECT_TRUE(a.Empty());
  a.Add(3, 1);
  EXPECT_FALSE(a.Empty());
  EXPECT_EQ(a.ToString(), "{i0: [], i1: [3]}");
}

}  // namespace
}  // namespace cwm
