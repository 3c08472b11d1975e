#include "sensors/dataset.h"

#include <gtest/gtest.h>

namespace magneto::sensors {
namespace {

FeatureDataset MakeDataset() {
  FeatureDataset ds;
  ds.Append({1, 2}, 0);
  ds.Append({3, 4}, 1);
  ds.Append({5, 6}, 0);
  ds.Append({7, 8}, 1);
  ds.Append({9, 10}, 2);
  return ds;
}

TEST(FeatureDatasetTest, AppendAndAccess) {
  FeatureDataset ds = MakeDataset();
  EXPECT_EQ(ds.size(), 5u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_FLOAT_EQ(ds.Row(2)[0], 5.0f);
  EXPECT_EQ(ds.Label(2), 0);
  EXPECT_EQ(ds.RowVector(4), (std::vector<float>{9, 10}));
}

TEST(FeatureDatasetTest, ToMatrix) {
  FeatureDataset ds = MakeDataset();
  Matrix m = ds.ToMatrix();
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m.At(3, 1), 8.0f);
}

TEST(FeatureDatasetTest, FirstAppendFixesDim) {
  FeatureDataset ds;
  ds.Append({1, 2, 3}, 0);
  EXPECT_EQ(ds.dim(), 3u);
}

TEST(FeatureDatasetDeathTest, DimMismatchAborts) {
  FeatureDataset ds;
  ds.Append({1, 2}, 0);
  EXPECT_DEATH(ds.Append({1, 2, 3}, 0), "Check failed");
}

TEST(FeatureDatasetTest, MergePreservesExamples) {
  FeatureDataset a = MakeDataset();
  FeatureDataset b;
  b.Append({11, 12}, 3);
  a.Merge(b);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(a.Label(5), 3);
  // Merging into empty adopts the other.
  FeatureDataset c;
  c.Merge(a);
  EXPECT_EQ(c.size(), 6u);
  // Merging empty is a no-op.
  a.Merge(FeatureDataset{});
  EXPECT_EQ(a.size(), 6u);
}

TEST(FeatureDatasetTest, ClassCountsAndClasses) {
  FeatureDataset ds = MakeDataset();
  auto counts = ds.ClassCounts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(ds.Classes(), (std::vector<ActivityId>{0, 1, 2}));
}

TEST(FeatureDatasetTest, FilterByClass) {
  FeatureDataset ds = MakeDataset();
  FeatureDataset zeros = ds.FilterByClass(0);
  EXPECT_EQ(zeros.size(), 2u);
  for (ActivityId label : zeros.labels()) EXPECT_EQ(label, 0);
  FeatureDataset none = ds.FilterByClass(99);
  EXPECT_TRUE(none.empty());
}

TEST(FeatureDatasetTest, FilterByClasses) {
  FeatureDataset ds = MakeDataset();
  FeatureDataset sub = ds.FilterByClasses({0, 2});
  EXPECT_EQ(sub.size(), 3u);
}

TEST(FeatureDatasetTest, ShufflePreservesPairing) {
  FeatureDataset ds = MakeDataset();
  Rng rng(5);
  ds.Shuffle(&rng);
  EXPECT_EQ(ds.size(), 5u);
  // Feature/label association must survive: each row uniquely identifies its
  // original label in MakeDataset.
  for (size_t i = 0; i < ds.size(); ++i) {
    const float first = ds.Row(i)[0];
    if (first == 1.0f || first == 5.0f) {
      EXPECT_EQ(ds.Label(i), 0);
    }
    if (first == 3.0f || first == 7.0f) {
      EXPECT_EQ(ds.Label(i), 1);
    }
    if (first == 9.0f) {
      EXPECT_EQ(ds.Label(i), 2);
    }
  }
}

TEST(FeatureDatasetTest, StratifiedSplitBalancesClasses) {
  FeatureDataset ds;
  for (int i = 0; i < 40; ++i) ds.Append({static_cast<float>(i)}, i % 2);
  Rng rng(9);
  auto [train, test] = ds.StratifiedSplit(0.75, &rng);
  EXPECT_EQ(train.size(), 30u);
  EXPECT_EQ(test.size(), 10u);
  auto train_counts = train.ClassCounts();
  EXPECT_EQ(train_counts[0], 15u);
  EXPECT_EQ(train_counts[1], 15u);
  auto test_counts = test.ClassCounts();
  EXPECT_EQ(test_counts[0], 5u);
  EXPECT_EQ(test_counts[1], 5u);
}

TEST(FeatureDatasetTest, StratifiedSplitDisjoint) {
  FeatureDataset ds;
  for (int i = 0; i < 20; ++i) ds.Append({static_cast<float>(i)}, 0);
  Rng rng(11);
  auto [train, test] = ds.StratifiedSplit(0.5, &rng);
  // Every original row appears exactly once across the halves.
  std::vector<int> seen(20, 0);
  for (size_t i = 0; i < train.size(); ++i) {
    ++seen[static_cast<int>(train.Row(i)[0])];
  }
  for (size_t i = 0; i < test.size(); ++i) {
    ++seen[static_cast<int>(test.Row(i)[0])];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(FeatureDatasetTest, SubsamplePerClassCaps) {
  FeatureDataset ds;
  for (int i = 0; i < 30; ++i) ds.Append({static_cast<float>(i)}, i % 3);
  Rng rng(13);
  FeatureDataset sub = ds.SubsamplePerClass(4, &rng);
  auto counts = sub.ClassCounts();
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[1], 4u);
  EXPECT_EQ(counts[2], 4u);
  // Classes smaller than the cap keep everything.
  FeatureDataset small;
  small.Append({1}, 0);
  FeatureDataset kept = small.SubsamplePerClass(10, &rng);
  EXPECT_EQ(kept.size(), 1u);
}

}  // namespace
}  // namespace magneto::sensors
