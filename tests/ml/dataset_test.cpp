#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/expect.hpp"

namespace droppkt::ml {
namespace {

Dataset tiny() {
  Dataset d({"f0", "f1"}, 3);
  d.add_row({1.0, 2.0}, 0);
  d.add_row({3.0, 4.0}, 1);
  d.add_row({5.0, 6.0}, 2);
  d.add_row({7.0, 8.0}, 1);
  return d;
}

TEST(Dataset, BasicAccessors) {
  const auto d = tiny();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.row(1)[0], 3.0);
  EXPECT_EQ(d.label(2), 2);
}

TEST(Dataset, ClassCounts) {
  const auto d = tiny();
  const auto counts = d.class_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Dataset, ValidatesConstruction) {
  EXPECT_THROW(Dataset({}, 2), droppkt::ContractViolation);
  EXPECT_THROW(Dataset({"f"}, 0), droppkt::ContractViolation);
}

TEST(Dataset, ValidatesRows) {
  Dataset d({"f0", "f1"}, 2);
  EXPECT_THROW(d.add_row({1.0}, 0), droppkt::ContractViolation);
  EXPECT_THROW(d.add_row({1.0, 2.0}, 2), droppkt::ContractViolation);
  EXPECT_THROW(d.add_row({1.0, 2.0}, -1), droppkt::ContractViolation);
}

TEST(Dataset, OutOfRangeAccessThrows) {
  const auto d = tiny();
  EXPECT_THROW(d.row(4), droppkt::ContractViolation);
  EXPECT_THROW(d.label(4), droppkt::ContractViolation);
}

TEST(Dataset, SubsetSelectsRows) {
  const auto d = tiny();
  const std::vector<std::size_t> idx{2, 0};
  const auto s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.row(0)[0], 5.0);
  EXPECT_EQ(s.label(1), 0);
}

TEST(Dataset, SubsetAllowsRepeats) {
  const auto d = tiny();
  const std::vector<std::size_t> idx{1, 1, 1};
  const auto s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.label(2), 1);
}

TEST(Dataset, SelectFeaturesReordersColumns) {
  const auto d = tiny();
  const auto s = d.select_features({"f1", "f0"});
  EXPECT_EQ(s.num_features(), 2u);
  EXPECT_EQ(s.row(0)[0], 2.0);
  EXPECT_EQ(s.row(0)[1], 1.0);
  EXPECT_EQ(s.feature_names()[0], "f1");
}

TEST(Dataset, SelectFeaturesSubset) {
  const auto d = tiny();
  const auto s = d.select_features({"f1"});
  EXPECT_EQ(s.num_features(), 1u);
  EXPECT_EQ(s.row(3)[0], 8.0);
  EXPECT_EQ(s.label(3), d.label(3));
}

TEST(Dataset, SelectUnknownFeatureThrows) {
  const auto d = tiny();
  EXPECT_THROW(d.select_features({"nope"}), droppkt::ContractViolation);
}

TEST(StratifiedFolds, PartitionCoversAllIndices) {
  Dataset d({"x"}, 2);
  for (int i = 0; i < 100; ++i) d.add_row({static_cast<double>(i)}, i % 2);
  util::Rng rng(1);
  const auto folds = stratified_folds(d, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<std::size_t> all;
  for (const auto& f : folds) {
    for (auto i : f) {
      EXPECT_TRUE(all.insert(i).second) << "index appears in two folds";
    }
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(StratifiedFolds, PreservesClassBalance) {
  Dataset d({"x"}, 2);
  // 80/20 imbalance.
  for (int i = 0; i < 100; ++i) d.add_row({static_cast<double>(i)}, i < 80 ? 0 : 1);
  util::Rng rng(2);
  const auto folds = stratified_folds(d, 5, rng);
  for (const auto& f : folds) {
    int minority = 0;
    for (auto i : f) minority += d.label(i);
    EXPECT_EQ(minority, 4);  // exactly 20% of each 20-row fold
  }
}

TEST(StratifiedFolds, FoldSizesBalanced) {
  Dataset d({"x"}, 3);
  for (int i = 0; i < 103; ++i) d.add_row({0.0}, i % 3);
  util::Rng rng(3);
  const auto folds = stratified_folds(d, 5, rng);
  for (const auto& f : folds) {
    EXPECT_GE(f.size(), 19u);
    EXPECT_LE(f.size(), 23u);
  }
}

TEST(StratifiedFolds, Validates) {
  Dataset d({"x"}, 2);
  d.add_row({0.0}, 0);
  util::Rng rng(4);
  EXPECT_THROW(stratified_folds(d, 1, rng), droppkt::ContractViolation);
  EXPECT_THROW(stratified_folds(d, 5, rng), droppkt::ContractViolation);
}

TEST(FoldComplement, Complementary) {
  const std::vector<std::size_t> fold{1, 3};
  const auto rest = fold_complement(5, fold);
  EXPECT_EQ(rest, (std::vector<std::size_t>{0, 2, 4}));
}

TEST(FoldComplement, RejectsOutOfRange) {
  const std::vector<std::size_t> fold{7};
  EXPECT_THROW(fold_complement(5, fold), droppkt::ContractViolation);
}

}  // namespace
}  // namespace droppkt::ml
