#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>

#include "synthetic_oracle.hpp"

namespace avgpipe::data {
namespace {

TEST(SliceMicroBatchesTest, EvenSplit) {
  Batch b{tensor::Tensor({8, 3}), std::vector<int>(8, 0)};
  auto micro = slice_micro_batches(b, 4);
  ASSERT_EQ(micro.size(), 4u);
  for (const auto& m : micro) {
    EXPECT_EQ(m.batch_size(), 2u);
    EXPECT_EQ(m.targets.size(), 2u);
  }
}

TEST(SliceMicroBatchesTest, UnevenSplitDiffersByAtMostOne) {
  Batch b{tensor::Tensor({10, 2}), std::vector<int>(10, 0)};
  auto micro = slice_micro_batches(b, 4);
  ASSERT_EQ(micro.size(), 4u);
  std::size_t total = 0, mn = 100, mx = 0;
  for (const auto& m : micro) {
    total += m.batch_size();
    mn = std::min(mn, m.batch_size());
    mx = std::max(mx, m.batch_size());
  }
  EXPECT_EQ(total, 10u);
  EXPECT_LE(mx - mn, 1u);
}

TEST(SliceMicroBatchesTest, PreservesSampleContent) {
  tensor::Tensor inputs({4, 2});
  for (std::size_t i = 0; i < 8; ++i) inputs[i] = static_cast<double>(i);
  Batch b{inputs, {10, 11, 12, 13}};
  auto micro = slice_micro_batches(b, 2);
  EXPECT_EQ(micro[1].inputs[0], 4.0);  // row 2 starts at flat index 4
  EXPECT_EQ(micro[1].targets[0], 12);
}

TEST(SliceMicroBatchesTest, LmTargetsKeepPerSampleStride) {
  // [B=4, S=3] inputs with 3 targets per sample.
  Batch b{tensor::Tensor({4, 3}), std::vector<int>(12, 0)};
  for (int i = 0; i < 12; ++i) b.targets[static_cast<std::size_t>(i)] = i;
  auto micro = slice_micro_batches(b, 2);
  EXPECT_EQ(micro[0].targets.size(), 6u);
  EXPECT_EQ(micro[1].targets[0], 6);
}

TEST(SliceMicroBatchesTest, TooManyMicroBatchesThrows) {
  Batch b{tensor::Tensor({2, 2}), {0, 1}};
  EXPECT_THROW(slice_micro_batches(b, 3), Error);
}

TEST(DataLoaderTest, DeterministicShufflePerEpoch) {
  SyntheticFeatures ds(64, 4, 2, 7);
  DataLoader l1(ds, 8, 99), l2(ds, 8, 99);
  const Batch a = l1.batch(3, 2);
  const Batch b = l2.batch(3, 2);
  EXPECT_EQ(a.inputs.max_abs_diff(b.inputs), 0.0);
  EXPECT_EQ(a.targets, b.targets);
}

TEST(DataLoaderTest, EpochsDiffer) {
  SyntheticFeatures ds(64, 4, 2, 7);
  DataLoader loader(ds, 8, 99);
  const Batch a = loader.batch(0, 0);
  const Batch b = loader.batch(1, 0);
  EXPECT_GT(a.inputs.max_abs_diff(b.inputs), 0.0);
}

TEST(DataLoaderTest, BatchesPerEpoch) {
  SyntheticFeatures ds(100, 4, 2, 7);
  DataLoader loader(ds, 8, 1);
  EXPECT_EQ(loader.batches_per_epoch(), 12u);
  EXPECT_THROW(loader.batch(0, 12), Error);
}

TEST(SyntheticFeaturesTest, ClassesAreSeparable) {
  // Samples of the same class cluster around a centroid: the mean distance
  // within a class should be far below the distance between class means.
  SyntheticFeatures ds(200, 8, 2, 5, /*noise=*/0.1);
  Batch all = ds.make_batch([] {
    std::vector<std::size_t> idx(200);
    for (std::size_t i = 0; i < 200; ++i) idx[i] = i;
    return idx;
  }());
  std::vector<double> mean0(8, 0), mean1(8, 0);
  int n0 = 0, n1 = 0;
  for (std::size_t r = 0; r < 200; ++r) {
    auto& m = all.targets[r] == 0 ? mean0 : mean1;
    (all.targets[r] == 0 ? n0 : n1)++;
    for (std::size_t c = 0; c < 8; ++c) m[c] += all.inputs.at(r, c);
  }
  double dist = 0;
  for (std::size_t c = 0; c < 8; ++c) {
    dist += std::pow(mean0[c] / n0 - mean1[c] / n1, 2);
  }
  EXPECT_GT(std::sqrt(dist), 1.0);
}

TEST(SyntheticSeqTest, DeterministicAndInRange) {
  SyntheticSeqClassification ds(64, 40, 10, 4, 11);
  auto batch = ds.make_batch({0, 1, 2, 3});
  auto batch2 = ds.make_batch({0, 1, 2, 3});
  EXPECT_EQ(batch.inputs.max_abs_diff(batch2.inputs), 0.0);
  for (auto v : batch.inputs.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 40.0);
  }
}

TEST(SyntheticSeqTest, ClassTokensAreBiased) {
  SyntheticSeqClassification ds(400, 40, 20, 4, 11, /*signal=*/0.9);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < 400; i += 4) idx.push_back(i);  // class 0 only
  auto batch = ds.make_batch(idx);
  // Class 0 owns tokens [0, 10); ~90 % of tokens should land there.
  std::size_t in_bucket = 0, total = 0;
  for (auto v : batch.inputs.data()) {
    ++total;
    if (v < 10.0) ++in_bucket;
  }
  EXPECT_GT(static_cast<double>(in_bucket) / total, 0.8);
}

TEST(SyntheticPairTest, LabelsBalanced) {
  SyntheticPairClassification ds(100, 40, 10, 4, 3);
  std::vector<std::size_t> idx(100);
  for (std::size_t i = 0; i < 100; ++i) idx[i] = i;
  auto batch = ds.make_batch(idx);
  int ones = 0;
  for (int t : batch.targets) ones += t;
  EXPECT_EQ(ones, 50);
}

TEST(SyntheticPairTest, OddSeqLenThrows) {
  EXPECT_THROW(SyntheticPairClassification(10, 40, 7, 4, 3), Error);
}

// -- per-sample engine ---------------------------------------------------------

TEST(PrefixMt19937Test, MatchesStdEngineAcrossBothTwistBoundaries) {
  // 700 draws cross draw 156 (the end of the seeding prefix) and 312 and
  // 624 (whole twist rounds); the seeds include both extremes.
  std::vector<std::uint64_t> seeds = {0, 1,
                                      std::numeric_limits<std::uint64_t>::max()};
  std::mt19937_64 seed_gen(2024);
  while (seeds.size() < 1003) seeds.push_back(seed_gen());
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 expected(seed);
    PrefixMt19937_64 actual(seed);
    for (int draw = 0; draw < 700; ++draw) {
      const std::uint64_t want = expected();
      const std::uint64_t got = actual();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << draw << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(PrefixMt19937Test, DistributionsConsumeItLikeTheStdEngine) {
  Rng rng(77);
  PrefixMt19937_64 e(77);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(rng.normal(), std::normal_distribution<double>(0.0, 1.0)(e));
    ASSERT_EQ(rng.uniform_int(3, 1000),
              std::uniform_int_distribution<std::int64_t>(3, 1000)(e));
    ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(e));
  }
}

// Sample indices near zero, past 2^40 (the windows trainbench trains on) and
// at the top of the 62-bit range.
std::vector<std::size_t> oracle_indices() {
  std::vector<std::size_t> idx = {0, 1, 2, 3, 17, 1000};
  const std::size_t far = std::size_t{1} << 40;
  for (std::size_t i = 0; i < 24; ++i) idx.push_back(far + 7919 * i);
  idx.push_back((std::size_t{1} << 62) - 1);
  idx.push_back(std::size_t{3} << 51);
  return idx;
}

TEST(SyntheticOracleTest, FeaturesMatchPerSampleRngByteForByte) {
  // dim 16 is trainbench's mlp_overhead task; dim 160 needs ~400 draws per
  // sample, past both the 156-draw prefix and a full twist round.
  for (const std::size_t dim : {std::size_t{16}, std::size_t{160}}) {
    SCOPED_TRACE(dim);
    const SyntheticFeatures ds(std::size_t{1} << 62, dim, 4, 7, 3.0);
    const testutil::FeaturesOracle oracle(dim, 4, 7, 3.0);
    const auto idx = oracle_indices();
    EXPECT_TRUE(testutil::same_bytes(ds.make_batch(idx),
                                     oracle.make_batch(idx)));
  }
}

TEST(SyntheticOracleTest, SeqMatchesPerSampleRngByteForByte) {
  for (const std::size_t seq_len : {std::size_t{10}, std::size_t{128}}) {
    SCOPED_TRACE(seq_len);
    const SyntheticSeqClassification ds(std::size_t{1} << 62, 40, seq_len, 4,
                                        11, 0.9);
    const testutil::SeqOracle oracle(40, seq_len, 4, 11, 0.9);
    const auto idx = oracle_indices();
    EXPECT_TRUE(testutil::same_bytes(ds.make_batch(idx),
                                     oracle.make_batch(idx)));
  }
}

TEST(SyntheticOracleTest, PairMatchesPerSampleRngByteForByte) {
  for (const std::size_t seq_len : {std::size_t{16}, std::size_t{128}}) {
    SCOPED_TRACE(seq_len);
    const SyntheticPairClassification ds(std::size_t{1} << 62, 96, seq_len, 6,
                                         3);
    const testutil::PairOracle oracle(96, seq_len, 6, 3);
    const auto idx = oracle_indices();
    EXPECT_TRUE(testutil::same_bytes(ds.make_batch(idx),
                                     oracle.make_batch(idx)));
  }
}

TEST(SyntheticLmTest, TargetsAreNextTokens) {
  SyntheticLanguageModel ds(1000, 20, 10, 5);
  auto batch = ds.make_batch({0, 1});
  ASSERT_EQ(batch.targets.size(), 20u);
  // target[t] == input[t+1] within a window.
  for (std::size_t t = 0; t + 1 < 10; ++t) {
    EXPECT_EQ(batch.targets[t],
              static_cast<int>(batch.inputs[t + 1]));
  }
}

TEST(SyntheticLmTest, EntropyFloorIsPositiveAndBelowUniform) {
  SyntheticLanguageModel ds(500, 20, 10, 5, /*concentration=*/0.2);
  EXPECT_GT(ds.entropy_floor(), 0.0);
  EXPECT_LT(ds.entropy_floor(), std::log(20.0));
}

TEST(SyntheticLmTest, CorpusUsesWholeVocab) {
  SyntheticLanguageModel ds(5000, 10, 10, 5);
  std::set<int> seen;
  auto batch = ds.make_batch({0, 1, 2, 3, 4, 5, 6, 7});
  for (auto v : batch.inputs.data()) seen.insert(static_cast<int>(v));
  EXPECT_GT(seen.size(), 5u);
}

}  // namespace
}  // namespace avgpipe::data
