#pragma once

/// \file synthetic_oracle.hpp
/// Reference generators for the per-sample synthetic tasks: the original
/// code, which draws every sample from a full `Rng` (a `std::mt19937_64`
/// seeded for that sample). The library's `SyntheticFeatures`,
/// `SyntheticSeqClassification` and `SyntheticPairClassification` must
/// produce the same batches byte for byte (tests/data_test.cpp);
/// `micro_benchmarks --kernels-only` times them against these.

#include <cstring>

#include "data/synthetic.hpp"

namespace avgpipe::testutil {

class FeaturesOracle {
 public:
  FeaturesOracle(std::size_t dim, std::size_t classes, std::uint64_t seed,
                 double noise = 0.5)
      : dim_(dim), classes_(classes), seed_(seed), noise_(noise) {
    Rng rng(seed);
    centroids_.resize(classes * dim);
    for (auto& c : centroids_) c = rng.normal() * 2.0;
  }

  data::Batch make_batch(const std::vector<std::size_t>& indices) const {
    tensor::Tensor inputs({indices.size(), dim_});
    std::vector<int> targets(indices.size());
    auto iv = inputs.data();
    for (std::size_t r = 0; r < indices.size(); ++r) {
      Rng rng(seed_ ^ (0xABCD1234ull + indices[r] * 0x9E3779B97F4A7C15ull));
      const std::size_t cls = indices[r] % classes_;
      targets[r] = static_cast<int>(cls);
      for (std::size_t c = 0; c < dim_; ++c) {
        iv[r * dim_ + c] = centroids_[cls * dim_ + c] + rng.normal() * noise_;
      }
    }
    return data::Batch{std::move(inputs), std::move(targets)};
  }

 private:
  std::size_t dim_, classes_;
  std::uint64_t seed_;
  double noise_;
  std::vector<double> centroids_;
};

/// One token: from class/topic `bucket`'s contiguous vocab/buckets tokens
/// with probability `signal`, else uniform over the vocabulary.
inline int oracle_token(Rng& rng, std::size_t vocab, std::size_t buckets,
                        double signal, std::size_t bucket) {
  const std::size_t width = vocab / buckets;
  if (rng.bernoulli(signal)) {
    return static_cast<int>(
        bucket * width + static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(width - 1))));
  }
  return static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(vocab - 1)));
}

class SeqOracle {
 public:
  SeqOracle(std::size_t vocab, std::size_t seq_len, std::size_t classes,
            std::uint64_t seed, double signal = 0.75)
      : vocab_(vocab),
        seq_len_(seq_len),
        classes_(classes),
        seed_(seed),
        signal_(signal) {}

  data::Batch make_batch(const std::vector<std::size_t>& indices) const {
    tensor::Tensor inputs({indices.size(), seq_len_});
    std::vector<int> targets(indices.size());
    auto iv = inputs.data();
    for (std::size_t r = 0; r < indices.size(); ++r) {
      Rng rng(seed_ ^ (0x5151AAAAull + indices[r] * 0x9E3779B97F4A7C15ull));
      const std::size_t cls = indices[r] % classes_;
      targets[r] = static_cast<int>(cls);
      for (std::size_t t = 0; t < seq_len_; ++t) {
        iv[r * seq_len_ + t] = static_cast<tensor::Scalar>(
            oracle_token(rng, vocab_, classes_, signal_, cls));
      }
    }
    return data::Batch{std::move(inputs), std::move(targets)};
  }

 private:
  std::size_t vocab_, seq_len_, classes_;
  std::uint64_t seed_;
  double signal_;
};

class PairOracle {
 public:
  PairOracle(std::size_t vocab, std::size_t seq_len, std::size_t topics,
             std::uint64_t seed, double signal = 0.8)
      : vocab_(vocab),
        seq_len_(seq_len),
        topics_(topics),
        seed_(seed),
        signal_(signal) {}

  data::Batch make_batch(const std::vector<std::size_t>& indices) const {
    tensor::Tensor inputs({indices.size(), seq_len_});
    std::vector<int> targets(indices.size());
    auto iv = inputs.data();
    const std::size_t half = seq_len_ / 2;
    for (std::size_t r = 0; r < indices.size(); ++r) {
      Rng rng(seed_ ^ (0x9A12B34Cull + indices[r] * 0x9E3779B97F4A7C15ull));
      const bool same = (indices[r] % 2) == 0;
      targets[r] = same ? 1 : 0;
      const std::size_t topic_a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(topics_ - 1)));
      std::size_t topic_b = topic_a;
      if (!same) {
        topic_b = (topic_a + 1 +
                   static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(topics_ - 2)))) %
                  topics_;
      }
      for (std::size_t t = 0; t < half; ++t) {
        iv[r * seq_len_ + t] = static_cast<tensor::Scalar>(
            oracle_token(rng, vocab_, topics_, signal_, topic_a));
        iv[r * seq_len_ + half + t] = static_cast<tensor::Scalar>(
            oracle_token(rng, vocab_, topics_, signal_, topic_b));
      }
    }
    return data::Batch{std::move(inputs), std::move(targets)};
  }

 private:
  std::size_t vocab_, seq_len_, topics_;
  std::uint64_t seed_;
  double signal_;
};

/// Byte equality of two batches: shapes, every input's bit pattern (so
/// NaNs and signed zeros count) and every target.
inline bool same_bytes(const data::Batch& a, const data::Batch& b) {
  if (a.inputs.shape() != b.inputs.shape() || a.targets != b.targets) {
    return false;
  }
  const auto x = a.inputs.data();
  const auto y = b.inputs.data();
  return std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
}

}  // namespace avgpipe::testutil
