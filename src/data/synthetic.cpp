#include "data/synthetic.hpp"

#include <cmath>
#include <random>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace avgpipe::data {

namespace {

// Per-sample draws. The engine yields `std::mt19937_64`'s exact stream and
// each distribution is constructed per call, as `Rng`'s helpers do, so a
// sample is byte-identical to one drawn from `Rng(sample seed)`.

/// Sample `index`'s stream of a task seeded `seed`; `salt` tells tasks apart.
PrefixMt19937_64 sample_stream(std::uint64_t seed, std::uint64_t salt,
                               std::size_t index) {
  return PrefixMt19937_64(seed ^ (salt + index * 0x9E3779B97F4A7C15ull));
}

double normal(PrefixMt19937_64& e) {
  return std::normal_distribution<double>(0.0, 1.0)(e);
}

std::int64_t uniform_int(PrefixMt19937_64& e, std::int64_t lo,
                         std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(e);
}

/// A token from `bucket` of `buckets` equal, contiguous vocabulary buckets
/// with probability `signal`, else uniform over the whole vocabulary.
int sample_token(PrefixMt19937_64& e, std::size_t vocab, std::size_t buckets,
                 double signal, std::size_t bucket) {
  const std::size_t width = vocab / buckets;
  if (std::bernoulli_distribution(signal)(e)) {
    return static_cast<int>(
        bucket * width + static_cast<std::size_t>(uniform_int(
                             e, 0, static_cast<std::int64_t>(width - 1))));
  }
  return static_cast<int>(
      uniform_int(e, 0, static_cast<std::int64_t>(vocab - 1)));
}

}  // namespace

// -- SyntheticFeatures -----------------------------------------------------------

SyntheticFeatures::SyntheticFeatures(std::size_t n, std::size_t dim,
                                     std::size_t classes, std::uint64_t seed,
                                     double noise)
    : n_(n), dim_(dim), classes_(classes), seed_(seed), noise_(noise) {
  AVGPIPE_CHECK(classes >= 2, "need at least two classes");
  Rng rng(seed);
  centroids_.resize(classes * dim);
  for (auto& c : centroids_) c = rng.normal() * 2.0;
}

Batch SyntheticFeatures::make_batch(
    const std::vector<std::size_t>& indices) const {
  Tensor inputs = Tensor::uninitialized({indices.size(), dim_});
  std::vector<int> targets(indices.size());
  auto iv = inputs.data();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    PrefixMt19937_64 e = sample_stream(seed_, 0xABCD1234ull, indices[r]);
    const std::size_t cls = indices[r] % classes_;
    targets[r] = static_cast<int>(cls);
    for (std::size_t c = 0; c < dim_; ++c) {
      iv[r * dim_ + c] = centroids_[cls * dim_ + c] + normal(e) * noise_;
    }
  }
  return Batch{std::move(inputs), std::move(targets)};
}

// -- SyntheticSeqClassification -----------------------------------------------------

SyntheticSeqClassification::SyntheticSeqClassification(
    std::size_t n, std::size_t vocab, std::size_t seq_len, std::size_t classes,
    std::uint64_t seed, double signal)
    : n_(n),
      vocab_(vocab),
      seq_len_(seq_len),
      classes_(classes),
      seed_(seed),
      signal_(signal) {
  AVGPIPE_CHECK(vocab >= classes * 2, "vocab too small for class buckets");
}

Batch SyntheticSeqClassification::make_batch(
    const std::vector<std::size_t>& indices) const {
  Tensor inputs = Tensor::uninitialized({indices.size(), seq_len_});
  std::vector<int> targets(indices.size());
  auto iv = inputs.data();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    PrefixMt19937_64 e = sample_stream(seed_, 0x5151AAAAull, indices[r]);
    const std::size_t cls = indices[r] % classes_;
    targets[r] = static_cast<int>(cls);
    for (std::size_t t = 0; t < seq_len_; ++t) {
      iv[r * seq_len_ + t] = static_cast<tensor::Scalar>(
          sample_token(e, vocab_, classes_, signal_, cls));
    }
  }
  return Batch{std::move(inputs), std::move(targets)};
}

// -- SyntheticPairClassification ------------------------------------------------------

SyntheticPairClassification::SyntheticPairClassification(
    std::size_t n, std::size_t vocab, std::size_t seq_len, std::size_t topics,
    std::uint64_t seed, double signal)
    : n_(n),
      vocab_(vocab),
      seq_len_(seq_len),
      topics_(topics),
      seed_(seed),
      signal_(signal) {
  AVGPIPE_CHECK(seq_len % 2 == 0, "pair task needs even seq_len");
  AVGPIPE_CHECK(vocab >= topics * 2, "vocab too small for topic buckets");
}

Batch SyntheticPairClassification::make_batch(
    const std::vector<std::size_t>& indices) const {
  Tensor inputs = Tensor::uninitialized({indices.size(), seq_len_});
  std::vector<int> targets(indices.size());
  auto iv = inputs.data();
  const std::size_t half = seq_len_ / 2;
  for (std::size_t r = 0; r < indices.size(); ++r) {
    PrefixMt19937_64 e = sample_stream(seed_, 0x9A12B34Cull, indices[r]);
    const bool same = (indices[r] % 2) == 0;
    targets[r] = same ? 1 : 0;
    const std::size_t topic_a = static_cast<std::size_t>(
        uniform_int(e, 0, static_cast<std::int64_t>(topics_ - 1)));
    std::size_t topic_b = topic_a;
    if (!same) {
      topic_b = (topic_a + 1 +
                 static_cast<std::size_t>(uniform_int(
                     e, 0, static_cast<std::int64_t>(topics_ - 2)))) %
                topics_;
    }
    for (std::size_t t = 0; t < half; ++t) {
      iv[r * seq_len_ + t] = static_cast<tensor::Scalar>(
          sample_token(e, vocab_, topics_, signal_, topic_a));
      iv[r * seq_len_ + half + t] = static_cast<tensor::Scalar>(
          sample_token(e, vocab_, topics_, signal_, topic_b));
    }
  }
  return Batch{std::move(inputs), std::move(targets)};
}

// -- SyntheticLanguageModel ------------------------------------------------------------

SyntheticLanguageModel::SyntheticLanguageModel(std::size_t corpus_len,
                                               std::size_t vocab,
                                               std::size_t seq_len,
                                               std::uint64_t seed,
                                               double concentration)
    : vocab_(vocab), seq_len_(seq_len) {
  AVGPIPE_CHECK(corpus_len > seq_len + 1, "corpus too short");
  Rng rng(seed);

  // Row-stochastic transition matrix from a symmetric Dirichlet-ish draw:
  // exponentiate Gaussians scaled by 1/concentration so small concentration
  // gives peaky (low-entropy) rows.
  transition_.resize(vocab * vocab);
  entropy_floor_ = 0.0;
  std::vector<double> stationary_unnorm(vocab, 1.0 / static_cast<double>(vocab));
  for (std::size_t i = 0; i < vocab; ++i) {
    double z = 0.0;
    for (std::size_t j = 0; j < vocab; ++j) {
      const double w = std::exp(rng.normal() / concentration * 0.5);
      transition_[i * vocab + j] = w;
      z += w;
    }
    double h = 0.0;
    for (std::size_t j = 0; j < vocab; ++j) {
      transition_[i * vocab + j] /= z;
      const double p = transition_[i * vocab + j];
      if (p > 0.0) h -= p * std::log(p);
    }
    // Approximate the stationary distribution as uniform for the floor
    // estimate; the corpus-empirical floor is what benches compare against.
    entropy_floor_ += h / static_cast<double>(vocab);
  }

  corpus_.resize(corpus_len);
  std::size_t state = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(vocab - 1)));
  for (std::size_t t = 0; t < corpus_len; ++t) {
    corpus_[t] = static_cast<int>(state);
    const double u = rng.uniform();
    double cum = 0.0;
    std::size_t next = vocab - 1;
    for (std::size_t j = 0; j < vocab; ++j) {
      cum += transition_[state * vocab + j];
      if (u < cum) {
        next = j;
        break;
      }
    }
    state = next;
  }
}

std::size_t SyntheticLanguageModel::size() const {
  return (corpus_.size() - 1) / seq_len_;
}

Batch SyntheticLanguageModel::make_batch(
    const std::vector<std::size_t>& indices) const {
  Tensor inputs = Tensor::uninitialized({indices.size(), seq_len_});
  std::vector<int> targets(indices.size() * seq_len_);
  auto iv = inputs.data();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::size_t start = indices[r] * seq_len_;
    AVGPIPE_CHECK(start + seq_len_ < corpus_.size(), "window out of corpus");
    for (std::size_t t = 0; t < seq_len_; ++t) {
      iv[r * seq_len_ + t] = static_cast<tensor::Scalar>(corpus_[start + t]);
      targets[r * seq_len_ + t] = corpus_[start + t + 1];
    }
  }
  return Batch{std::move(inputs), std::move(targets)};
}

}  // namespace avgpipe::data
