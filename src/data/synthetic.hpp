#pragma once

/// \file synthetic.hpp
/// Synthetic datasets standing in for the paper's corpora (WMT16, QQP from
/// GLUE, Penn Treebank). Each exercises the same code path as the original:
/// token-sequence inputs, classification or next-token targets, and a
/// learnable signal so "epochs to reach a target metric" (Figure 14) is a
/// meaningful measurement. Every sample is generated deterministically from
/// (seed, index), so datasets are reproducible and need no disk state.
///
/// The features, sequence and pair tasks give each sample its own stream, a
/// `PrefixMt19937_64` seeded from (seed, index): it computes only the engine
/// state its few dozen draws read. Batches are generated serially before
/// each training iteration, while the pipeline waits, so this cost counts.
/// The language model samples windows of a corpus it draws once, at
/// construction.

#include "data/dataset.hpp"

namespace avgpipe::data {

/// Gaussian class blobs in feature space: [B, dim] -> class. For MLP
/// quickstarts and unit tests.
class SyntheticFeatures : public Dataset {
 public:
  SyntheticFeatures(std::size_t n, std::size_t dim, std::size_t classes,
                    std::uint64_t seed, double noise = 0.5);
  std::size_t size() const override { return n_; }
  Batch make_batch(const std::vector<std::size_t>& indices) const override;

 private:
  std::size_t n_, dim_, classes_;
  std::uint64_t seed_;
  double noise_;
  std::vector<double> centroids_;  ///< [classes, dim]
};

/// Token sequences whose class determines the unigram distribution —
/// a deep recurrent model separates classes easily. GNMT/WMT stand-in.
class SyntheticSeqClassification : public Dataset {
 public:
  SyntheticSeqClassification(std::size_t n, std::size_t vocab,
                             std::size_t seq_len, std::size_t classes,
                             std::uint64_t seed, double signal = 0.75);
  std::size_t size() const override { return n_; }
  Batch make_batch(const std::vector<std::size_t>& indices) const override;

  std::size_t vocab() const { return vocab_; }
  std::size_t seq_len() const { return seq_len_; }
  std::size_t classes() const { return classes_; }

 private:
  std::size_t n_, vocab_, seq_len_, classes_;
  std::uint64_t seed_;
  double signal_;  ///< probability a token comes from the class bucket
};

/// Sentence-pair task: halves drawn from the same topic (label 1) or
/// different topics (label 0). QQP/paraphrase stand-in for the BERT model.
class SyntheticPairClassification : public Dataset {
 public:
  SyntheticPairClassification(std::size_t n, std::size_t vocab,
                              std::size_t seq_len, std::size_t topics,
                              std::uint64_t seed, double signal = 0.8);
  std::size_t size() const override { return n_; }
  Batch make_batch(const std::vector<std::size_t>& indices) const override;

  std::size_t vocab() const { return vocab_; }
  std::size_t seq_len() const { return seq_len_; }

 private:
  std::size_t n_, vocab_, seq_len_, topics_;
  std::uint64_t seed_;
  double signal_;
};

/// Order-1 Markov-chain corpus; samples are windows with next-token targets.
/// Penn Treebank stand-in for the AWD-LSTM language model. The achievable
/// cross-entropy floor is the chain's conditional entropy, exposed via
/// `entropy_floor()` so benches can set a target loss the paper-style way.
class SyntheticLanguageModel : public Dataset {
 public:
  SyntheticLanguageModel(std::size_t corpus_len, std::size_t vocab,
                         std::size_t seq_len, std::uint64_t seed,
                         double concentration = 0.15);
  std::size_t size() const override;
  Batch make_batch(const std::vector<std::size_t>& indices) const override;

  std::size_t vocab() const { return vocab_; }
  std::size_t seq_len() const { return seq_len_; }
  /// Conditional entropy (nats/token) of the generating chain.
  double entropy_floor() const { return entropy_floor_; }

 private:
  std::size_t vocab_, seq_len_;
  std::vector<int> corpus_;
  std::vector<double> transition_;  ///< [vocab, vocab] row-stochastic
  double entropy_floor_ = 0.0;
};

}  // namespace avgpipe::data
