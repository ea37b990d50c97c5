#include "data/dataset.hpp"

#include <numeric>

#include "common/check.hpp"

namespace avgpipe::data {

std::vector<Batch> slice_micro_batches(const Batch& batch, std::size_t m) {
  const std::size_t b = batch.batch_size();
  AVGPIPE_CHECK(m >= 1 && m <= b,
                "micro-batch count " << m << " invalid for batch size " << b);
  // Per-sample strides for inputs and targets.
  const std::size_t in_stride = batch.inputs.numel() / b;
  AVGPIPE_CHECK(batch.targets.size() % b == 0,
                "targets not divisible by batch size");
  const std::size_t tgt_stride = batch.targets.size() / b;

  std::vector<Batch> micro;
  micro.reserve(m);
  const std::size_t base = b / m, extra = b % m;
  std::size_t row = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t n = base + (i < extra ? 1 : 0);
    tensor::Shape shape = batch.inputs.shape();
    shape[0] = n;
    Tensor inputs = Tensor::uninitialized(std::move(shape));
    const auto src = batch.inputs.data();
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(row * in_stride),
              src.begin() + static_cast<std::ptrdiff_t>((row + n) * in_stride),
              inputs.data().begin());
    std::vector<int> targets(
        batch.targets.begin() + static_cast<std::ptrdiff_t>(row * tgt_stride),
        batch.targets.begin() +
            static_cast<std::ptrdiff_t>((row + n) * tgt_stride));
    micro.push_back(Batch{std::move(inputs), std::move(targets)});
    row += n;
  }
  return micro;
}

DataLoader::DataLoader(const Dataset& dataset, std::size_t batch_size,
                       std::uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), seed_(seed) {
  AVGPIPE_CHECK(batch_size_ >= 1, "batch size must be positive");
  AVGPIPE_CHECK(dataset_.size() >= batch_size_,
                "dataset smaller than one batch");
  order_.resize(dataset_.size());
  std::iota(order_.begin(), order_.end(), 0);
}

std::size_t DataLoader::batches_per_epoch() const {
  return dataset_.size() / batch_size_;
}

Batch DataLoader::batch(std::size_t epoch, std::size_t i) {
  AVGPIPE_CHECK(i < batches_per_epoch(), "batch index out of range");
  if (epoch != shuffled_epoch_) {
    std::iota(order_.begin(), order_.end(), 0);
    Rng rng(seed_ + 0x9E3779B9ull * (epoch + 1));
    rng.shuffle(order_);
    shuffled_epoch_ = epoch;
  }
  std::vector<std::size_t> indices(
      order_.begin() + static_cast<std::ptrdiff_t>(i * batch_size_),
      order_.begin() + static_cast<std::ptrdiff_t>((i + 1) * batch_size_));
  return dataset_.make_batch(indices);
}

}  // namespace avgpipe::data
