#pragma once

/// \file rng.hpp
/// Deterministic random number generation. All stochastic behaviour in the
/// library flows through explicitly seeded `Rng` instances, or through a
/// `PrefixMt19937_64` for one synthetic sample's short stream, so that every
/// experiment, test and trace is reproducible bit-for-bit.

#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace avgpipe {

/// Seeded pseudo-random generator with the helpers the library needs.
/// Thin wrapper over std::mt19937_64; cheap to copy (fork) for per-worker
/// deterministic streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal.
  double normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  /// Normal with explicit mean/stddev.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derive an independent child stream; deterministic in (this, salt).
  Rng fork(std::uint64_t salt) {
    // SplitMix-style mixing so forks with nearby salts decorrelate.
    std::uint64_t z = engine_() + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  // -- durable state ---------------------------------------------------------
  //
  // Every distribution helper above constructs its std::*_distribution fresh
  // per call, so the generator carries no hidden distribution state: the
  // mt19937_64 engine state alone determines every future draw. That is what
  // makes these accessors sufficient for bit-exact resume from a checkpoint.

  /// Portable textual snapshot of the engine state (the standard's
  /// stream-insertion format: 312 decimal integers + position).
  std::string save_state() const {
    std::ostringstream os;
    os << engine_;
    return os.str();
  }

  /// Restore a state previously produced by `save_state`. After this call
  /// the draw sequence continues exactly where the saved generator left off.
  /// Throws avgpipe::Error on a malformed snapshot.
  void restore_state(const std::string& state) {
    std::istringstream is(state);
    is >> engine_;
    AVGPIPE_CHECK(!is.fail(), "Rng::restore_state: malformed engine snapshot");
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Exactly the 64-bit stream of `std::mt19937_64(seed)`, for short-lived
/// streams that draw a few dozen numbers (one synthetic sample each).
///
/// The full engine seeds all 312 state words, a serial multiply chain, and
/// twists all 312 on its first draw. Yet twisted word j depends only on words
/// j, j+1 and j+156 (mod 312). So this engine seeds word i only when draw
/// i-156 first needs it, and it twists one word per draw, in place and in the
/// standard's order. Draw j < 156 thus costs seeding words up to j+156 and
/// one twist, and every later draw, past 156 and 312 too, is the full
/// engine's. Same result_type and range as `std::mt19937_64`, so a
/// `std::*_distribution` consumes both identically.
class PrefixMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static_assert(std::is_same_v<result_type, std::mt19937_64::result_type>);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit PrefixMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (seeded_ < kN) seed_through(pos_ + kM + 1);
    const std::size_t next = pos_ + 1 == kN ? 0 : pos_ + 1;
    const result_type y = (x_[pos_] & kUpper) | (x_[next] & kLower);
    const std::size_t far = pos_ < kN - kM ? pos_ + kM : pos_ + kM - kN;
    result_type z = x_[far] ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
    x_[pos_] = z;
    pos_ = next;
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312, kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  /// Seed words [seeded_, count) with the standard's initialization chain.
  void seed_through(std::size_t count) {
    for (; seeded_ < count; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  std::array<result_type, kN> x_{};
  std::size_t seeded_ = 1;  ///< words [0, seeded_) hold seed or twisted state
  std::size_t pos_ = 0;     ///< index of the word the next draw twists
};

}  // namespace avgpipe
