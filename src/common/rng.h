// Deterministic random number generation.
//
// Every stochastic component of the library takes an explicit seed and owns
// its own Rng instance, so experiments are reproducible and trials are
// independent by construction. There is no global RNG state.
#ifndef EVENTHIT_COMMON_RNG_H_
#define EVENTHIT_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace eventhit {

/// xoshiro256** PRNG seeded via SplitMix64. Fast, high quality, and
/// deterministic across platforms (unlike std::normal_distribution, whose
/// output is implementation-defined).
class Rng {
 public:
  /// Seeds the generator. Distinct seeds yield independent-looking streams;
  /// the same seed always reproduces the same stream.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double Gaussian();

  /// Advances the generator exactly as Gaussian() does, retry included,
  /// without computing the variate (no log, sqrt or cos).
  void SkipGaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential with the given mean (= 1/rate). Requires mean > 0.
  double Exponential(double mean);

  /// Log-normal such that the *underlying normal* has parameters mu, sigma.
  double LogNormal(double mu, double sigma);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int64_t Poisson(double mean);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Derives a child seed; children with distinct `stream` values are
  /// decorrelated from each other and from the parent.
  uint64_t Fork(uint64_t stream);

 private:
  uint64_t state_[4];
};

/// Draws Poisson(mean) counts exactly as Rng::Poisson(mean) does, with the
/// Knuth limit exp(-mean) computed once for every draw at this mean.
class PoissonSampler {
 public:
  explicit PoissonSampler(double mean);

  int64_t operator()(Rng& rng) const;

 private:
  double mean_;
  double limit_;
};

/// SplitMix64 step, exposed for seed derivation in tests.
uint64_t SplitMix64(uint64_t& state);

/// Derives a child seed from (seed, stream_id) with no shared generator
/// state: a pure function, so parallel workers can seed their own Rng for
/// stream `stream_id` and reproduce exactly what a serial loop would draw.
/// Distinct stream ids yield decorrelated streams (two SplitMix64 rounds
/// over the golden-ratio-scrambled pair).
uint64_t SplitSeed(uint64_t seed, uint64_t stream_id);

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_RNG_H_
