#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace eventhit {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  EVENTHIT_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  EVENTHIT_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t value = NextUint64();
  while (value >= limit) value = NextUint64();
  return lo + static_cast<int64_t>(value % span);
}

double Rng::Gaussian() {
  // Box–Muller without caching the second variate: determinism is worth
  // more here than one extra log/sqrt per call.
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

void Rng::SkipGaussian() {
  while (Uniform() <= 0.0) {
  }
  NextUint64();
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double mean) {
  EVENTHIT_CHECK_GT(mean, 0.0);
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  return -mean * std::log(u);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

int64_t Rng::Poisson(double mean) { return PoissonSampler(mean)(*this); }

bool Rng::Bernoulli(double p) { return Uniform() < p; }

PoissonSampler::PoissonSampler(double mean)
    : mean_(mean), limit_(std::exp(-mean)) {
  EVENTHIT_CHECK_GE(mean, 0.0);
}

int64_t PoissonSampler::operator()(Rng& rng) const {
  if (mean_ == 0.0) return 0;
  if (mean_ > 64.0) {
    // Normal approximation with continuity correction.
    const double draw = rng.Gaussian(mean_, std::sqrt(mean_));
    return draw < 0.0 ? 0 : static_cast<int64_t>(draw + 0.5);
  }
  int64_t count = -1;
  double product = 1.0;
  do {
    ++count;
    product *= rng.Uniform();
  } while (product > limit_);
  return count;
}

uint64_t SplitSeed(uint64_t seed, uint64_t stream_id) {
  uint64_t sm = seed ^ (stream_id * 0x9E3779B97f4A7C15ULL + 0xD1B54A32D192ED03ULL);
  const uint64_t first = SplitMix64(sm);
  return SplitMix64(sm) ^ first;
}

uint64_t Rng::Fork(uint64_t stream) {
  uint64_t sm = NextUint64() ^ (stream * 0x9E3779B97f4A7C15ULL + 0xD1B54A32D192ED03ULL);
  return SplitMix64(sm);
}

}  // namespace eventhit
