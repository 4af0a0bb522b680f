#include "src/sim/random.h"

#include <cassert>

namespace magesim {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64(uint64_t n) {
  assert(n > 0);
  // Lemire's multiply-shift rejection-free mapping is fine for simulation use.
  return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * n) >> 64);
}

int64_t Rng::NextRange(int64_t lo, int64_t hi) {
  assert(hi > lo);
  return lo + static_cast<int64_t>(NextU64(static_cast<uint64_t>(hi - lo)));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  if (u <= 0.0) u = 1e-18;
  return -mean * std::log(u);
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta != 1.0);  // the quick method divides by 1 - theta
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2_ / zetan_);
  rank1_cut_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ZipfGenerator::Next(Rng& rng) {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_cut_) return 1;
  uint64_t v = static_cast<uint64_t>(static_cast<double>(n_) *
                                     std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

uint64_t ScrambleIndex(uint64_t index, uint64_t n) {
  // Collisions are acceptable: this is a hotness-scattering function, not a
  // permutation-sensitive index.
  return ScrambleHash(index) % n;
}

}  // namespace magesim
