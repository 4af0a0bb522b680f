// Deterministic random number generation for simulations: xoshiro256**
// engine plus uniform, exponential, and Zipf distributions. No global state;
// all callers own their generator so runs are reproducible per seed.
#ifndef MAGESIM_SIM_RANDOM_H_
#define MAGESIM_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace magesim {

// xoshiro256** (Blackman & Vigna). Fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, n).
  uint64_t NextU64(uint64_t n);

  // Uniform in [lo, hi).
  int64_t NextRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Exponentially distributed with the given mean (for Poisson arrivals).
  double NextExponential(double mean);

  bool NextBool(double p_true);

 private:
  uint64_t s_[4];
};

// Zipf-distributed integers over [0, n) with skew `theta` (0 < theta, and
// theta != 1 because the method divides by 1 - theta). Uses the Gray et al.
// quick method: O(n) precompute of zeta(n), O(1) per sample.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  double rank1_cut_;  // 1 + 0.5^theta: u * zeta(n) below this is rank 0 or 1
};

// The 64-bit hash behind ScrambleIndex: FNV-1a style scramble plus a
// murmur-style finalizer. Inline so hot generators can reduce it themselves.
inline uint64_t ScrambleHash(uint64_t index) {
  uint64_t h = index ^ 0xcbf29ce484222325ULL;
  h *= 0x100000001b3ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// A scrambling permutation so that Zipf rank-0 hotness is scattered across an
// address range instead of clustering at its start (matches YCSB key hashing).
// Equals ScrambleHash(index) % n; when n is a power of two that is
// ScrambleHash(index) & (n - 1).
uint64_t ScrambleIndex(uint64_t index, uint64_t n);

}  // namespace magesim

#endif  // MAGESIM_SIM_RANDOM_H_
