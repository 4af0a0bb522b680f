// Kronecker (R-MAT) graph generator in CSR form — the GapBS input (§6.1,
// Graph500 parameters a/b/c = 0.57/0.19/0.19).
#ifndef MAGESIM_WORKLOADS_KRONECKER_H_
#define MAGESIM_WORKLOADS_KRONECKER_H_

#include <cstdint>
#include <vector>

#include "src/sim/random.h"

namespace magesim {

struct CsrGraph {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;          // directed edge count after dedup
  std::vector<uint64_t> offsets;   // size num_vertices + 1
  std::vector<uint32_t> neighbors; // size num_edges

  uint64_t OutDegree(uint64_t v) const { return offsets[v + 1] - offsets[v]; }
};

// Graph500 R-MAT quadrant probabilities: a (top-left), b (top-right: dst bit
// set), c (bottom-left: src bit set); the rest (bottom-right) sets both.
inline constexpr double kRmatA = 0.57;
inline constexpr double kRmatB = 0.19;
inline constexpr double kRmatC = 0.19;

// Integer cut point for one quadrant draw. A draw is k = Rng::Next() >> 11,
// and Rng::NextDouble() is exactly k * 2^-53. Scaling p by 2^53 is exact and
// k is an integer, so `NextDouble() < p` holds exactly when k < RmatCut(p),
// where RmatCut(p) = ceil(p * 2^53).
constexpr uint64_t RmatCut(double p) {
  const double x = p * 0x1.0p53;
  const auto t = static_cast<uint64_t>(x);
  return static_cast<double>(t) < x ? t + 1 : t;
}

// The cut points come from the same double sums the branching descent
// compared against: r < a, r < a + b, r < a + b + c.
inline constexpr uint64_t kRmatCutA = RmatCut(kRmatA);
inline constexpr uint64_t kRmatCutAB = RmatCut(kRmatA + kRmatB);
inline constexpr uint64_t kRmatCutABC = RmatCut(kRmatA + kRmatB + kRmatC);

// The (src, dst) bits one draw k picks, without a data-dependent branch:
// src is set in the bottom half (k >= cut AB), dst in the right half (top-right
// or bottom-right quadrant).
inline uint64_t RmatSrcBit(uint64_t k) { return k >= kRmatCutAB; }
inline uint64_t RmatDstBit(uint64_t k) {
  return static_cast<uint64_t>(k >= kRmatCutA) &
         (static_cast<uint64_t>(k < kRmatCutAB) | static_cast<uint64_t>(k >= kRmatCutABC));
}

// Generates a Kronecker graph with 2^scale vertices (0 <= scale <= 32) and
// ~edge_factor edges per vertex. Deterministic per seed. Self-loops kept
// (GapBS does not remove them for PageRank), duplicate edges kept (they
// weight the walk, as in the generator's raw output).
CsrGraph GenerateKronecker(int scale, int edge_factor, uint64_t seed);

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_KRONECKER_H_
