#include "src/workloads/kronecker.h"

#include <algorithm>
#include <cassert>

namespace magesim {

CsrGraph GenerateKronecker(int scale, int edge_factor, uint64_t seed) {
  assert(scale >= 0 && scale <= 32);  // vertex ids are uint32_t
  const uint64_t n = 1ULL << scale;
  const uint64_t m = n * static_cast<uint64_t>(edge_factor);
  Rng rng(seed);

  // R-MAT recursive quadrant descent, one draw per bit from the top bit down.
  // The quadrant odds are 57/19/19/5%, so a branch on the draw mispredicts
  // often; the integer compares below pick the same bits branch-free.
  const uint64_t mask = n - 1;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const uint64_t k = rng.Next() >> 11;
      src = (src << 1) | RmatSrcBit(k);
      dst = (dst << 1) | RmatDstBit(k);
    }
    // Permute vertex labels so degree correlates with nothing spatial; this
    // is what makes the neighbor reads a *random* far-memory pattern. The
    // mask is ScrambleIndex(x, n) because n is a power of two.
    src = ScrambleHash(src) & mask;
    dst = ScrambleHash(dst) & mask;
    edges.emplace_back(static_cast<uint32_t>(src), static_cast<uint32_t>(dst));
  }

  // Build CSR (counting sort by source).
  CsrGraph g;
  g.num_vertices = n;
  g.num_edges = edges.size();
  g.offsets.assign(n + 1, 0);
  for (const auto& [s, d] : edges) {
    ++g.offsets[s + 1];
  }
  for (uint64_t v = 0; v < n; ++v) {
    g.offsets[v + 1] += g.offsets[v];
  }
  g.neighbors.resize(g.num_edges);
  std::vector<uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [s, d] : edges) {
    g.neighbors[cursor[s]++] = d;
  }
  return g;
}

}  // namespace magesim
