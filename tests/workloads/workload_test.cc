// Tests for the workload implementations: real-algorithm correctness
// (results independent of memory placement) and access-pattern properties.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "src/core/farmem.h"
#include "src/workloads/gups.h"
#include "src/workloads/kronecker.h"
#include "src/workloads/memcached.h"
#include "src/workloads/metis.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/xsbench.h"

namespace magesim {
namespace {

TEST(KroneckerTest, GeneratesRequestedShape) {
  CsrGraph g = GenerateKronecker(10, 8, 42);
  EXPECT_EQ(g.num_vertices, 1024u);
  EXPECT_EQ(g.num_edges, 8192u);
  EXPECT_EQ(g.offsets.size(), 1025u);
  EXPECT_EQ(g.offsets[0], 0u);
  EXPECT_EQ(g.offsets[1024], g.num_edges);
  // CSR is consistent: offsets monotone, neighbors in range.
  for (uint64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_LE(g.offsets[v], g.offsets[v + 1]);
  }
  for (uint32_t n : g.neighbors) {
    EXPECT_LT(n, g.num_vertices);
  }
}

TEST(KroneckerTest, DeterministicPerSeedSkewedDegrees) {
  CsrGraph a = GenerateKronecker(10, 8, 1);
  CsrGraph b = GenerateKronecker(10, 8, 1);
  EXPECT_EQ(a.neighbors, b.neighbors);
  CsrGraph c = GenerateKronecker(10, 8, 2);
  EXPECT_NE(a.neighbors, c.neighbors);
  // Power-law-ish: the max degree far exceeds the mean (8).
  uint64_t max_deg = 0;
  for (uint64_t v = 0; v < a.num_vertices; ++v) {
    max_deg = std::max(max_deg, a.OutDegree(v));
  }
  EXPECT_GT(max_deg, 40u);
}

// The branching R-MAT descent GenerateKronecker used before its branch-free
// rewrite, kept verbatim as the oracle: the generated graph must stay
// identical byte for byte, or every pinned PageRank result moves.
CsrGraph ReferenceKronecker(int scale, int edge_factor, uint64_t seed) {
  const uint64_t n = 1ULL << scale;
  const uint64_t m = n * static_cast<uint64_t>(edge_factor);
  Rng rng(seed);
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t src = 0, dst = 0;
    for (int bit = scale - 1; bit >= 0; --bit) {
      double r = rng.NextDouble();
      if (r < kA) {
        // top-left: nothing set
      } else if (r < kA + kB) {
        dst |= 1ULL << bit;
      } else if (r < kA + kB + kC) {
        src |= 1ULL << bit;
      } else {
        src |= 1ULL << bit;
        dst |= 1ULL << bit;
      }
    }
    src = ScrambleIndex(src, n);
    dst = ScrambleIndex(dst, n);
    edges.emplace_back(static_cast<uint32_t>(src), static_cast<uint32_t>(dst));
  }
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

TEST(KroneckerTest, MatchesReferenceGenerator) {
  struct Case {
    int scale;
    int edge_factor;
    uint64_t seed;
  };
  std::vector<Case> cases;
  for (int scale : {0, 1, 2, 10}) {
    for (int edge_factor : {1, 3, 16}) {
      for (uint64_t seed : {1ULL, 7ULL, 0xdeadbeefULL}) {
        cases.push_back({scale, edge_factor, seed});
      }
    }
  }
  cases.push_back({16, 4, 1});
  cases.push_back({16, 16, 42});
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "scale=" << c.scale << " edge_factor="
                                      << c.edge_factor << " seed=" << c.seed);
    CsrGraph got = GenerateKronecker(c.scale, c.edge_factor, c.seed);
    CsrGraph want = ReferenceKronecker(c.scale, c.edge_factor, c.seed);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    EXPECT_EQ(got.num_edges, want.num_edges);
    EXPECT_TRUE(got.offsets == want.offsets);
    EXPECT_TRUE(got.neighbors == want.neighbors);
  }
}

TEST(KroneckerTest, IntegerCutsMatchDoubleCompareAtBoundaries) {
  // Each cut T must sit exactly where `k * 2^-53 < p` flips: k = T - 1 is
  // below p, k = T is not, and the quadrant bits agree with the branching
  // classification on both sides.
  constexpr double kAB = kRmatA + kRmatB;
  constexpr double kABC = kRmatA + kRmatB + kRmatC;
  auto branching_bits = [&](uint64_t k) {
    const double r = static_cast<double>(k) * 0x1.0p-53;
    if (r < kRmatA) return std::pair<uint64_t, uint64_t>{0, 0};
    if (r < kAB) return std::pair<uint64_t, uint64_t>{0, 1};
    if (r < kABC) return std::pair<uint64_t, uint64_t>{1, 0};
    return std::pair<uint64_t, uint64_t>{1, 1};
  };
  const std::pair<uint64_t, double> cuts[] = {
      {kRmatCutA, kRmatA}, {kRmatCutAB, kAB}, {kRmatCutABC, kABC}};
  for (const auto& [cut, p] : cuts) {
    SCOPED_TRACE(::testing::Message() << "p=" << p << " cut=" << cut);
    EXPECT_TRUE(static_cast<double>(cut - 1) * 0x1.0p-53 < p);
    EXPECT_FALSE(static_cast<double>(cut) * 0x1.0p-53 < p);
    for (uint64_t k : {cut - 1, cut}) {
      EXPECT_EQ(RmatSrcBit(k), branching_bits(k).first) << "k=" << k;
      EXPECT_EQ(RmatDstBit(k), branching_bits(k).second) << "k=" << k;
    }
  }
  // The ends of the 53-bit draw range land in the first and last quadrants.
  EXPECT_EQ(RmatSrcBit(0), 0u);
  EXPECT_EQ(RmatDstBit(0), 0u);
  EXPECT_EQ(RmatSrcBit((1ULL << 53) - 1), 1u);
  EXPECT_EQ(RmatDstBit((1ULL << 53) - 1), 1u);
}

RunResult RunWorkload(Workload& wl, const KernelConfig& cfg, double ratio,
                      SimTime limit = 0) {
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = ratio;
  opt.time_limit = limit;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

TEST(PageRankTest, RankMassConservedAndPlacementIndependent) {
  PageRankWorkload::Options o{.scale = 12, .iterations = 5, .threads = 8};
  PageRankWorkload local(o), far(o);
  RunWorkload(local, MageLibConfig(), 1.0);
  RunWorkload(far, HermitConfig(), 0.4);
  double sum_local = std::accumulate(local.ranks().begin(), local.ranks().end(), 0.0);
  // Kronecker graphs have many dangling vertices, which leak rank mass (the
  // GapBS kernel does not redistribute it); mass stays in (0, 1].
  EXPECT_GT(sum_local, 0.15);
  EXPECT_LE(sum_local, 1.0001);
  // The algorithm's output must not depend on the paging system underneath.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(local.ranks()[i], far.ranks()[i]);
  }
}

TEST(PageRankTest, OffloadingCausesStreamFaults) {
  // Large enough that 50% local is above the machine's minimum pool size.
  PageRankWorkload::Options o{.scale = 16, .iterations = 2, .threads = 8};
  PageRankWorkload wl(o);
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.5);
  EXPECT_GT(r.faults, wl.wss_pages() / 4);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(XsBenchTest, DeterministicResultAcrossPlacements) {
  XsBenchWorkload::Options o{.gridpoints = 1 << 14, .lookups_per_thread = 500, .threads = 4};
  XsBenchWorkload a(o), b(o);
  RunWorkload(a, MageLibConfig(), 1.0);
  RunWorkload(b, DilosConfig(), 0.5);
  EXPECT_EQ(a.result_hash(), b.result_hash());
  EXPECT_NE(a.result_hash(), 0u);
}

TEST(XsBenchTest, BinarySearchTouchesGridAndXsRegions) {
  XsBenchWorkload::Options o{.gridpoints = 1 << 15, .lookups_per_thread = 300, .threads = 4};
  XsBenchWorkload wl(o);
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.5);
  EXPECT_GT(r.faults, 100u);  // random gathers must fault under offloading
}

TEST(GupsTest, PhaseChangeMovesFaultPressure) {
  GupsWorkload wl({.total_pages = 8192,
                   .threads = 8,
                   .phase_change_at = 20 * kMillisecond,
                   .run_for = 40 * kMillisecond});
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.85, 50 * kMillisecond);
  EXPECT_GT(r.total_ops, 1000u);
  // Updates continue after the phase change.
  const TimeSeries& ts = wl.timeline();
  ASSERT_GE(ts.buckets().size(), 1u);
  EXPECT_GT(ts.RatePerSec(0), 0.0);
}

TEST(MetisTest, PhasesCompleteAndResultStable) {
  MetisWorkload::Options o{.input_pages = 2048, .intermediate_pages = 1024, .threads = 8};
  MetisWorkload a(o), b(o);
  RunWorkload(a, MageLibConfig(), 1.0);
  RunWorkload(b, HermitConfig(), 0.5);
  EXPECT_GT(a.map_done_at(), 0);
  EXPECT_GT(a.reduce_done_at(), a.map_done_at());
  EXPECT_EQ(a.result(), b.result());
  EXPECT_NE(a.result(), 0u);
}

TEST(MemcachedTest, ServesLoadAndRecordsLatency) {
  MemcachedWorkload wl({.num_keys = 1 << 14,
                        .load_ops_per_sec = 50000,
                        .server_threads = 8,
                        .duration = 100 * kMillisecond});
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.7, 150 * kMillisecond);
  EXPECT_GT(wl.completed_requests(), 3000u);
  EXPECT_GT(wl.request_latency().count(), 3000u);
  // Uncongested p50 is service compute + at most one remote read.
  EXPECT_LT(wl.request_latency().Percentile(50), 40 * kMicrosecond);
  (void)r;
}

TEST(MemcachedTest, OffloadingRaisesTailLatency) {
  auto p99 = [](double ratio) {
    MemcachedWorkload wl({.num_keys = 1 << 14,
                          .load_ops_per_sec = 50000,
                          .server_threads = 8,
                          .duration = 100 * kMillisecond});
    RunWorkload(wl, MageLibConfig(), ratio, 150 * kMillisecond);
    return wl.request_latency().Percentile(99);
  };
  EXPECT_GT(p99(0.3), p99(1.0));
}

TEST(MemcachedTest, OverloadDropsInsteadOfUnboundedQueueing) {
  MemcachedWorkload wl({.num_keys = 1 << 14,
                        .load_ops_per_sec = 10e6,  // far beyond capacity
                        .server_threads = 2,
                        .duration = 20 * kMillisecond,
                        .queue_capacity = 64});
  RunWorkload(wl, MageLibConfig(), 1.0, 40 * kMillisecond);
  EXPECT_GT(wl.dropped_requests(), 0u);
}

}  // namespace
}  // namespace magesim
