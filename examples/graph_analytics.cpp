// Graph analytics on far memory: PageRank over a Kronecker graph, comparing
// MAGE-Lib against Hermit at 50% memory offloading — the workload class the
// paper's introduction motivates (large-scale analytics that outgrow DRAM).
//
//   $ ./build/examples/graph_analytics
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/workloads/pagerank.h"

namespace {

magesim::RunResult RunOn(const magesim::KernelConfig& kernel,
                         magesim::PageRankWorkload& workload, double local_ratio) {
  magesim::FarMemoryMachine::Options options{.kernel = kernel, .local_mem_ratio = local_ratio};
  magesim::ApplyEnvOverrides(&options);
  magesim::FarMemoryMachine machine(options, workload);
  return machine.Run();
}

}  // namespace

int main() {
  using namespace magesim;

  PageRankWorkload::Options opt{.scale = 16, .iterations = 5, .threads = 24};

  std::printf("Generating Kronecker graph (2^%d vertices)...\n", opt.scale);
  PageRankWorkload mage_wl(opt);
  std::printf("graph: %llu vertices, %llu edges, %llu pages WSS\n\n",
              static_cast<unsigned long long>(mage_wl.graph().num_vertices),
              static_cast<unsigned long long>(mage_wl.graph().num_edges),
              static_cast<unsigned long long>(mage_wl.wss_pages()));

  RunResult mage = RunOn(MageLibConfig(), mage_wl, 0.5);
  PageRankWorkload hermit_wl(opt);
  RunResult hermit = RunOn(HermitConfig(), hermit_wl, 0.5);

  std::printf("%-10s %10s %12s %14s %10s\n", "system", "runtime", "faults", "sync-evicts",
              "p99-fault");
  std::printf("%-10s %8.1fms %12llu %14llu %8.1fus\n", "magelib", mage.sim_seconds * 1e3,
              static_cast<unsigned long long>(mage.faults),
              static_cast<unsigned long long>(mage.sync_evictions),
              static_cast<double>(mage.fault_latency.Percentile(99)) / 1e3);
  std::printf("%-10s %8.1fms %12llu %14llu %8.1fus\n", "hermit", hermit.sim_seconds * 1e3,
              static_cast<unsigned long long>(hermit.faults),
              static_cast<unsigned long long>(hermit.sync_evictions),
              static_cast<double>(hermit.fault_latency.Percentile(99)) / 1e3);
  std::printf("\nspeedup with half the memory offloaded: %.2fx\n",
              hermit.sim_seconds / mage.sim_seconds);

  // The ranks are real results: identical regardless of memory placement.
  const auto& ranks = mage_wl.ranks();
  std::vector<uint32_t> idx(ranks.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + 5, idx.end(),
                    [&](uint32_t a, uint32_t b) { return ranks[a] > ranks[b]; });
  double sum = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  std::printf("rank mass: %.6f (should be ~1)\n", sum);
  std::printf("top-5 vertices by PageRank:\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  v%-8u rank %.3e\n", idx[static_cast<size_t>(i)],
                ranks[idx[static_cast<size_t>(i)]]);
  }
  return 0;
}
