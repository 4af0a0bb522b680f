// Figure 6: average fault-handler latency breakdown for DiLOS and Hermit at
// 24 and 48 threads with active eviction. At low thread count RDMA dominates;
// at 48 threads TLB (sync-eviction shootdowns), page accounting, and
// allocation blow up.
#include "bench/fault_breakdown.h"

int main() {
  using namespace magesim;
  PrintBreakdownFigure(
      "Figure 6: fault-handler latency breakdown, eviction active (us/fault)",
      {DilosConfig(), HermitConfig()},
      "('tlb' in the fault handler = synchronous-eviction shootdowns; zero means\n"
      " eviction stayed asynchronous)\n");
  return 0;
}
