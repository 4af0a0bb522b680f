// Figure 16: average fault-handler latency breakdown of DiLOS vs the MAGE
// variants at 24 and 48 threads. MAGE-Lib eliminates TLB work from the fault
// path, shrinks accounting via partitioning, and shrinks circulation via the
// multilayer allocator.
#include "bench/fault_breakdown.h"

int main() {
  using namespace magesim;
  PrintBreakdownFigure(
      "Figure 16: fault-handler breakdown, DiLOS vs MAGE variants (us/fault)",
      {DilosConfig(), MageLnxConfig(), MageLibConfig()},
      "(paper at 48T: magelib accounting 2.1->0.2 us via partitioning,\n"
      " circulation 2.4->0.5 us via the staging allocator, no TLB in FP)\n");
  return 0;
}
