// Regression guard for the fault path's coroutine-frame budget. The common
// case fault runs in one frame (Kernel::Access); the RDMA completion block
// and its signal task add two more, and eviction, refills and other slow
// paths add a fraction. Every slab allocation is counted whether or not the
// slab serves it, so the budget holds on the sanitizer presets too (where
// the slab is compiled default-off).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/farmem.h"
#include "src/sim/slab_alloc.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

TEST(FrameBudgetTest, MageLibSeqScanTakesAtMostFourSlabAllocsPerFault) {
  SeqScanWorkload wl(
      SeqScanWorkload::Options{.region_pages = 4096, .threads = 8, .passes = 3});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = 1;
  FarMemoryMachine m(opt, wl);

  SlabAllocator::ResetStats();
  RunResult r = m.Run();
  const uint64_t allocs = SlabAllocator::stats().allocs;

  ASSERT_GT(r.faults, 0u);
  const double per_fault = static_cast<double>(allocs) / static_cast<double>(r.faults);
  std::printf("slab allocs %llu / faults %llu = %.4f per fault\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(r.faults), per_fault);
  EXPECT_LE(per_fault, 4.0);
}

}  // namespace
}  // namespace magesim
