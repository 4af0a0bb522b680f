// Paper-shape regression suite: locks in the qualitative results the
// reproduction must preserve (who wins, rough factors, where saturation and
// collapse happen). If a refactor or recalibration breaks one of these, the
// corresponding figure no longer tells the paper's story.
#include <gtest/gtest.h>

#include "bench/fault_breakdown.h"
#include "src/core/farmem.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

// Steady-state fault throughput with active eviction (the Fig. 5 setup).
double FaultEvictMops(const KernelConfig& cfg, int threads) {
  SeqScanWorkload wl({.region_pages = 1200ull * static_cast<uint64_t>(threads),
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.5;
  opt.time_limit = 40 * kMillisecond;
  opt.stats_warmup = 15 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  return m.Run().fault_mops;
}

RunResult Fig14Run(const KernelConfig& cfg) {
  SeqScanWorkload wl({.region_pages = 1500ull * 48,
                      .threads = 48,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.3;
  opt.time_limit = 40 * kMillisecond;
  opt.stats_warmup = 15 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

TEST(PaperShapes, Fig5SystemOrderingAt48Threads) {
  double hermit = FaultEvictMops(HermitConfig(), 48);
  double dilos = FaultEvictMops(DilosConfig(), 48);
  double magelnx = FaultEvictMops(MageLnxConfig(), 48);
  double magelib = FaultEvictMops(MageLibConfig(), 48);
  // Paper Fig. 5 / §6.4: magelib ~ NIC limit > magelnx > dilos > hermit.
  EXPECT_GT(magelib, 5.2);         // >= ~90% of the 5.83 M ops/s ideal
  EXPECT_GT(magelib, magelnx);
  EXPECT_GT(magelnx, dilos * 1.5);
  EXPECT_GT(dilos, hermit * 1.2);
  EXPECT_LT(hermit, 2.0);          // Hermit collapses far below ideal
}

TEST(PaperShapes, Fig5BaselinesSaturateNearSocketBoundary) {
  // Hermit/DiLOS stop scaling by ~24-32 threads; MAGE keeps scaling.
  double dilos24 = FaultEvictMops(DilosConfig(), 24);
  double dilos48 = FaultEvictMops(DilosConfig(), 48);
  EXPECT_LT(dilos48, dilos24 * 1.25);  // flat past saturation
  double mage24 = FaultEvictMops(MageLibConfig(), 24);
  double mage48 = FaultEvictMops(MageLibConfig(), 48);
  EXPECT_GT(mage48, mage24 * 1.25);  // still scaling toward the NIC limit
}

TEST(PaperShapes, Fig14TailLatencyOrderingAndSyncEvictions) {
  RunResult magelib = Fig14Run(MageLibConfig());
  RunResult dilos = Fig14Run(DilosConfig());
  RunResult hermit = Fig14Run(HermitConfig());
  // Paper: p99 of 12 / 82 / 255 us for magelib / dilos / hermit.
  EXPECT_LT(magelib.fault_latency.Percentile(99), dilos.fault_latency.Percentile(99));
  EXPECT_LT(dilos.fault_latency.Percentile(99), hermit.fault_latency.Percentile(99));
  // MAGE eliminates synchronous eviction entirely; Hermit relies on it.
  EXPECT_EQ(magelib.sync_evictions, 0u);
  EXPECT_GT(hermit.sync_evictions, 0u);
  // MAGE-Lib approaches wire speed (paper: 94% of 192 Gbps).
  EXPECT_GT(magelib.nic_read_gbps, 0.85 * 192.0);
}

TEST(PaperShapes, Fig7ShootdownLatencyGrowsWithThreads) {
  auto mean_shootdown_us = [](int threads) {
    SeqScanWorkload wl({.region_pages = 1000ull * static_cast<uint64_t>(threads),
                        .threads = threads,
                        .passes = 1000,
                        .compute_per_page_ns = 100});
    FarMemoryMachine::Options opt;
    opt.kernel = HermitConfig();
    opt.local_mem_ratio = 0.5;
    opt.time_limit = 25 * kMillisecond;
    opt.stats_warmup = 10 * kMillisecond;
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    return r.tlb_shootdown_latency.mean() / 1000.0;
  };
  double at8 = mean_shootdown_us(8);
  double at48 = mean_shootdown_us(48);
  EXPECT_GT(at48, 2.0 * at8);  // paper: grows multi-x with thread count
}

TEST(PaperShapes, Fig16MageShrinksAccountingAndAlloc) {
  // The Fig. 16 harness's own columns at 48 threads: partitioned accounting
  // and the multilayer allocator cut both components below DiLOS's (paper:
  // accounting 2.1 -> 0.2 us, circulation 2.4 -> 0.5 us).
  constexpr size_t kAccounting = 2, kAlloc = 3;
  ASSERT_STREQ(kBreakdownColumns[kAccounting], "accounting");
  ASSERT_STREQ(kBreakdownColumns[kAlloc], "alloc");
  BreakdownCase dilos = RunBreakdownCase(DilosConfig(), 48);
  BreakdownCase magelib = RunBreakdownCase(MageLibConfig(), 48);
  EXPECT_LT(magelib.us_per_fault[kAccounting], dilos.us_per_fault[kAccounting]);
  EXPECT_LT(magelib.us_per_fault[kAlloc], dilos.us_per_fault[kAlloc]);
}

TEST(PaperShapes, MageNeverSyncEvictsAnywhere) {
  for (double ratio : {0.7, 0.4, 0.15}) {
    for (const auto& cfg : {MageLibConfig(), MageLnxConfig()}) {
      SeqScanWorkload wl({.region_pages = 16384, .threads = 16, .passes = 2,
                          .compute_per_page_ns = 300});
      FarMemoryMachine::Options opt;
      opt.kernel = cfg;
      opt.local_mem_ratio = ratio;
      FarMemoryMachine m(opt, wl);
      RunResult r = m.Run();
      EXPECT_EQ(r.sync_evictions, 0u) << cfg.name << " @ " << ratio;
    }
  }
}

}  // namespace
}  // namespace magesim
