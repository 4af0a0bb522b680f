// Extension study (§7 related work: LATR, EcoTLB): lazy TLB reconciliation
// vs. MAGE's batched IPI shootdowns on the eviction path. Lazy mode removes
// all shootdown traffic but delays frame recirculation by up to one tick, so
// it needs deeper free-page headroom to sustain the same fault rate.
#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct Res {
  double fault_mops;
  double p99_us;
  uint64_t ipis;
};

Res RunCase(KernelConfig cfg, int threads) {
  SeqScanWorkload wl({.region_pages = Scaled(1200) * static_cast<uint64_t>(threads),
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  RunResult r = RunMachine({.kernel = cfg,
                            .local_mem_ratio = 0.5,
                            .time_limit = 45 * kMillisecond,
                            .stats_warmup = 15 * kMillisecond},
                           wl);
  return {r.fault_mops, static_cast<double>(r.fault_latency.Percentile(99)) / 1000.0,
          r.ipis_sent};
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Extension: IPI shootdowns vs lazy TLB reconciliation (MAGE-Lib)");

  Table t({"threads", "ipi-Mops", "ipi-p99(us)", "ipis-sent", "lazy-Mops", "lazy-p99(us)",
           "lazy-ipis"});
  for (int threads : {8, 24, 48}) {
    KernelConfig ipi = MageLibConfig();
    KernelConfig lazy = MageLibConfig();
    lazy.lazy_tlb = true;
    // Deeper watermarks absorb the tick-granular reclaim delay.
    lazy.high_watermark = 0.16;
    lazy.low_watermark = 0.08;
    Res a = RunCase(ipi, threads);
    Res b = RunCase(lazy, threads);
    t.AddRow({std::to_string(threads), Table::Num(a.fault_mops), Table::Num(a.p99_us, 1),
              std::to_string(a.ipis), Table::Num(b.fault_mops), Table::Num(b.p99_us, 1),
              std::to_string(b.ipis)});
  }
  t.Print();
  return 0;
}
