// Shared harness for the fault-handler breakdown figures (Figs. 6 and 16):
// the per-stage totals of faulting threads (RunResult::fault_stages, one
// entry per SpanKind) summed into the paper's six columns, per fault.
//
// Columns overlap by design: `alloc` is the whole allocation interval, so it
// also contains any synchronous eviction the fault ran, whose shootdown,
// isolate and writeback stages count again under tlb/accounting/other.
#ifndef MAGESIM_BENCH_FAULT_BREAKDOWN_H_
#define MAGESIM_BENCH_FAULT_BREAKDOWN_H_

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {

inline constexpr std::array<const char*, 6> kBreakdownColumns = {
    "rdma", "tlb", "accounting", "alloc", "entry", "other"};

// Column index of a stage kind, or -1 when no column counts it.
constexpr int BreakdownColumn(SpanKind k) {
  switch (k) {
    case SpanKind::kRdmaRead:  // includes the host rdma-stack section
      return 0;
    case SpanKind::kShootdownWait:
    case SpanKind::kLazyTlbWait:
      return 1;
    case SpanKind::kAccounting:
      return 2;
    case SpanKind::kAlloc:
    case SpanKind::kFreeWait:
    case SpanKind::kEvictBatch:  // synchronous eviction from the allocation
      return 3;
    case SpanKind::kEntry:
      return 4;
    case SpanKind::kMmLocks:
    case SpanKind::kMapInstall:
    case SpanKind::kRdmaWrite:  // sync-eviction writeback
      return 5;
    default:
      return -1;
  }
}

struct BreakdownCase {
  std::array<double, kBreakdownColumns.size()> us_per_fault{};
  double mean_fault_us = 0;
};

// Steady-state seqscan with active eviction (the Fig. 5 setup).
inline BreakdownCase RunBreakdownCase(const KernelConfig& cfg, int threads) {
  SeqScanWorkload wl({.region_pages = Scaled(1200) * static_cast<uint64_t>(threads),
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  RunResult r = RunMachine({.kernel = cfg,
                            .local_mem_ratio = 0.5,
                            .time_limit = 45 * kMillisecond,
                            .stats_warmup = 15 * kMillisecond},
                           wl);

  BreakdownCase out;
  std::array<SimTime, kBreakdownColumns.size()> total_ns{};
  for (int k = 0; k < kNumSpanKinds; ++k) {
    int col = BreakdownColumn(static_cast<SpanKind>(k));
    if (col < 0) continue;
    total_ns[static_cast<size_t>(col)] += r.fault_stages[static_cast<size_t>(k)].total_ns;
  }
  for (size_t c = 0; c < total_ns.size(); ++c) {
    out.us_per_fault[c] = r.faults == 0 ? 0.0
                                        : static_cast<double>(total_ns[c]) /
                                              static_cast<double>(r.faults) / 1000.0;
  }
  out.mean_fault_us = r.fault_latency.mean() / 1000.0;
  return out;
}

// Prints one figure: a row per (config, thread count), then the footnote.
inline void PrintBreakdownFigure(const char* banner, const std::vector<KernelConfig>& configs,
                                 const char* footnote) {
  PrintBanner(banner);
  std::vector<std::string> header{"system", "threads"};
  header.insert(header.end(), kBreakdownColumns.begin(), kBreakdownColumns.end());
  header.push_back("total(mean)");
  Table t(header);
  for (const KernelConfig& cfg : configs) {
    for (int threads : {24, 48}) {
      BreakdownCase r = RunBreakdownCase(cfg, threads);
      std::vector<std::string> row{cfg.name, std::to_string(threads)};
      for (double us : r.us_per_fault) row.push_back(Table::Num(us));
      row.push_back(Table::Num(r.mean_fault_us));
      t.AddRow(row);
    }
  }
  t.Print();
  std::printf("%s", footnote);
}

}  // namespace magesim

#endif  // MAGESIM_BENCH_FAULT_BREAKDOWN_H_
