// Stage scopes feed three views of the same intervals — span leaves, the
// sim-time profiler and the exact per-stage fault totals. This run checks
// that the views agree under sync eviction, where fault-path stages nest an
// eviction batch inside the allocation stage.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/core/farmem.h"
#include "src/paging/stage.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

// Integer value of `"key":<n>` in one JSONL span line.
int64_t Field(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + key.size() + 3);
}

std::string StrField(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":\"");
  if (at == std::string::npos) return "";
  at += key.size() + 4;
  return line.substr(at, line.find('"', at) - at);
}

TEST(StageViewsTest, SpansProfilerAndTotalsAgreeUnderSyncEviction) {
  const int threads = 32;
  const std::string spans_path = testing::TempDir() + "stage_views_spans.jsonl";
  SeqScanWorkload wl({.region_pages = 16384,
                      .threads = threads,
                      .passes = 2,
                      .compute_per_page_ns = 100,
                      .write = true});  // dirty victims: sync eviction writes back
  FarMemoryMachine::Options opt;
  opt.kernel = HermitConfig();
  opt.local_mem_ratio = 0.3;
  opt.metrics.enabled = true;
  opt.spans.enabled = true;
  opt.spans.sample_every = 1;
  opt.spans.out_path = spans_path;
  // No time limit and no warmup reset: every fault finishes (so its span
  // tree is exported) and all three views cover the whole run.
  StageTotals totals;
  std::array<SimTime, kNumSimPhases> app_phase{};
  SimTime app_stolen = 0;
  {
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    ASSERT_GT(r.sync_evictions, 0u);
    totals = r.fault_stages;
    const SimProfiler& prof = *m.profiler();
    for (int c = 0; c < threads; ++c) {
      for (int p = 0; p < kNumSimPhases; ++p) {
        app_phase[static_cast<size_t>(p)] += prof.core_phase(c, static_cast<SimPhase>(p));
      }
      app_stolen += m.kernel().topology().core(c).stolen_total_ns();
    }
  }  // the machine's span tracer flushes and closes the export here

  auto total = [&](SpanKind k) { return totals[static_cast<size_t>(k)].total_ns; };

  // View 1: span leaves under fault roots (incl. the nested sync-eviction
  // batches, whose spans also match the kEvictBatch stage) sum to the exact
  // stage totals.
  std::array<SimTime, kNumSpanKinds> leaf_ns{};
  std::ifstream in(spans_path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (StrField(line, "op") != "fault") continue;
    std::string kind = StrField(line, "kind");
    for (int k = 0; k < kNumSpanKinds; ++k) {
      if (kind == SpanKindName(static_cast<SpanKind>(k))) {
        leaf_ns[static_cast<size_t>(k)] += Field(line, "t1") - Field(line, "t0");
      }
    }
  }
  in.close();
  std::remove(spans_path.c_str());
  ASSERT_GT(lines, 0u);
  for (SpanKind k : {SpanKind::kEntry, SpanKind::kMmLocks, SpanKind::kAlloc,
                     SpanKind::kMapInstall, SpanKind::kAccounting, SpanKind::kUnmapVictims,
                     SpanKind::kShootdownWait, SpanKind::kRdmaWrite, SpanKind::kReclaim,
                     SpanKind::kEvictBatch}) {
    EXPECT_GT(total(k), 0) << SpanKindName(k);
    EXPECT_EQ(leaf_ns[static_cast<size_t>(k)], total(k)) << SpanKindName(k);
  }
  // The read stage also spans the host rdma-stack section, which its leaf
  // (the NIC op) leaves out: at least one critical section per read.
  const StageTotal& read = totals[static_cast<size_t>(SpanKind::kRdmaRead)];
  EXPECT_GE(read.total_ns - leaf_ns[static_cast<size_t>(SpanKind::kRdmaRead)],
            static_cast<SimTime>(read.count) * HermitConfig().rdma_stack_cs_ns);

  // View 2: on app cores each profiler phase is exactly the stage totals
  // mapped to it; TLB wait additionally absorbs flush-IPI handler time.
  std::array<SimTime, kNumSimPhases> mapped{};
  for (int k = 0; k < kNumSpanKinds; ++k) {
    SimPhase p = StagePhase(static_cast<SpanKind>(k));
    if (p == SimPhase::kNumPhases) continue;
    mapped[static_cast<size_t>(p)] += totals[static_cast<size_t>(k)].total_ns;
  }
  for (SimPhase p : {SimPhase::kFaultMap, SimPhase::kFaultAlloc, SimPhase::kAccounting,
                     SimPhase::kRdmaWait, SimPhase::kEviction, SimPhase::kFreeWait}) {
    EXPECT_EQ(app_phase[static_cast<size_t>(p)], mapped[static_cast<size_t>(p)])
        << SimPhaseName(p);
  }
  SimTime tlb = app_phase[static_cast<size_t>(SimPhase::kTlbWait)];
  SimTime tlb_stages = mapped[static_cast<size_t>(SimPhase::kTlbWait)];
  EXPECT_GT(tlb_stages, 0);
  EXPECT_GE(tlb, tlb_stages);
  EXPECT_LE(tlb, tlb_stages + app_stolen);
}

}  // namespace
}  // namespace magesim
