// Golden-trace regression test: a table of scenarios, each fingerprinted by
// the trace hash plus per-type event counts and checked against its own
// golden file in the source tree. The canonical seqscan run covers the fault
// path, evictors, allocators and fabric; the others pin each remote data
// path (direct NIC with dirty writebacks, single-node resilient, fleet), the
// prefetcher's degraded-channel behaviour, and the allocator and accounting
// variants the canonical run does not reach (DiLOS's global mutex and
// global LRU, S3-FIFO, MGLRU). Any behavioral change shows
// up as a readable per-counter diff.
//
// Intentional behavior changes: regenerate with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated goldens alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "src/core/farmem.h"
#include "src/trace/trace.h"
#include "src/workloads/gups.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct GoldenScenario {
  const char* name;  // golden file stem
  const char* what;  // golden file header
  std::unique_ptr<Workload> (*workload)();
  FarMemoryMachine::Options (*options)();
};

std::unique_ptr<Workload> SmallSeqScan() {
  return std::make_unique<SeqScanWorkload>(
      SeqScanWorkload::Options{.region_pages = 2048, .threads = 2, .passes = 2});
}

// Sixteen threads: enough faulting pressure to outrun a single evictor.
std::unique_ptr<Workload> WideSeqScan() {
  return std::make_unique<SeqScanWorkload>(
      SeqScanWorkload::Options{.region_pages = 4096, .threads = 16, .passes = 3});
}

std::unique_ptr<Workload> PrefetchSeqScan() {
  return std::make_unique<SeqScanWorkload>(
      SeqScanWorkload::Options{.region_pages = 4096, .threads = 4, .passes = 4});
}

// Zipf read-modify-write: every eviction batch carries dirty pages.
std::unique_ptr<Workload> SmallGups() {
  return std::make_unique<GupsWorkload>(GupsWorkload::Options{.total_pages = 4096,
                                                              .threads = 4,
                                                              .phase_change_at = 5 * kMillisecond,
                                                              .run_for = 10 * kMillisecond,
                                                              .prewarm_region_a = false});
}

// Canonical scenario: a small sequential scan at 40% far memory on the
// MAGE-library config. Small enough to run in <1s, rich enough to exercise
// faults, pipelined eviction, shootdowns and RDMA reads.
FarMemoryMachine::Options CanonicalOptions() {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  return opt;
}

FarMemoryMachine::Options GupsOptions(KernelConfig kernel, double local_mem_ratio = 0.5) {
  FarMemoryMachine::Options opt;
  opt.kernel = kernel;
  opt.local_mem_ratio = local_mem_ratio;
  opt.seed = 1;
  return opt;
}

// Direct NIC path: sequential evictor, sync eviction, swap slots.
FarMemoryMachine::Options HermitOptions() { return GupsOptions(HermitConfig(), 0.3); }

// Single-node resilient path: pipelined evictor's spawned writebacks with
// lost and failed completions retried.
FarMemoryMachine::Options ChaosOptions() {
  FarMemoryMachine::Options opt = GupsOptions(MageLibConfig());
  opt.fault_plan = "drop@1ms-6ms:p=0.05;error@3ms-8ms:p=0.05";
  return opt;
}

// Fleet path: replicated slot writebacks, degraded reads while server 1 is
// down, and its rebuild after it rejoins.
FarMemoryMachine::Options FleetOptions() {
  FarMemoryMachine::Options opt = GupsOptions(MageLibConfig());
  opt.fleet.num_nodes = 2;
  opt.fault_plan = "crash@2ms-4ms:node=1";
  return opt;
}

// DiLOS: global-mutex allocator and global LRU. One evictor behind 16
// scanning threads runs the pool down to the min watermark, so faults also
// take the synchronous-eviction fallback.
FarMemoryMachine::Options DilosOptions() {
  KernelConfig k = DilosConfig();
  k.num_evictors = 1;
  return GupsOptions(k);
}

// MageLib with S3-FIFO's small/main/ghost queues in place of the
// partitioned FIFO.
FarMemoryMachine::Options S3FifoOptions() {
  KernelConfig k = MageLibConfig();
  k.accounting = AccountingPolicy::kS3Fifo;
  return GupsOptions(k);
}

// MageLib with MGLRU generations; one evictor at 70% far leaves faulting
// threads waiting for free pages.
FarMemoryMachine::Options MgLruOptions() {
  KernelConfig k = MageLibConfig();
  k.accounting = AccountingPolicy::kMgLru;
  k.num_evictors = 1;
  return GupsOptions(k, 0.3);
}

// Read-ahead on a failing read channel: prefetches throttled while the read
// breaker is open and abandoned when their retries run out.
FarMemoryMachine::Options PrefetchOptions() {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.kernel.prefetch = true;
  opt.local_mem_ratio = 0.5;
  opt.seed = 9;
  opt.fault_plan = "error@2ms-20ms:p=0.95";
  opt.time_limit = 60 * kMillisecond;
  return opt;
}

const GoldenScenario kCanonical{"seqscan_magelib", "canonical seqscan/magelib",
                                SmallSeqScan, CanonicalOptions};

const GoldenScenario kDataPathScenarios[] = {
    {"gups_hermit", "gups/hermit direct-NIC", SmallGups, HermitOptions},
    {"gups_magelib_chaos", "gups/magelib drop+error", SmallGups, ChaosOptions},
    {"gups_magelib_fleet_crash", "gups/magelib 2-node fleet crash", SmallGups, FleetOptions},
    {"seqscan_prefetch_error", "seqscan/magelib prefetch under errors", PrefetchSeqScan,
     PrefetchOptions},
    {"seqscan_dilos", "seqscan/dilos global mutex + global LRU, sync eviction", WideSeqScan,
     DilosOptions},
    {"gups_magelib_s3fifo", "gups/magelib S3-FIFO accounting", SmallGups, S3FifoOptions},
    {"seqscan_magelib_mglru", "seqscan/magelib MGLRU accounting, free-page waits",
     WideSeqScan, MgLruOptions},
};

std::string GoldenPath(const GoldenScenario& s) {
  return std::string(MAGESIM_GOLDEN_DIR) + "/" + s.name + ".golden";
}

std::map<std::string, uint64_t> RunScenario(const GoldenScenario& s) {
  std::unique_ptr<Workload> wl = s.workload();

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  FarMemoryMachine m(s.options(), *wl);
  RunResult r = m.Run();

  std::map<std::string, uint64_t> fp;
  fp["hash"] = hash.hash();
  fp["total"] = hash.total_events();
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType t = static_cast<TraceEventType>(i);
    fp[std::string("count.") + TraceEventName(t)] = hash.count(t);
  }
  fp["result.faults"] = r.faults;
  fp["result.evicted_pages"] = r.evicted_pages;
  fp["result.total_ops"] = r.total_ops;
  fp["result.sim_ns"] = static_cast<uint64_t>(r.sim_seconds * 1e9 + 0.5);
  return fp;
}

std::map<std::string, uint64_t> LoadGolden(const std::string& path) {
  std::map<std::string, uint64_t> g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    g[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
  }
  return g;
}

void SaveGolden(const GoldenScenario& s, const std::map<std::string, uint64_t>& fp) {
  std::ofstream out(GoldenPath(s));
  out << "# Golden fingerprint for the " << s.what << " scenario.\n"
      << "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test\n";
  for (const auto& [k, v] : fp) out << k << "=" << v << "\n";
}

void CheckGolden(const GoldenScenario& s) {
  std::map<std::string, uint64_t> fp = RunScenario(s);

  if (std::getenv("MAGESIM_UPDATE_GOLDEN") != nullptr) {
    SaveGolden(s, fp);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath(s);
  }

  std::map<std::string, uint64_t> golden = LoadGolden(GoldenPath(s));
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << GoldenPath(s)
      << " — generate it with MAGESIM_UPDATE_GOLDEN=1";

  // Per-counter diff: report every divergent key, not just the first, so a
  // behavior change reads as "faults +312, evictions +2 batches" at a glance.
  std::ostringstream diff;
  for (const auto& [k, want] : golden) {
    auto it = fp.find(k);
    uint64_t got = it == fp.end() ? 0 : it->second;
    if (got != want) {
      diff << "  " << k << ": golden=" << want << " got=" << got << " ("
           << (got >= want ? "+" : "-") << (got >= want ? got - want : want - got)
           << ")\n";
    }
  }
  for (const auto& [k, v] : fp) {
    if (golden.find(k) == golden.end() && v != 0) {
      diff << "  " << k << ": golden=<absent> got=" << v << "\n";
    }
  }
  EXPECT_TRUE(diff.str().empty())
      << "trace fingerprint diverged from golden (" << GoldenPath(s) << "):\n"
      << diff.str()
      << "If this change is intentional, regenerate with MAGESIM_UPDATE_GOLDEN=1 "
         "and commit the new golden.";
}

TEST(GoldenTraceTest, CanonicalScenarioMatchesGolden) { CheckGolden(kCanonical); }

// Prints the scenario name, so ctest names each case after its golden file.
void PrintTo(const GoldenScenario& s, std::ostream* os) { *os << s.name; }

class DataPathGoldenTest : public ::testing::TestWithParam<GoldenScenario> {};

TEST_P(DataPathGoldenTest, MatchesGolden) { CheckGolden(GetParam()); }

INSTANTIATE_TEST_SUITE_P(GoldenTraceTest, DataPathGoldenTest,
                         ::testing::ValuesIn(kDataPathScenarios));

}  // namespace
}  // namespace magesim
