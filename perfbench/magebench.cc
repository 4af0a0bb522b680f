// magebench: one repetition of one perfbench workload, driven through the
// public FarMemoryMachine API (src/core/farmem.h) and printed as one JSON
// object on stdout.
//
//   magebench <scan_evict|gups_fleet|pagerank_setup> <seed> <plain|traced>
//
// The binary times its own calls into the program (workload constructor,
// machine constructor, Run(), counter collection) and afterwards reads each
// module's public counters; it adds no instrumentation to src/. One process
// runs exactly one repetition, so its peak RSS and the slab allocator's
// process-wide counters belong to that repetition alone (slab chunks are
// never returned, so a second repetition in the same process would start
// from a grown heap).
//
// "plain" leaves every observability layer off: it is the run the
// end-to-end host times come from. "traced" turns on the run report
// (Options::metrics, for the SimPhase profiler), the span tracer
// (Options::spans) and one final invariant check (Options::check_final).
//
// run.py builds this binary, runs it once per repetition and aggregates.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/core/farmem.h"
#include "src/sim/slab_alloc.h"
#include "src/workloads/gups.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool KnownWorkload(const std::string& name) {
  return name == "scan_evict" || name == "gups_fleet" || name == "pagerank_setup";
}

// The benchmark seed becomes the machine seed (per-thread RNG streams, fleet
// placement), which draws gups_fleet's update stream. The other two
// workloads simulate the same run for every seed: a sequential scan draws no
// random numbers, and pagerank_setup keeps the workload's default Kronecker
// graph because its fault tail depends on the graph's shape (p99.9 spread
// 25% of the median across ten graph seeds, wider than any bound allows).
std::unique_ptr<Workload> BuildWorkload(const std::string& name) {
  if (name == "scan_evict") {
    // Read-only multi-pass scan at 50% far: past the first pass every access
    // is a major fault that forces an eviction (the fig05 eviction leg).
    return std::make_unique<SeqScanWorkload>(SeqScanWorkload::Options{
        .region_pages = 800 * 48, .threads = 48, .passes = 14, .compute_per_page_ns = 100});
  }
  if (name == "gups_fleet") {
    // The magesim_cli gups defaults at 24 threads: Zipf 0.99 updates with the
    // phase change halfway through.
    return std::make_unique<GupsWorkload>(GupsWorkload::Options{
        .total_pages = 48 * 1024,
        .threads = 24,
        .zipf_theta = 0.99,
        .phase_change_at = 300 * kMillisecond,
        .run_for = 600 * kMillisecond});
  }
  return std::make_unique<PageRankWorkload>(PageRankWorkload::Options{
      .scale = 18, .edge_factor = 16, .iterations = 3, .threads = 48});
}

FarMemoryMachine::Options MachineOptions(const std::string& name, uint64_t seed, bool traced) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.seed = seed;
  opt.local_mem_ratio = name == "pagerank_setup" ? 0.75 : 0.5;
  if (name == "gups_fleet") {
    opt.fleet.num_nodes = 4;
    opt.fleet.replication = 2;
  }
  if (traced) {
    opt.metrics.enabled = true;
    opt.spans.enabled = true;
    opt.check_final = true;
  }
  return opt;
}

// Flat JSON object in insertion order; values are numbers or plain strings.
class JsonLine {
 public:
  void Str(const char* key, const std::string& v) { Add(key, "\"" + v + "\""); }
  void U64(const char* key, uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    Add(key, buf);
  }
  void F64(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Add(key, buf);
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Add(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
  }
  std::string body_;
};

// Reads every module's public counters after Run(). The NIC counters are
// summed over every memory server: FarMemoryMachine::nic() is node 0 only,
// and on a fleet the other servers carry most of the replicated writes.
void Collect(FarMemoryMachine& m, const RunResult& r, const SlabStats& setup_slab,
             JsonLine* out) {
  const KernelStats& ks = m.kernel().stats();
  const SlabStats& slab = SlabAllocator::stats();

  out->U64("events", m.engine().events_processed());
  out->U64("faults", ks.faults);
  out->U64("fast_hits", ks.fast_hits);
  out->U64("evicted_pages", ks.evicted_pages);
  out->U64("clean_reclaims", ks.clean_reclaims);
  out->U64("sim_ns", static_cast<uint64_t>(std::llround(r.sim_seconds * 1e9)));
  out->U64("ops", r.total_ops);
  out->U64("fault_p50_ns", static_cast<uint64_t>(r.fault_latency.Percentile(50)));
  out->U64("fault_p999_ns", static_cast<uint64_t>(r.fault_latency.Percentile(99.9)));
  out->F64("ops_per_sec", r.ops_per_sec);

  out->U64("aborted", r.aborted ? 1 : 0);
  out->U64("pages_poisoned", r.pages_poisoned);
  out->U64("writebacks_lost", r.writebacks_lost);
  out->U64("fleet_silent_losses", r.fleet_silent_losses);
  out->U64("invariant_checks", r.invariant_checks);
  out->U64("invariant_violations", r.invariant_violations);

  out->U64("wss_pages", m.kernel().wss_pages());
  out->U64("slab_allocs", slab.allocs);
  out->U64("slab_freelist_hits", slab.freelist_hits);
  out->U64("slab_arena_bytes", setup_slab.chunk_bytes + slab.chunk_bytes);

  out->U64("dedup_waits", ks.dedup_waits);
  out->U64("eviction_batches", ks.eviction_batches);
  out->U64("sync_evictions", ks.sync_evictions);
  out->U64("free_page_waits", ks.free_page_waits);

  const LockStats acct = m.kernel().accounting_lock_stats();
  out->U64("acct_lock_acquisitions", acct.acquisitions);
  out->U64("acct_lock_contended", acct.contended);
  out->U64("acct_lock_wait_ns", static_cast<uint64_t>(acct.total_wait_ns));
  const LockStats& alloc = m.kernel().allocator().lock_stats();
  out->U64("alloc_lock_acquisitions", alloc.acquisitions);
  out->U64("alloc_lock_contended", alloc.contended);
  out->U64("alloc_lock_wait_ns", static_cast<uint64_t>(alloc.total_wait_ns));

  std::vector<RdmaNic*> nics;
  if (m.fleet() != nullptr) {
    for (int i = 0; i < m.fleet()->num_nodes(); ++i) nics.push_back(&m.fleet()->nic(i));
  } else {
    nics.push_back(&m.nic());
  }
  uint64_t reads = 0, writes = 0, read_busy = 0, write_busy = 0;
  for (RdmaNic* nic : nics) {
    reads += nic->reads_posted();
    writes += nic->writes_posted();
    read_busy += nic->read_busy_ns();
    write_busy += nic->write_busy_ns();
  }
  out->U64("nics", nics.size());
  out->U64("rdma_reads", reads);
  out->U64("rdma_writes", writes);
  out->U64("rdma_read_busy_ns", read_busy);
  out->U64("rdma_write_busy_ns", write_busy);

  out->U64("tlb_shootdowns", r.tlb_shootdown_latency.count());
  out->U64("ipis_sent", r.ipis_sent);
  out->U64("tlb_shootdown_p50_ns",
           static_cast<uint64_t>(r.tlb_shootdown_latency.Percentile(50)));

  out->U64("fleet_degraded_reads", r.fleet_degraded_reads);
  out->U64("rdma_retries", r.rdma_retries);
  out->U64("rdma_timeouts", r.rdma_timeouts);
  out->U64("breaker_opens", r.breaker_opens);

  if (const SimProfiler* prof = m.profiler(); prof != nullptr) {
    for (int p = 0; p < kNumSimPhases; ++p) {
      SimPhase phase = static_cast<SimPhase>(p);
      std::string key = std::string("phase_") + SimPhaseName(phase) + "_ns";
      out->U64(key.c_str(), static_cast<uint64_t>(prof->phase_total(phase)));
    }
  }
}

// Host-speed probe: a fixed binary-heap churn (4,096 keys, 2^20 pop/push
// pairs of pseudo-random keys), timed before any program code runs. Its
// branchy, cache-resident loop slows with the same host contention as the
// simulator's event loop (mostly another tenant on the sibling
// hyperthread); run.py rescales host times by it (README, "Host noise").
double HostProbeSeconds() {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  std::priority_queue<uint64_t> heap;
  for (int i = 0; i < 4096; ++i) heap.push(next());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < (1 << 20); ++i) {
    const uint64_t top = heap.top();
    heap.pop();
    heap.push(top ^ next());
  }
  const Clock::time_point t1 = Clock::now();
  volatile uint64_t sink = heap.top();  // keeps the loop observable
  (void)sink;
  return SecondsBetween(t0, t1);
}

// Peak resident set of this process image in KiB (VmHWM). getrusage's
// ru_maxrss is not used: Linux carries the pre-exec high-water mark of the
// forking parent into it, so a child of a Python launcher would report the
// interpreter's footprint.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

}  // namespace
}  // namespace magesim

int main(int argc, char** argv) {
  using namespace magesim;
  if (argc != 4) {
    std::fprintf(stderr, "usage: magebench <scan_evict|gups_fleet|pagerank_setup> <seed> "
                         "<plain|traced>\n");
    return 2;
  }
  const std::string name = argv[1];
  char* end = nullptr;
  const uint64_t seed = std::strtoull(argv[2], &end, 10);
  const std::string mode = argv[3];
  if (!KnownWorkload(name) || end == argv[2] || *end != '\0' ||
      (mode != "plain" && mode != "traced")) {
    std::fprintf(stderr, "magebench: bad arguments\n");
    return 2;
  }
  const bool traced = mode == "traced";

  const double probe_s = HostProbeSeconds();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Workload> wl = BuildWorkload(name);
  const Clock::time_point t1 = Clock::now();
  FarMemoryMachine m(MachineOptions(name, seed, traced), *wl);
  const Clock::time_point t2 = Clock::now();
  // Count slab traffic of Run() alone; the arena bytes carved during set-up
  // are added back below.
  const SlabStats setup_slab = SlabAllocator::stats();
  SlabAllocator::ResetStats();
  RunResult r = m.Run();
  const Clock::time_point t3 = Clock::now();

  JsonLine out;
  out.Str("workload", name);
  out.U64("seed", seed);
  out.U64("traced", traced ? 1 : 0);
  Collect(m, r, setup_slab, &out);
  const Clock::time_point t4 = Clock::now();

  out.F64("probe_s", probe_s);
  out.F64("workload_build_s", SecondsBetween(t0, t1));
  out.F64("machine_build_s", SecondsBetween(t1, t2));
  out.F64("run_s", SecondsBetween(t2, t3));
  out.F64("collect_s", SecondsBetween(t3, t4));
  out.U64("peak_rss_kb", PeakRssKb());
  out.Print();
  return 0;
}
