// fleet_availability: kill-one-of-four memory-server availability study.
//
// A latency-QoS sequential scanner and a GUPS neighbor share one machine
// whose far side is a 4-server fleet with 2-way replication. Two runs over
// the same 50 ms simulated window:
//
//   healthy   all four servers up for the whole window
//   crash     server 1 crashes at 15 ms and rejoins (empty) at 30 ms; reads
//             of its slots fail over to the surviving replica and the
//             rebuild driver re-replicates in the background after rejoin
//
// The harness asserts the robustness acceptance bar — the latency tenant
// retains >= 80% of its healthy throughput across the crash run, the crash
// produced degraded reads but zero lost slots (k=2 tolerates one failure),
// zero silent losses, and the rebuild converged (pending queue drained)
// before the window closed — and exits nonzero on any miss.
//
// It is also a tracked perf harness: the deterministic outcome (ops,
// degraded reads, slots rebuilt) lands in the "sim" group of
// BENCH_fleet_availability.json, exact-matched by tools/perf_diff.py, so any
// behavioural drift in placement, failover, or rebuild pacing fails CI.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/perf_common.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

constexpr SimTime kWindow = 50 * kMillisecond;
// Server 1 is down for 30% of the window, then rejoins with nothing.
constexpr char kCrashPlan[] = "crash@15ms-30ms:node=1";
// Same tenant mix as multitenant_isolation: a 2-thread latency scanner and a
// hard-capped 8-thread GUPS neighbor.
constexpr char kTenancySpec[] =
    "lat:4:0:latency=seqscan/2,pages=4096,passes=100000,compute_ns=2000;"
    "bg:1:0.35:0.3:batch=gups/8,pages=16384,theta=0.4,run_ms=600,phase_ms=600";
constexpr double kLocalRatio = 0.35;

struct Outcome {
  uint64_t lat_ops_healthy = 0;
  uint64_t lat_ops_crash = 0;
  uint64_t degraded_reads = 0;
  uint64_t repairs_queued = 0;
  uint64_t slots_rebuilt = 0;
  uint64_t faults_crash = 0;
  uint64_t events = 0;  // both runs, for the wall-clock throughput metric
  double retained = 0;
};

FarMemoryMachine::Options FleetOptions() {
  return {.kernel = MageLibConfig(),
          .local_mem_ratio = kLocalRatio,
          .seed = 42,
          .time_limit = kWindow,
          .check_final = true,
          .fleet = {.num_nodes = 4, .replication = 2, .rebuild_gbps = 50.0},
          .tenancy = {.enabled = true, .tenants = ScaledTenantSpecs(kTenancySpec)}};
}

Outcome RunOnce() {
  Outcome o;
  // The latency tenant is declared first, so its scanner owns threads [0, 2).
  const int lat_begin = 0, lat_end = 2;

  {  // Healthy fleet: the control run the crash run is measured against.
    FarMemoryMachine::Options opt = FleetOptions();
    SeqScanWorkload placeholder(
        SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
    ApplyEnvOverrides(&opt);
    FarMemoryMachine m(opt, placeholder);
    RunResult r = m.Run();
    CheckClean(m, r, "healthy");
    if (r.fleet_degraded_reads != 0 || r.fleet_slots_lost != 0 ||
        r.fleet_silent_losses != 0 || r.fleet_rebuild_pending != 0) {
      std::fprintf(stderr, "FATAL: healthy fleet run was not healthy\n");
      std::exit(1);
    }
    o.lat_ops_healthy = ThreadOps(m, lat_begin, lat_end);
    o.events += m.engine().events_processed();
  }

  {  // Same machine, same seed, server 1 dies mid-window.
    FarMemoryMachine::Options opt = FleetOptions();
    opt.fault_plan = kCrashPlan;
    SeqScanWorkload placeholder(
        SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
    ApplyEnvOverrides(&opt);
    FarMemoryMachine m(opt, placeholder);
    RunResult r = m.Run();
    CheckClean(m, r, "crash");
    bool ok = true;
    if (r.memnode_crashes != 1) {
      std::fprintf(stderr, "FAIL: expected 1 crash episode, saw %llu\n",
                   static_cast<unsigned long long>(r.memnode_crashes));
      ok = false;
    }
    if (r.fleet_degraded_reads == 0) {
      std::fprintf(stderr, "FAIL: crash produced no degraded reads\n");
      ok = false;
    }
    if (r.fleet_slots_lost != 0 || r.fleet_silent_losses != 0) {
      std::fprintf(stderr,
                   "FAIL: k=2 single crash lost data (lost=%llu silent=%llu)\n",
                   static_cast<unsigned long long>(r.fleet_slots_lost),
                   static_cast<unsigned long long>(r.fleet_silent_losses));
      ok = false;
    }
    if (r.fleet_slots_rebuilt == 0 || r.fleet_rebuild_pending != 0) {
      std::fprintf(stderr,
                   "FAIL: rebuild did not converge (rebuilt=%llu pending=%llu)\n",
                   static_cast<unsigned long long>(r.fleet_slots_rebuilt),
                   static_cast<unsigned long long>(r.fleet_rebuild_pending));
      ok = false;
    }
    if (!ok) std::exit(1);
    o.lat_ops_crash = ThreadOps(m, lat_begin, lat_end);
    o.degraded_reads = r.fleet_degraded_reads;
    o.repairs_queued = r.fleet_repairs_queued;
    o.slots_rebuilt = r.fleet_slots_rebuilt;
    o.faults_crash = r.faults;
    o.events += m.engine().events_processed();
  }

  o.retained = static_cast<double>(o.lat_ops_crash) /
               static_cast<double>(o.lat_ops_healthy);
  if (!(o.retained >= 0.8)) {  // negated so a 0/0 NaN also fails
    std::fprintf(stderr,
                 "FAIL: latency tenant retained %.1f%% of healthy throughput "
                 "across the crash (< 80%%)\n",
                 100.0 * o.retained);
    std::exit(1);
  }
  return o;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/1, /*default_measure=*/3);

  Outcome out;
  for (int i = 0; i < reps.warmup; ++i) out = RunOnce();
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.measure; ++i) {
    uint64_t t0 = WallNowNs();
    Outcome got = RunOnce();
    rep_ns.push_back(WallNowNs() - t0);
    if (out.events != 0 &&
        (got.events != out.events || got.degraded_reads != out.degraded_reads ||
         got.lat_ops_crash != out.lat_ops_crash)) {
      std::fprintf(stderr, "fleet_availability: nondeterministic rep\n");
      return 1;
    }
    out = got;
  }

  std::printf("# fleet_availability: kill one of four servers (k=2), 50 ms window\n");
  std::printf("lat ops healthy %llu, crash %llu (retained %.1f%%)\n",
              static_cast<unsigned long long>(out.lat_ops_healthy),
              static_cast<unsigned long long>(out.lat_ops_crash),
              100.0 * out.retained);
  std::printf("degraded reads %llu, repairs queued %llu, slots rebuilt %llu\n",
              static_cast<unsigned long long>(out.degraded_reads),
              static_cast<unsigned long long>(out.repairs_queued),
              static_cast<unsigned long long>(out.slots_rebuilt));

  PerfReport r("fleet_availability", reps);
  r.Sim("lat_ops_healthy", out.lat_ops_healthy);
  r.Sim("lat_ops_crash", out.lat_ops_crash);
  r.SimF("retained_frac", out.retained);
  r.Sim("degraded_reads", out.degraded_reads);
  r.Sim("repairs_queued", out.repairs_queued);
  r.Sim("slots_rebuilt", out.slots_rebuilt);
  r.Sim("faults_crash_run", out.faults_crash);
  r.Sim("events_per_rep", out.events);
  r.WallTimes(rep_ns, out.events, "events");
  r.Write();
  return 0;
}
