// Chaos scenarios: the resilient data path under scripted fault plans
// (src/resilience/). Each scenario runs GUPS and a sequential scan through
// the same injection schedule and reports throughput retained vs. a healthy
// baseline next to the resilience counters — how much work a brownout, a
// flapping link, or a memory-node crash actually costs, and what the retry/
// breaker machinery absorbed. Every run finishes under the invariant checker;
// a non-zero violation count fails the harness.
//
// Plans are compact FaultPlan specs; tweak or add rows to script new
// scenarios (see docs/INTERNALS.md "Fault injection & resilience").
#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "src/workloads/gups.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct Scenario {
  const char* name;
  const char* plan;  // "" = healthy baseline
};

const Scenario kScenarios[] = {
    {"baseline", ""},
    {"brownout", "brownout@100ms-400ms:bw=0.2,lat=15us"},
    {"flaky-link", "drop@50ms-600ms:p=0.02;spike@50ms-600ms:p=0.01,lat=40us"},
    {"error-burst", "error@200ms-260ms:p=0.5"},
    {"crash-recover", "crash@200ms-260ms"},
    {"pile-up", "degrade@100ms-300ms:p=0.05,bw=0.5;crash@350ms-380ms;"
                "brownout@450ms-550ms:bw=0.25"},
};

struct ChaosResult {
  RunResult r;
  double mops = 0;
};

ChaosResult RunScenario(Workload& wl, const char* plan, SimTime run_for) {
  FarMemoryMachine::Options opt{.kernel = MageLibConfig(), .local_mem_ratio = 0.5, .seed = 42};
  // Plans are per-scenario: applied after the env overrides so a
  // MAGESIM_FAULT_PLAN cannot clobber the baseline row.
  ApplyEnvOverrides(&opt);
  opt.fault_plan = plan;
  opt.time_limit = run_for;
  opt.check_final = true;
  FarMemoryMachine m(opt, wl);
  ChaosResult out;
  out.r = m.Run();
  out.mops = out.r.ops_per_sec / 1e6;
  CheckClean(m, out.r, plan);
  return out;
}

void RunWorkloadSweep(const char* wl_name, SimTime run_for,
                      const std::function<std::unique_ptr<Workload>()>& make) {
  std::printf("\n-- %s --\n", wl_name);
  Table t({"scenario", "Mops/s", "retained", "retries", "timeouts", "brk-open",
           "poisoned", "wb-lost", "throttled", "inj-drop", "inj-err", "crashes"});
  double baseline = 0;
  for (const Scenario& s : kScenarios) {
    std::unique_ptr<Workload> wl = make();
    ChaosResult c = RunScenario(*wl, s.plan, run_for);
    if (baseline == 0) baseline = c.mops;
    t.AddRow({s.name, Table::Num(c.mops),
              Table::Pct(baseline > 0 ? c.mops / baseline * 100 : 0),
              std::to_string(c.r.rdma_retries), std::to_string(c.r.rdma_timeouts),
              std::to_string(c.r.breaker_opens), std::to_string(c.r.pages_poisoned),
              std::to_string(c.r.writebacks_lost), std::to_string(c.r.prefetch_throttles),
              std::to_string(c.r.injected_drops), std::to_string(c.r.injected_errors),
              std::to_string(c.r.memnode_crashes)});
  }
  t.Print();
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Chaos scenarios: throughput retained under scripted fault plans "
              "(50% far memory, magelib)");

  // Fixed duration (not MAGESIM_SCALE-scaled): the plan windows above are
  // absolute times and every scenario must fully play out.
  SimTime run_for = 600 * kMillisecond;
  uint64_t gups_pages = Scaled(32 * 1024);
  uint64_t scan_pages = Scaled(16 * 1024);

  RunWorkloadSweep("gups", run_for, [&]() -> std::unique_ptr<Workload> {
    return std::make_unique<GupsWorkload>(GupsWorkload::Options{
        .total_pages = gups_pages,
        .threads = 16,
        .phase_change_at = run_for,  // single-phase: isolate injection effects
        .run_for = run_for,
        .prewarm_region_a = false});
  });
  RunWorkloadSweep("seqscan", run_for, [&]() -> std::unique_ptr<Workload> {
    return std::make_unique<SeqScanWorkload>(
        SeqScanWorkload::Options{.region_pages = scan_pages, .threads = 8, .passes = 1000});
  });

  std::printf("\nAll scenarios completed with zero invariant violations.\n");
  return 0;
}
