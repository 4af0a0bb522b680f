// Noisy-neighbor isolation: a latency-QoS sequential scanner sharing one
// machine with a GUPS neighbor that wants far more memory than exists.
//
// Three runs over the same 200 ms simulated window:
//   solo       the scanner alone (its working set fits in local DRAM)
//   baseline   scanner + GUPS on shared global accounting (no tenancy): the
//              random-access neighbor evicts the scanner at will
//   tenancy    same co-run with memory control groups attached: GUPS is
//              hard-capped and batch-QoS, the scanner is latency-QoS and
//              evicted from last
//
// The harness asserts the paper-extension acceptance bar — with tenancy the
// latency tenant retains >= 80% of its solo throughput, while the
// unprotected baseline retains < 50% — and exits nonzero if either side
// fails or any run reports invariant violations.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/multi_tenant.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

constexpr SimTime kWindow = 200 * kMillisecond;
// Scanner: 2 threads cycling 4096 pages until the window closes.
// Neighbor: 4 GUPS threads hammering 16384 pages (zipf .99), never finishing.
constexpr char kTenancySpec[] =
    "lat:4:0:latency=seqscan/2,pages=4096,passes=100000,compute_ns=2000;"
    "bg:1:0.35:0.3:batch=gups/8,pages=16384,theta=0.4,run_ms=600,phase_ms=600";
// Combined working set 20480 pages at 35% local => 7168 local pages: the
// scanner (4096) plus the capped neighbor (2508) still fit, but the
// uncapped neighbor alone wants more than twice the machine.
constexpr double kCombinedLocalRatio = 0.35;

struct LatResult {
  double mops = 0;  // latency-tenant ops over the window, in millions/s
  RunResult r;
};

FarMemoryMachine::Options BaseOptions(double local_ratio) {
  return {.kernel = MageLibConfig(),
          .local_mem_ratio = local_ratio,
          .seed = 42,
          .time_limit = kWindow,
          .check_final = true};
}

double LatOpsPerSec(FarMemoryMachine& m, const RunResult& r, int begin, int end) {
  return static_cast<double>(ThreadOps(m, begin, end)) / r.sim_seconds;
}

LatResult RunSolo() {
  SeqScanWorkload wl(SeqScanWorkload::Options{.region_pages = Scaled(4096),
                                              .threads = 2,
                                              .passes = 100000,
                                              .compute_per_page_ns = 2000});
  FarMemoryMachine::Options opt = BaseOptions(/*local_ratio=*/1.0);
  ApplyEnvOverrides(&opt);
  FarMemoryMachine m(opt, wl);
  LatResult out;
  out.r = m.Run();
  CheckClean(m, out.r, "solo");
  out.mops = LatOpsPerSec(m, out.r, 0, 2) / 1e6;
  return out;
}

// Shared-accounting baseline: the same two workloads, same cores, same vpn
// windows — built directly as a composite workload so no cgroups attach.
LatResult RunBaseline() {
  std::vector<TenantSpec> specs = ScaledTenantSpecs(kTenancySpec);
  std::string err;
  std::unique_ptr<MultiTenantWorkload> wl = MultiTenantWorkload::Build(&specs, &err);
  if (wl == nullptr) {
    std::fprintf(stderr, "FATAL: %s\n", err.c_str());
    std::exit(1);
  }
  FarMemoryMachine::Options opt = BaseOptions(kCombinedLocalRatio);
  ApplyEnvOverrides(&opt);
  FarMemoryMachine m(opt, *wl);
  LatResult out;
  out.r = m.Run();
  CheckClean(m, out.r, "baseline");
  out.mops = LatOpsPerSec(m, out.r, specs[0].thread_begin, specs[0].thread_end) / 1e6;
  return out;
}

LatResult RunWithTenancy() {
  FarMemoryMachine::Options opt = BaseOptions(kCombinedLocalRatio);
  opt.tenancy.tenants = ScaledTenantSpecs(kTenancySpec);
  opt.tenancy.enabled = true;
  SeqScanWorkload placeholder(
      SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  ApplyEnvOverrides(&opt);
  FarMemoryMachine m(opt, placeholder);
  LatResult out;
  out.r = m.Run();
  CheckClean(m, out.r, "tenancy");
  out.mops = LatOpsPerSec(m, out.r, out.r.tenants[0].name == "lat" ? 0 : 2, 2) / 1e6;
  return out;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;

  LatResult solo = RunSolo();
  LatResult base = RunBaseline();
  LatResult ten = RunWithTenancy();

  double base_keep = base.mops / solo.mops;
  double ten_keep = ten.mops / solo.mops;

  std::printf("# multitenant_isolation: latency scanner vs GUPS neighbor (200 ms window)\n");
  std::printf("%-10s %14s %10s\n", "run", "lat Mops/s", "retained");
  std::printf("%-10s %14.3f %9.1f%%\n", "solo", solo.mops, 100.0);
  std::printf("%-10s %14.3f %9.1f%%\n", "baseline", base.mops, 100.0 * base_keep);
  std::printf("%-10s %14.3f %9.1f%%\n", "tenancy", ten.mops, 100.0 * ten_keep);
  if (!ten.r.tenants.empty()) {
    const TenantRunResult& bg = ten.r.tenants[1];
    std::printf("neighbor   usage %llu/%llu pages, evicted %llu, hard-waits %llu, "
                "throttles %llu\n",
                static_cast<unsigned long long>(bg.usage_pages),
                static_cast<unsigned long long>(bg.hard_limit_pages),
                static_cast<unsigned long long>(bg.evict_selected),
                static_cast<unsigned long long>(bg.hard_limit_waits),
                static_cast<unsigned long long>(bg.backpressure_waits));
  }

  bool ok = true;
  if (ten_keep < 0.8) {
    std::fprintf(stderr, "FAIL: tenancy retained %.1f%% of solo (< 80%%)\n",
                 100.0 * ten_keep);
    ok = false;
  }
  if (base_keep >= 0.5) {
    std::fprintf(stderr, "FAIL: unprotected baseline retained %.1f%% of solo "
                 "(expected < 50%% — the neighbor should hurt)\n",
                 100.0 * base_keep);
    ok = false;
  }
  if (ok) std::printf("PASS: tenancy >= 80%% retained, baseline < 50%%\n");
  return ok ? 0 : 1;
}
