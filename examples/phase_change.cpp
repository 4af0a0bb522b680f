// Working-set phase changes (the GUPS scenario of §6.2): watch each system's
// throughput timeline as the application abruptly shifts its working set,
// and measure how long it stalls.
//
//   $ ./build/examples/phase_change
#include <cstdio>
#include <string>

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/workloads/gups.h"

namespace {

void RunAndPlot(const magesim::KernelConfig& kernel) {
  using namespace magesim;
  GupsWorkload workload({.total_pages = 48 * 1024,
                         .threads = 24,
                         .zipf_theta = 0.75,
                         .phase_change_at = 500 * kMillisecond,
                         .run_for = 1 * kSecond,
                         .timeline_bucket = 100 * kMillisecond});
  FarMemoryMachine::Options options{
      .kernel = kernel, .local_mem_ratio = 0.85, .time_limit = 1100 * kMillisecond};
  ApplyEnvOverrides(&options);
  FarMemoryMachine machine(options, workload);
  machine.Run();

  // ASCII throughput plot, one row per 100 ms bucket.
  const TimeSeries& ts = workload.timeline();
  double peak = 0;
  for (size_t i = 0; i < 10; ++i) peak = std::max(peak, ts.RatePerSec(i));
  std::printf("\n%s (| = phase change):\n", kernel.name.c_str());
  for (size_t i = 0; i < 10; ++i) {
    double rate = ts.RatePerSec(i);
    int bars = peak > 0 ? static_cast<int>(rate / peak * 50) : 0;
    std::printf("  %3.1fs %c %-50.*s %6.2f M/s\n", 0.1 * static_cast<double>(i),
                i == 5 ? '|' : ' ', bars,
                "##################################################", rate / 1e6);
  }
}

}  // namespace

int main() {
  using namespace magesim;
  std::printf("GUPS with a working-set shift at t=0.5s, 85%% local memory\n");
  RunAndPlot(MageLibConfig());
  RunAndPlot(DilosConfig());
  RunAndPlot(HermitConfig());
  std::printf("\nMAGE dips briefly and recovers; the baselines stall while their\n"
              "eviction paths struggle to drain the old working set.\n");
  return 0;
}
