// Latency-critical offloading: how much of a memcached-style KV store's
// memory can be offloaded while holding a p99 SLO? Mirrors §6.3: sweep the
// far-memory ratio at fixed load and report the largest ratio that satisfies
// the SLO for each system.
//
//   $ ./build/examples/kv_store_offload
#include <cstdio>

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/workloads/memcached.h"

namespace {

double P99Us(const magesim::KernelConfig& kernel, double local_ratio, double load) {
  using namespace magesim;
  MemcachedWorkload workload({.num_keys = 1 << 18,
                              .load_ops_per_sec = load,
                              .server_threads = 24,
                              .duration = 500 * kMillisecond});
  FarMemoryMachine::Options options{.kernel = kernel,
                                    .local_mem_ratio = local_ratio,
                                    .time_limit = 600 * kMillisecond,
                                    .stats_warmup = 100 * kMillisecond};
  ApplyEnvOverrides(&options);
  FarMemoryMachine machine(options, workload);
  machine.Run();
  return static_cast<double>(workload.request_latency().Percentile(99)) / 1000.0;
}

}  // namespace

int main() {
  using namespace magesim;
  constexpr double kSloUs = 200.0;  // the paper's 200 us p99 SLO
  constexpr double kLoad = 200000;  // fixed offered load (ops/s)

  std::printf("Memcached offloading under a %.0f us p99 SLO at %.0f Kops/s\n\n", kSloUs,
              kLoad / 1000);
  std::printf("%6s  %10s %10s %10s %10s\n", "far%", "magelib", "magelnx", "dilos", "hermit");

  std::vector<KernelConfig> systems = {MageLibConfig(), MageLnxConfig(), DilosConfig(),
                                       HermitConfig()};
  std::map<std::string, int> max_offload;
  for (int far = 0; far <= 80; far += 10) {
    std::printf("%5d%%  ", far);
    for (const auto& cfg : systems) {
      double p99 = P99Us(cfg, 1.0 - far / 100.0, kLoad);
      std::printf("%8.1fus ", p99);
      if (p99 <= kSloUs) {
        auto [it, inserted] = max_offload.try_emplace(cfg.name, far);
        if (!inserted && it->second == far - 10) it->second = far;
      }
    }
    std::printf("\n");
  }
  std::printf("\nmax offloadable memory within SLO:\n");
  for (const auto& cfg : systems) {
    std::printf("  %-8s %d%%\n", cfg.name.c_str(), max_offload[cfg.name]);
  }
  return 0;
}
