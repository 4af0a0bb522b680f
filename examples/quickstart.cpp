// Quickstart: run an application on a simulated MAGE far-memory machine and
// inspect what the paging layer did.
//
//   $ ./build/examples/quickstart
//
// The public API in three steps: pick a workload, pick a kernel variant and
// an offloading ratio, run the machine.
#include <cstdio>

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/workloads/seqscan.h"

int main() {
  using namespace magesim;

  // 1. A workload: 8 threads scanning a 64 MB region twice.
  SeqScanWorkload workload({.region_pages = 16 * 1024, .threads = 8, .passes = 2});

  // 2. A machine: MAGE-Lib kernel, 40% of the working set offloaded to the
  //    far-memory node.
  FarMemoryMachine::Options options;
  options.kernel = MageLibConfig();
  options.local_mem_ratio = 0.6;

  // 3. Run and inspect.
  ApplyEnvOverrides(&options);
  FarMemoryMachine machine(options, workload);
  RunResult r = machine.Run();

  std::printf("workload:        %s (%d threads, %llu pages WSS)\n", workload.name().c_str(),
              workload.num_threads(),
              static_cast<unsigned long long>(workload.wss_pages()));
  std::printf("kernel:          %s\n", options.kernel.name.c_str());
  std::printf("simulated time:  %.3f s\n", r.sim_seconds);
  std::printf("throughput:      %.2f M pages/s\n", r.ops_per_sec / 1e6);
  std::printf("major faults:    %llu (%.2f M/s)\n",
              static_cast<unsigned long long>(r.faults), r.fault_mops);
  std::printf("fault latency:   %s\n", r.fault_latency.Summary().c_str());
  std::printf("evicted pages:   %llu in %llu batches\n",
              static_cast<unsigned long long>(r.evicted_pages),
              static_cast<unsigned long long>(r.faults ? r.evicted_pages / 256 + 1 : 0));
  std::printf("sync evictions:  %llu (MAGE forbids them by design)\n",
              static_cast<unsigned long long>(r.sync_evictions));
  std::printf("network:         read %.1f Gbps, write %.1f Gbps\n", r.nic_read_gbps,
              r.nic_write_gbps);
  std::printf("TLB shootdowns:  %s\n", r.tlb_shootdown_latency.Summary().c_str());
  std::printf("checksum:        %llx (placement-independent)\n",
              static_cast<unsigned long long>(workload.checksum()));
  return 0;
}
