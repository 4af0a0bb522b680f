// End-to-end fleet runs: a real workload over a 4-server, 2-replica far side
// survives a node-targeted crash with degraded reads, background rebuild
// converges, nothing is lost silently, and the invariant checker (including
// the fleet replica-safety rule) stays green. Plans naming servers outside
// the fleet are rejected at machine construction.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/farmem.h"
#include "src/workloads/gups.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

GupsWorkload::Options SmallGups() {
  GupsWorkload::Options o;
  o.total_pages = 4096;
  o.threads = 4;
  o.phase_change_at = 5 * kMillisecond;
  o.run_for = 10 * kMillisecond;
  o.prewarm_region_a = false;
  return o;
}

FarMemoryMachine::Options FleetOptions(uint64_t seed, int nodes, int replicas) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = seed;
  opt.check_final = true;
  opt.fleet.num_nodes = nodes;
  opt.fleet.replication = replicas;
  opt.fleet.rebuild_gbps = 50.0;
  return opt;
}

TEST(FleetIntegrationTest, HealthyFleetRunsCleanWithNoDegradedReads) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(3, 4, 2);
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.fleet_nodes, 4u);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.faults, 0u);
  EXPECT_EQ(r.fleet_degraded_reads, 0u);
  EXPECT_EQ(r.fleet_slots_lost, 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.fleet_rebuild_pending, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_FALSE(r.aborted);
}

// Every system variant on a 2-server fleet. Under the slot-based variants
// (Hermit) a victim can fault back in while its eviction batch waits on the
// shootdown, which frees its swap slot; the batch's writeback must still go
// to a real fleet slot.
TEST(FleetIntegrationTest, EverySystemVariantRunsCleanOnTwoNodeFleet) {
  for (const KernelConfig& cfg : AllSystemConfigs()) {
    SCOPED_TRACE(cfg.name);
    SeqScanWorkload wl({.region_pages = 4096, .threads = 8, .passes = 2});
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 0.6;
    opt.check_final = true;
    opt.time_limit = 5 * kSecond;
    opt.fleet.num_nodes = 2;
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    EXPECT_EQ(r.fleet_nodes, 2u);
    EXPECT_GT(r.total_ops, 0u);
    EXPECT_LT(r.sim_seconds, 5.0);  // the workload finished, not the limit
    EXPECT_EQ(r.invariant_checks, 1u);
    EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
    EXPECT_EQ(r.fleet_silent_losses, 0u);
    EXPECT_FALSE(r.aborted);
  }
}

TEST(FleetIntegrationTest, KillOneOfFourDegradedReadsThenRebuildConverges) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(5, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=1";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.memnode_crashes, 1u);
  EXPECT_EQ(r.fault_windows, 1u);
  // Slots whose placement primary was server 1 were served degraded from the
  // surviving replica during the outage...
  EXPECT_GT(r.fleet_degraded_reads, 0u);
  // ...with k=2, a single crash loses nothing...
  EXPECT_EQ(r.fleet_slots_lost, 0u);
  EXPECT_EQ(r.pages_poisoned, 0u);
  // ...and after recovery the rebuild driver restored the replica set.
  EXPECT_GT(r.fleet_slots_rebuilt, 0u);
  EXPECT_EQ(r.fleet_rebuild_pending, 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_FALSE(r.aborted);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(FleetIntegrationTest, FleetRunIsDeterministicPerSeed) {
  auto run = [] {
    GupsWorkload wl(SmallGups());
    FarMemoryMachine::Options opt = FleetOptions(9, 4, 2);
    opt.fault_plan = "crash@2ms-3ms:node=2";
    opt.metrics.enabled = true;
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>(
        r.total_ops, r.fleet_degraded_reads, r.fleet_slots_rebuilt, r.faults);
  };
  EXPECT_EQ(run(), run());
}

TEST(FleetIntegrationTest, PlanTargetingNodeOutsideFleetIsRejected) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(3, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=7";
  EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument);
}

TEST(FleetIntegrationTest, SingleNodeMachineRejectsNodeTargetedPlans) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = 1;
  opt.fault_plan = "crash@2ms-3ms:node=1";
  EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument);
}

// The crash/recover transitions themselves are traced from SetAvailable, so
// a fleet chaos run carries them (and the crash-episode metric counts them).
TEST(FleetIntegrationTest, CrashEpisodeMetricCountsPerNodeTransitions) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(11, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=1;crash@5ms-6ms:node=3";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.memnode_crashes, 2u);
  ASSERT_NE(m.fleet(), nullptr);
  EXPECT_EQ(m.fleet()->node(1).crash_episodes(), 1u);
  EXPECT_EQ(m.fleet()->node(3).crash_episodes(), 1u);
  EXPECT_EQ(m.fleet()->node(0).crash_episodes(), 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

}  // namespace
}  // namespace magesim
