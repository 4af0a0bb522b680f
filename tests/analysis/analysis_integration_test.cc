// End-to-end analyzer integration: a full FarMemoryMachine run under the
// default abort posture must complete clean, populate the RunResult and
// metrics surfaces, and pass the invariant checker's lock-quiescence rule.
#include <gtest/gtest.h>

#include <string>

#include "src/analysis/lock_analyzer.h"
#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/sim/sync.h"
#include "src/workloads/seqscan.h"
#include "tests/scoped_env.h"

namespace magesim {
namespace {

TEST(AnalysisIntegrationTest, CleanRunUnderAbortPosture) {
  SeqScanWorkload wl(
      SeqScanWorkload::Options{.region_pages = 2048, .threads = 2, .passes = 2});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  opt.analysis.enabled = true;  // default abort_on_violation: any bug aborts
  opt.check_final = true;
  opt.metrics.enabled = true;

  FarMemoryMachine m(opt, wl);
  ASSERT_NE(m.analyzer(), nullptr);
  RunResult r = m.Run();

  EXPECT_EQ(r.analysis_violations, 0u);
  EXPECT_TRUE(r.analysis_first_violation.empty());
  EXPECT_GT(r.analysis_locks, 0u);
  EXPECT_GT(r.faults, 0u);  // the scenario actually paged

  // Metrics surface.
  ASSERT_NE(m.metrics(), nullptr);
  EXPECT_EQ(m.metrics()->Counter("analysis.violations").value(), 0u);
  EXPECT_EQ(m.metrics()->Counter("analysis.locks").value(), r.analysis_locks);
  EXPECT_NE(m.run_report_json().find("\"analysis\""), std::string::npos);

  // Lock state is quiescent after the drain: the checker's rule passes.
  ASSERT_NE(m.checker(), nullptr);
  uint64_t before = m.checker()->total_violations();
  m.checker()->CheckLockQuiescence();
  EXPECT_EQ(m.checker()->total_violations(), before);
  EXPECT_TRUE(m.analyzer()->QuiescenceReport().empty());
}

TEST(AnalysisIntegrationTest, CheckerReportsHeldLockAtQuiescence) {
  SeqScanWorkload wl(
      SeqScanWorkload::Options{.region_pages = 512, .threads = 1, .passes = 1});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  opt.analysis.enabled = true;
  opt.analysis.abort_on_violation = false;  // capture mode for the seeded bug
  opt.check_final = true;

  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.analysis_violations, 0u);

  // Seeded bug: a lock acquired and never released. The analyzer is still
  // installed (owned by the machine), so the checker's quiescence rule
  // must name it.
  SimMutex leaked("leaked-lock");
  ASSERT_TRUE(leaked.TryLock());
  uint64_t added = m.checker()->CheckLockQuiescence();
  EXPECT_EQ(added, 1u);
  ASSERT_FALSE(m.checker()->violations().empty());
  const Violation& v = m.checker()->violations().back();
  EXPECT_EQ(v.cls, ViolationClass::kLockQuiescence);
  EXPECT_NE(v.message.find("'leaked-lock'"), std::string::npos) << v.message;
  leaked.Unlock();
}

TEST(AnalysisIntegrationTest, EnvVarForceEnablesAnalyzer) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  {
    ScopedEnv env({{"MAGESIM_ANALYSIS", "1"}});
    FarMemoryMachine::Options on = opt;
    on.analysis.enabled = false;
    ApplyEnvOverrides(&on);
    SeqScanWorkload wl(
        SeqScanWorkload::Options{.region_pages = 256, .threads = 1, .passes = 1});
    FarMemoryMachine m(on, wl);
    EXPECT_NE(m.analyzer(), nullptr);
  }
  {
    // "0" disables, overriding an enabled (e.g. analysis-build) default.
    ScopedEnv env({{"MAGESIM_ANALYSIS", "0"}});
    FarMemoryMachine::Options off = opt;
    off.analysis.enabled = true;
    ApplyEnvOverrides(&off);
    SeqScanWorkload wl(
        SeqScanWorkload::Options{.region_pages = 256, .threads = 1, .passes = 1});
    FarMemoryMachine m(off, wl);
    EXPECT_EQ(m.analyzer(), nullptr);
  }
}

}  // namespace
}  // namespace magesim
